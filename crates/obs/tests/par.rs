//! The ordered fan-out: input order at every worker count, the inline
//! edge cases, panic propagation, and the `par.*` counters.

use dvf_obs::par;

#[test]
fn results_keep_input_order_at_every_worker_count() {
    let items: Vec<u64> = (0..1000).collect();
    let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
    for workers in [0, 1, 2, 7, 5000] {
        assert_eq!(
            par::map(&items, workers, |&x| x * x + 1),
            expected,
            "{workers} workers"
        );
    }
}

#[test]
fn more_workers_than_items_still_covers_every_item_once() {
    let items = [3u32, 1, 4];
    for workers in [4, 7, 64] {
        assert_eq!(par::map(&items, workers, |&x| x * 10), vec![30, 10, 40]);
    }
}

#[test]
fn empty_and_single_item_inputs() {
    let empty: [u8; 0] = [];
    for workers in [0, 1, 2, 7] {
        assert!(par::map(&empty, workers, |&x| x).is_empty());
        assert_eq!(par::map(&[41u8], workers, |&x| x + 1), vec![42]);
    }
}

#[test]
fn single_worker_and_single_item_run_on_the_calling_thread() {
    let me = std::thread::current().id();
    assert!(
        par::map(&[1, 2, 3], 1, |_| std::thread::current().id() == me)
            .into_iter()
            .all(|same| same)
    );
    assert_eq!(
        par::map(&[1], 8, |_| std::thread::current().id() == me),
        vec![true]
    );
}

#[test]
fn map_mut_updates_every_item_in_place_in_order() {
    for workers in [0, 1, 2, 7, 100] {
        let mut items: Vec<u64> = (0..37).collect();
        let olds = par::map_mut(&mut items, workers, |x| {
            let old = *x;
            *x *= 3;
            old
        });
        assert_eq!(olds, (0..37).collect::<Vec<u64>>(), "{workers} workers");
        assert_eq!(
            items,
            (0..37).map(|x| x * 3).collect::<Vec<u64>>(),
            "{workers} workers"
        );
    }
}

#[test]
fn a_worker_panic_reaches_the_caller_with_its_payload() {
    let items: Vec<u32> = (0..16).collect();
    for workers in [1, 2, 7] {
        let caught = std::panic::catch_unwind(|| {
            par::map(&items, workers, |&x| {
                if x == 11 {
                    panic!("trial 11 failed");
                }
                x
            })
        })
        .expect_err("the panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| caught.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("trial 11 failed"), "{workers} workers");
    }
}

#[test]
fn calls_are_counted_under_par_items_and_workers() {
    // A per-request trace is thread-local, so other tests running
    // concurrently cannot leak into these deltas.
    let trace = dvf_obs::trace::begin(1);
    par::map(&[1, 2, 3, 4, 5], 2, |&x| x);
    par::map(&[1, 2, 3], 1, |&x| x);
    let done = trace.finish().expect("trace was active");
    assert_eq!(done.delta("par.items"), Some(8));
    assert_eq!(done.delta("par.workers"), Some(2 + 1));
}
