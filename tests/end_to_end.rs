//! Cross-crate integration: Aspen source → resolved specs → CGPMAC
//! models → DVF report, checked against hand computations and against
//! the cache simulator.

use dvf::aspen::{parse, Resolver};
use dvf::cachesim::{simulate, MemRef, Trace};
use dvf::core::workflow::{account_accesses, cache_config_of, evaluate, evaluate_source};

const FULL_STACK: &str = r#"
    param n = 4096

    machine small {
      cache { associativity = 4  sets = 64  line = 32  capacity = 8 * KiB }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }

    machine big {
      cache { associativity = 16  sets = 4096  line = 64 }
      memory { ecc = chipkill }
    }

    model app {
      data A { size = n * 8  element = 8 }
      data H { size = 64 * KiB  element = 16 }
      kernel sweep {
        flops = 4 * n
        access A as streaming()
        access H as random(k = 32, iters = 1000)
      }
    }
"#;

#[test]
fn dsl_to_dvf_pipeline() {
    let doc = parse(FULL_STACK).expect("parses");
    let resolver = Resolver::new(&doc);
    let app = resolver.model(None).expect("model resolves");
    let small = resolver.machine(Some("small")).expect("small resolves");
    let big = resolver.machine(Some("big")).expect("big resolves");

    let report_small = evaluate(&app, &small).expect("evaluates");
    let report_big = evaluate(&app, &big).expect("evaluates");

    // The random structure H (64 KiB) thrashes the 8 KB cache but fits
    // 4 MB: its vulnerability must collapse on the big machine even
    // before the FIT difference.
    let acc_small = account_accesses(&app, &small).unwrap();
    let acc_big = account_accesses(&app, &big).unwrap();
    // `n_ha` is in declaration order: A, H.
    assert!(acc_small.n_ha[1] > 10.0 * acc_big.n_ha[1]);

    // Chipkill's FIT (0.02) vs none (5000) pushes DVF down dramatically.
    assert!(report_big.dvf_app() < report_small.dvf_app() / 1000.0);
}

#[test]
fn model_agrees_with_simulator_on_streaming() {
    // Build the same streaming access the DSL describes, replay through
    // the simulator, and check the workflow's N_ha matches.
    let doc = parse(FULL_STACK).expect("parses");
    let resolver = Resolver::new(&doc);
    let app = resolver.model(None).unwrap();
    let machine = resolver.machine(Some("small")).unwrap();
    let config = cache_config_of(&machine).unwrap();
    let acc = account_accesses(&app, &machine).unwrap();

    let mut trace = Trace::new();
    let a = trace.registry.register("A");
    for i in 0..4096u64 {
        trace.push(MemRef::read(a, i * 8));
    }
    let sim = simulate(&trace, config);
    let modeled = acc.n_ha[0];
    let measured = sim.ds(a).misses as f64;
    let err = (modeled - measured).abs() / measured;
    assert!(err < 0.01, "streaming model off by {}%", err * 100.0);
}

#[test]
fn parameter_overrides_change_everything_consistently() {
    let small = evaluate_source(FULL_STACK, Some("small"), None, &[]).unwrap();
    let big_n = evaluate_source(FULL_STACK, Some("small"), None, &[("n", 40_960.0)]).unwrap();
    // 10x the data: N_error scales with size, N_ha with accesses; DVF of A
    // grows superlinearly (size and accesses both grow).
    let a_small = small.dvf_of("A").unwrap();
    let a_big = big_n.dvf_of("A").unwrap();
    assert!(a_big > 50.0 * a_small, "ratio {}", a_big / a_small);
}

#[test]
fn pretty_printed_source_evaluates_identically() {
    let doc = parse(FULL_STACK).unwrap();
    let printed = dvf::aspen::pretty(&doc);
    let r1 = evaluate_source(FULL_STACK, Some("small"), None, &[]).unwrap();
    let r2 = evaluate_source(&printed, Some("small"), None, &[]).unwrap();
    assert_eq!(r1.dvf_app(), r2.dvf_app());
    assert_eq!(r1.time_s, r2.time_s);
}

#[test]
fn dvf_report_invariants() {
    let report = evaluate_source(FULL_STACK, Some("small"), None, &[]).unwrap();
    // DVF_a equals the sum of its parts (Eq. 2) and every part is finite
    // and nonnegative.
    let sum: f64 = report.structures.iter().map(|(_, v)| *v).sum();
    assert_eq!(report.dvf_app(), sum);
    for (p, v) in &report.structures {
        assert!(v.is_finite() && *v >= 0.0, "{}: DVF = {v}", p.name);
    }
    assert!(report.time_s > 0.0);
}
