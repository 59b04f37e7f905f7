//! Ordered scoped-thread fan-out.
//!
//! Every embarrassingly parallel loop in the toolchain — sweep points,
//! cache-geometry replays, fault-injection trials, trace-block decode,
//! the fused record→simulate chunks — has the same shape: a slice of
//! independent items, a pure per-item function, results wanted in input
//! order. [`map`] and [`map_mut`] are that shape, written once:
//!
//! * the slice is split into at most `workers` **contiguous** chunks, one
//!   scoped thread each, and the per-chunk results are concatenated in
//!   chunk order, so the output is in input order whatever the schedule;
//! * with one worker or at most one item the loop runs **inline** on the
//!   calling thread — no spawn — so single-job callers pay nothing;
//! * a panicking worker's payload is re-raised on the caller with
//!   [`std::panic::resume_unwind`], after every other worker has
//!   finished.
//!
//! Each call adds its item count to the `par.items` counter and the number
//! of threads it ran on (1 when inline) to `par.workers`.
//!
//! ```
//! let squares = dvf_obs::par::map(&[1u64, 2, 3, 4, 5], 2, |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

/// One worker per core: `available_parallelism`, or 1 when unknown.
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item on up to `workers` scoped threads and return
/// the results in input order. `workers == 0` is treated as 1.
pub fn map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match chunk_len(items.len(), workers) {
        None => items.iter().map(f).collect(),
        Some(per) => fan_out(items.len(), items.chunks(per), |chunk| {
            chunk.iter().map(&f).collect()
        }),
    }
}

/// [`map`] over mutable items: each item is handed to exactly one worker.
pub fn map_mut<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    match chunk_len(items.len(), workers) {
        None => items.iter_mut().map(f).collect(),
        Some(per) => fan_out(items.len(), items.chunks_mut(per), |chunk| {
            chunk.iter_mut().map(&f).collect()
        }),
    }
}

/// Items per worker chunk, or `None` when the call runs inline; counts
/// the call under `par.items` / `par.workers` either way.
fn chunk_len(len: usize, workers: usize) -> Option<usize> {
    let workers = workers.clamp(1, len.max(1));
    let per = len.div_ceil(workers).max(1);
    crate::add("par.items", len as u64);
    crate::add("par.workers", len.div_ceil(per).max(1) as u64);
    (workers > 1).then_some(per)
}

/// Run one scoped thread per chunk and concatenate their results in chunk
/// order, re-raising the first (in chunk order) worker panic.
fn fan_out<C, R, W>(len: usize, chunks: impl Iterator<Item = C>, work: W) -> Vec<R>
where
    C: Send,
    R: Send,
    W: Fn(C) -> Vec<R> + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}
