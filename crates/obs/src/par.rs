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
//! A loop whose items arrive one after another — a kernel's reference
//! stream, chunk by chunk — overlaps with its consumer through a
//! [`Stage`] instead: a second thread that owns the consumer's state and
//! handles the items in the order they were sent.
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

/// Items a [`Stage`] holds at most: one queued and one being handled.
const STAGE_DEPTH: usize = 2;

/// The second stage of a two-stage pipeline, on its own thread.
///
/// [`Stage::spawn`] moves `state` to a new thread, which runs
/// `f(&mut state, &item)` on every item [`send`](Stage::send) hands it,
/// in send order, and then hands the item back for reuse. The channel
/// holds one item, so the stage holds at most two (one queued, one being
/// handled) and a sender that refills what `send` returns keeps at most
/// three alive. [`finish`](Stage::finish) closes the channel, joins the
/// thread and returns the state.
///
/// A panic in `f` ends the thread; the next `send` or `finish` re-raises
/// its payload on the caller with [`std::panic::resume_unwind`]. Dropping
/// a stage without `finish` (say, while the sender unwinds) closes the
/// channel and joins the thread, so no thread outlives its stage.
///
/// ```
/// use dvf_obs::par::Stage;
///
/// let mut stage = Stage::spawn(0u64, |sum, chunk: &Vec<u64>| *sum += chunk.iter().sum::<u64>());
/// let mut chunk = Vec::new();
/// for start in [0u64, 10, 20] {
///     chunk.extend(start..start + 10);
///     chunk = stage.send(chunk).unwrap_or_default();
///     chunk.clear();
/// }
/// assert_eq!(stage.finish(), (0..30).sum::<u64>());
/// ```
pub struct Stage<T, S> {
    to: Option<std::sync::mpsc::SyncSender<T>>,
    back: std::sync::mpsc::Receiver<T>,
    worker: Option<std::thread::JoinHandle<S>>,
    /// Items sent and not yet handed back.
    out: usize,
}

impl<T: Send + 'static, S: Send + 'static> Stage<T, S> {
    /// Move `state` to a new thread that runs `f` on every sent item.
    pub fn spawn<F>(state: S, mut f: F) -> Self
    where
        F: FnMut(&mut S, &T) + Send + 'static,
    {
        let (to, inbox) = std::sync::mpsc::sync_channel::<T>(STAGE_DEPTH - 1);
        let (done, back) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut state = state;
            for item in inbox {
                f(&mut state, &item);
                if done.send(item).is_err() {
                    break;
                }
            }
            state
        });
        Self {
            to: Some(to),
            back,
            worker: Some(worker),
            out: 0,
        }
    }

    /// Queue `item` behind the one being handled, blocking while another
    /// is already queued, and return an item the stage is done with, if
    /// one is back. Once more than two are out it waits for one, so a
    /// sender that reuses what comes back never holds more than three.
    pub fn send(&mut self, item: T) -> Option<T> {
        let to = self.to.as_ref().expect("a stage is open until finish");
        if to.send(item).is_err() {
            self.reraise();
        }
        self.out += 1;
        let back = if self.out > STAGE_DEPTH {
            match self.back.recv() {
                Ok(item) => Some(item),
                Err(_) => self.reraise(),
            }
        } else {
            self.back.try_recv().ok()
        };
        self.out -= usize::from(back.is_some());
        back
    }

    /// Wait for every sent item to be handled and return the state.
    pub fn finish(mut self) -> S {
        self.join()
    }

    /// The thread hung up: join it and re-raise its panic.
    fn reraise(&mut self) -> ! {
        self.join();
        panic!("pipeline stage exited while its sender was open")
    }

    /// Close the channel, join the thread and return its state, or
    /// re-raise its panic.
    fn join(&mut self) -> S {
        self.to = None;
        let worker = self.worker.take().expect("a stage joins once");
        worker
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

impl<T, S> Drop for Stage<T, S> {
    fn drop(&mut self) {
        self.to = None;
        if let Some(worker) = self.worker.take() {
            // The sender is already unwinding or has dropped the stage
            // unfinished; the thread's own panic, if any, adds nothing.
            let _ = worker.join();
        }
    }
}

impl<T, S> std::fmt::Debug for Stage<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stage")
            .field("out", &self.out)
            .field("open", &self.to.is_some())
            .finish()
    }
}
