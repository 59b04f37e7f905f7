//! Source-level memory-reference recording.
//!
//! The paper collects per-data-structure memory references with a Pin-based
//! binary instrumentation tool (§IV). Pin is closed-source and x86-only, so
//! this crate instruments the kernels at the source level instead: every
//! major data structure lives in a [`TrackedBuffer`], and each element read
//! or write appends a reference to the shared [`Recorder`]. The result is
//! the same logical stream a `MEMTRACE`-style Pintool would emit — the
//! (data structure, address, read/write) sequence — which is exactly what
//! the cache simulator consumes for model verification (Fig. 4).
//!
//! Recording can be paused (`set_enabled(false)`) to skip initialization
//! and finalization phases, matching the paper: "we focus on the major
//! computation parts of the algorithms, and ignore initialization and
//! finalization phases".

use dvf_cachesim::{
    AccessKind, CacheHierarchy, DsId, DsRegistry, HierarchyConfig, HierarchyReport, MemRef, SimJob,
    SimReport, Simulator, Trace,
};
use dvf_obs::par::Stage;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Anything that can consume a recorded reference stream.
///
/// Implemented by [`Trace`] (buffer everything — the original behavior),
/// by [`Simulator`] and [`CacheHierarchy`] (replay on the fly, so a
/// kernel's references go straight through the cache model without ever
/// materializing the whole `Vec<MemRef>`), by [`Fanout`] (the fused
/// record→simulate pipeline over many models) and by a pair `(A, B)` of
/// sinks (both see the whole stream, in order).
///
/// A streaming [`Recorder`] hands references over in batches of up to
/// 4096 through [`emit_all`](TraceSink::emit_all), and the last partial
/// batch when its final handle drops. A sink therefore sees every
/// reference in program order, but only after the recorder has gathered
/// a batch of them, or been dropped.
pub trait TraceSink {
    /// Consume one reference.
    fn emit(&mut self, r: MemRef);

    /// Consume a run of references, in order. The default emits them one
    /// at a time; sinks that take slices natively override it.
    fn emit_all(&mut self, refs: &[MemRef]) {
        for &r in refs {
            self.emit(r);
        }
    }
}

impl TraceSink for Trace {
    fn emit(&mut self, r: MemRef) {
        self.push(r);
    }

    fn emit_all(&mut self, refs: &[MemRef]) {
        self.refs.extend_from_slice(refs);
    }
}

impl TraceSink for Simulator {
    fn emit(&mut self, r: MemRef) {
        self.access(r);
    }

    /// The filtered replay loop; per-reference `access` is its oracle, so
    /// the results are the same.
    fn emit_all(&mut self, refs: &[MemRef]) {
        self.run(refs);
    }
}

impl TraceSink for CacheHierarchy {
    fn emit(&mut self, r: MemRef) {
        self.access(r);
    }

    fn emit_all(&mut self, refs: &[MemRef]) {
        self.replay(refs);
    }
}

/// Two sinks off one stream: each takes every batch, the first before the
/// second, so each computes exactly what it would have alone. This is how
/// the learned-predictor pipeline rides the fused pass: a [`Fanout`]
/// produces simulator ground truth while a featurizer consumes the same
/// references.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    fn emit(&mut self, r: MemRef) {
        self.0.emit(r);
        self.1.emit(r);
    }

    fn emit_all(&mut self, refs: &[MemRef]) {
        self.0.emit_all(refs);
        self.1.emit_all(refs);
    }
}

/// References buffered per [`Fanout`] replay chunk (1 MiB of `MemRef`s):
/// large enough to amortize the hand-off between the recording and the
/// replay thread and to keep each model in its prefetching replay loop.
const FANOUT_CHUNK: usize = 65_536;

/// Fan-out sink driving a whole grid of cache models straight from kernel
/// recording — the *fused* record→simulate path.
///
/// This sink copies batches into chunks and replays them in a two-stage
/// pipeline. The kernel keeps recording into one chunk on the calling
/// thread while a replay thread ([`dvf_obs::par::Stage`]), which owns the
/// models, hands the previous chunk to each model's
/// [`emit_all`](TraceSink::emit_all) with [`dvf_obs::par::map_mut`] (one
/// worker per core; a single model replays on the replay thread itself).
/// Models are `Send + 'static` because the replay thread takes them over.
/// Full chunks queue one deep and replayed chunks come back for reuse, so
/// a fan-out holds at most three chunks (3 MiB) however many models it
/// drives — and no trace file at all.
///
/// Flat caches and hierarchies take this same path, and the recording
/// thread replays nothing itself: recording the CG kernel and replaying
/// its trace through one flat cache take about as long as each other
/// (DESIGN.md §8.2), so neither stage should take on the other's work.
///
/// A stream no longer than one chunk starts no thread: it replays on the
/// calling thread at [`finish`](Fanout::finish). So does every stream
/// when only one core is available.
///
/// Every model sees every chunk in order, so the models it returns report
/// bit-identically to buffering a [`Trace`] and replaying it through
/// [`dvf_cachesim::simulate_many`] or
/// [`dvf_cachesim::simulate_hierarchy_many`]. A panic in a model's replay
/// is re-raised on the recording thread with its original payload, at the
/// next chunk hand-off or at `finish`; dropping the fan-out unfinished
/// (say, while a panicking kernel unwinds) joins the replay thread.
///
/// With instrumentation on, each replayed chunk adds 1 to `fanout.chunks`
/// and the time the recording thread waited for the replay thread (a full
/// queue, or the final join) to `fanout.record_wait_us`: a wait near zero
/// means recording bounds the pipeline, a wait near the whole run means
/// replay does.
#[derive(Debug)]
pub struct Fanout<S: TraceSink + Send + 'static> {
    /// The models, until the replay thread takes them over.
    models: Vec<S>,
    replay: Option<Stage<Vec<MemRef>, Vec<S>>>,
    buf: Vec<MemRef>,
    workers: usize,
}

impl<S: TraceSink + Send + 'static> Fanout<S> {
    /// Fan-out over `models`; [`finish`](Fanout::finish) returns them in
    /// this order.
    pub fn new(models: Vec<S>) -> Self {
        Self::with_workers(models, dvf_obs::par::available())
    }

    /// Fan-out replaying each chunk on up to `workers` threads; with one
    /// worker everything runs on the calling thread.
    fn with_workers(models: Vec<S>, workers: usize) -> Self {
        Self {
            models,
            replay: None,
            buf: Vec::with_capacity(FANOUT_CHUNK),
            workers,
        }
    }

    /// Replay the full chunk: inline with one worker, else on the replay
    /// thread (started by the first chunk) while recording carries on in
    /// a chunk that thread has finished with, or a new one.
    fn flush_chunk(&mut self) {
        dvf_obs::add("fanout.chunks", 1);
        if self.workers <= 1 {
            replay_chunk(&mut self.models, &self.buf, 1);
            self.buf.clear();
            return;
        }
        let workers = self.workers;
        let models = &mut self.models;
        let replay = self.replay.get_or_insert_with(|| {
            Stage::spawn(
                std::mem::take(models),
                move |models, chunk: &Vec<MemRef>| {
                    replay_chunk(models, chunk, workers);
                },
            )
        });
        let wait = Instant::now();
        let spare = replay.send(std::mem::take(&mut self.buf));
        record_wait(wait);
        self.buf = spare.unwrap_or_else(|| Vec::with_capacity(FANOUT_CHUNK));
        self.buf.clear();
    }

    /// Replay the final partial chunk and return the models, in order,
    /// each having seen the whole stream.
    pub fn finish(mut self) -> Vec<S> {
        match self.replay.take() {
            None => {
                if !self.buf.is_empty() {
                    dvf_obs::add("fanout.chunks", 1);
                    replay_chunk(&mut self.models, &self.buf, self.workers);
                }
                self.models
            }
            Some(mut replay) => {
                let wait = Instant::now();
                if !self.buf.is_empty() {
                    dvf_obs::add("fanout.chunks", 1);
                    replay.send(self.buf);
                }
                let models = replay.finish();
                record_wait(wait);
                models
            }
        }
    }
}

/// Replay one chunk through every model, on up to `workers` threads.
fn replay_chunk<S: TraceSink + Send>(models: &mut [S], chunk: &[MemRef], workers: usize) {
    dvf_obs::par::map_mut(models, workers, |m| m.emit_all(chunk));
}

/// Add the time since `since` to `fanout.record_wait_us`.
fn record_wait(since: Instant) {
    dvf_obs::add("fanout.record_wait_us", since.elapsed().as_micros() as u64);
}

impl<S: TraceSink + Send + 'static> TraceSink for Fanout<S> {
    #[inline]
    fn emit(&mut self, r: MemRef) {
        self.emit_all(std::slice::from_ref(&r));
    }

    fn emit_all(&mut self, mut refs: &[MemRef]) {
        while !refs.is_empty() {
            // Flush before the copy, not after: a stream of exactly one
            // chunk then replays at `finish` without starting a thread.
            if self.buf.len() == FANOUT_CHUNK {
                self.flush_chunk();
            }
            let (now, rest) = refs.split_at(refs.len().min(FANOUT_CHUNK - self.buf.len()));
            self.buf.extend_from_slice(now);
            refs = rest;
        }
    }
}

/// Run a recording closure with a streaming [`Recorder`] into `sink` and
/// return the registry the kernel declared plus the sink, which has taken
/// every reference by then.
///
/// ```
/// use dvf_cachesim::Trace;
/// use dvf_kernels::recorder::record_into;
///
/// let (registry, trace) = record_into(Trace::new(), |rec| {
///     rec.set_enabled(true);
///     let mut a = rec.buffer::<u64>("A", 4);
///     a.set(3, 1);
/// });
/// assert_eq!(trace.refs[0].ds, registry.id("A").unwrap());
/// ```
pub fn record_into<S: TraceSink + 'static, F: FnOnce(&Recorder)>(
    sink: S,
    run: F,
) -> (DsRegistry, S) {
    let sink = Rc::new(RefCell::new(sink));
    let rec = Recorder::streaming(sink.clone());
    run(&rec);
    let registry = rec.registry();
    drop(rec);
    let Ok(sink) = Rc::try_unwrap(sink) else {
        panic!("kernel closure must drop its tracked buffers and recorder clones");
    };
    (registry, sink.into_inner())
}

/// Run a recording closure with a [`Fanout`] over one hierarchy per
/// config — the fused record→hierarchy pipeline: references stream
/// chunk-by-chunk into every hierarchy, and no `Trace` (let alone a trace
/// file) is materialized.
pub fn record_hierarchy_fanout<F: FnOnce(&Recorder)>(
    configs: &[HierarchyConfig],
    run: F,
) -> (DsRegistry, Vec<HierarchyReport>) {
    let models = configs
        .iter()
        .map(|c| CacheHierarchy::from_config(c.clone()))
        .collect();
    let (registry, fanout) = record_into(Fanout::new(models), run);
    let reports = fanout.finish().into_iter();
    (registry, reports.map(CacheHierarchy::into_report).collect())
}

/// Run a recording closure with a [`Fanout`] over one [`Simulator`] per
/// job and return the registry the kernel declared plus one report per
/// job.
///
/// This is the fused pipeline in one call: the kernel's references stream
/// chunk-by-chunk into every simulator, and no `Trace` (let alone a trace
/// file) is ever materialized.
///
/// ```
/// use dvf_cachesim::{CacheConfig, SimJob};
/// use dvf_kernels::recorder::record_fanout;
///
/// let jobs = [
///     SimJob::lru(CacheConfig::new(4, 64, 32).unwrap()),
///     SimJob::lru(CacheConfig::new(8, 512, 64).unwrap()),
/// ];
/// let (registry, reports) = record_fanout(&jobs, |rec| {
///     rec.set_enabled(true);
///     let mut a = rec.buffer::<u64>("A", 512);
///     for i in 0..512 {
///         a.set(i, i as u64);
///     }
/// });
/// let a = registry.id("A").unwrap();
/// assert_eq!(reports.len(), 2);
/// assert!(reports[0].ds(a).misses > 0);
/// ```
pub fn record_fanout<F: FnOnce(&Recorder)>(
    jobs: &[SimJob],
    run: F,
) -> (DsRegistry, Vec<SimReport>) {
    let models = jobs
        .iter()
        .map(|j| Simulator::with_policy(j.config, j.policy))
        .collect();
    let (registry, fanout) = record_into(Fanout::new(models), run);
    let reports = fanout.finish().into_iter();
    (registry, reports.map(Simulator::finish).collect())
}

/// References a streaming recorder gathers before it hands them to its
/// sink (64 KiB of `MemRef`s): one sink borrow and one `dyn` call per
/// batch instead of per reference.
const SINK_BATCH: usize = 4096;

/// Shared recording state.
#[derive(Default)]
struct Shared {
    trace: Trace,
    enabled: bool,
    next_base: u64,
    /// Streaming destination; when set, references bypass `trace.refs`
    /// (the registry in `trace` still names the tracked buffers).
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Recorded references not yet handed to `sink`.
    pending: Vec<MemRef>,
    /// References handed to `sink` so far, or on their way to it.
    handed: u64,
}

impl Shared {
    /// Hand the full pending batch to the sink. The recorder borrow is
    /// released first, so the sink is free to touch the recorder (e.g. a
    /// diagnostic sink reading `len`); the batch's storage comes back for
    /// the next one.
    #[cold]
    #[inline(never)]
    fn flush(cell: &RefCell<Self>) {
        let mut shared = cell.borrow_mut();
        let sink = shared
            .sink
            .clone()
            .expect("only a streaming recorder batches");
        let mut batch = std::mem::take(&mut shared.pending);
        shared.handed += batch.len() as u64;
        drop(shared);
        sink.borrow_mut().emit_all(&batch);
        batch.clear();
        cell.borrow_mut().pending = batch;
    }
}

impl Drop for Shared {
    /// The last handle is gone: hand the sink what is still pending. Not
    /// while unwinding: a [`Fanout`] may re-raise a model's panic from
    /// the hand-off, and a second panic would abort the process.
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            if !self.pending.is_empty() && !std::thread::panicking() {
                sink.borrow_mut().emit_all(&self.pending);
            }
        }
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("trace", &self.trace)
            .field("enabled", &self.enabled)
            .field("next_base", &self.next_base)
            .field("streaming", &self.sink.is_some())
            .field("pending", &self.pending.len())
            .field("handed", &self.handed)
            .finish()
    }
}

/// Collects the reference stream of one kernel execution.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    shared: Rc<RefCell<Shared>>,
}

/// Buffers are spaced on 4 KiB boundaries so distinct structures never
/// share a cache line.
const BUFFER_ALIGN: u64 = 4096;

impl Recorder {
    /// New recorder with recording **disabled** (enable it after
    /// initialization, as the paper does).
    pub fn new() -> Self {
        Self::default()
    }

    /// New recorder that streams every recorded reference into `sink`
    /// instead of buffering a [`Trace`], bounding memory for large runs.
    ///
    /// References reach the sink in batches of 4096; the last, partial
    /// batch arrives when the recorder and every tracked buffer have been
    /// dropped. Keep a clone of the sink `Rc` to recover results
    /// afterwards, once they are:
    ///
    /// ```
    /// use dvf_cachesim::{CacheConfig, Simulator};
    /// use dvf_kernels::recorder::Recorder;
    /// use std::cell::RefCell;
    /// use std::rc::Rc;
    ///
    /// let sim = Rc::new(RefCell::new(Simulator::new(
    ///     CacheConfig::new(4, 64, 32).unwrap(),
    /// )));
    /// let rec = Recorder::streaming(sim.clone());
    /// rec.set_enabled(true);
    /// let mut buf = rec.buffer::<f64>("A", 8);
    /// buf.set(0, 1.0);
    /// drop((rec, buf)); // release the recorder's sink handle
    /// let report = Rc::try_unwrap(sim).ok().unwrap().into_inner().finish();
    /// assert_eq!(report.refs, 1);
    /// ```
    pub fn streaming(sink: Rc<RefCell<impl TraceSink + 'static>>) -> Self {
        let rec = Self::new();
        rec.shared.borrow_mut().sink = Some(sink);
        rec
    }

    /// Number of references recorded for the sink so far, whether handed
    /// over yet or still pending (0 when buffering).
    pub fn emitted(&self) -> u64 {
        let shared = self.shared.borrow();
        shared.handed + shared.pending.len() as u64
    }

    /// Names registered by tracked buffers so far (needed to label sink
    /// results in streaming mode, where `into_trace` would be empty).
    pub fn registry(&self) -> DsRegistry {
        self.shared.borrow().trace.registry.clone()
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.borrow_mut().enabled = enabled;
    }

    /// Whether references are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.borrow().enabled
    }

    /// Allocate a tracked buffer of `len` elements named `name`,
    /// zero-initialized (via `T::default()`).
    pub fn buffer<T: Copy + Default>(&self, name: &str, len: usize) -> TrackedBuffer<T> {
        self.buffer_from(name, vec![T::default(); len])
    }

    /// Allocate a tracked buffer taking ownership of existing data.
    pub fn buffer_from<T: Copy>(&self, name: &str, data: Vec<T>) -> TrackedBuffer<T> {
        let elem = std::mem::size_of::<T>().max(1) as u64;
        let mut shared = self.shared.borrow_mut();
        let ds = shared.trace.registry.register(name);
        let base = shared.next_base;
        let size = elem * data.len() as u64;
        shared.next_base = (base + size).div_ceil(BUFFER_ALIGN) * BUFFER_ALIGN + BUFFER_ALIGN;
        TrackedBuffer {
            data,
            base,
            elem,
            ds,
            shared: Rc::clone(&self.shared),
        }
    }

    /// Number of references buffered in this recorder's [`Trace`] so far.
    /// A streaming recorder buffers none, so this stays 0; count what it
    /// recorded for its sink with [`emitted`](Recorder::emitted).
    pub fn len(&self) -> usize {
        self.shared.borrow().trace.len()
    }

    /// Whether no reference is buffered (always true for a streaming
    /// recorder; see [`emitted`](Recorder::emitted)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extract the trace (consumes this handle's view; other clones keep
    /// appending to an empty trace afterwards, so finish the kernel first).
    pub fn into_trace(self) -> Trace {
        std::mem::take(&mut self.shared.borrow_mut().trace)
    }
}

/// A `Vec`-backed array whose element accesses are recorded.
///
/// Reads and writes go through [`get`]/[`set`] (or [`update`]); the raw
/// data is reachable untraced through [`raw`]/[`raw_mut`] for setup and
/// verification code.
///
/// [`get`]: TrackedBuffer::get
/// [`set`]: TrackedBuffer::set
/// [`update`]: TrackedBuffer::update
/// [`raw`]: TrackedBuffer::raw
/// [`raw_mut`]: TrackedBuffer::raw_mut
#[derive(Debug)]
pub struct TrackedBuffer<T> {
    data: Vec<T>,
    base: u64,
    elem: u64,
    ds: DsId,
    shared: Rc<RefCell<Shared>>,
}

impl<T: Copy> TrackedBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The data-structure id this buffer records under.
    pub fn ds(&self) -> DsId {
        self.ds
    }

    /// Virtual base address of element 0.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.elem * self.data.len() as u64
    }

    #[inline]
    fn record(&self, index: usize, kind: AccessKind) {
        let mut shared = self.shared.borrow_mut();
        if !shared.enabled {
            return;
        }
        let addr = self.base + index as u64 * self.elem;
        let r = MemRef::new(self.ds, addr, kind);
        if shared.sink.is_none() {
            shared.trace.push(r);
            return;
        }
        shared.pending.push(r);
        if shared.pending.len() == SINK_BATCH {
            drop(shared);
            Shared::flush(&self.shared);
        }
    }

    /// Traced read of element `index`.
    #[inline]
    pub fn get(&self, index: usize) -> T {
        self.record(index, AccessKind::Read);
        self.data[index]
    }

    /// Traced write of element `index`.
    #[inline]
    pub fn set(&mut self, index: usize, value: T) {
        self.record(index, AccessKind::Write);
        self.data[index] = value;
    }

    /// Traced read-modify-write (one read + one write reference).
    #[inline]
    pub fn update(&mut self, index: usize, f: impl FnOnce(T) -> T) {
        let v = self.get(index);
        self.set(index, f(v));
    }

    /// Untraced view of the data (setup / checksums).
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Untraced mutable view of the data (setup).
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_reads_and_writes_with_addresses() {
        let rec = Recorder::new();
        let mut buf = rec.buffer::<f64>("A", 16);
        rec.set_enabled(true);
        buf.set(0, 1.5);
        let v = buf.get(0);
        assert_eq!(v, 1.5);
        buf.update(2, |x| x + 1.0);
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 4); // W, R, R, W
        assert_eq!(trace.refs[0].kind, AccessKind::Write);
        assert_eq!(trace.refs[0].addr, buf.base());
        assert_eq!(trace.refs[2].addr, buf.base() + 16); // element 2 * 8 B
        assert_eq!(trace.registry.name(trace.refs[0].ds), "A");
    }

    #[test]
    fn disabled_recording_traces_nothing() {
        let rec = Recorder::new();
        let mut buf = rec.buffer::<u32>("A", 4);
        buf.set(1, 7);
        let _ = buf.get(1);
        assert!(rec.is_empty());
        rec.set_enabled(true);
        let _ = buf.get(1);
        assert_eq!(rec.len(), 1);
        rec.set_enabled(false);
        let _ = buf.get(1);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn buffers_do_not_overlap() {
        let rec = Recorder::new();
        let a = rec.buffer::<f64>("A", 1000);
        let b = rec.buffer::<f64>("B", 1000);
        assert!(a.base() + a.size_bytes() <= b.base());
        // 4 KiB alignment keeps structures on distinct lines/pages.
        assert_eq!(b.base() % 4096, 0);
    }

    #[test]
    fn buffer_from_keeps_data() {
        let rec = Recorder::new();
        let buf = rec.buffer_from("X", vec![1u8, 2, 3]);
        assert_eq!(buf.raw(), &[1, 2, 3]);
        assert_eq!(buf.size_bytes(), 3);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn raw_access_is_untraced() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let mut buf = rec.buffer::<u32>("A", 4);
        buf.raw_mut()[3] = 9;
        assert_eq!(buf.raw()[3], 9);
        assert!(rec.is_empty());
    }

    #[test]
    fn distinct_structures_distinct_ids() {
        let rec = Recorder::new();
        let a = rec.buffer::<u8>("A", 1);
        let b = rec.buffer::<u8>("B", 1);
        assert_ne!(a.ds(), b.ds());
    }

    #[test]
    fn streaming_into_simulator_matches_buffered_replay() {
        use dvf_cachesim::{simulate, CacheConfig, Simulator};

        fn kernel(rec: &Recorder) {
            rec.set_enabled(true);
            let mut a = rec.buffer::<f64>("A", 64);
            let b = rec.buffer::<f64>("B", 64);
            for i in 0..64 {
                let v = b.get(i);
                a.update(i, |x| x + v);
            }
        }

        let cfg = CacheConfig::new(4, 64, 32).unwrap();

        // Buffered: record the whole trace, then replay.
        let buffered = Recorder::new();
        kernel(&buffered);
        let trace = buffered.into_trace();
        let expected = simulate(&trace, cfg);

        // Streaming: references hit the simulator as the kernel runs.
        let sim = Rc::new(RefCell::new(Simulator::new(cfg)));
        let streamed = Recorder::streaming(sim.clone());
        kernel(&streamed);
        assert_eq!(streamed.emitted(), trace.len() as u64);
        assert!(streamed.is_empty(), "streaming must not buffer refs");
        let registry = streamed.registry();
        drop(streamed);
        let Ok(sim) = Rc::try_unwrap(sim) else {
            panic!("sole owner");
        };
        let report = sim.into_inner();
        let report = report.finish();

        assert_eq!(report.refs, expected.refs);
        assert_eq!(report.stats(), expected.stats());
        assert_eq!(registry.name(trace.refs[0].ds), "B");
    }

    /// Exactly `n` references over two structures, with reuse, misses
    /// and writebacks at the test geometries.
    fn mixed(rec: &Recorder, n: usize) {
        rec.set_enabled(true);
        let mut a = rec.buffer::<f64>("A", 700);
        let b = rec.buffer::<f64>("B", 300);
        for i in 0..n {
            match i % 3 {
                0 => drop(b.get(i % 300)),
                1 => drop(a.get(i * 7 % 700)),
                _ => a.set(i % 700, i as f64),
            }
        }
    }

    /// Enough references for three full chunks and a partial fourth, so
    /// the replay thread runs with a chunk queued behind the one it
    /// replays.
    const SEVERAL_CHUNKS: usize = 3 * FANOUT_CHUNK + 1234;

    /// Two line sizes and three policies; random replacement draws from
    /// per-set streams, so it checks that every model sees every chunk
    /// in order.
    fn flat_jobs() -> [SimJob; 4] {
        use dvf_cachesim::{CacheConfig, PolicyKind};
        let small = CacheConfig::new(4, 64, 32).unwrap();
        [
            SimJob::lru(small),
            SimJob::lru(CacheConfig::new(8, 512, 64).unwrap()),
            SimJob {
                config: small,
                policy: PolicyKind::Fifo,
            },
            SimJob {
                config: small,
                policy: PolicyKind::Random,
            },
        ]
    }

    fn hierarchy_configs() -> [HierarchyConfig; 2] {
        use dvf_cachesim::{CacheConfig, InclusionPolicy, LevelSpec, PolicyKind};
        let l1 = CacheConfig::new(2, 8, 32).unwrap();
        let llc = CacheConfig::new(4, 64, 32).unwrap();
        [
            HierarchyConfig::two_level(l1, llc).unwrap(),
            HierarchyConfig::new(vec![
                LevelSpec::new(l1).with_policy(PolicyKind::Fifo),
                LevelSpec::new(llc)
                    .with_inclusion(InclusionPolicy::Inclusive)
                    .with_prefetch(2),
            ])
            .unwrap(),
        ]
    }

    fn flat_models() -> Vec<Simulator> {
        flat_jobs()
            .iter()
            .map(|j| Simulator::with_policy(j.config, j.policy))
            .collect()
    }

    fn hierarchy_models() -> Vec<CacheHierarchy> {
        hierarchy_configs()
            .iter()
            .map(|c| CacheHierarchy::from_config(c.clone()))
            .collect()
    }

    fn buffered(n: usize) -> Trace {
        let rec = Recorder::new();
        mixed(&rec, n);
        rec.into_trace()
    }

    /// Record `n` references of [`mixed`] through a fan-out over `models`
    /// on `workers` threads and return the models once they have replayed
    /// them all.
    fn fused<S: TraceSink + Send + 'static>(models: Vec<S>, workers: usize, n: usize) -> Vec<S> {
        let (_, fanout) = record_into(Fanout::with_workers(models, workers), |rec| mixed(rec, n));
        fanout.finish()
    }

    fn flat_fused(workers: usize, n: usize) -> Vec<SimReport> {
        let models = fused(flat_models(), workers, n).into_iter();
        models.map(Simulator::finish).collect()
    }

    fn hierarchy_fused(workers: usize, n: usize) -> Vec<HierarchyReport> {
        let models = fused(hierarchy_models(), workers, n).into_iter();
        models.map(CacheHierarchy::into_report).collect()
    }

    /// Hierarchy reports have no `PartialEq`; their `Debug` rendering
    /// prints every counter.
    fn same_hierarchy_reports(fused: &[HierarchyReport], expected: &[HierarchyReport]) -> bool {
        format!("{fused:?}") == format!("{expected:?}")
    }

    #[test]
    fn fanout_matches_buffered_simulate_many() {
        use dvf_cachesim::simulate_many;

        let trace = buffered(SEVERAL_CHUNKS);
        let expected = simulate_many(&trace, &flat_jobs());

        let (registry, fused) = record_fanout(&flat_jobs(), |rec| mixed(rec, SEVERAL_CHUNKS));
        assert_eq!(fused, expected);
        assert_eq!(registry.id("A"), trace.registry.id("A"));
        assert_eq!(registry.id("B"), trace.registry.id("B"));
        for workers in [1, 2, 3] {
            let pinned = flat_fused(workers, SEVERAL_CHUNKS);
            assert_eq!(pinned, expected, "{workers} workers");
        }
    }

    #[test]
    fn hierarchy_fanout_matches_buffered_simulate_hierarchy_many() {
        use dvf_cachesim::simulate_hierarchy_many;

        let trace = buffered(SEVERAL_CHUNKS);
        let expected = simulate_hierarchy_many(&trace, &hierarchy_configs());

        let (registry, fused) =
            record_hierarchy_fanout(&hierarchy_configs(), |rec| mixed(rec, SEVERAL_CHUNKS));
        assert_eq!(registry.id("A"), trace.registry.id("A"));
        assert!(same_hierarchy_reports(&fused, &expected));
        for workers in [1, 2] {
            let pinned = hierarchy_fused(workers, SEVERAL_CHUNKS);
            assert!(
                same_hierarchy_reports(&pinned, &expected),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn fanout_matches_buffered_replay_at_chunk_boundaries() {
        use dvf_cachesim::{simulate_hierarchy_many, simulate_many};

        for k in [1, 2, 3] {
            for n in [k * FANOUT_CHUNK - 1, k * FANOUT_CHUNK, k * FANOUT_CHUNK + 1] {
                let trace = buffered(n);
                let flat = simulate_many(&trace, &flat_jobs());
                let hierarchy = simulate_hierarchy_many(&trace, &hierarchy_configs());
                for workers in [1, 2] {
                    let fused = flat_fused(workers, n);
                    assert_eq!(fused, flat, "{n} refs, {workers} workers");
                    assert_eq!(fused[0].refs, n as u64);
                    let fused = hierarchy_fused(workers, n);
                    assert!(
                        same_hierarchy_reports(&fused, &hierarchy),
                        "{n} refs, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn fanout_counts_chunks_and_record_wait() {
        // A per-request trace is thread-local, so concurrent tests cannot
        // leak into these deltas.
        for (n, chunks) in [(0, 0), (FANOUT_CHUNK, 1), (SEVERAL_CHUNKS, 4)] {
            let trace = dvf_obs::trace::begin(1);
            fused(flat_models(), 2, n);
            let done = trace.finish().expect("trace was active");
            assert_eq!(done.delta("fanout.chunks"), (chunks > 0).then_some(chunks));
            // Only a pipelined stream waits on its replay thread.
            assert_eq!(
                done.delta("fanout.record_wait_us").is_some(),
                chunks > 1,
                "{n} refs"
            );
        }
    }

    /// A model that counts what it replays, can be told to panic on a
    /// given chunk or to take a while over each, and counts its drops.
    #[derive(Debug)]
    struct Probe {
        chunks: usize,
        panic_on: Option<usize>,
        slow: bool,
        drops: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl TraceSink for Probe {
        fn emit(&mut self, _: MemRef) {
            unreachable!("a fan-out hands over chunks");
        }
        fn emit_all(&mut self, _refs: &[MemRef]) {
            self.chunks += 1;
            if self.slow {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            if self.panic_on == Some(self.chunks) {
                panic!("model failed on chunk {}", self.chunks);
            }
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            self.drops.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn probes(
        n: usize,
        panic_on: Option<usize>,
        slow: bool,
    ) -> (Vec<Probe>, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
        let drops = std::sync::Arc::default();
        let models = (0..n)
            .map(|i| Probe {
                chunks: 0,
                panic_on: panic_on.filter(|_| i == n - 1),
                slow,
                drops: std::sync::Arc::clone(&drops),
            })
            .collect();
        (models, drops)
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
    }

    #[test]
    fn a_panicking_model_replay_is_reraised_on_the_caller() {
        // Chunk 2 panics on the replay thread mid-stream; chunk 4 is the
        // final partial chunk, replayed at `finish`.
        for (panic_on, models) in [(2, 1), (2, 3), (4, 1), (4, 3)] {
            for workers in [1, 2, 3] {
                let (probes, drops) = probes(models, Some(panic_on), false);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fused(probes, workers, SEVERAL_CHUNKS)
                }))
                .expect_err("the model's panic must reach the caller");
                let want = format!("model failed on chunk {panic_on}");
                assert_eq!(panic_message(&*caught), Some(want.as_str()));
                // The replay thread was joined: every model is gone.
                assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), models);
            }
        }
    }

    #[test]
    fn a_panicking_kernel_neither_hangs_nor_leaves_the_replay_thread() {
        for workers in [1, 2, 3] {
            // Slow models keep the replay thread busy with queued chunks
            // when the kernel panics. The assertions hold in any
            // interleaving once the thread is joined; the delay only
            // makes a drop that did not join fail them.
            let (models, drops) = probes(3, None, true);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                record_into(Fanout::with_workers(models, workers), |rec| {
                    mixed(rec, SEVERAL_CHUNKS);
                    panic!("kernel failed");
                })
            }))
            .expect_err("the kernel's panic must reach the caller");
            assert_eq!(panic_message(&*caught), Some("kernel failed"));
            // The replay thread was joined before the unwind left
            // `record_into`: it has dropped every model it owned.
            assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn a_stream_of_one_chunk_replays_on_the_calling_thread() {
        struct Where(Option<std::thread::ThreadId>);
        impl TraceSink for Where {
            fn emit(&mut self, _: MemRef) {
                unreachable!("a fan-out hands over chunks");
            }
            fn emit_all(&mut self, _refs: &[MemRef]) {
                self.0 = Some(std::thread::current().id());
            }
        }
        let me = std::thread::current().id();
        for (n, inline) in [(FANOUT_CHUNK, true), (FANOUT_CHUNK + 1, false)] {
            let seen = fused(vec![Where(None)], 2, n);
            assert_eq!(seen[0].0 == Some(me), inline, "{n} refs");
        }
    }

    /// One step of [`drive`]: read, write or update a buffer, or flip
    /// recording on or off.
    type Op = (u8, usize, usize);

    /// Cycle `ops` over three buffers until exactly `len` references are
    /// recorded. While recording is off, accesses still happen and must
    /// record nothing; it is switched back on after every cycle, and a
    /// cycle that recorded nothing ends with one read, so the stream grows.
    fn drive(rec: &Recorder, len: usize, ops: &[Op]) {
        rec.set_enabled(true);
        let mut bufs = [
            rec.buffer::<f64>("A", 64),
            rec.buffer::<f64>("B", 100),
            rec.buffer::<f64>("C", 7),
        ];
        let mut recorded = 0;
        while recorded < len {
            let before = recorded;
            for &(op, b, i) in ops {
                if recorded == len {
                    break;
                }
                let on = rec.is_enabled();
                let buf = &mut bufs[b % 3];
                let i = i % buf.len();
                let pair = op % 4 == 2 && len - recorded >= 2;
                match op % 4 {
                    0 => drop(buf.get(i)),
                    1 => buf.set(i, i as f64),
                    2 if pair => buf.update(i, |x| x + 1.0),
                    2 => drop(buf.get(i)),
                    _ => {
                        rec.set_enabled(!on);
                        continue;
                    }
                }
                if on {
                    recorded += 1 + usize::from(pair);
                }
            }
            rec.set_enabled(true);
            if recorded == before {
                let _ = bufs[0].get(0);
                recorded += 1;
            }
        }
    }

    proptest! {
        /// Batching is invisible: at every length around the batch size,
        /// a streaming recorder hands its sink the very stream a buffering
        /// one keeps, and counts every reference as it records it.
        #[test]
        fn streaming_in_batches_matches_the_buffered_trace(
            len in prop::sample::select(vec![
                0,
                1,
                SINK_BATCH - 1,
                SINK_BATCH,
                SINK_BATCH + 1,
                3 * SINK_BATCH + 1,
            ]),
            ops in prop::collection::vec((0u8..4, 0usize..3, 0usize..128), 1..40),
        ) {
            let buffered = Recorder::new();
            drive(&buffered, len, &ops);
            let expected = buffered.into_trace();
            prop_assert_eq!(expected.len(), len);

            let sink = Rc::new(RefCell::new(Trace::new()));
            let streamed = Recorder::streaming(sink.clone());
            drive(&streamed, len, &ops);
            prop_assert_eq!(streamed.emitted(), len as u64);
            prop_assert!(streamed.is_empty());
            prop_assert_eq!(sink.borrow().len(), len / SINK_BATCH * SINK_BATCH);
            drop(streamed);
            prop_assert_eq!(&sink.borrow().refs, &expected.refs);
        }
    }

    #[test]
    fn a_sink_may_read_the_recorder_while_it_takes_a_batch() {
        #[derive(Default)]
        struct Reader {
            rec: Option<Recorder>,
            seen: Vec<(usize, u64, usize)>,
            refs: usize,
        }
        impl TraceSink for Reader {
            fn emit(&mut self, _: MemRef) {
                unreachable!("a recorder hands over batches");
            }
            fn emit_all(&mut self, refs: &[MemRef]) {
                if let Some(rec) = &self.rec {
                    self.seen.push((rec.len(), rec.emitted(), refs.len()));
                }
                self.refs += refs.len();
            }
        }
        let sink = Rc::new(RefCell::new(Reader::default()));
        let rec = Recorder::streaming(sink.clone());
        sink.borrow_mut().rec = Some(rec.clone());
        mixed(&rec, 2 * SINK_BATCH + 5);
        // Break the cycle, so the last handle's drop hands over the rest.
        sink.borrow_mut().rec = None;
        drop(rec);
        let sink = sink.borrow();
        let batch = SINK_BATCH as u64;
        assert_eq!(
            sink.seen,
            [(0, batch, SINK_BATCH), (0, 2 * batch, SINK_BATCH)]
        );
        assert_eq!(sink.refs, 2 * SINK_BATCH + 5);
    }

    #[test]
    fn a_kernel_panic_with_references_pending_reraises_the_kernel_payload() {
        let caught = std::panic::catch_unwind(|| {
            record_fanout(&flat_jobs(), |rec| {
                mixed(rec, SINK_BATCH + 10);
                panic!("kernel failed");
            })
        })
        .expect_err("the kernel's panic must reach the caller");
        assert_eq!(panic_message(&*caught), Some("kernel failed"));
        // The pending references would complete the fan-out's first chunk,
        // whose replay panics too: handing them over while unwinding would
        // abort the process instead of reaching `catch_unwind`.
        for workers in [1, 2] {
            let (probes, drops) = probes(1, Some(1), false);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                record_into(Fanout::with_workers(probes, workers), |rec| {
                    mixed(rec, FANOUT_CHUNK + 10);
                    panic!("kernel failed");
                })
            }))
            .expect_err("the kernel's panic must reach the caller");
            assert_eq!(panic_message(&*caught), Some("kernel failed"));
            assert_eq!(drops.load(std::sync::atomic::Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn fanout_takes_slices_of_any_length() {
        use dvf_cachesim::simulate_many;

        let trace = buffered(SEVERAL_CHUNKS);
        let expected = simulate_many(&trace, &flat_jobs());
        for workers in [1, 2] {
            for len in [1, 1000, SINK_BATCH, FANOUT_CHUNK + 7] {
                let mut fanout = Fanout::with_workers(flat_models(), workers);
                for refs in trace.refs.chunks(len) {
                    fanout.emit_all(refs);
                }
                let reports: Vec<SimReport> =
                    fanout.finish().into_iter().map(Simulator::finish).collect();
                assert_eq!(reports, expected, "{len}-ref slices, {workers} workers");
            }
        }
    }

    #[test]
    fn a_pair_of_sinks_each_sees_the_whole_stream() {
        use dvf_cachesim::simulate_many;

        for n in [SINK_BATCH - 1, SINK_BATCH + 1, FANOUT_CHUNK + 1] {
            let trace = buffered(n);
            let expected = simulate_many(&trace, &flat_jobs());
            for workers in [1, 2] {
                let fanout = Fanout::with_workers(flat_models(), workers);
                let (registry, (fanout, copy)) =
                    record_into((fanout, Trace::new()), |rec| mixed(rec, n));
                assert_eq!(copy.refs, trace.refs, "{n} refs, {workers} workers");
                assert_eq!(registry.id("B"), trace.registry.id("B"));
                let reports: Vec<SimReport> =
                    fanout.finish().into_iter().map(Simulator::finish).collect();
                assert_eq!(reports, expected, "{n} refs, {workers} workers");
            }
        }
    }
}
