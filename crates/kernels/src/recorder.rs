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
use std::cell::RefCell;
use std::rc::Rc;

/// Anything that can consume a recorded reference stream.
///
/// Implemented by [`Trace`] (buffer everything — the original behavior),
/// by [`Simulator`] (replay on the fly, so a kernel's references go
/// straight through the cache model without ever materializing a
/// `Vec<MemRef>`), and by [`Tee`] (fan one stream out to several sinks,
/// e.g. simulate two geometries in one kernel run).
pub trait TraceSink {
    /// Consume one reference.
    fn emit(&mut self, r: MemRef);
}

impl TraceSink for Trace {
    fn emit(&mut self, r: MemRef) {
        self.push(r);
    }
}

impl TraceSink for Simulator {
    fn emit(&mut self, r: MemRef) {
        self.access(r);
    }
}

/// Fan-out sink: every emitted reference is forwarded to all children.
#[derive(Default)]
pub struct Tee {
    sinks: Vec<Rc<RefCell<dyn TraceSink>>>,
}

impl Tee {
    /// Empty tee (add sinks with [`push`](Tee::push)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sink; keep your own `Rc` clone to read results back later.
    pub fn push(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for Tee {
    fn emit(&mut self, r: MemRef) {
        for sink in &self.sinks {
            sink.borrow_mut().emit(r);
        }
    }
}

impl std::fmt::Debug for Tee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tee").field("sinks", &self.len()).finish()
    }
}

impl TraceSink for CacheHierarchy {
    fn emit(&mut self, r: MemRef) {
        self.access(r);
    }
}

/// A cache model the fused [`Fanout`] can drive: replay a chunk of
/// references, then report. Implemented by the flat [`Simulator`] and by
/// [`CacheHierarchy`].
pub trait Replay: Send {
    /// What the model reports at the end of the stream.
    type Report;
    /// Replay one chunk of references, in order.
    fn replay(&mut self, refs: &[MemRef]);
    /// Finish the run (flushing dirty lines) and report.
    fn report(self) -> Self::Report;
}

impl Replay for Simulator {
    type Report = SimReport;
    fn replay(&mut self, refs: &[MemRef]) {
        self.run(refs);
    }
    fn report(self) -> SimReport {
        self.finish()
    }
}

impl Replay for CacheHierarchy {
    type Report = HierarchyReport;
    fn replay(&mut self, refs: &[MemRef]) {
        CacheHierarchy::replay(self, refs);
    }
    fn report(self) -> HierarchyReport {
        self.into_report()
    }
}

/// References buffered per [`Fanout`] replay chunk (1 MiB of `MemRef`s):
/// large enough to amortize the thread fan-out and to keep each model in
/// its prefetching replay loop.
const FANOUT_CHUNK: usize = 65_536;

/// Fan-out sink driving a whole grid of cache models straight from kernel
/// recording — the *fused* record→simulate path.
///
/// Unlike [`Tee`] (one `Rc<RefCell<…>>` dispatch per reference per sink),
/// this sink buffers references into chunks and replays each chunk across
/// all models with [`dvf_obs::par::map_mut`] (one worker per core; a
/// single model runs inline), so fanning a kernel over N geometries costs
/// one buffered chunk, not N materialized traces — and no trace file at
/// all. Every model sees the full stream in order, so reports are
/// bit-identical to buffering a [`Trace`] and replaying it through
/// [`dvf_cachesim::simulate_many`] or
/// [`dvf_cachesim::simulate_hierarchy_many`].
#[derive(Debug)]
pub struct Fanout<S: Replay> {
    models: Vec<S>,
    buf: Vec<MemRef>,
    workers: usize,
}

impl<S: Replay> Fanout<S> {
    /// Fan-out over `models`; reports come back in this order.
    pub fn new(models: Vec<S>) -> Self {
        Self {
            models,
            buf: Vec::with_capacity(FANOUT_CHUNK),
            workers: dvf_obs::par::available(),
        }
    }

    /// Replay the buffered chunk through every model.
    fn flush_chunk(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let buf = &self.buf;
        dvf_obs::par::map_mut(&mut self.models, self.workers, |m| m.replay(buf));
        self.buf.clear();
    }

    /// Flush the final partial chunk and collect the reports, in model
    /// order.
    pub fn finish(mut self) -> Vec<S::Report> {
        self.flush_chunk();
        self.models.into_iter().map(Replay::report).collect()
    }
}

impl<S: Replay> TraceSink for Fanout<S> {
    #[inline]
    fn emit(&mut self, r: MemRef) {
        self.buf.push(r);
        if self.buf.len() >= FANOUT_CHUNK {
            self.flush_chunk();
        }
    }
}

/// Run a recording closure with a [`Fanout`] sink and return the registry
/// the kernel declared plus one report per model.
fn record_into<S: Replay + 'static, F: FnOnce(&Recorder)>(
    fanout: Fanout<S>,
    run: F,
) -> (DsRegistry, Vec<S::Report>) {
    let fanout = Rc::new(RefCell::new(fanout));
    let rec = Recorder::streaming(fanout.clone());
    run(&rec);
    let registry = rec.registry();
    drop(rec);
    let Ok(fanout) = Rc::try_unwrap(fanout) else {
        panic!("kernel closure must drop its tracked buffers and recorder clones");
    };
    (registry, fanout.into_inner().finish())
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
    record_into(Fanout::new(models), run)
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
    record_into(Fanout::new(models), run)
}

/// Run a recording closure with *two* sinks teed off the same stream —
/// still fused, still no materialized trace. Both sinks see every
/// reference in program order, so each is bit-identical to what it would
/// have computed alone.
///
/// This is how the learned-predictor pipeline rides the fan-out: a
/// [`Fanout`] produces simulator ground truth while a featurizer
/// consumes the identical stream in the same pass.
pub fn record_tee<A, B, F>(a: A, b: B, run: F) -> (DsRegistry, A, B)
where
    A: TraceSink + 'static,
    B: TraceSink + 'static,
    F: FnOnce(&Recorder),
{
    let a = Rc::new(RefCell::new(a));
    let b = Rc::new(RefCell::new(b));
    let mut tee = Tee::new();
    tee.push(a.clone());
    tee.push(b.clone());
    let rec = Recorder::streaming(Rc::new(RefCell::new(tee)));
    run(&rec);
    let registry = rec.registry();
    drop(rec);
    let (Ok(a), Ok(b)) = (Rc::try_unwrap(a), Rc::try_unwrap(b)) else {
        panic!("kernel closure must drop its tracked buffers and recorder clones");
    };
    (registry, a.into_inner(), b.into_inner())
}

/// Shared recording state.
#[derive(Default)]
struct Shared {
    trace: Trace,
    enabled: bool,
    next_base: u64,
    /// Streaming destination; when set, references bypass `trace.refs`
    /// (the registry in `trace` still names the tracked buffers).
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    /// References delivered to `sink` so far.
    emitted: u64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("trace", &self.trace)
            .field("enabled", &self.enabled)
            .field("next_base", &self.next_base)
            .field("streaming", &self.sink.is_some())
            .field("emitted", &self.emitted)
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
    /// Keep a clone of the sink `Rc` to recover results afterwards:
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

    /// Number of references streamed to the sink so far (0 when buffering).
    pub fn emitted(&self) -> u64 {
        self.shared.borrow().emitted
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

    /// Number of references recorded so far.
    pub fn len(&self) -> usize {
        self.shared.borrow().trace.len()
    }

    /// Whether nothing has been recorded.
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
        match &shared.sink {
            Some(sink) => {
                // Clone the sink handle and release the recorder borrow
                // before emitting, so a sink is free to touch the recorder
                // (e.g. a diagnostic sink reading `len`).
                let sink = Rc::clone(sink);
                shared.emitted += 1;
                drop(shared);
                sink.borrow_mut().emit(r);
            }
            None => shared.trace.push(r),
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

    #[test]
    fn fanout_matches_buffered_simulate_many() {
        use dvf_cachesim::{simulate_many, CacheConfig, PolicyKind};

        fn kernel(rec: &Recorder) {
            rec.set_enabled(true);
            let mut a = rec.buffer::<f64>("A", 700);
            let b = rec.buffer::<f64>("B", 300);
            for i in 0..700 {
                let v = b.get(i % 300);
                a.update(i, |x| x + v);
            }
        }

        let jobs = [
            SimJob::lru(CacheConfig::new(4, 64, 32).unwrap()),
            SimJob::lru(CacheConfig::new(8, 512, 64).unwrap()),
            SimJob {
                config: CacheConfig::new(4, 64, 32).unwrap(),
                policy: PolicyKind::Fifo,
            },
        ];

        let buffered = Recorder::new();
        kernel(&buffered);
        let trace = buffered.into_trace();
        let expected = simulate_many(&trace, &jobs);

        let (registry, fused) = record_fanout(&jobs, kernel);
        assert_eq!(fused, expected);
        assert_eq!(registry.id("A"), trace.registry.id("A"));
        assert_eq!(registry.id("B"), trace.registry.id("B"));
        for workers in [1, 2, 3] {
            let models = jobs
                .iter()
                .map(|j| Simulator::with_policy(j.config, j.policy))
                .collect();
            let (_, pinned) = record_into(
                Fanout {
                    workers,
                    ..Fanout::new(models)
                },
                kernel,
            );
            assert_eq!(pinned, expected, "{workers} workers");
        }
    }

    #[test]
    fn hierarchy_fanout_matches_buffered_simulate_hierarchy_many() {
        use dvf_cachesim::{
            simulate_hierarchy_many, CacheConfig, HierarchyConfig, InclusionPolicy, LevelSpec,
            PolicyKind,
        };

        fn kernel(rec: &Recorder) {
            rec.set_enabled(true);
            let mut a = rec.buffer::<f64>("A", 700);
            let b = rec.buffer::<f64>("B", 300);
            for i in 0..700 {
                let v = b.get(i % 300);
                a.update(i, |x| x + v);
            }
        }

        let l1 = CacheConfig::new(2, 8, 32).unwrap();
        let llc = CacheConfig::new(4, 64, 32).unwrap();
        let configs = [
            HierarchyConfig::two_level(l1, llc).unwrap(),
            HierarchyConfig::new(vec![
                LevelSpec::new(l1).with_policy(PolicyKind::Fifo),
                LevelSpec::new(llc)
                    .with_inclusion(InclusionPolicy::Inclusive)
                    .with_prefetch(2),
            ])
            .unwrap(),
        ];

        let buffered = Recorder::new();
        kernel(&buffered);
        let trace = buffered.into_trace();
        let expected = simulate_hierarchy_many(&trace, &configs);

        let (registry, fused) = record_hierarchy_fanout(&configs, kernel);
        assert_eq!(registry.id("A"), trace.registry.id("A"));
        let pinned = [1, 2].map(|workers| {
            let models = configs
                .iter()
                .map(|c| CacheHierarchy::from_config(c.clone()))
                .collect();
            record_into(
                Fanout {
                    workers,
                    ..Fanout::new(models)
                },
                kernel,
            )
            .1
        });
        for fused in std::iter::once(fused).chain(pinned) {
            assert_eq!(fused.len(), expected.len());
            for (f, e) in fused.iter().zip(&expected) {
                assert_eq!(f.refs, e.refs);
                assert_eq!(f.dram.total(), e.dram.total());
                assert_eq!(f.dram_prefetch.total(), e.dram_prefetch.total());
                for (fl, el) in f.levels.iter().zip(&e.levels) {
                    assert_eq!(fl.stats.total(), el.stats.total());
                    assert_eq!(fl.prefetch, el.prefetch);
                }
            }
        }
    }

    #[test]
    fn fanout_flushes_across_chunk_boundaries() {
        use dvf_cachesim::{simulate, CacheConfig, SimJob};

        // More references than one FANOUT_CHUNK, so at least one mid-run
        // flush happens before `finish`.
        let n = super::FANOUT_CHUNK + 1234;
        let jobs = [SimJob::lru(CacheConfig::new(4, 64, 32).unwrap())];
        let (registry, fused) = record_fanout(&jobs, |rec| {
            rec.set_enabled(true);
            let buf = rec.buffer::<u64>("A", n);
            for i in 0..n {
                let _ = buf.get(i);
            }
        });
        let a = registry.id("A").unwrap();

        let buffered = Recorder::new();
        buffered.set_enabled(true);
        let buf = buffered.buffer::<u64>("A", n);
        for i in 0..n {
            let _ = buf.get(i);
        }
        drop(buf);
        let expected = simulate(&buffered.into_trace(), jobs[0].config);
        assert_eq!(fused[0].ds(a), expected.ds(a));
        assert_eq!(fused[0].refs, n as u64);
    }

    #[test]
    fn tee_duplicates_the_stream() {
        use dvf_cachesim::{CacheConfig, Simulator};

        let small = Rc::new(RefCell::new(Simulator::new(
            CacheConfig::new(2, 4, 32).unwrap(),
        )));
        let big = Rc::new(RefCell::new(Simulator::new(
            CacheConfig::new(4, 64, 32).unwrap(),
        )));
        let mut tee = Tee::new();
        tee.push(small.clone());
        tee.push(big.clone());
        assert_eq!(tee.len(), 2);

        let rec = Recorder::streaming(Rc::new(RefCell::new(tee)));
        rec.set_enabled(true);
        let mut buf = rec.buffer::<u64>("A", 512);
        for i in 0..512 {
            buf.set(i, i as u64);
        }
        drop((rec, buf));

        let small = Rc::try_unwrap(small).ok().unwrap().into_inner().finish();
        let big = Rc::try_unwrap(big).ok().unwrap().into_inner().finish();
        assert_eq!(small.refs, 512);
        assert_eq!(big.refs, 512);
        // 512 × 8 B = 4 KiB streams through both geometries: identical
        // compulsory misses, but only the larger cache holds every line.
        assert_eq!(small.total().misses, big.total().misses);
        assert!(small.total().writebacks > 0);
    }
}
