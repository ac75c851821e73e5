//! `segstore` — a node-local store of sealed, immutable, refcounted heap
//! segments for zero-copy same-node transfer.
//!
//! Skyway removes serialization from distributed transfer, but a same-node
//! "transfer" through the pipeline still clones the object graph byte by
//! byte between two co-located heaps — pure waste when sender and receiver
//! share physical memory. This crate adds the missing tier (the
//! vineyard-style immutable object store):
//!
//! * [`SegStore::seal`] reserves the segment's global base first, then
//!   runs the normal [`skyway::GraphSender`] traversal over a root set
//!   with that base as its sink: the one pass that clones each object
//!   writes every reference as its final absolute address
//!   ([`mheap::SEGMENT_BASE`]-region addresses are valid in every
//!   attacher) and filler where the wire would carry root markers. The
//!   finished image moves into *store-owned* memory with one right-sized
//!   copy. The result is a sealed [`mheap::Segment`]: heap-format objects,
//!   checksummed, never written again.
//! * [`SegStore::attach`] hands a co-located VM the whole graph as a
//!   *metadata-only* operation: the segment's memory is mapped into the
//!   heap's address space, no byte is cloned, no card is dirtied, no
//!   reference is fixed up. N attachers share one copy; the store
//!   refcounts them.
//! * [`SegStore::detach`] drops one attacher. When the last one drops,
//!   the segment retires into a limbo list stamped with the store's
//!   current epoch; [`SegStore::advance_epoch`] reclaims retired segments
//!   from earlier epochs. A segment is therefore freed only after every
//!   attacher has detached *and* a full epoch has passed — the
//!   epoch/refcount scheme that keeps a GC-ing attacher from racing
//!   reclamation.
//!
//! [`shared_transfer`] packages seal + attach as a drop-in fourth
//! transfer mode (reported as [`TransferMode::Shared`]) next to the
//! pipeline engine's inline/pipelined/parallel policy, for callers like
//! `sparklite` that pick it automatically when source and destination are
//! the same node.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mheap::{Addr, Segment, SegmentBuilder, Vm};
use parking_lot::Mutex;
use simnet::NodeId;
use skyway::{
    ChunkPool, GraphSender, PipelineReport, ReceiveStats, SendConfig, SendStats, Tracking,
    TransferMode, TypeDirectory,
};

/// Errors produced by the segment store.
#[derive(Debug)]
pub enum Error {
    /// Underlying Skyway (sender/registry) error during sealing.
    Core(skyway::Error),
    /// Underlying heap error during attach/detach.
    Heap(mheap::Error),
    /// No live segment with this base is in the store.
    UnknownSegment(u64),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Core(e) => write!(f, "seal error: {e}"),
            Error::Heap(e) => write!(f, "heap error: {e}"),
            Error::UnknownSegment(base) => {
                write!(f, "no live segment with base {base:#x} in the store")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<skyway::Error> for Error {
    fn from(e: skyway::Error) -> Self {
        Error::Core(e)
    }
}

impl From<mheap::Error> for Error {
    fn from(e: mheap::Error) -> Self {
        Error::Heap(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// What one seal produced.
#[derive(Debug, Clone)]
pub struct SealReport {
    /// Base of the sealed segment (the attach key).
    pub base: u64,
    /// Bytes of store-owned memory the graph occupies.
    pub bytes: u64,
    /// Sender-side composition statistics of the traversal.
    pub stats: SendStats,
    /// Number of graph roots recorded in the segment.
    pub roots: usize,
    /// Wall-clock nanoseconds the seal took (traversal + copy + checksum).
    pub seal_ns: u64,
}

/// One live segment: the sealed memory plus its attach refcount.
///
/// The refcount is lock-free on the detach fast path: increments happen
/// under the store's map lock (which doubles as the resurrection guard —
/// an entry reachable through the map cannot be concurrently retired),
/// but decrements touch no lock unless they are the one that drops the
/// count to zero. The decrement/retire edge uses the `Arc`-drop
/// discipline: `fetch_sub(Release)` paired with a `fence(Acquire)` on the
/// zero path, so every attacher's segment reads happen-before the retire
/// that eventually frees the memory.
#[derive(Debug)]
struct Entry {
    seg: Arc<Segment>,
    /// Current number of attachers.
    refs: AtomicU32,
    /// Set once the first attach succeeds; a segment that was never
    /// attached stays attachable at refcount zero instead of retiring.
    ever_attached: AtomicBool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Live (attachable) segments by base.
    segments: HashMap<u64, Arc<Entry>>,
    /// Reclamation epoch; bumped by [`SegStore::advance_epoch`].
    epoch: u64,
    /// Retired segments awaiting reclamation: `(retire_epoch, segment)`.
    limbo: Vec<(u64, Arc<Segment>)>,
}

/// Cached observability handles (`skyway.segstore.*`).
#[derive(Debug)]
struct StoreMetrics {
    registry: Arc<obs::Registry>,
    seals: Arc<obs::Counter>,
    attaches: Arc<obs::Counter>,
    detaches: Arc<obs::Counter>,
    reclaimed: Arc<obs::Counter>,
    bytes_sealed: Arc<obs::Counter>,
    bytes_not_copied: Arc<obs::Counter>,
    segments_live: Arc<obs::Gauge>,
    mode_shared: Arc<obs::Counter>,
}

impl StoreMetrics {
    fn new(registry: Arc<obs::Registry>) -> Self {
        StoreMetrics {
            seals: registry.counter(obs::names::SEGSTORE_SEALS),
            attaches: registry.counter(obs::names::SEGSTORE_ATTACHES),
            detaches: registry.counter(obs::names::SEGSTORE_DETACHES),
            reclaimed: registry.counter(obs::names::SEGSTORE_RECLAIMED),
            bytes_sealed: registry.counter(obs::names::SEGSTORE_BYTES_SEALED),
            bytes_not_copied: registry.counter(obs::names::SEGSTORE_BYTES_NOT_COPIED),
            segments_live: registry.gauge(obs::names::SEGSTORE_SEGMENTS_LIVE),
            mode_shared: registry.counter(obs::names::PIPELINE_MODE_SHARED),
            registry,
        }
    }
}

/// The node-local segment store. One per simulated node; every VM on the
/// node seals into and attaches from the same store.
#[derive(Debug)]
pub struct SegStore {
    inner: Mutex<Inner>,
    metrics: StoreMetrics,
}

impl Default for SegStore {
    fn default() -> Self {
        SegStore::new()
    }
}

impl SegStore {
    /// An empty store reporting to the process-wide metrics registry.
    pub fn new() -> Self {
        SegStore {
            inner: Mutex::new(Inner::default()),
            metrics: StoreMetrics::new(Arc::clone(obs::global())),
        }
    }

    /// Reports into `registry` instead of the process-wide default
    /// (scoped registries keep test assertions exact).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.metrics = StoreMetrics::new(registry);
        self
    }

    /// Seals the object graphs of `roots` from `vm` (running on `node`)
    /// into a new store-owned segment and returns its report. One
    /// traversal — the ordinary Skyway sender with hash-table visited
    /// tracking (sealing must not scribble `baddr` words the concurrent
    /// shuffle machinery owns) — writes the final image against a base
    /// reserved beforehand: klass words keep `vm`'s klass ids, which every
    /// VM on its classpath shares, references are absolute segment
    /// addresses, root markers are filler. `dir` sees no traffic; `vm`
    /// must be on the classpath it serves.
    ///
    /// # Errors
    /// Sender/registry errors; heap errors from the segment builder.
    pub fn seal(
        &self,
        vm: &Vm,
        dir: &TypeDirectory,
        node: NodeId,
        roots: &[Addr],
    ) -> Result<SealReport> {
        self.seal_traced(vm, dir, node, roots, obs::TraceCtx::NONE)
    }

    /// [`SegStore::seal`] attributed to trace context `ctx` (emits a
    /// `trace.segstore.seal` span when tracing is on).
    pub fn seal_traced(
        &self,
        vm: &Vm,
        dir: &TypeDirectory,
        node: NodeId,
        roots: &[Addr],
        ctx: obs::TraceCtx,
    ) -> Result<SealReport> {
        let t0 = Instant::now();
        // 1. Reserve. Hash-table tracking clones every reachable object at
        //    most once, so everything the sender could reach plus the
        //    widest marker per root bounds the image. The bound is also the
        //    chunk limit: the image stays in one piece.
        let heap = vm.heap();
        let bound = heap.used()
            + heap.attached_segments().iter().map(|s| s.len()).sum::<u64>()
            + 16 * roots.len() as u64;
        let builder = SegmentBuilder::reserve(bound, vm.spec())?;

        // 2. Traverse into a staging backing from the process-wide pool.
        //    Seals come back for the same few megabytes, and a recycled
        //    backing is memory the kernel has already faulted in.
        let cfg = SendConfig {
            chunk_limit: bound as usize,
            receiver_spec: vm.spec(),
            tracking: Tracking::HashTable,
        };
        let pool = ChunkPool::global();
        let mut gs = GraphSender::new(vm, dir, node, 1, 0, cfg)?
            .with_pool(Arc::clone(pool))
            .with_metrics(Arc::clone(&self.metrics.registry))
            .with_segment_base(builder.base());
        for &root in roots {
            gs.write_root(root)?;
        }
        let image = gs.finish_image()?;

        // 3. Adopt: one right-sized copy into store-owned memory, checksum.
        let seg = builder.seal(&image.bytes, image.roots, Arc::clone(vm.classpath()))?;
        pool.release(image.bytes);
        let base = seg.base();
        let len = seg.len();
        let n_roots = seg.roots().len();

        // 4. Publish.
        {
            let mut inner = self.inner.lock();
            inner.segments.insert(
                base,
                Arc::new(Entry {
                    seg,
                    refs: AtomicU32::new(0),
                    ever_attached: AtomicBool::new(false),
                }),
            );
            self.update_live_gauge(&inner);
        }
        self.metrics.seals.inc();
        self.metrics.bytes_sealed.add(len);
        let seal_ns = t0.elapsed().as_nanos() as u64;
        self.metrics.registry.tracer().record_closed(
            obs::names::TRACE_SEGSTORE_SEAL,
            ctx,
            &vm.name,
            seal_ns,
            &[("bytes", len), ("objects", image.stats.objects), ("roots", n_roots as u64)],
        );
        Ok(SealReport { base, bytes: len, stats: image.stats, roots: n_roots, seal_ns })
    }

    /// Attaches the segment at `base` to `vm`: maps the sealed memory into
    /// the heap's address space and returns the graph roots (now ordinary
    /// readable addresses in `vm`). Metadata-only — nothing is cloned, no
    /// card is dirtied, no reference is rewritten.
    ///
    /// # Errors
    /// [`Error::UnknownSegment`]; heap errors (double attach, or a `vm`
    /// whose object format or classpath differs from the sealing VM's). A
    /// rejected attach leaves the refcount where it was.
    pub fn attach(&self, vm: &mut Vm, base: u64) -> Result<Vec<Addr>> {
        self.attach_traced(vm, base, obs::TraceCtx::NONE)
    }

    /// [`SegStore::attach`] attributed to trace context `ctx` (emits a
    /// `trace.segstore.attach` span when tracing is on).
    pub fn attach_traced(&self, vm: &mut Vm, base: u64, ctx: obs::TraceCtx) -> Result<Vec<Addr>> {
        let t0 = Instant::now();
        let entry = {
            let inner = self.inner.lock();
            let entry = inner.segments.get(&base).ok_or(Error::UnknownSegment(base))?;
            // ORDER: Relaxed — incremented under the map lock, which both
            // proves the entry live and serializes against the zero-path
            // retire recheck in `release_ref`; the new attacher gets its
            // view of the (immutable, sealed) segment from the lock, not
            // from this RMW. Same rule as `Arc::clone`'s Relaxed increment.
            entry.refs.fetch_add(1, Ordering::Relaxed);
            Arc::clone(entry)
        };
        let seg = Arc::clone(&entry.seg);
        if let Err(e) = vm.attach_segment(Arc::clone(&seg)) {
            // Roll the refcount back — the VM rejected the segment. Going
            // through the common release path means a concurrent successful
            // attach/detach pair cannot strand a zero-count entry.
            self.release_ref(&entry, base);
            return Err(Error::Heap(e));
        }
        // ORDER: Relaxed — only consulted on the zero path of
        // `release_ref`, after its Acquire fence has synchronized with
        // this attacher's Release decrement (which is program-ordered
        // after this store).
        entry.ever_attached.store(true, Ordering::Relaxed);
        self.metrics.attaches.inc();
        self.metrics.bytes_not_copied.add(seg.len());
        self.metrics.registry.tracer().record_closed(
            obs::names::TRACE_SEGSTORE_ATTACH,
            ctx,
            &vm.name,
            t0.elapsed().as_nanos() as u64,
            &[("base", base), ("bytes_not_copied", seg.len())],
        );
        Ok(seg.roots().to_vec())
    }

    /// Detaches the segment at `base` from `vm` and drops one attacher.
    /// When the last attacher drops, the segment retires into limbo at the
    /// current epoch; its memory survives until a later
    /// [`SegStore::advance_epoch`] reclaims it.
    ///
    /// # Errors
    /// [`Error::UnknownSegment`]; heap errors (not attached to `vm`).
    pub fn detach(&self, vm: &mut Vm, base: u64) -> Result<()> {
        self.detach_traced(vm, base, obs::TraceCtx::NONE)
    }

    /// [`SegStore::detach`] attributed to trace context `ctx` (emits a
    /// `trace.segstore.detach` span when tracing is on).
    pub fn detach_traced(&self, vm: &mut Vm, base: u64, ctx: obs::TraceCtx) -> Result<()> {
        let t0 = Instant::now();
        vm.heap_mut().detach_segment(base)?;
        let entry = {
            let inner = self.inner.lock();
            let entry = inner.segments.get(&base).ok_or(Error::UnknownSegment(base))?;
            Arc::clone(entry)
        };
        let retired = self.release_ref(&entry, base);
        self.metrics.detaches.inc();
        self.metrics.registry.tracer().record_closed(
            obs::names::TRACE_SEGSTORE_DETACH,
            ctx,
            &vm.name,
            t0.elapsed().as_nanos() as u64,
            &[("base", base), ("retired", u64::from(retired))],
        );
        Ok(())
    }

    /// Advances the reclamation epoch and frees every segment that retired
    /// in an earlier epoch (its last attacher detached before this call
    /// began — no attacher can still hold addresses into it). Returns the
    /// number of segments reclaimed.
    pub fn advance_epoch(&self) -> usize {
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        let epoch = inner.epoch;
        let before = inner.limbo.len();
        // Dropping the Arc here is the reclamation: the store holds the
        // last strong reference once every attacher has detached.
        inner.limbo.retain(|(retired, _)| *retired >= epoch);
        let freed = before - inner.limbo.len();
        self.metrics.reclaimed.add(freed as u64);
        self.update_live_gauge(&inner);
        freed
    }

    /// Drops one attacher reference, retiring the segment into limbo when
    /// the last one goes. Lock-free unless this is the decrement that hits
    /// zero; returns whether the segment retired.
    fn release_ref(&self, entry: &Arc<Entry>, base: u64) -> bool {
        // ORDER: Release — pairs with the Acquire fence on the zero path
        // below: every read this attacher made of the segment's memory
        // happens-before the retire (and the eventual free in
        // `advance_epoch`). A Relaxed decrement would let the free race
        // another attacher's in-flight reads.
        if entry.refs.fetch_sub(1, Ordering::Release) != 1 {
            return false;
        }
        // ORDER: Acquire — synchronizes with every other attacher's
        // Release decrement above, so their segment accesses are visible
        // (and over) before we tear the entry out of the attachable set.
        fence(Ordering::Acquire);
        // ORDER: Relaxed — any attacher that set this flag also ran a
        // Release decrement that the fence above synchronized with, so the
        // store is already ordered before this load.
        if !entry.ever_attached.load(Ordering::Relaxed) {
            return false;
        }
        let mut inner = self.inner.lock();
        // Recheck under the map lock: attaches increment under it, so a
        // resurrecting attacher either beat us here (we observe its
        // reference and keep the entry) or finds the entry gone and gets
        // `UnknownSegment` — never a handle to retired memory.
        //
        // ORDER: Acquire — a resurrecting attacher may have incremented,
        // read the segment, and run its own Release decrement entirely
        // *after* our fence above; reading its zero through this load is
        // what orders those reads before the retire (the interleave model
        // `refcount_retire_orders_reads_before_free` catches Relaxed
        // here).
        let still_zero = match inner.segments.get(&base) {
            Some(e) => Arc::ptr_eq(e, entry) && e.refs.load(Ordering::Acquire) == 0,
            None => false,
        };
        if !still_zero {
            return false;
        }
        if let Some(e) = inner.segments.remove(&base) {
            // Refcount reached zero: out of the attachable set, into limbo
            // until the epoch advances past the retirement.
            let epoch = inner.epoch;
            inner.limbo.push((epoch, Arc::clone(&e.seg)));
        }
        self.update_live_gauge(&inner);
        true
    }

    /// Current attach refcount of a live segment (`None` once retired or
    /// never sealed).
    // tidy:allow(unreached-pub, read by segstore_tests and sparklite's engine_tests)
    pub fn refcount(&self, base: u64) -> Option<u32> {
        // ORDER: Relaxed — an observability snapshot; the value is stale
        // the moment the lock drops anyway.
        self.inner.lock().segments.get(&base).map(|e| e.refs.load(Ordering::Relaxed))
    }

    /// Segments currently owned by the store (attachable + limbo).
    // tidy:allow(unreached-pub, read by segstore_tests and sparklite's engine_tests)
    pub fn live_segments(&self) -> usize {
        let inner = self.inner.lock();
        inner.segments.len() + inner.limbo.len()
    }

    /// The sealed segment at `base`, if still attachable.
    pub fn segment(&self, base: u64) -> Option<Arc<Segment>> {
        self.inner.lock().segments.get(&base).map(|e| Arc::clone(&e.seg))
    }

    /// Bases of every attachable (non-retired) segment.
    pub fn bases(&self) -> Vec<u64> {
        self.inner.lock().segments.keys().copied().collect()
    }

    /// Counts one shared-mode transfer on the engine's mode-policy metric
    /// (`skyway.pipeline.mode_shared`). [`shared_transfer`] calls this
    /// itself; callers that split seal and attach across a stage boundary
    /// (e.g. a map-side seal with a reduce-side attach) call it once per
    /// logical transfer so the mode census stays comparable to the
    /// pipeline engine's inline/pipelined/parallel counters.
    pub fn note_shared_mode(&self) {
        self.metrics.mode_shared.inc();
    }

    fn update_live_gauge(&self, inner: &Inner) {
        self.metrics.segments_live.set((inner.segments.len() + inner.limbo.len()) as i64);
    }
}

/// Same-node zero-copy transfer: seals `roots` from `sender_vm` into the
/// store and attaches the segment to `receiver_vm`, returning the received
/// roots and a [`PipelineReport`] with [`TransferMode::Shared`] — the
/// fourth mode next to the engine's inline/pipelined/parallel policy.
/// `receive`-side statistics show zero chunks and fixups:
/// that absence *is* the mode's win, and `bytes_not_copied` (the segment
/// length) lands on the `skyway.segstore.bytes_not_copied` counter.
///
/// # Errors
/// Seal or attach errors.
pub fn shared_transfer(
    store: &SegStore,
    sender_vm: &Vm,
    receiver_vm: &mut Vm,
    dir: &TypeDirectory,
    node: NodeId,
    roots: &[Addr],
) -> Result<(Vec<Addr>, PipelineReport)> {
    shared_transfer_with_trace(store, sender_vm, receiver_vm, dir, node, roots, obs::TraceCtx::NONE)
}

/// [`shared_transfer`] attributed to a parent trace context.
///
/// # Errors
/// Seal or attach errors.
pub fn shared_transfer_with_trace(
    store: &SegStore,
    sender_vm: &Vm,
    receiver_vm: &mut Vm,
    dir: &TypeDirectory,
    node: NodeId,
    roots: &[Addr],
    parent: obs::TraceCtx,
) -> Result<(Vec<Addr>, PipelineReport)> {
    let t0 = Instant::now();
    let seal = store.seal_traced(sender_vm, dir, node, roots, parent)?;
    let roots_out = store.attach_traced(receiver_vm, seal.base, parent)?;
    store.note_shared_mode();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let recv_stats = ReceiveStats {
        objects: seal.stats.objects,
        bytes: seal.bytes,
        chunks: 0,
        classes_loaded: 0,
        ref_fixups: 0,
        cards_dirtied: 0,
    };
    let report = PipelineReport {
        send_stats: seal.stats,
        recv_stats,
        chunk_bytes: Vec::new(),
        pipelined_ns: wall_ns,
        produce_ns: seal.seal_ns,
        absorb_ns: 0,
        sender_stall_ns: 0,
        receiver_stall_ns: 0,
        pool_hits: 0,
        pool_misses: 0,
        max_in_flight: 0,
        mode: TransferMode::Shared,
        workers: 1,
    };
    Ok((roots_out, report))
}
