//! The transfer engine: one lane-parameterised path.
//!
//! The paper describes one mechanism — a sender thread walks the graph into
//! its own output buffer, flushed chunks stream to the receiver, which
//! places and absolutizes them as they arrive (§3.2, §4.3) — and N threads
//! are N copies of it (§4.2 "Support for Threads"). The engine is that
//! mechanism, once:
//!
//! ```text
//! N sender lanes → bounded queue of depth D → one shared LinkClock
//!                → N absorb lanes → one adoption step
//! ```
//!
//! | mode      | N       | D       | threads                              |
//! |-----------|---------|---------|--------------------------------------|
//! | inline    | 1       | —       | none: produce, then absorb           |
//! | pipelined | 1       | `depth` | 1 sender; the caller absorbs         |
//! | parallel  | workers | `depth` | N work-stealing senders, N absorbers |
//!
//! The policy only picks N and D: a flat graph that provably fits one chunk
//! has nothing to overlap and runs inline; otherwise `parallel` engages
//! above its root floor, and everything else is pipelined.
//!
//! The queue bound provides backpressure: a slow receiver stalls the sender
//! instead of letting chunks pile up unboundedly. Chunk backings come from a
//! [`ChunkPool`] shared by sender (acquire) and receiver (release), so
//! steady-state transfer performs zero per-chunk heap allocations.
//!
//! Simulated time is charged with the overlap-aware [`LinkClock`] schedule
//! rather than the whole-payload `net_ns` formula.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use mheap::{Addr, Vm};
use simnet::{Cluster, LinkClock, NodeId, SimConfig};

use crate::buffer::ChunkPool;
use crate::receiver::{self, AbsorbCore, GraphReceiver, ReceiveStats};
use crate::registry::TypeDirectory;
use crate::sender::{
    send_lane, GraphSender, LaneSent, ParallelConfig, RootFeed, SendConfig, SendStats, StealSet,
};
use crate::stream::UpdateRegistry;
use crate::{Error, Result};

/// Default flush threshold for pipelined transfer. Much smaller than the
/// sequential default (1 MiB): the pipeline's overlap window is one chunk,
/// so finer chunks mean earlier first-byte and smoother overlap, at the
/// cost of per-chunk bookkeeping the pool keeps negligible.
pub const DEFAULT_PIPELINE_CHUNK: usize = 64 << 10;

/// Default bound of the in-flight chunk channel.
pub const DEFAULT_DEPTH: usize = 4;

/// Which execution strategy a transfer took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Flat single-chunk graph: produce, move, absorb inline on the
    /// calling thread — nothing to overlap.
    Inline,
    /// One sender thread overlapped with absorption on the calling thread.
    Pipelined,
    /// N work-stealing traversal workers, each streaming to its own
    /// concurrent absorber over the shared receiving heap.
    Parallel,
    /// Same-node zero-copy: the graph was sealed into (or already lived
    /// in) a shared immutable segment and the receiver attached it
    /// metadata-only — no bytes cloned, no wire time. Produced by the
    /// `segstore` crate's shared path, never by this engine directly.
    Shared,
}

/// Configuration of the transfer engine.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Flush threshold of the sender's output buffer in bytes.
    pub chunk_limit: usize,
    /// Maximum chunks in flight between a sender lane and its absorber
    /// (channel bound; the backpressure window).
    pub depth: usize,
    /// Cost-model parameters for the simulated-time schedule.
    pub sim: SimConfig,
    /// Opt-in parallel mode: with `Some(par)` the engine runs
    /// `par.workers` work-stealing sender lanes, each feeding its own
    /// absorber, whenever `roots >= workers * min_roots_per_worker` (and
    /// the graph is not a flat single chunk). `None` keeps one lane.
    pub parallel: Option<ParallelConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunk_limit: DEFAULT_PIPELINE_CHUNK,
            depth: DEFAULT_DEPTH,
            sim: SimConfig::default(),
            parallel: None,
        }
    }
}

/// Cached observability handles (`skyway.pipeline.*`).
#[derive(Debug)]
struct PipelineMetrics {
    registry: Arc<obs::Registry>,
    chunks_in_flight: Arc<obs::Gauge>,
    stall_ns: Arc<obs::Counter>,
    pool_hits: Arc<obs::Counter>,
    pool_misses: Arc<obs::Counter>,
    chunk_stall_ns: Arc<obs::Histogram>,
    mode_inline: Arc<obs::Counter>,
    mode_pipelined: Arc<obs::Counter>,
    mode_parallel: Arc<obs::Counter>,
    steals: Arc<obs::Counter>,
}

impl PipelineMetrics {
    fn new(registry: Arc<obs::Registry>) -> Self {
        PipelineMetrics {
            chunks_in_flight: registry.gauge(obs::names::PIPELINE_CHUNKS_IN_FLIGHT),
            stall_ns: registry.counter(obs::names::PIPELINE_STALL_NS),
            pool_hits: registry.counter(obs::names::PIPELINE_POOL_HITS),
            pool_misses: registry.counter(obs::names::PIPELINE_POOL_MISSES),
            chunk_stall_ns: registry.histogram(obs::names::PIPELINE_CHUNK_STALL_NS),
            mode_inline: registry.counter(obs::names::PIPELINE_MODE_INLINE),
            mode_pipelined: registry.counter(obs::names::PIPELINE_MODE_PIPELINED),
            mode_parallel: registry.counter(obs::names::PIPELINE_MODE_PARALLEL),
            steals: registry.counter(obs::names::SENDER_STEALS),
            registry,
        }
    }
}

/// What one transfer did and what its modeled schedule cost.
///
/// All `*_ns` figures are *simulated* nanoseconds on the [`SimConfig`]
/// timeline: measured CPU time scaled by `sd_cpu_scale` (the same
/// calibration every serializer pays in `simnet`) and wire time from the
/// bandwidth/latency model.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Sender-side composition statistics.
    pub send_stats: SendStats,
    /// Receiver-side statistics (identical to the sequential path's).
    pub recv_stats: ReceiveStats,
    /// Per-chunk wire sizes, in the order the modeled link carried them.
    pub chunk_bytes: Vec<u64>,
    /// End-to-end simulated time of the overlapped schedule.
    pub pipelined_ns: u64,
    /// Scaled sender traversal CPU time.
    pub produce_ns: u64,
    /// Scaled receiver absolutization CPU time (fixups and adoption
    /// included).
    pub absorb_ns: u64,
    /// Real time the sender spent blocked on a full channel.
    pub sender_stall_ns: u64,
    /// Real time the receiver spent blocked on an empty channel.
    pub receiver_stall_ns: u64,
    /// Chunk-pool hits during this transfer.
    pub pool_hits: u64,
    /// Chunk-pool misses (fresh allocations) during this transfer.
    pub pool_misses: u64,
    /// High-water mark of chunks in flight.
    pub max_in_flight: u64,
    /// Which execution strategy the policy picked.
    pub mode: TransferMode,
    /// Sender lanes (1 outside parallel mode).
    pub workers: u64,
}

impl PipelineReport {
    /// Charges this transfer into a [`Cluster`]'s per-node profiles using
    /// the chunk-granularity accounting: scaled traversal CPU as `Ser` and
    /// the objects sent on `src`, scaled absolutization CPU as `Deser` on
    /// `dst`, and each chunk's size through [`Cluster::charge_chunk`] so
    /// the stream pays wire time per chunk but latency once.
    ///
    /// # Errors
    /// [`simnet::Error::UnknownNode`].
    pub fn charge(&self, cluster: &mut Cluster, src: NodeId, dst: NodeId) -> simnet::Result<()> {
        use simnet::Category;
        let sent = cluster.profile_mut(src);
        sent.add_ns(Category::Ser, self.produce_ns);
        sent.objects_transferred += self.send_stats.objects;
        cluster.profile_mut(dst).add_ns(Category::Deser, self.absorb_ns);
        for &len in &self.chunk_bytes {
            cluster.charge_chunk(src, dst, len)?;
        }
        cluster.net_stream_done(src, dst);
        Ok(())
    }
}

/// One chunk in flight: its bytes plus its lane's cumulative traversal time
/// (unscaled, on the lane clock) at the moment the chunk was ready.
type InFlight = (Vec<u8>, u64);

/// What one sender lane hands back: what it sent, plus its raw produce and
/// channel-stall nanoseconds.
struct SenderSide {
    sent: LaneSent,
    produce_ns: u64,
    stall_ns: u64,
}

/// What one absorb lane hands back: `(ready_raw_ns, bytes, absorb_raw_ns)`
/// per chunk in stream order, plus its raw fixup and channel-stall
/// nanoseconds.
struct AbsorbSide {
    timeline: Vec<(u64, u64, u64)>,
    fixup_ns: u64,
    stall_ns: u64,
}

/// The trace lane of worker `t`: a lone lane records on its node's main lane
/// (0), worker `t` of several on lane `t + 1`.
fn trace_lane(lanes: usize, t: usize) -> u32 {
    if lanes == 1 {
        0
    } else {
        t as u32 + 1
    }
}

/// The time base of one lane's share of the modeled schedule, read once per
/// shipped or absorbed chunk. A lone lane has a core to itself, so the
/// (vDSO) wall clock is its CPU time; N lanes on a host with fewer cores
/// would each be charged for their siblings' timeslices, so they read the
/// thread CPU clock — a syscall, affordable per chunk, never per root.
fn lane_clock(thread_cpu: bool) -> impl Fn() -> u64 {
    let epoch = Instant::now();
    move || {
        if thread_cpu {
            obs::thread_cpu_ns()
        } else {
            epoch.elapsed().as_nanos() as u64
        }
    }
}

/// The sender-lane body: [`send_lane`]'s root loop with every flushed chunk
/// stamped with the lane's cumulative produce time and handed to `put`,
/// which returns how long the hand-off blocked, or `None` once the consumer
/// is gone.
fn sender_lane<'a>(
    open: impl FnOnce() -> Result<GraphSender<'a>>,
    feed: RootFeed<'_>,
    thread_cpu: bool,
    mut put: impl FnMut(InFlight) -> Option<u64>,
) -> Result<SenderSide> {
    let now = lane_clock(thread_cpu);
    let mut mark = now();
    let (mut produce_ns, mut stall_ns) = (0u64, 0u64);
    let sent = send_lane(open, feed, |chunk| {
        produce_ns += now().saturating_sub(mark);
        let stalled = put((chunk, produce_ns));
        stall_ns += stalled.unwrap_or(0);
        mark = now();
        stalled.is_some()
    })?;
    Ok(SenderSide { sent, produce_ns, stall_ns })
}

/// The transfer engine. Holds the shared [`ChunkPool`] so buffer backings
/// survive across transfers — the second transfer of a similar shape
/// allocates nothing.
#[derive(Debug)]
pub struct PipelineEngine {
    cfg: PipelineConfig,
    pool: Arc<ChunkPool>,
    metrics: PipelineMetrics,
}

impl PipelineEngine {
    /// An engine drawing chunk backings from the process-wide per-node
    /// [`ChunkPool::global`], so back-to-back transfers through different
    /// engines still recycle the same backings.
    pub fn new(cfg: PipelineConfig) -> Self {
        PipelineEngine {
            cfg,
            pool: Arc::clone(ChunkPool::global()),
            metrics: PipelineMetrics::new(Arc::clone(obs::global())),
        }
    }

    /// Uses an explicit chunk pool instead of the global per-node one
    /// (tests asserting exact hit/miss counts need isolation — the global
    /// pool's counters aggregate every transfer in the process).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<ChunkPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Reports into `registry` instead of the process-wide default
    /// (scoped registries keep test assertions exact).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.metrics = PipelineMetrics::new(registry);
        self
    }

    /// The engine's chunk pool (shared with every transfer's sender).
    pub fn pool(&self) -> &Arc<ChunkPool> {
        &self.pool
    }

    /// The engine's configuration.
    pub fn config(&self) -> PipelineConfig {
        self.cfg
    }

    /// Moves the object graphs of `roots` from `sender_vm` to
    /// `receiver_vm`, overlapping traversal, transfer, and absolutization.
    /// Returns the received roots (in `roots` order) and the transfer
    /// report.
    ///
    /// Flat graphs that provably fit one chunk (see
    /// [`GraphSender::estimate_flat_bytes`]) skip the overlap machinery
    /// and run the three phases inline — with a single chunk there is
    /// nothing to overlap, and the thread + channel overhead would make
    /// the pipeline strictly slower than the sequential path.
    ///
    /// `src`/`dst` are the nodes the VMs live on; `sid`/`stream` identify
    /// the shuffle stream exactly as on the sequential path. Lane `t` sends
    /// as `stream + t`, so the caller owns the ids `stream .. stream + lanes`
    /// (`lanes` = the configured `parallel` workers, else 1) and must not
    /// hand any of them to another stream of the same phase — reserve them
    /// with [`crate::ShuffleController::next_stream_block`].
    ///
    /// # Errors
    /// Heap/registry/corrupt-stream errors from either side; sender-side
    /// errors surface even when the receiver finished cleanly. A failed
    /// transfer adopts nothing: its input buffers are left as filler.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &self,
        sender_vm: &Vm,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        src: NodeId,
        dst: NodeId,
        sid: u8,
        stream: u16,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        self.transfer_with_trace(
            sender_vm,
            receiver_vm,
            dir,
            src,
            dst,
            sid,
            stream,
            roots,
            hooks,
            obs::TraceCtx::NONE,
        )
    }

    /// [`Self::transfer`] under a trace context: opens a
    /// [`obs::names::TRACE_TRANSFER`] root span and threads its child
    /// context through the sender (traversal and chunk-send spans), the
    /// simulated link (occupancy spans on the sim clock), and the receiver
    /// (absorb and fixup spans; GC pauses on the receiving VM are
    /// attributed to this transfer until the next one re-tags it). With
    /// [`obs::TraceCtx::NONE`] — or tracing disabled — the root span and
    /// every span under it are inert.
    ///
    /// # Errors
    /// As for [`Self::transfer`].
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_with_trace(
        &self,
        sender_vm: &Vm,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        src: NodeId,
        dst: NodeId,
        sid: u8,
        stream: u16,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
        parent: obs::TraceCtx,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        let mut root_span = self.metrics.registry.tracer().start(
            obs::names::TRACE_TRANSFER,
            parent,
            &sender_vm.name,
        );
        let r = self.run(
            sender_vm,
            receiver_vm,
            dir,
            src,
            dst,
            sid,
            stream,
            roots,
            hooks,
            root_span.ctx(),
        );
        if let Ok((_, report)) = &r {
            root_span.annotate("bytes", report.send_stats.total_bytes);
            root_span.annotate("chunks", report.chunk_bytes.len() as u64);
            root_span.annotate("pipelined_sim_ns", report.pipelined_ns);
        }
        r
    }

    /// The one transfer path: picks the lane count N and queue depth D,
    /// then runs N sender lanes into N absorb lanes over the receiving
    /// heap's shared old-generation window and ends with one adoption
    /// step on the calling thread (or, on any error, with the input
    /// buffers abandoned as filler).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        sender_vm: &Vm,
        receiver_vm: &mut Vm,
        dir: &TypeDirectory,
        src: NodeId,
        dst: NodeId,
        sid: u8,
        stream: u16,
        roots: &[Addr],
        hooks: Option<&UpdateRegistry>,
        ctx: obs::TraceCtx,
    ) -> Result<(Vec<Addr>, PipelineReport)> {
        let metrics = &self.metrics;
        let send_cfg = SendConfig {
            chunk_limit: self.cfg.chunk_limit,
            receiver_spec: receiver_vm.spec(),
            tracking: SendConfig::for_vm(sender_vm).tracking,
        };
        let (pool_hits0, pool_misses0) = (self.pool.hits(), self.pool.misses());
        // Lane `t` sends as stream `stream + t`.
        let open_sender = |t: usize| -> Result<GraphSender<'_>> {
            Ok(GraphSender::new(sender_vm, dir, src, sid, stream.wrapping_add(t as u16), send_cfg)?
                .with_metrics(Arc::clone(&metrics.registry))
                .with_pool(Arc::clone(&self.pool))
                .with_trace(ctx))
        };

        // Policy. First gate — flat single chunk: when every root is
        // reference-free the whole stream provably fits one chunk (the
        // estimate is an upper bound), so there is nothing to overlap and
        // nothing for N lanes to share; threads, channels and per-chunk
        // bookkeeping would be pure overhead (measurably negative on small
        // flat payloads). Second gate — parallel mode is opt-in, and only
        // pays with enough roots to amortize the per-lane setup (each lane
        // owns a stream, a channel, and an absorber).
        let mut lane0 = open_sender(0)?;
        let depth = self.cfg.depth.max(1);
        let (mode, lanes, depth) =
            if lane0.estimate_flat_bytes(roots, self.cfg.chunk_limit as u64)?.is_some() {
                (TransferMode::Inline, 1, 0)
            } else {
                match self.cfg.parallel {
                    Some(p)
                        if p.workers >= 2
                            && roots.len() >= p.workers * p.min_roots_per_worker.max(1) =>
                    {
                        (TransferMode::Parallel, p.workers, depth)
                    }
                    _ => (TransferMode::Pipelined, 1, depth),
                }
            };
        match mode {
            TransferMode::Inline => metrics.mode_inline.inc(),
            TransferMode::Parallel => metrics.mode_parallel.inc(),
            _ => metrics.mode_pipelined.inc(),
        }
        let thread_cpu = lanes > 1;
        let steal_set = (lanes > 1).then(|| StealSet::new(roots, lanes));
        let feed = |t: usize| match &steal_set {
            Some(set) => RootFeed::stealing(set, t),
            None => RootFeed::Slice(roots.iter()),
        };

        let in_flight = AtomicI64::new(0);
        let max_in_flight = AtomicU64::new(0);
        let mut cores: Vec<AbsorbCore<'_>> = (0..lanes)
            .map(|t| {
                AbsorbCore::new(dir, dst)
                    .with_metrics(Arc::clone(&metrics.registry))
                    .with_trace(ctx, trace_lane(lanes, t))
            })
            .collect();
        if !ctx.is_none() {
            receiver_vm.set_trace_ctx(ctx);
        }
        // Every absorb lane allocates its input buffers through the shared
        // window; `adopt` / `abandon` close it before any `&mut Vm` use.
        receiver_vm.heap_mut().begin_shared_old_alloc();
        let rvm: &Vm = receiver_vm;
        let (sent, absorbed): (Vec<Result<SenderSide>>, Vec<Result<AbsorbSide>>) = if depth == 0 {
            // No thread, no queue: the lane's chunks wait in a local list.
            let mut produced: Vec<InFlight> = Vec::new();
            let sent = sender_lane(
                || Ok(lane0),
                feed(0),
                thread_cpu,
                |item| {
                    produced.push(item);
                    Some(0)
                },
            );
            let mut produced = produced.into_iter();
            let absorbed = self.absorb_lane(&mut cores[0], rvm, hooks, thread_cpu, || {
                produced.next().map(|item| (item, 0))
            });
            (vec![sent], vec![absorbed])
        } else {
            // The only place the engine spawns: one thread per sender lane
            // and — unless the caller is the one absorber — per absorb
            // lane. Everything crosses as shared references (`Vm`, the
            // registry, and the pool are all `Sync`). Each sender owns its
            // channel's `tx` and each absorber its `rx`: whichever side
            // returns first closes the channel and so unblocks the other.
            let mut lane0 = Some(lane0);
            std::thread::scope(|scope| {
                let mut senders = Vec::with_capacity(lanes);
                let mut absorbers = Vec::with_capacity(lanes);
                let mut on_caller = None;
                for (t, core) in cores.iter_mut().enumerate() {
                    let (tx, rx) = mpsc::sync_channel::<InFlight>(depth);
                    let (in_flight, max_in_flight) = (&in_flight, &max_in_flight);
                    let (open_sender, feed, lane) = (&open_sender, feed(t), trace_lane(lanes, t));
                    let reuse = lane0.take();
                    senders.push(scope.spawn(move || {
                        sender_lane(
                            || Ok(reuse.map_or_else(|| open_sender(t), Ok)?.with_lane(lane)),
                            feed,
                            thread_cpu,
                            |item| {
                                // The span covers the (possibly blocking)
                                // hand-off, so backpressure stalls show as
                                // long chunk-send spans in the trace.
                                let mut span = metrics.registry.tracer().start_on(
                                    obs::names::TRACE_SENDER_CHUNK_SEND,
                                    ctx,
                                    &sender_vm.name,
                                    lane,
                                );
                                span.annotate("bytes", item.0.len() as u64);
                                let t0 = Instant::now();
                                tx.send(item).ok()?;
                                let stalled = t0.elapsed().as_nanos() as u64;
                                drop(span);
                                let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                                metrics.chunks_in_flight.set(now);
                                max_in_flight.fetch_max(now.max(0) as u64, Ordering::Relaxed);
                                Some(stalled)
                            },
                        )
                    }));
                    let absorb = move || {
                        // Owned here, so `rx` closes when this lane returns.
                        let (core, rx) = (core, rx);
                        self.absorb_lane(core, rvm, hooks, thread_cpu, || {
                            let t0 = Instant::now();
                            let item = rx.recv().ok()?;
                            let waited = t0.elapsed().as_nanos() as u64;
                            metrics.chunk_stall_ns.record(waited);
                            let now = in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
                            metrics.chunks_in_flight.set(now);
                            Some((item, waited))
                        })
                    };
                    if lanes == 1 {
                        on_caller = Some(absorb());
                    } else {
                        absorbers.push(scope.spawn(absorb));
                    }
                }
                fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
                    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
                }
                (
                    senders.into_iter().map(join).collect(),
                    on_caller.into_iter().chain(absorbers.into_iter().map(join)).collect(),
                )
            })
        };
        metrics.chunks_in_flight.set(0);

        // Sender errors first: a failed sender closes its channel, which
        // makes its absorber fail on the truncated stream — the sender's
        // error is the root cause. Then reassemble the roots: a lane that
        // walked the whole slice delivers them in order; stealing lanes
        // scatter theirs back through their index tables.
        let merge0 = Instant::now();
        let gathered = sent.into_iter().collect::<Result<Vec<SenderSide>>>().and_then(|sent| {
            let absorbed = absorbed.into_iter().collect::<Result<Vec<AbsorbSide>>>()?;
            let mut roots_out = vec![Addr::NULL; if lanes == 1 { 0 } else { roots.len() }];
            for (t, (s, core)) in sent.iter().zip(&mut cores).enumerate() {
                let lane_roots = core.take_roots();
                let emitted = if lanes == 1 { roots.len() } else { s.sent.order.len() };
                if lane_roots.len() != emitted {
                    return Err(Error::BadFrame(format!(
                        "lane {t} absorbed {} roots but its sender emitted {emitted}",
                        lane_roots.len()
                    )));
                }
                if lanes == 1 {
                    roots_out = lane_roots;
                } else {
                    for (&orig, root) in s.sent.order.iter().zip(lane_roots) {
                        roots_out[orig as usize] = root;
                    }
                }
            }
            Ok((sent, absorbed, roots_out))
        });
        let (sent, absorbed, roots_out) = match gathered {
            Ok(parts) => parts,
            Err(e) => {
                receiver::abandon(receiver_vm, &cores);
                return Err(e);
            }
        };
        let recv_stats = receiver::adopt(receiver_vm, &mut cores, hooks)?;
        let merge_ns = merge0.elapsed().as_nanos() as u64;

        metrics.steals.add(steal_set.map_or(0, |s| s.steals()));
        let pool_hits = self.pool.hits() - pool_hits0;
        let pool_misses = self.pool.misses() - pool_misses0;
        metrics.pool_hits.add(pool_hits);
        metrics.pool_misses.add(pool_misses);
        let report = self.schedule(
            &sent,
            &absorbed,
            merge_ns,
            recv_stats,
            mode,
            pool_hits,
            pool_misses,
            max_in_flight.load(Ordering::Relaxed),
            ctx,
            &sender_vm.name,
        );
        metrics.stall_ns.add(report.sender_stall_ns + report.receiver_stall_ns);
        Ok((roots_out, report))
    }

    /// The absorber-lane body: places and absolutizes every chunk `take`
    /// yields (with how long the lane waited for it) until the stream
    /// ends, then drains the stream's own fixups. Chunk backings go back to
    /// the pool as soon as their bytes are in the heap.
    fn absorb_lane(
        &self,
        core: &mut AbsorbCore<'_>,
        vm: &Vm,
        hooks: Option<&UpdateRegistry>,
        thread_cpu: bool,
        mut take: impl FnMut() -> Option<(InFlight, u64)>,
    ) -> Result<AbsorbSide> {
        let now = lane_clock(thread_cpu);
        let mut timeline = Vec::new();
        let mut stall_ns = 0u64;
        while let Some(((chunk, ready_ns), waited)) = take() {
            stall_ns += waited;
            let t0 = now();
            core.push_chunk(vm, &chunk)?;
            core.absorb_ready(vm, hooks)?;
            timeline.push((ready_ns, chunk.len() as u64, now().saturating_sub(t0)));
            self.pool.release(chunk);
        }
        let t0 = now();
        core.finish_stream(vm, hooks)?;
        Ok(AbsorbSide { timeline, fixup_ns: now().saturating_sub(t0), stall_ns })
    }

    /// Builds the simulated-time schedule from the lanes' measured
    /// timelines: each chunk becomes ready at its lane's (scaled)
    /// cumulative produce time; every lane's chunks contend for ONE shared
    /// [`LinkClock`] in ready order (within a lane ready times are
    /// cumulative, so the global sort keeps each stream's chunk order) and
    /// chain through that lane's absorber; the transfer ends when the
    /// slowest lane has drained its fixups, plus the adoption step.
    #[allow(clippy::too_many_arguments)]
    fn schedule(
        &self,
        sent: &[SenderSide],
        absorbed: &[AbsorbSide],
        merge_ns: u64,
        recv_stats: ReceiveStats,
        mode: TransferMode,
        pool_hits: u64,
        pool_misses: u64,
        max_in_flight: u64,
        ctx: obs::TraceCtx,
        link_node: &str,
    ) -> PipelineReport {
        let scale = |ns: u64| -> u64 { (ns as f64 * self.cfg.sim.sd_cpu_scale) as u64 };
        // (scaled ready, lane, bytes, scaled absorb) for every chunk.
        let mut events: Vec<(u64, usize, u64, u64)> = absorbed
            .iter()
            .enumerate()
            .flat_map(|(t, a)| a.timeline.iter().map(move |&(r, b, ns)| (r, t, b, ns)))
            .map(|(ready, t, bytes, ns)| (scale(ready), t, bytes, scale(ns)))
            .collect();
        events.sort_by_key(|&(ready, t, _, _)| (ready, t));
        let mut link = LinkClock::new(&self.cfg.sim);
        let mut absorber_free = vec![0u64; absorbed.len()];
        let mut absorb_ns = scale(merge_ns);
        let mut chunk_bytes = Vec::with_capacity(events.len());
        for &(ready, t, bytes, absorb) in &events {
            let xmit = link.send_traced(ready, bytes);
            self.metrics.registry.tracer().record_sim_on(
                obs::names::TRACE_LINK_XMIT,
                ctx,
                link_node,
                trace_lane(absorbed.len(), t),
                xmit.start_ns,
                xmit.end_ns,
                &[("bytes", bytes)],
            );
            absorber_free[t] = absorber_free[t].max(xmit.arrival_ns) + absorb;
            absorb_ns += absorb;
            chunk_bytes.push(bytes);
        }
        let mut slowest_lane = 0;
        for (a, free) in absorbed.iter().zip(&absorber_free) {
            slowest_lane = slowest_lane.max(free + scale(a.fixup_ns));
            absorb_ns += scale(a.fixup_ns);
        }
        let mut send_stats = SendStats::default();
        sent.iter().for_each(|s| send_stats.merge(&s.sent.stats));
        PipelineReport {
            send_stats,
            recv_stats,
            chunk_bytes,
            pipelined_ns: slowest_lane + scale(merge_ns),
            produce_ns: scale(sent.iter().map(|s| s.produce_ns).sum()),
            absorb_ns,
            sender_stall_ns: sent.iter().map(|s| s.stall_ns).sum(),
            receiver_stall_ns: absorbed.iter().map(|a| a.stall_ns).sum(),
            pool_hits,
            pool_misses,
            max_in_flight,
            mode,
            workers: sent.len() as u64,
        }
    }
}

/// A sequential (three-phase) reference transfer over the same VM pair,
/// the baseline the equivalence tests compare the engine against: send
/// everything, then push every chunk, then absolutize in one pass.
///
/// # Errors
/// Heap/registry/corrupt-stream errors.
#[allow(clippy::too_many_arguments)]
pub fn sequential_transfer(
    sender_vm: &Vm,
    receiver_vm: &mut Vm,
    dir: &TypeDirectory,
    src: NodeId,
    dst: NodeId,
    sid: u8,
    stream: u16,
    roots: &[Addr],
    hooks: Option<&UpdateRegistry>,
    cfg: SendConfig,
) -> Result<(Vec<Addr>, SendStats, ReceiveStats)> {
    let mut gs = GraphSender::new(sender_vm, dir, src, sid, stream, cfg)?;
    for &root in roots {
        gs.write_root(root)?;
    }
    let out = gs.finish();
    let mut gr = GraphReceiver::new(receiver_vm, dir, dst);
    for c in &out.chunks {
        gr.push_chunk(c)?;
    }
    let (roots_out, recv_stats) = gr.finish(hooks)?;
    Ok((roots_out, out.stats, recv_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::{stdlib::define_core_classes, ClassPath, HeapConfig};

    fn env() -> (Arc<TypeDirectory>, Vm, Vm) {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        let sender = Vm::new("s", &HeapConfig::small(), Arc::clone(&cp)).unwrap();
        let receiver = Vm::new("r", &HeapConfig::small(), cp).unwrap();
        let dir = Arc::new(TypeDirectory::new(2, NodeId(0)));
        dir.bootstrap_driver(&sender).unwrap();
        dir.worker_startup(NodeId(1)).unwrap();
        (dir, sender, receiver)
    }

    #[test]
    fn pipelined_matches_sequential_roots() {
        let (dir, mut s, mut r) = env();
        let mut root_addrs = Vec::new();
        for i in 0..64 {
            root_addrs.push(s.new_string(&format!("payload {i} {}", "x".repeat(i))).unwrap());
        }
        let engine =
            PipelineEngine::new(PipelineConfig { chunk_limit: 256, ..PipelineConfig::default() });
        let (got, report) = engine
            .transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &root_addrs, None)
            .unwrap();
        assert_eq!(got.len(), root_addrs.len());
        for (i, a) in got.iter().enumerate() {
            assert!(r.read_string(*a).unwrap().starts_with(&format!("payload {i} ")));
        }
        // Same work as the sequential reference path over identical input.
        let (dir2, mut s2, mut r2) = env();
        let mut addrs2 = Vec::new();
        for i in 0..64 {
            addrs2.push(s2.new_string(&format!("payload {i} {}", "x".repeat(i))).unwrap());
        }
        let cfg = SendConfig { chunk_limit: 256, ..SendConfig::for_vm(&s2) };
        let (got2, sstats2, rstats2) = sequential_transfer(
            &s2,
            &mut r2,
            &dir2,
            NodeId(0),
            NodeId(1),
            1,
            1,
            &addrs2,
            None,
            cfg,
        )
        .unwrap();
        assert_eq!(got2.len(), got.len());
        assert_eq!(report.recv_stats.objects, rstats2.objects);
        assert_eq!(report.recv_stats.bytes, rstats2.bytes);
        assert_eq!(report.recv_stats.ref_fixups, rstats2.ref_fixups);
        assert_eq!(report.send_stats.total_bytes, sstats2.total_bytes);
        assert!(report.chunk_bytes.len() > 1, "test must span multiple chunks");
        assert_eq!(
            report.chunk_bytes.iter().sum::<u64>(),
            report.send_stats.total_bytes,
            "every produced byte crossed the channel"
        );
    }

    #[test]
    fn second_transfer_reuses_every_backing() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..32 {
            addrs.push(s.new_string(&format!("pooled {i}")).unwrap());
        }
        let reg = Arc::new(obs::Registry::new());
        // Exact hit/miss assertions need an isolated pool — the global
        // per-node pool aggregates every concurrently running test.
        let engine =
            PipelineEngine::new(PipelineConfig { chunk_limit: 128, ..PipelineConfig::default() })
                .with_metrics(Arc::clone(&reg))
                .with_pool(ChunkPool::new());
        let (_, first) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert!(first.pool_misses > 0, "cold pool must allocate");
        let (_, second) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 2, &addrs, None).unwrap();
        // The warm pool serves the second run: it reuses backings (hits)
        // and never allocates more than the cold run's peak did — exact
        // zero would be flaky, since the peak of concurrently outstanding
        // chunks depends on thread scheduling.
        assert!(
            second.pool_misses <= first.pool_misses,
            "steady state allocates no more than cold"
        );
        assert!(second.pool_hits > 0, "warm pool must serve backings");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(obs::names::PIPELINE_POOL_MISSES),
            first.pool_misses + second.pool_misses
        );
        assert!(snap.counter(obs::names::PIPELINE_POOL_HITS) >= second.pool_hits);
    }

    #[test]
    fn flat_roots_take_single_chunk_fallback() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..16 {
            addrs.push(s.new_integer(i).unwrap());
        }
        // Isolated pool: the test asserts exact steady-state miss counts.
        let engine = PipelineEngine::new(PipelineConfig::default()).with_pool(ChunkPool::new());
        let (got, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert_eq!(got.len(), 16);
        for (i, a) in got.iter().enumerate() {
            assert_eq!(r.get_int(*a, "value").unwrap(), i as i32);
        }
        assert_eq!(report.mode, TransferMode::Inline);
        assert_eq!(report.chunk_bytes.len(), 1, "flat graph travels as one chunk");
        assert_eq!(report.max_in_flight, 0, "fallback never opens the channel");
        assert_eq!(report.sender_stall_ns + report.receiver_stall_ns, 0);
        assert_eq!(report.chunk_bytes[0], report.send_stats.total_bytes);
        // The pool serves the fallback too: an identical second transfer
        // runs entirely on the released backing.
        let (_, second) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 2, &addrs, None).unwrap();
        assert_eq!(second.pool_misses, 0, "steady-state fallback allocates nothing");
        assert!(second.pool_hits > 0);
        // A ref-bearing root disqualifies the graph and keeps the
        // overlapped path (strings reference their char arrays). The mode
        // is the deterministic witness — max_in_flight depends on thread
        // scheduling and can legitimately be 0 on a busy host.
        let mixed = [addrs[0], s.new_string("not flat").unwrap()];
        let (_, threaded) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 3, &mixed, None).unwrap();
        assert_eq!(threaded.mode, TransferMode::Pipelined, "ref-bearing roots stay pipelined");
    }

    #[test]
    fn parallel_transfer_matches_sequential() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..48 {
            addrs.push(s.new_string(&format!("parallel payload {i} {}", "y".repeat(i))).unwrap());
        }
        let par = ParallelConfig { workers: 4, min_roots_per_worker: 1 };
        let reg = Arc::new(obs::Registry::new());
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: 256,
            parallel: Some(par),
            ..PipelineConfig::default()
        })
        .with_metrics(Arc::clone(&reg));
        let (got, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert_eq!(report.mode, TransferMode::Parallel);
        assert_eq!(report.workers, 4);
        // The mode census and the work-stealing counters reach the registry
        // (their values depend on scheduling; their presence does not).
        let snap = reg.snapshot();
        assert_eq!(snap.counter(obs::names::PIPELINE_MODE_PARALLEL), 1);
        for key in [obs::names::SENDER_STEALS, obs::names::SENDER_CAS_CONFLICTS] {
            assert!(snap.counters.contains_key(key), "{key} missing from the snapshot");
        }
        assert_eq!(got.len(), addrs.len());
        // Root order is restored from the per-stream index tables even
        // though workers interleave and steal.
        for (i, a) in got.iter().enumerate() {
            assert!(r.read_string(*a).unwrap().starts_with(&format!("parallel payload {i} ")));
        }
        // Strings share nothing, so parallel absorbs exactly the
        // sequential object population.
        let (dir2, mut s2, mut r2) = env();
        let mut addrs2 = Vec::new();
        for i in 0..48 {
            addrs2.push(s2.new_string(&format!("parallel payload {i} {}", "y".repeat(i))).unwrap());
        }
        let cfg = SendConfig { chunk_limit: 256, ..SendConfig::for_vm(&s2) };
        let (got2, sstats2, rstats2) = sequential_transfer(
            &s2,
            &mut r2,
            &dir2,
            NodeId(0),
            NodeId(1),
            1,
            1,
            &addrs2,
            None,
            cfg,
        )
        .unwrap();
        assert_eq!(got2.len(), got.len());
        assert_eq!(report.recv_stats.objects, rstats2.objects);
        assert_eq!(report.recv_stats.bytes, rstats2.bytes);
        assert_eq!(report.recv_stats.ref_fixups, rstats2.ref_fixups);
        assert_eq!(report.send_stats.objects, sstats2.objects);
        assert_eq!(report.send_stats.total_bytes, sstats2.total_bytes);
        assert_eq!(
            report.chunk_bytes.iter().sum::<u64>(),
            report.send_stats.total_bytes,
            "every produced byte crossed a channel"
        );
        // The receiving heap stays coherent for further mutation: a GC
        // after the parallel absorb must keep every transferred string.
        let keep: Vec<_> = got.iter().map(|&a| r.handle(a)).collect();
        r.full_gc().unwrap();
        for (i, h) in keep.iter().enumerate() {
            let a = r.resolve(*h).unwrap();
            assert!(r.read_string(a).unwrap().starts_with(&format!("parallel payload {i} ")));
        }
    }

    #[test]
    fn parallel_policy_falls_back_below_root_floor() {
        let (dir, mut s, mut r) = env();
        let mut addrs = Vec::new();
        for i in 0..6 {
            addrs.push(s.new_string(&format!("few {i}")).unwrap());
        }
        // 6 roots < 4 workers × 8 roots/worker → pipelined, not parallel.
        let reg = Arc::new(obs::Registry::new());
        let engine = PipelineEngine::new(PipelineConfig {
            chunk_limit: 128,
            parallel: Some(ParallelConfig { workers: 4, ..Default::default() }),
            ..PipelineConfig::default()
        })
        .with_metrics(Arc::clone(&reg));
        let (_, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        assert_eq!(report.mode, TransferMode::Pipelined);
        assert_eq!(report.workers, 1);
        // And a flat graph that fits one chunk stays inline even with
        // parallel enabled and enough roots for the worker floor.
        let roomy = PipelineEngine::new(PipelineConfig {
            parallel: Some(ParallelConfig { workers: 4, ..Default::default() }),
            ..PipelineConfig::default()
        })
        .with_metrics(Arc::clone(&reg));
        let flat: Vec<Addr> = (0..64).map(|i| s.new_integer(i).unwrap()).collect();
        let (_, flat_report) =
            roomy.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 2, &flat, None).unwrap();
        assert_eq!(flat_report.mode, TransferMode::Inline);
        // The registry's mode census saw exactly those two decisions.
        let snap = reg.snapshot();
        assert_eq!(snap.counter(obs::names::PIPELINE_MODE_PIPELINED), 1);
        assert_eq!(snap.counter(obs::names::PIPELINE_MODE_INLINE), 1);
        assert_eq!(snap.counter(obs::names::PIPELINE_MODE_PARALLEL), 0);
    }

    /// The failure path of the one engine, for one lane and for two: a
    /// receiver too small for the payload fails the transfer mid-stream,
    /// every thread joins, nothing is adopted or published, the heap stays
    /// walkable, and the same engine then serves a receiver that is large
    /// enough.
    #[test]
    fn mid_stream_failure_unwinds_cleanly() {
        for lanes in [1usize, 2] {
            let cp = ClassPath::new();
            define_core_classes(&cp);
            let vm = |name: &str, capacity: usize| {
                Vm::new(name, &HeapConfig::small().with_capacity(capacity), Arc::clone(&cp))
                    .unwrap()
            };
            let (mut s, mut big, mut tiny) =
                (vm("s", 8 << 20), vm("big", 8 << 20), vm("tiny", 256 << 10));
            let dir = TypeDirectory::new(2, NodeId(0));
            dir.bootstrap_driver(&s).unwrap();
            dir.worker_startup(NodeId(1)).unwrap();
            // ~400 KiB of strings (all in the sender's eden, so no address
            // moves) against an old generation of ~180 KiB: the first
            // chunks fit, a later one cannot.
            let roots: Vec<Addr> = (0..128)
                .map(|i| s.new_string(&format!("{i} {}", "z".repeat(1500))).unwrap())
                .collect();
            let reg = Arc::new(obs::Registry::new());
            let engine = PipelineEngine::new(PipelineConfig {
                chunk_limit: 8 << 10,
                parallel: (lanes > 1)
                    .then_some(ParallelConfig { workers: lanes, min_roots_per_worker: 1 }),
                ..PipelineConfig::default()
            })
            .with_metrics(Arc::clone(&reg))
            .with_pool(ChunkPool::new());
            let receiver_counters = || {
                use obs::names as n;
                let snap = reg.snapshot();
                [
                    n::RECEIVER_OBJECTS_ABSORBED,
                    n::RECEIVER_BYTES_ABSORBED,
                    n::RECEIVER_CHUNKS_ABSORBED,
                    n::RECEIVER_REF_FIXUPS,
                    n::RECEIVER_CLASSES_LOADED,
                ]
                .map(|name| snap.counter(name))
            };

            let err = engine
                .transfer(&s, &mut tiny, &dir, NodeId(0), NodeId(1), 1, 1, &roots, None)
                .unwrap_err();
            assert!(
                matches!(err, Error::Heap(mheap::Error::OldGenFull { .. })),
                "{lanes} lane(s): {err}"
            );
            // Getting here at all means every lane thread unblocked and
            // joined. The shared window is closed: opening it again must
            // not trip its debug assertion.
            tiny.heap_mut().begin_shared_old_alloc();
            tiny.heap_mut().end_shared_old_alloc();
            assert_eq!(reg.snapshot().gauge(obs::names::PIPELINE_CHUNKS_IN_FLIGHT), 0);
            assert_eq!(tiny.verify_heap().unwrap(), vec![], "{lanes} lane(s)");
            assert_eq!(receiver_counters(), [0; 5], "an abandoned stream publishes nothing");

            // A new sID, as any sender starting its next shuffle phase uses.
            let (got, report) = engine
                .transfer(&s, &mut big, &dir, NodeId(0), NodeId(1), 2, 1, &roots, None)
                .unwrap();
            assert_eq!(report.workers, lanes as u64);
            assert_eq!(got.len(), roots.len());
            for (i, a) in got.iter().enumerate() {
                assert!(big.read_string(*a).unwrap().starts_with(&format!("{i} z")));
            }
            assert_eq!(big.verify_heap().unwrap(), vec![]);
            let rs = report.recv_stats;
            assert_eq!(
                receiver_counters(),
                [rs.objects, rs.bytes, rs.chunks, rs.ref_fixups, rs.classes_loaded],
                "{lanes} lane(s): the adopted transfer publishes exactly its ReceiveStats"
            );
        }
    }

    #[test]
    fn report_charges_cluster_stream() {
        let (dir, mut s, mut r) = env();
        let addrs = [s.new_string("charged").unwrap()];
        let engine = PipelineEngine::new(PipelineConfig::default());
        let (_, report) =
            engine.transfer(&s, &mut r, &dir, NodeId(0), NodeId(1), 1, 1, &addrs, None).unwrap();
        let mut cluster = Cluster::new(2, SimConfig::default());
        report.charge(&mut cluster, NodeId(0), NodeId(1)).unwrap();
        let p = cluster.profile(NodeId(1));
        assert_eq!(p.bytes_remote, report.send_stats.total_bytes);
        assert_eq!(cluster.profile(NodeId(0)).ns(simnet::Category::Ser), report.produce_ns);
        assert_eq!(cluster.profile(NodeId(1)).ns(simnet::Category::Deser), report.absorb_ns);
        assert_eq!(cluster.profile(NodeId(0)).objects_transferred, report.send_stats.objects);
    }
}
