//! The four transfer workloads: one sender `Vm`, one receiver `Vm`, one
//! payload, driven either through the public one-call entry points
//! (untraced windows) or one layer call at a time (the staged pass).

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mheap::{Addr, ClassPath, Handle, HeapConfig, Vm};
use rand::rngs::StdRng;
use rand::Rng;
use segstore::{shared_transfer, SegStore};
use serlab::jsbs::{build_media_content, define_jsbs_classes, verify_media_content};
use simnet::{LinkClock, NodeId, SimConfig};
use skyway::buffer::{frame_chunks, parse_frames};
use skyway::{
    scrub_baddrs, GraphReceiver, GraphSender, PipelineConfig, PipelineEngine, PipelineReport,
    SendConfig, ShuffleController, Tracking, TransferMode, TypeDirectory,
};
use sparklite::classes::{define_spark_classes, new_edge, read_edge};

use crate::catalog::Workload;
use crate::inputs::{self, Size};
use crate::spans::SpanLog;
use crate::Res;

const SRC: NodeId = NodeId(0);
const DST: NodeId = NodeId(1);
/// Heap of every sender and receiver VM.
pub(crate) const HEAP_BYTES: usize = 256 << 20;
/// Graphs recv-gc keeps alive through handles (≈ 24 MB at full size).
const LIVE_GRAPHS: usize = 8;
/// Received records checked after every transfer.
const VERIFY_SAMPLE: usize = 16;
/// Stream ids one shuffle phase can hand out before they repeat.
const STREAMS_PER_PHASE: u32 = 0xfffe;

/// What the receiver must hold after a transfer, root by root.
enum Expect {
    Media(Vec<u64>),
    Edges(Vec<(u64, u64)>),
}

fn verify_one(expect: &Expect, vm: &Vm, root: Addr, i: usize) -> Res<bool> {
    Ok(match expect {
        Expect::Media(ids) => verify_media_content(vm, root, ids[i])?,
        Expect::Edges(edges) => read_edge(vm, root)? == (edges[i].0 as i64, edges[i].1 as i64),
    })
}

/// Everything one window (or staged pass) observed from outside.
#[derive(Debug, Default)]
pub(crate) struct Window {
    /// Per operation: (timed nanoseconds, objects delivered).
    pub ops: Vec<(u64, u64)>,
    /// Wall of the `transfer` / `shared_transfer` call inside each op.
    pub transfer_ns: Vec<f64>,
    /// Indices of recv-gc cycles that ran the in-cycle `full_gc`.
    pub full_gc_ops: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub wire_bytes: u64,
    pub objects: u64,
    pub minor_ns: Vec<f64>,
    pub full_ns: Vec<f64>,
    pub sender_stall_ns: Vec<f64>,
    pub receiver_stall_ns: Vec<f64>,
    pub scheduled_ns: Vec<f64>,
    pub max_in_flight: u64,
    pub inline: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl Window {
    fn note_report(&mut self, r: &PipelineReport) {
        self.wire_bytes += r.send_stats.total_bytes;
        self.objects += r.send_stats.objects;
        self.sender_stall_ns.push(r.sender_stall_ns as f64);
        self.receiver_stall_ns.push(r.receiver_stall_ns as f64);
        self.scheduled_ns.push(r.pipelined_ns as f64);
        self.max_in_flight = self.max_in_flight.max(r.max_in_flight);
        self.inline += u64::from(r.mode == TransferMode::Inline);
        self.pool_hits += r.pool_hits;
        self.pool_misses += r.pool_misses;
    }
}

/// One workload's VMs, payload and transfer machinery, reused for the
/// whole run.
pub(crate) struct Rig {
    kind: Workload,
    pub sender: Vm,
    pub receiver: Vm,
    pub dir: TypeDirectory,
    roots: Vec<Addr>,
    expect: Expect,
    controller: ShuffleController,
    streams_left: u32,
    /// Phases opened because the stream ids wrapped (untimed, counted).
    pub stream_wraps: u64,
    /// `scrub_baddrs` runs because the one-byte `sID` wrapped too.
    pub sid_scrubs: u64,
    engine: PipelineEngine,
    store: SegStore,
    /// Second attacher of the sealed segment (staged colocated pass only).
    extra_receiver: Option<Vm>,
    classpath: Arc<ClassPath>,
    live: VecDeque<Vec<Handle>>,
    rng: StdRng,
    /// Use `transfer_with_trace` under a live `obs` trace context.
    pub obs_traced: bool,
    /// How long the payload allocation in set-up took.
    pub build_ms: f64,
}

fn heap_config() -> HeapConfig {
    HeapConfig::default().with_capacity(HEAP_BYTES)
}

impl Rig {
    /// Set-up: classpath, both VMs, directory bootstrap, payload build.
    pub fn build(kind: Workload, seed: u64, size: Size) -> Res<Rig> {
        let cp = ClassPath::new();
        let flat = kind == Workload::FlatShuffle;
        if flat {
            define_spark_classes(&cp);
        } else {
            define_jsbs_classes(&cp);
        }
        let mut sender = Vm::new("bench-s", &heap_config(), Arc::clone(&cp))?;
        let receiver = Vm::new("bench-r", &heap_config(), Arc::clone(&cp))?;
        let dir = TypeDirectory::new(2, SRC);
        dir.bootstrap_driver(&sender)?;
        dir.worker_startup(DST)?;

        let t0 = Instant::now();
        let mut handles = Vec::new();
        let expect = if flat {
            let edges = inputs::edges(seed, size.edge_scale());
            for &(s, d) in &edges {
                let e = new_edge(&mut sender, s as i64, d as i64)?;
                handles.push(sender.handle(e));
            }
            Expect::Edges(edges)
        } else {
            let ids = inputs::media_ids(seed, size.media_records());
            for &id in &ids {
                handles.push(build_media_content(&mut sender, id)?);
            }
            Expect::Media(ids)
        };
        // The sender allocates nothing after this point, so the resolved
        // addresses stay valid for the whole run.
        let roots = handles.iter().map(|h| sender.resolve(*h)).collect::<Result<Vec<_>, _>>()?;
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        Ok(Rig {
            kind,
            sender,
            receiver,
            dir,
            roots,
            expect,
            controller: ShuffleController::new(),
            streams_left: STREAMS_PER_PHASE,
            stream_wraps: 0,
            sid_scrubs: 0,
            engine: PipelineEngine::new(PipelineConfig::default()),
            store: SegStore::new(),
            extra_receiver: None,
            classpath: cp,
            live: VecDeque::new(),
            rng: inputs::verify_rng(seed),
            obs_traced: false,
            build_ms,
        })
    }

    /// A `(sid, stream)` pair no earlier transfer of this rig used. When
    /// the stream ids of the phase are spent it opens the next phase, and
    /// scrubs the sender's `baddr` words when the `sID` wrapped as well.
    fn fresh_ids(&mut self) -> Res<(u8, u16)> {
        if self.streams_left == 0 {
            self.stream_wraps += 1;
            if self.controller.start_phase() {
                scrub_baddrs(&mut self.sender)?;
                self.sid_scrubs += 1;
            }
            self.streams_left = STREAMS_PER_PHASE;
        }
        self.streams_left -= 1;
        Ok((self.controller.sid(), self.controller.next_stream()))
    }

    /// Untimed receiver reclamation: nothing the engine workloads receive
    /// stays rooted, so a full collection empties the old generation.
    fn reclaim(&mut self, w: &mut Window) -> Res<()> {
        if self.kind != Workload::RecvGc
            && self.receiver.heap().used() * 2 > self.receiver.heap().capacity()
        {
            let t = Instant::now();
            self.receiver.full_gc()?;
            w.full_ns.push(t.elapsed().as_nanos() as f64);
        }
        Ok(())
    }

    fn old_gen_past_half(&self) -> bool {
        let (_, _, _, old) = self.receiver.heap().spaces();
        old.used() * 2 > old.size()
    }

    /// The output oracle: stats agree, every root arrived, and the sampled
    /// (or all) received records equal what the sender built.
    fn check(&mut self, out: &[Addr], report: &PipelineReport, all: bool) -> Res<bool> {
        if out.len() != self.roots.len()
            || report.recv_stats.objects != report.send_stats.objects
            || report.recv_stats.bytes != report.send_stats.total_bytes
        {
            return Ok(false);
        }
        let n = out.len();
        if all {
            for (i, &root) in out.iter().enumerate() {
                if !verify_one(&self.expect, &self.receiver, root, i)? {
                    return Ok(false);
                }
            }
        } else {
            for _ in 0..VERIFY_SAMPLE {
                let i = self.rng.gen_range(0..n);
                if !verify_one(&self.expect, &self.receiver, out[i], i)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn engine_transfer(&mut self) -> Res<(Vec<Addr>, PipelineReport, u64)> {
        let (sid, stream) = self.fresh_ids()?;
        let ctx = if self.obs_traced {
            self.controller.begin_transfer(obs::TraceCtx::NONE)
        } else {
            obs::TraceCtx::NONE
        };
        let t0 = Instant::now();
        let (out, report) = if self.obs_traced {
            self.engine.transfer_with_trace(
                &self.sender,
                &mut self.receiver,
                &self.dir,
                SRC,
                DST,
                sid,
                stream,
                &self.roots,
                None,
                ctx,
            )?
        } else {
            self.engine.transfer(
                &self.sender,
                &mut self.receiver,
                &self.dir,
                SRC,
                DST,
                sid,
                stream,
                &self.roots,
                None,
            )?
        };
        Ok((out, report, t0.elapsed().as_nanos() as u64))
    }

    /// One timed `shared_transfer` (seal + attach).
    fn shared(&mut self) -> Res<(Vec<Addr>, PipelineReport, u64)> {
        let t0 = Instant::now();
        let (out, report) = shared_transfer(
            &self.store,
            &self.sender,
            &mut self.receiver,
            &self.dir,
            SRC,
            &self.roots,
        )?;
        Ok((out, report, t0.elapsed().as_nanos() as u64))
    }

    /// Untimed: detaches the segment `shared` just attached (the newest;
    /// bases are bump-allocated) and reclaims it.
    fn release_shared(&mut self) -> Res<()> {
        let base = self.store.bases().into_iter().max().ok_or("no live segment")?;
        self.store.detach(&mut self.receiver, base)?;
        self.store.advance_epoch();
        self.store.advance_epoch();
        Ok(())
    }

    /// Roots a graph with handles, drops the graph that falls out of the
    /// live window, and collects: the consumer half of a recv-gc cycle.
    fn root_and_collect(&mut self, out: &[Addr], w: &mut Window) -> Res<bool> {
        let handles: Vec<Handle> = out.iter().map(|&a| self.receiver.handle(a)).collect();
        self.live.push_back(handles);
        if self.live.len() > LIVE_GRAPHS {
            for h in self.live.pop_front().unwrap_or_default() {
                self.receiver.release(h)?;
            }
        }
        let t = Instant::now();
        self.receiver.minor_gc()?;
        w.minor_ns.push(t.elapsed().as_nanos() as f64);
        let full = self.old_gen_past_half();
        if full {
            let t = Instant::now();
            self.receiver.full_gc()?;
            w.full_ns.push(t.elapsed().as_nanos() as f64);
        }
        Ok(full)
    }

    /// Current addresses of the newest live graph.
    fn newest_live(&self) -> Res<Vec<Addr>> {
        let hs = self.live.back().ok_or("no live graph")?;
        Ok(hs.iter().map(|h| self.receiver.resolve(*h)).collect::<Result<Vec<_>, _>>()?)
    }

    fn try_op(&mut self, w: &mut Window, check_all: bool) -> Res<bool> {
        match self.kind {
            Workload::GraphClone | Workload::FlatShuffle => {
                self.reclaim(w)?;
                let (out, report, ns) = self.engine_transfer()?;
                w.ops.push((ns, report.send_stats.objects));
                w.transfer_ns.push(ns as f64);
                w.note_report(&report);
                self.check(&out, &report, check_all)
            }
            Workload::RecvGc => {
                let t0 = Instant::now();
                let (out, report, transfer_ns) = self.engine_transfer()?;
                let full = self.root_and_collect(&out, w)?;
                let ns = t0.elapsed().as_nanos() as u64;
                if full {
                    w.full_gc_ops.push(w.ops.len());
                }
                w.ops.push((ns, report.send_stats.objects));
                w.transfer_ns.push(transfer_ns as f64);
                w.note_report(&report);
                // A full collection may have moved the graph: check it
                // where its handles say it is now.
                let out = self.newest_live()?;
                self.check(&out, &report, check_all)
            }
            Workload::ColocatedAttach => {
                let (out, report, ns) = self.shared()?;
                w.ops.push((ns, report.send_stats.objects));
                w.transfer_ns.push(ns as f64);
                w.note_report(&report);
                let ok = self.check(&out, &report, check_all)?;
                self.release_shared()?;
                Ok(ok)
            }
            Workload::SparkWc => Err("spark-wc is not a transfer rig".into()),
        }
    }

    /// One closed-loop operation, counted into the window's oracle.
    pub fn op(&mut self, w: &mut Window, check_all: bool) {
        w.attempted += 1;
        match self.try_op(w, check_all) {
            Ok(true) => {}
            Ok(false) => {
                w.failed += 1;
                if w.failed <= 3 {
                    eprintln!("skybench: {}: output check failed", self.kind.name());
                }
            }
            Err(e) => {
                w.failed += 1;
                if w.failed <= 3 {
                    eprintln!("skybench: {}: operation failed: {e}", self.kind.name());
                }
            }
        }
    }

    /// Runs operations back to back until `dur` has passed.
    pub fn window(&mut self, dur: Duration) -> Window {
        let mut w = Window::default();
        let t0 = Instant::now();
        while t0.elapsed() < dur {
            self.op(&mut w, false);
        }
        w
    }

    /// After a window: one more operation with every received record
    /// checked, then `verify_heap` on both VMs. Returns the verify wall.
    pub fn final_checks(&mut self, w: &mut Window) -> Res<f64> {
        self.op(w, true);
        let t = Instant::now();
        for vm in [&self.sender, &self.receiver] {
            let faults = vm.verify_heap()?;
            if !faults.is_empty() {
                w.failed += 1;
                eprintln!(
                    "skybench: {}: {} heap faults, first: {}",
                    vm.name,
                    faults.len(),
                    faults[0]
                );
            }
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    /// The first transfer of a fresh rig: its exact counts are the same
    /// for every run with one seed (placement included).
    pub fn census(&mut self) -> Res<PipelineReport> {
        let report = match self.kind {
            Workload::ColocatedAttach => {
                let report = self.shared()?.1;
                self.release_shared()?;
                report
            }
            _ => self.engine_transfer()?.1,
        };
        if self.kind == Workload::RecvGc {
            // Leave the receiver as empty as the other engine rigs start.
            self.receiver.full_gc()?;
        }
        Ok(report)
    }

    /// One staged transfer: the layers driven one public call at a time,
    /// a bench-side span around each. Returns the staged total (the root
    /// span) in nanoseconds and the modeled link-busy nanoseconds.
    pub fn staged_op(&mut self, log: &mut SpanLog, id: u32, w: &mut Window) -> Res<(u64, u64)> {
        if self.kind == Workload::ColocatedAttach {
            return self.staged_shared(log, id).map(|ns| (ns, 0));
        }
        self.reclaim(w)?;
        let (sid, stream) = self.fresh_ids()?;
        let chunk_limit = self.engine.config().chunk_limit;
        let cfg = SendConfig {
            chunk_limit,
            receiver_spec: self.receiver.spec(),
            tracking: Tracking::Baddr,
        };
        let pool = Arc::clone(self.engine.pool());
        let roots = &self.roots;

        log.open_root(id);
        let mut gs = log.timed("core.sender.new", id, || {
            GraphSender::new(&self.sender, &self.dir, SRC, sid, stream, cfg)
                .map(|g| g.with_pool(Arc::clone(&pool)))
        })?;
        // The engine's first mode gate, which every transfer pays.
        log.timed("core.sender.estimate_flat", id, || {
            gs.estimate_flat_bytes(roots, chunk_limit as u64)
        })?;
        log.timed("core.sender.write_roots", id, || {
            roots.iter().try_for_each(|&r| gs.write_root(r))
        })?;
        let out = log.timed("core.sender.finish", id, || gs.finish());
        let mut gr = log.timed("core.receiver.new", id, || {
            GraphReceiver::new(&mut self.receiver, &self.dir, DST)
        });
        log.timed("core.receiver.absorb", id, || {
            out.chunks.iter().try_for_each(|c| {
                gr.push_chunk(c)?;
                gr.absorb_ready(None)
            })
        })?;
        let (roots_out, recv_stats) = log.timed("core.receiver.finish", id, || gr.finish(None))?;
        if self.kind == Workload::RecvGc {
            let mut gc = Window::default();
            log.timed("vm.gc_cycle", id, || self.root_and_collect(&roots_out, &mut gc))?;
        }
        let total_ns = log.close_root();

        // Off the transfer's path (the engine neither frames nor models
        // the link per call): measured here so they have a ledger row.
        log.timed("core.buffer.frame", id, || -> Res<()> {
            let blob = frame_chunks(&out.chunks, 0);
            let (_, parts) = parse_frames(&blob)?;
            black_box(parts.len());
            Ok(())
        })?;
        let link_busy_ns = log.timed("simnet.link", id, || {
            let mut clock = LinkClock::new(&SimConfig::default());
            for c in &out.chunks {
                black_box(clock.send(0, c.len() as u64));
            }
            clock.busy_ns()
        });
        let ok = recv_stats.objects == out.stats.objects
            && recv_stats.bytes == out.stats.total_bytes
            && roots_out.len() == self.roots.len();
        w.attempted += 1;
        w.failed += u64::from(!ok);
        for c in out.chunks {
            pool.release(c);
        }
        Ok((total_ns, link_busy_ns))
    }

    fn staged_shared(&mut self, log: &mut SpanLog, id: u32) -> Res<u64> {
        if self.extra_receiver.is_none() {
            self.extra_receiver =
                Some(Vm::new("bench-r2", &heap_config(), Arc::clone(&self.classpath))?);
        }
        let extra = self.extra_receiver.as_mut().expect("created above");
        log.open_root(id);
        let seal = log.timed("segstore.seal", id, || {
            self.store.seal(&self.sender, &self.dir, SRC, &self.roots)
        })?;
        let out =
            log.timed("segstore.attach", id, || self.store.attach(&mut self.receiver, seal.base))?;
        let total_ns = log.close_root();
        black_box(out.len());

        log.timed("segstore.extra_attach", id, || self.store.attach(extra, seal.base))?;
        log.timed("segstore.detach", id, || self.store.detach(&mut self.receiver, seal.base))?;
        self.store.detach(extra, seal.base)?;
        log.timed("segstore.reclaim", id, || {
            self.store.advance_epoch();
            self.store.advance_epoch();
        });
        // The traversal a seal runs (hash-table tracking, one giant
        // chunk), timed on its own: the sender path only this workload uses.
        log.timed("core.sender.hash_traversal", id, || -> Res<()> {
            let cfg = SendConfig {
                chunk_limit: usize::MAX / 2,
                receiver_spec: self.sender.spec(),
                tracking: Tracking::HashTable,
            };
            let mut gs = GraphSender::new(&self.sender, &self.dir, SRC, 1, 0, cfg)?;
            self.roots.iter().try_for_each(|&r| gs.write_root(r))?;
            black_box(gs.finish().stats.objects);
            Ok(())
        })?;
        Ok(total_ns)
    }
}
