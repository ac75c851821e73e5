//! Span-based distributed tracing for the transfer path.
//!
//! A [`TraceCtx`] — `(trace_id, parent span id)` pair — is allocated per
//! shuffle transfer, propagated across the wire in the chunk frame
//! header, and re-attached on the receiver, so sender-side spans
//! (`traverse`, `chunk_send`), simulated link occupancy, receiver-side
//! spans (`chunk_absorb`, `fixup`) and GC pauses stitch
//! into one cross-node span tree ("why was *this* transfer slow?").
//!
//! Storage is a lock-free bounded [`SpanBuffer`]: a slot index is claimed
//! with one `fetch_add` and the finished [`Span`] is published through a
//! `OnceLock`, so recording never blocks and never allocates beyond the
//! span's own annotation vector. When the buffer is full further spans
//! are counted in `dropped` rather than silently lost. The capacity is a
//! *lifetime* budget per [`Tracer`]: [`Tracer::clear`] advances a
//! watermark instead of reusing slots (registries are per-run in tests
//! and benches, so the budget is ample).
//!
//! Tracing is **off by default** — a disabled tracer hands out inert
//! spans whose whole cost is one relaxed atomic load, which is what keeps
//! the traced/untraced wall-clock delta inside the noise floor.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default lifetime span budget for tracers created with [`Tracer::new`].
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// A propagated trace context: which trace a span belongs to and which
/// span is its parent. `Copy` and 16 bytes, so it is handed by value to
/// every lane and thread of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace identifier shared by every span of one transfer. 0 = none.
    pub trace_id: u64,
    /// Span id of the parent span (0 for a trace root).
    pub parent: u64,
}

impl TraceCtx {
    /// The absent context: spans started under it are inert.
    pub const NONE: TraceCtx = TraceCtx { trace_id: 0, parent: 0 };

    /// True when this is [`TraceCtx::NONE`] (tracing disabled or never
    /// attached).
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// A shareable, interior-mutable [`TraceCtx`] slot (e.g. on a VM, so GC
/// pauses can be attributed to the transfer that last touched the heap).
/// Plain atomics: the two halves are read independently, which is fine —
/// attribution is diagnostic, not transactional.
#[derive(Debug, Default)]
pub struct TraceCtxCell {
    trace_id: AtomicU64,
    parent: AtomicU64,
}

impl TraceCtxCell {
    /// Stores `ctx`.
    pub fn set(&self, ctx: TraceCtx) {
        self.trace_id.store(ctx.trace_id, Ordering::Relaxed);
        self.parent.store(ctx.parent, Ordering::Relaxed);
    }

    /// Loads the current context ([`TraceCtx::NONE`] until first set).
    pub fn get(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id.load(Ordering::Relaxed),
            parent: self.parent.load(Ordering::Relaxed),
        }
    }
}

/// One finished span: a named, annotated `[start, end)` interval on one
/// node, linked to its parent by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Parent span id (0 for a trace root).
    pub parent: u64,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Span name — a `trace.*` const from [`crate::names`].
    pub name: &'static str,
    /// Node (process) the span ran on, e.g. `"driver"`, `"worker-1"`.
    pub node: String,
    /// Start, nanoseconds from the tracer's anchor (or simulated ns).
    pub start_ns: u64,
    /// End, same clock as `start_ns`.
    pub end_ns: u64,
    /// True when the timestamps are simulated-network ns, not wall ns.
    pub sim_clock: bool,
    /// Worker lane within the node: 0 is the main lane, worker *w* of a
    /// parallel transfer records on lane `w + 1`. Lanes map to Perfetto
    /// thread rows so per-worker traversal/send/absorb spans stack
    /// side by side instead of overlapping on one row.
    pub lane: u32,
    /// Key-value annotations (chunk index, bytes, CAS conflicts, ...).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Span duration in its own clock domain.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Lock-free bounded span storage with a drop counter.
#[derive(Debug)]
pub struct SpanBuffer {
    slots: Box<[OnceLock<Span>]>,
    /// Next slot to claim; may run past `slots.len()` (overflow = drops).
    next: AtomicUsize,
    /// Spans discarded because every slot was already claimed.
    dropped: AtomicU64,
    /// Watermark below which slots are considered cleared.
    floor: AtomicUsize,
}

impl SpanBuffer {
    /// A buffer with a lifetime budget of `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        SpanBuffer {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            floor: AtomicUsize::new(0),
        }
    }

    /// Publishes one finished span (counted in [`SpanBuffer::dropped`]
    /// when the budget is exhausted).
    pub fn push(&self, span: Span) {
        // ORDER: AcqRel — the Release half pairs with the Acquire loads of
        // `next` in `spans`/`clear`: a reader that observes this claim also
        // observes every store program-ordered before it (earlier claims'
        // publishes included, via the RMW release sequence). The Acquire
        // half orders this claim after the claims it follows. With Relaxed
        // here those reader loads synchronize with nothing and the slot
        // scan races the publishes it is told about.
        let idx = self.next.fetch_add(1, Ordering::AcqRel);
        if idx >= self.slots.len() {
            // ORDER: Relaxed — pure statistic; read by `dropped()` with no
            // memory guarded by it.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Each slot index is claimed by exactly one pusher, so set()
        // cannot race; a failure would mean a logic bug, not contention.
        // The cross-thread publish edge for the span payload itself is
        // OnceLock's internal Release/Acquire pair.
        let _ = self.slots[idx].set(span);
    }

    /// Spans published since the last [`SpanBuffer::clear`], sorted by
    /// start time then id. Spans claimed but not yet published by a
    /// racing thread are skipped.
    pub fn spans(&self) -> Vec<Span> {
        // ORDER: Acquire — pairs with the Release store in `clear`, so the
        // watermark advance is ordered before any slots it hides.
        let floor = self.floor.load(Ordering::Acquire);
        // ORDER: Acquire — pairs with the AcqRel claim in `push`: every
        // claim at an index below `end` (and the publish work ordered
        // before it) is visible to the slot scan below.
        let end = self.next.load(Ordering::Acquire).min(self.slots.len());
        let mut out: Vec<Span> =
            self.slots[floor..end].iter().filter_map(|s| s.get().cloned()).collect();
        out.sort_by_key(|s| (s.sim_clock, s.start_ns, s.id));
        out
    }

    /// Spans discarded because the lifetime budget ran out.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Hides all currently published spans (watermark advance — slots
    /// are not reused, the lifetime budget keeps shrinking).
    pub fn clear(&self) {
        // ORDER: Acquire — pairs with the AcqRel claim in `push`; the
        // watermark may only rise past slots whose claims we observed.
        let end = self.next.load(Ordering::Acquire).min(self.slots.len());
        // ORDER: Release — pairs with the Acquire load in `spans`, ordering
        // this advance before any reader that observes it.
        self.floor.store(end, Ordering::Release);
        // ORDER: Relaxed — pure statistic reset.
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// Per-registry span recorder: id allocator, wall-clock anchor, and the
/// bounded [`SpanBuffer`].
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    anchor: Instant,
    next_id: AtomicU64,
    buf: SpanBuffer,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl Tracer {
    /// A disabled tracer with a lifetime budget of `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            anchor: Instant::now(),
            next_id: AtomicU64::new(1),
            buf: SpanBuffer::new(capacity),
        }
    }

    /// Turns span recording on or off. Off (the default) makes every
    /// tracing entry point a single relaxed atomic load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracer's anchor (its construction time).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a fresh trace: the returned context has a new trace id
    /// and no parent. Returns [`TraceCtx::NONE`] while disabled, which
    /// keeps every downstream span inert.
    pub fn new_trace(&self) -> TraceCtx {
        if !self.enabled() {
            return TraceCtx::NONE;
        }
        TraceCtx { trace_id: self.alloc_id(), parent: 0 }
    }

    /// Starts a span under `ctx` on `node`. Inert (records nothing, all
    /// methods no-ops) while disabled or when `ctx` is
    /// [`TraceCtx::NONE`].
    pub fn start(&self, name: &'static str, ctx: TraceCtx, node: &str) -> ActiveSpan<'_> {
        self.start_on(name, ctx, node, 0)
    }

    /// [`Tracer::start`] on an explicit worker lane (0 = the main lane;
    /// parallel-transfer worker *w* uses lane `w + 1`).
    pub fn start_on(
        &self,
        name: &'static str,
        ctx: TraceCtx,
        node: &str,
        lane: u32,
    ) -> ActiveSpan<'_> {
        if !self.enabled() || ctx.is_none() {
            return ActiveSpan { tracer: self, data: None };
        }
        ActiveSpan {
            tracer: self,
            data: Some(SpanData {
                id: self.alloc_id(),
                parent: ctx.parent,
                trace_id: ctx.trace_id,
                name,
                node: node.to_owned(),
                start_ns: self.now_ns(),
                lane,
                args: Vec::new(),
            }),
        }
    }

    /// Records an already-finished wall-clock span of `dur_ns` ending
    /// now — for intervals measured externally (GC pauses).
    pub fn record_closed(
        &self,
        name: &'static str,
        ctx: TraceCtx,
        node: &str,
        dur_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        self.record_closed_on(name, ctx, node, 0, dur_ns, args);
    }

    /// [`Tracer::record_closed`] on an explicit worker lane.
    pub fn record_closed_on(
        &self,
        name: &'static str,
        ctx: TraceCtx,
        node: &str,
        lane: u32,
        dur_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled() || ctx.is_none() {
            return;
        }
        let end_ns = self.now_ns();
        self.buf.push(Span {
            id: self.alloc_id(),
            parent: ctx.parent,
            trace_id: ctx.trace_id,
            name,
            node: node.to_owned(),
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            sim_clock: false,
            lane,
            args: args.to_vec(),
        });
    }

    /// Records a span on the *simulated* clock (link occupancy from
    /// `simnet`) on a worker lane (per-stream link occupancy of a parallel
    /// transfer): timestamps are simulated nanoseconds, flagged via
    /// [`Span::sim_clock`] so readers never mix the clock domains.
    #[allow(clippy::too_many_arguments)]
    pub fn record_sim_on(
        &self,
        name: &'static str,
        ctx: TraceCtx,
        node: &str,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled() || ctx.is_none() {
            return;
        }
        self.buf.push(Span {
            id: self.alloc_id(),
            parent: ctx.parent,
            trace_id: ctx.trace_id,
            name,
            node: node.to_owned(),
            start_ns,
            end_ns,
            sim_clock: true,
            lane,
            args: args.to_vec(),
        });
    }

    /// Published spans, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        self.buf.spans()
    }

    /// Spans discarded because the buffer's lifetime budget ran out.
    pub fn dropped(&self) -> u64 {
        self.buf.dropped()
    }

    /// Hides all published spans (see [`SpanBuffer::clear`]).
    pub fn clear(&self) {
        self.buf.clear();
    }
}

struct SpanData {
    id: u64,
    parent: u64,
    trace_id: u64,
    name: &'static str,
    node: String,
    start_ns: u64,
    lane: u32,
    args: Vec<(&'static str, u64)>,
}

/// A span in progress; publishes itself on drop. Inert variants (from a
/// disabled tracer or an absent context) cost nothing on drop.
pub struct ActiveSpan<'a> {
    tracer: &'a Tracer,
    data: Option<SpanData>,
}

impl ActiveSpan<'_> {
    /// The context for children of this span ([`TraceCtx::NONE`] when
    /// inert, so inertness propagates down the tree).
    pub fn ctx(&self) -> TraceCtx {
        match &self.data {
            Some(d) => TraceCtx { trace_id: d.trace_id, parent: d.id },
            None => TraceCtx::NONE,
        }
    }

    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.data.as_ref().map_or(0, |d| d.id)
    }

    /// Attaches a key-value annotation.
    pub fn annotate(&mut self, key: &'static str, value: u64) {
        if let Some(d) = &mut self.data {
            d.args.push((key, value));
        }
    }

    /// Ends the span now (equivalent to dropping it, made explicit).
    pub fn finish(self) {}
}

impl Drop for ActiveSpan<'_> {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            let end_ns = self.tracer.now_ns();
            self.tracer.buf.push(Span {
                id: d.id,
                parent: d.parent,
                trace_id: d.trace_id,
                name: d.name,
                node: d.node,
                start_ns: d.start_ns,
                end_ns,
                sim_clock: false,
                lane: d.lane,
                args: d.args,
            });
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends a nanosecond value as microseconds with three decimals
/// (`123.456`) using only integer formatting — the export renders two of
/// these per span, and float formatting dominated the export cost.
fn push_us(out: &mut String, ns: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders spans as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load directly): one complete (`"ph":"X"`) event
/// per span, one process per node (simulated-clock spans get their own
/// `<node> (sim)` process so the two clock domains never share a
/// timeline), GC spans on their own thread row.
///
/// Writes straight into one preallocated buffer — a pipelined bench run
/// exports tens of thousands of spans, and the export is the bulk of the
/// traced-vs-untraced wall-clock delta, so per-event temporaries matter.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    // Stable node -> pid mapping in first-appearance order (node counts
    // are tiny, so a linear scan beats a map).
    let mut pids: Vec<String> = Vec::new();
    let mut pid_of = |node: &str, sim: bool| -> usize {
        let pos = pids
            .iter()
            .position(|p| match p.strip_suffix(" (sim)") {
                Some(base) => sim && base == node,
                None => !sim && p == node,
            })
            .map(|i| i + 1);
        pos.unwrap_or_else(|| {
            pids.push(if sim { format!("{node} (sim)") } else { node.to_owned() });
            pids.len()
        })
    };
    let mut out = String::with_capacity(64 + 192 * spans.len());
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
    let mut first = true;
    for s in spans {
        let pid = pid_of(&s.node, s.sim_clock);
        // tid 1 = main lane, tid 2 = GC, worker lane w >= 1 = tid 2 + w
        // (lanes never collide with the GC row since lane >= 1 maps to
        // tid >= 3).
        let tid = if s.name.starts_with("trace.gc.") {
            2
        } else if s.lane > 0 {
            2 + s.lane as usize
        } else {
            1
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    {\"name\":\"");
        out.push_str(s.name); // `trace.*` consts: no JSON escaping needed
        out.push_str("\",\"cat\":\"");
        out.push_str(if s.sim_clock { "sim" } else { "wall" });
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        push_us(&mut out, s.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, s.duration_ns());
        let _ = write!(
            out,
            ",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent\":{}",
            s.trace_id, s.id, s.parent
        );
        if s.lane > 0 {
            let _ = write!(out, ",\"lane\":{}", s.lane);
        }
        for (k, v) in &s.args {
            let _ = write!(out, ",\"{}\":{v}", json_escape(k));
        }
        out.push_str("}}");
    }
    // Process-name metadata so Perfetto labels each track with the node.
    for (i, name) in pids.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            json_escape(name)
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// One line summarizing where transfer time went, e.g.
/// `critical path (wall): traverse 48% / absorb 25% / gc 0% / other 27% · link 12.3 ms modeled`.
///
/// Root spans (`trace.transfer`, `trace.stage`) envelop their children
/// and are excluded; remaining wall-clock leaf time is bucketed by
/// subsystem and the shares are of that wall-clock total only.
/// [`Span::sim_clock`] spans (the modeled link occupancy) are on another
/// clock, so they are summed apart and reported in their own unit, never
/// as a share.
pub fn critical_path_summary(spans: &[Span]) -> String {
    let (mut traverse, mut absorb, mut gc, mut other, mut modeled) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in spans {
        let d = s.duration_ns();
        if s.sim_clock {
            modeled += d;
            continue;
        }
        match s.name {
            n if n == crate::names::TRACE_TRANSFER || n == crate::names::TRACE_STAGE => {}
            crate::names::TRACE_SENDER_TRAVERSE => traverse += d,
            crate::names::TRACE_RECEIVER_CHUNK_ABSORB => absorb += d,
            n if n.starts_with("trace.gc.") => gc += d,
            _ => other += d,
        }
    }
    let wall = traverse + absorb + gc + other;
    if wall + modeled == 0 {
        return "critical path: (no spans)".to_owned();
    }
    let pct = |v: u64| (v as f64 * 100.0 / wall.max(1) as f64).round() as u64;
    format!(
        "critical path (wall): traverse {}% / absorb {}% / gc {}% / other {}% · link {:.1} ms modeled",
        pct(traverse),
        pct(absorb),
        pct(gc),
        pct(other),
        modeled as f64 / 1e6
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_hands_out_inert_spans() {
        let t = Tracer::new(16);
        assert_eq!(t.new_trace(), TraceCtx::NONE);
        let span = t.start(crate::names::TRACE_TRANSFER, TraceCtx { trace_id: 1, parent: 0 }, "n");
        assert_eq!(span.id(), 0, "an inert span has no id");
        assert_eq!(span.ctx(), TraceCtx::NONE);
        drop(span);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_publish_on_drop() {
        let t = Tracer::new(16);
        t.set_enabled(true);
        let ctx = t.new_trace();
        let mut root = t.start(crate::names::TRACE_TRANSFER, ctx, "driver");
        root.annotate("bytes", 128);
        let child = t.start(crate::names::TRACE_SENDER_TRAVERSE, root.ctx(), "driver");
        let root_id = root.id();
        let child_id = child.id();
        drop(child);
        drop(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.id == root_id).expect("root published");
        let child = spans.iter().find(|s| s.id == child_id).expect("child published");
        assert_eq!(child.parent, root.id);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(root.parent, 0);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(root.args, vec![("bytes", 128)]);
    }

    #[test]
    fn buffer_overflow_counts_drops() {
        let t = Tracer::new(2);
        t.set_enabled(true);
        let ctx = t.new_trace();
        for _ in 0..5 {
            t.start(crate::names::TRACE_TRANSFER, ctx, "n").finish();
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn clear_is_a_watermark() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        let ctx = t.new_trace();
        t.start(crate::names::TRACE_TRANSFER, ctx, "n").finish();
        t.clear();
        assert!(t.spans().is_empty());
        t.start(crate::names::TRACE_TRANSFER, ctx, "n").finish();
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn record_closed_backdates_the_start() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        let ctx = t.new_trace();
        // Let the anchor clock run past the backdated duration so the
        // saturating start subtraction cannot clamp to zero.
        std::thread::sleep(std::time::Duration::from_micros(50));
        t.record_closed(crate::names::TRACE_GC_PAUSE, ctx, "w1", 1_000, &[("full", 0)]);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_ns(), 1_000);
        assert!(!spans[0].sim_clock);
    }

    #[test]
    fn record_sim_is_flagged_and_kept_verbatim() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        let ctx = t.new_trace();
        t.record_sim_on(crate::names::TRACE_LINK_XMIT, ctx, "link", 0, 10, 40, &[("bytes", 64)]);
        let spans = t.spans();
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (10, 40));
        assert!(spans[0].sim_clock);
    }

    #[test]
    fn chrome_export_is_wellformed_and_groups_processes() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        let ctx = t.new_trace();
        t.start(crate::names::TRACE_TRANSFER, ctx, "driver").finish();
        t.record_sim_on(crate::names::TRACE_LINK_XMIT, ctx, "driver", 0, 0, 5, &[]);
        t.record_closed(crate::names::TRACE_GC_PAUSE, ctx, "w1", 10, &[]);
        let json = chrome_trace_json(&t.spans());
        for needle in
            ["\"traceEvents\"", "\"ph\":\"X\"", "\"ph\":\"M\"", "driver (sim)", "\"tid\":2"]
        {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn worker_lanes_map_to_their_own_tids() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        let ctx = t.new_trace();
        t.start_on(crate::names::TRACE_SENDER_TRAVERSE, ctx, "n", 3).finish();
        t.record_closed_on(crate::names::TRACE_SENDER_CHUNK_SEND, ctx, "n", 1, 50, &[]);
        t.record_sim_on(crate::names::TRACE_LINK_XMIT, ctx, "n", 2, 0, 9, &[]);
        let spans = t.spans();
        assert_eq!(spans.iter().map(|s| s.lane).collect::<Vec<_>>(), vec![3, 1, 2]);
        let json = chrome_trace_json(&spans);
        // Lane w maps to tid 2 + w, and the lane is surfaced as an arg.
        for needle in ["\"tid\":5", "\"tid\":3", "\"tid\":4", "\"lane\":3"] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn critical_path_summary_shares_sum_to_about_100() {
        let mk = |name: &'static str, dur: u64| Span {
            id: 1,
            parent: 0,
            trace_id: 1,
            name,
            node: "n".into(),
            start_ns: 0,
            end_ns: dur,
            sim_clock: name == crate::names::TRACE_LINK_XMIT,
            lane: 0,
            args: vec![],
        };
        let spans = vec![
            mk(crate::names::TRACE_TRANSFER, 100),
            mk(crate::names::TRACE_SENDER_TRAVERSE, 41),
            mk(crate::names::TRACE_LINK_XMIT, 2_200_000),
            mk(crate::names::TRACE_RECEIVER_CHUNK_ABSORB, 30),
            mk(crate::names::TRACE_GC_PAUSE, 7),
            mk(crate::names::TRACE_RECEIVER_FIXUP, 22),
        ];
        // Shares are over the 100 wall-clock ns; the modeled link time,
        // however large, moves none of them.
        let s = critical_path_summary(&spans);
        assert_eq!(
            s,
            "critical path (wall): traverse 41% / absorb 30% / gc 7% / other 22% \
             · link 2.2 ms modeled"
        );
    }
}
