//! Receiving an object graph (paper §4.3).
//!
//! Each received chunk is checked against its trailer — checksum, then
//! stream offset ([`crate::buffer::open_chunk`]) — and its payload becomes
//! one *input buffer* region claimed directly in the receiving heap's old
//! generation and written once, by the copy off the wire — transferred data
//! is written into the heap and usable right away. Because the sender's
//! logical byte stream is gapless and objects never span a flush boundary,
//! the receiver only needs a (logical start → heap base) map per chunk; a
//! single linear scan then **absolutizes** the buffer:
//!
//! * the klass word of each object is the `tID`, and the `tID` is the
//!   klass id every VM on the classpath shares, so it stays as it arrived;
//!   the scan only resolves it, loading the class by number the first time
//!   this VM meets it;
//! * every relativized reference becomes an absolute heap address;
//! * top marks identify the root objects without re-traversal.
//!
//! The receiver does no collector work beyond recording where each chunk
//! starts (the heap's object-start record). Unlike the paper (§4.3), it
//! dirties no card: an absorbed graph stores only addresses inside its own
//! stream's input buffers, or null — streams are self-contained and the
//! buffers are old — so adoption creates no old→young edge. Update hooks run
//! after adoption with `&mut Vm`, and their reference stores go through
//! [`Vm::write_ref_at`]'s barrier like any mutator's.
//!
//! Per object the scan resolves the klass word with one indexed load from
//! the VM's klass table, the load [`Vm::klass_of`] makes, and per reference
//! it tries the chunk being absorbed — where almost every reference lands —
//! before searching the chunk list. Class numbers mean something on one
//! classpath only: a VM on another classpath than the type directory serves
//! is refused at its first chunk.
//!
//! One absorber does all of it: `AbsorbCore` scans over a shared `&Vm`,
//! carving its input buffers out of the heap's shared old-generation window,
//! so N of them can absorb the concurrent streams of one transfer. Whoever
//! holds the `&mut Vm` opens that window, runs the absorbers, and ends with
//! exactly one of `adopt` (close the window, record each chunk's start,
//! update hooks) or `abandon` (close it and hand the buffers back as
//! filler).
//! [`GraphReceiver`] is that owner for a single stream; the pipeline engine
//! is the owner for N.

use std::sync::Arc;

use mheap::layout::mark;
use mheap::{Addr, Klass, KlassId, KlassKind, Vm, FILLER_WORD};
use simnet::NodeId;

use crate::buffer::{open_chunk, TOP_MARK, TOP_REF};
use crate::registry::TypeDirectory;
use crate::stream::UpdateRegistry;
use crate::{Error, Result};

#[derive(Debug, Clone, Copy)]
struct ChunkMap {
    logical_start: u64,
    base: Addr,
    len: u64,
}

/// Receive statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReceiveStats {
    /// Objects absolutized.
    pub objects: u64,
    /// Bytes placed into the heap (markers included, trailers not).
    pub bytes: u64,
    /// Chunks (old-generation input-buffer regions).
    pub chunks: u64,
    /// Classes loaded on demand during absolutization.
    pub classes_loaded: u64,
    /// Reference slots rewritten from relative to absolute addresses.
    pub ref_fixups: u64,
    /// Always 0: the receiver dirties no card (see the module doc). The
    /// field stays because benchmark reports read it.
    pub cards_dirtied: u64,
}

impl ReceiveStats {
    /// Accumulates another stream's statistics (parallel-stream merge).
    pub fn merge(&mut self, o: &ReceiveStats) {
        self.objects += o.objects;
        self.bytes += o.bytes;
        self.chunks += o.chunks;
        self.classes_loaded += o.classes_loaded;
        self.ref_fixups += o.ref_fixups;
    }
}

/// The absorber of one stream: chunk map, fixup lists, statistics.
/// Every method takes `vm: &Vm` — input buffers come from the heap's shared
/// old-generation window ([`mheap::Heap::begin_shared_old_alloc`] must be
/// open) and the scan reads and rewrites their words through the arena's
/// interior mutability, so concurrent absorbers over disjoint buffers never
/// alias.
pub(crate) struct AbsorbCore<'d> {
    dir: &'d TypeDirectory,
    node: NodeId,
    chunks: Vec<ChunkMap>,
    next_logical: u64,
    stats: ReceiveStats,
    /// Where [`adopt`] publishes `stats`, and whose tracer records this
    /// stream's spans. The scan itself counts into `stats` only.
    registry: Arc<obs::Registry>,
    /// Chunks absolutized so far (prefix of `chunks`).
    absorbed: usize,
    /// Roots recovered so far, in arrival order.
    roots: Vec<Addr>,
    /// Reference slots whose target chunk had not arrived when the slot
    /// was scanned: (absolute slot address, logical target).
    ref_fixups: Vec<(u64, u64)>,
    /// Top references whose target chunk had not arrived: (index into
    /// `roots`, logical target).
    root_fixups: Vec<(usize, u64)>,
    /// A top mark at the very end of a chunk applies to the first object
    /// of the next chunk.
    next_is_root: bool,
    pending_hooks: Vec<(Addr, usize)>,
    /// Trace context re-attached from the wire (or directly by the
    /// pipeline); [`obs::TraceCtx::NONE`] keeps every span inert.
    trace_ctx: obs::TraceCtx,
    /// Trace lane (0 = main; parallel absorber *w* records on lane `w+1`).
    lane: u32,
}

impl<'d> AbsorbCore<'d> {
    /// Starts absorbing one stream arriving at `node`.
    pub(crate) fn new(dir: &'d TypeDirectory, node: NodeId) -> Self {
        AbsorbCore {
            dir,
            node,
            chunks: Vec::new(),
            next_logical: 0,
            stats: ReceiveStats::default(),
            registry: Arc::clone(obs::global()),
            absorbed: 0,
            roots: Vec::new(),
            ref_fixups: Vec::new(),
            root_fixups: Vec::new(),
            next_is_root: false,
            pending_hooks: Vec::new(),
            trace_ctx: obs::TraceCtx::NONE,
            lane: 0,
        }
    }

    /// Reports into `registry` instead of the process-wide default.
    pub(crate) fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.registry = registry;
        self
    }

    /// Attaches the transfer's trace context; spans record on `lane`
    /// (worker *w* of a parallel transfer uses lane `w + 1`).
    pub(crate) fn with_trace(mut self, ctx: obs::TraceCtx, lane: u32) -> Self {
        self.trace_ctx = ctx;
        self.lane = lane;
        self
    }

    /// The first time this VM meets class number `word`: loads exactly the
    /// definition the classpath numbered with it, under a
    /// `trace.registry.class_load` span, and accounts the class at the type
    /// directory (a `LOOKUP` if this node's view lacks it).
    #[cold]
    fn meet_class<'v>(&mut self, vm: &'v Vm, word: u64) -> Result<&'v Klass> {
        let id = u32::try_from(word)
            .map_err(|_| Error::BadFrame(format!("implausible class number {word:#x}")))?;
        let mut span = self.registry.tracer().start(
            obs::names::TRACE_REGISTRY_CLASS_LOAD,
            self.trace_ctx,
            &vm.name,
        );
        span.annotate("tid", u64::from(id));
        let k = vm.load_numbered(KlassId(id))?;
        self.stats.classes_loaded += 1;
        self.dir.tid_for(self.node, k)?;
        Ok(k)
    }

    /// Checks one received chunk against its trailer and places its payload
    /// into a fresh old-generation input buffer, writing each byte of the
    /// claim once. Chunks must arrive in stream order (they do: links are
    /// FIFO). Returns the payload's length.
    ///
    /// # Errors
    /// [`Error::ClassPathMismatch`] for a VM on another classpath than the
    /// directory serves; the errors of [`open_chunk`];
    /// [`mheap::Error::OldGenFull`] (wrapped) when the heap cannot host the
    /// buffer.
    pub(crate) fn push_chunk(&mut self, vm: &Vm, chunk: &[u8]) -> Result<u64> {
        self.dir.serve(self.node, vm)?;
        let bytes = open_chunk(chunk, self.next_logical)?;
        if bytes.is_empty() {
            return Ok(0);
        }
        let len = bytes.len() as u64;
        let base = vm.heap().shared_alloc_raw_old(len).map_err(Error::Heap)?;
        // Recorded before the copy: should the copy fail, `abandon` still
        // turns the raw claim into filler.
        self.chunks.push(ChunkMap { logical_start: self.next_logical, base, len });
        vm.heap().arena().write_bytes(base.0, bytes).map_err(Error::Heap)?;
        self.next_logical += len;
        self.stats.chunks += 1;
        self.stats.bytes += len;
        self.registry.histogram(obs::names::RECEIVER_CHUNK_BYTES).record(len);
        Ok(len)
    }

    /// Translates a logical stream offset to an absolute heap address.
    ///
    /// Chunk ranges are sorted, contiguous, and start at logical 0, so the
    /// first chunk whose end lies past `logical` either contains it or does
    /// not exist — any offset at or past the received byte count (and any
    /// offset against an empty chunk list) is dangling, never clamped to
    /// the last chunk.
    fn translate(&self, logical: u64) -> Result<Addr> {
        // Almost every reference lands in the chunk being absorbed: try it
        // before the search.
        let holds = |c: &&ChunkMap| logical >= c.logical_start && logical - c.logical_start < c.len;
        let c = match self.chunks.get(self.absorbed).filter(holds) {
            Some(c) => c,
            None => {
                let idx = self.chunks.partition_point(|c| c.logical_start + c.len <= logical);
                self.chunks.get(idx).ok_or(Error::DanglingRelativeAddr(logical))?
            }
        };
        debug_assert!(logical >= c.logical_start, "chunk ranges are gapless from 0");
        Ok(c.base.byte_add(logical - c.logical_start))
    }

    /// Rewrites one reference slot from a relative to an absolute address.
    /// A forward reference into a chunk that has not arrived yet is left
    /// relative and queued on the fixup list for the finish pass.
    fn absolutize_slot(&mut self, vm: &Vm, obj: Addr, off: u64) -> Result<()> {
        let slot = obj.0 + off;
        let v = vm.heap().arena().load_word(slot).map_err(Error::Heap)?;
        self.stats.ref_fixups += 1;
        if v == 0 {
            return vm.heap().arena().store_word(slot, Addr::NULL.0).map_err(Error::Heap);
        }
        let logical = v - 1;
        if logical >= self.next_logical {
            self.ref_fixups.push((slot, logical));
            return Ok(());
        }
        let abs = self.translate(logical)?;
        vm.heap().arena().store_word(slot, abs.0).map_err(Error::Heap)
    }

    /// Absolutizes every chunk placed so far but not yet absorbed — the
    /// engine calls this after each arrival so absorption overlaps with the
    /// transfer of later chunks. Intra-chunk and backward references
    /// resolve immediately; forward references into chunks that have not
    /// arrived yet are queued for [`AbsorbCore::finish_stream`].
    ///
    /// # Errors
    /// Corrupt-stream and heap errors.
    pub(crate) fn absorb_ready(&mut self, vm: &Vm, hooks: Option<&UpdateRegistry>) -> Result<()> {
        let spec = vm.spec();
        let arena = vm.heap().arena();
        // Spans must not borrow `self` while the scan mutates it.
        let registry = Arc::clone(&self.registry);
        while self.absorbed < self.chunks.len() {
            let c = self.chunks[self.absorbed];
            let mut span = registry.tracer().start_on(
                obs::names::TRACE_RECEIVER_CHUNK_ABSORB,
                self.trace_ctx,
                &vm.name,
                self.lane,
            );
            let objects_before = self.stats.objects;
            let mut at = c.base.0;
            let end = c.base.0 + c.len;
            // The stream is untrusted: nothing past `at` is read or written
            // before it is known to lie inside this chunk — the bytes after
            // `end` belong to the next chunk, or to another stream's buffer.
            let within = |at: u64, len: u64, what: &str| -> Result<()> {
                if at + len > end {
                    return Err(Error::BadFrame(format!("{what} runs past the end of its chunk")));
                }
                Ok(())
            };
            while at < end {
                let w = arena.load_word(at).map_err(Error::Heap)?;
                if w == TOP_MARK {
                    self.next_is_root = true;
                    arena.store_word(at, FILLER_WORD).map_err(Error::Heap)?;
                    at += 8;
                    continue;
                }
                if w == TOP_REF {
                    within(at, 16, "top reference")?;
                    let l = arena.load_word(at + 8).map_err(Error::Heap)?;
                    if l == 0 {
                        return Err(Error::BadFrame("null top reference".into()));
                    }
                    if l > self.next_logical {
                        // Top reference into a chunk still in flight.
                        self.root_fixups.push((self.roots.len(), l - 1));
                        self.roots.push(Addr::NULL);
                    } else {
                        let r = self.translate(l - 1)?;
                        self.roots.push(r);
                    }
                    arena.store_word(at, FILLER_WORD).map_err(Error::Heap)?;
                    arena.store_word(at + 8, FILLER_WORD).map_err(Error::Heap)?;
                    at += 16;
                    continue;
                }
                if w == FILLER_WORD {
                    at += 8;
                    continue;
                }
                // An object: resolve its type, then absolutize.
                within(at, spec.instance_header(), "object header")?;
                let obj = Addr::from_raw(at);
                let word = arena.load_word(at + spec.klass_off())?;
                let k = match u32::try_from(word).map(|id| vm.klasses().get(KlassId(id))) {
                    Ok(Ok(k)) => k,
                    _ => self.meet_class(vm, word)?,
                };
                // Mark words arrive sanitized; a forwarding bit here means
                // the stream is corrupt (this is untrusted input, so it is
                // a validation error, not an assertion).
                // (`w` is the mark word: it sits at offset 0 in every format.)
                if mark::is_forwarded(w) {
                    return Err(Error::BadFrame(format!(
                        "object at logical {at:#x} carries a forwarding mark"
                    )));
                }
                let size = match k.kind {
                    KlassKind::Instance => k.instance_size,
                    _ => {
                        within(at, spec.array_header(), "array header")?;
                        let len = vm.array_len(obj).map_err(Error::Heap)?;
                        // Checked arithmetic: a corrupted length must not
                        // overflow into a bogus small size.
                        let body = len
                            .checked_mul(u64::from(k.elem_size))
                            .and_then(|b| b.checked_add(spec.array_header()))
                            .filter(|&b| b <= c.len)
                            .ok_or_else(|| {
                                Error::BadFrame(format!("implausible array length {len}"))
                            })?;
                        mheap::layout::align8(body)
                    }
                };
                if size == 0 || at + size > end {
                    return Err(Error::BadFrame("object spans chunk boundary".into()));
                }
                // Absolutize reference slots.
                match k.kind {
                    KlassKind::RefArray => {
                        let len = vm.array_len(obj).map_err(Error::Heap)?;
                        let base = spec.array_header();
                        for i in 0..len {
                            self.absolutize_slot(vm, obj, base + i * 8)?;
                        }
                    }
                    KlassKind::Instance => {
                        for &off in &*k.ref_offsets {
                            self.absolutize_slot(vm, obj, off)?;
                        }
                    }
                    KlassKind::PrimArray(_) => {}
                }
                if self.next_is_root {
                    self.roots.push(obj);
                    self.next_is_root = false;
                }
                if let Some(hook_idx) = hooks.and_then(|h| h.hook_index(&k.name)) {
                    self.pending_hooks.push((obj, hook_idx));
                }
                self.stats.objects += 1;
                at += size;
            }
            span.annotate("chunk", self.absorbed as u64);
            span.annotate("bytes", c.len);
            span.annotate("objects", self.stats.objects - objects_before);
            self.absorbed += 1;
        }
        Ok(())
    }

    /// Completes this stream: absorbs what is left and drains its own
    /// cross-chunk fixups — every chunk has arrived, so any still-unresolved
    /// target is genuinely dangling. Streams are self-contained (relative
    /// addresses never cross streams), so each absorber drains its own
    /// list. What remains is heap-mutating and belongs to [`adopt`].
    ///
    /// # Errors
    /// Corrupt-stream and heap errors.
    pub(crate) fn finish_stream(&mut self, vm: &Vm, hooks: Option<&UpdateRegistry>) -> Result<()> {
        self.absorb_ready(vm, hooks)?;
        let mut span = self.registry.tracer().start_on(
            obs::names::TRACE_RECEIVER_FIXUP,
            self.trace_ctx,
            &vm.name,
            self.lane,
        );
        span.annotate("fixups", (self.ref_fixups.len() + self.root_fixups.len()) as u64);
        for &(slot, logical) in &self.ref_fixups {
            let abs = self.translate(logical)?;
            vm.heap().arena().store_word(slot, abs.0).map_err(Error::Heap)?;
        }
        for &(idx, logical) in &self.root_fixups {
            self.roots[idx] = self.translate(logical)?;
        }
        self.ref_fixups.clear();
        self.root_fixups.clear();
        Ok(())
    }

    /// The roots recovered from this stream, in emission order.
    pub(crate) fn take_roots(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.roots)
    }
}

/// The adoption step, once per transfer on the thread that owns `&mut Vm`:
/// closes the shared old-generation window the finished `streams` allocated
/// through, records each input buffer's base as an object start (a minor
/// GC's card walk may parse from there), publishes the merged statistics —
/// the one place a receiver feeds the `skyway.receiver.*` counters, so an
/// abandoned stream publishes nothing — and applies the update hooks (§3.3
/// `registerUpdate`). Nothing else touches the heap: the adopted graph is
/// ordinary tenured data. Returns the merged statistics; the roots stay
/// with their streams ([`AbsorbCore::take_roots`]).
///
/// # Errors
/// Whatever an update hook returns.
pub(crate) fn adopt(
    vm: &mut Vm,
    streams: &mut [AbsorbCore<'_>],
    hooks: Option<&UpdateRegistry>,
) -> Result<ReceiveStats> {
    vm.heap_mut().end_shared_old_alloc();
    let mut stats = ReceiveStats::default();
    let Some(first) = streams.first() else { return Ok(stats) };
    let reg = &first.registry;
    for s in streams.iter() {
        for c in &s.chunks {
            vm.heap_mut().note_object_start(c.base);
        }
        stats.merge(&s.stats);
    }
    reg.counter(obs::names::RECEIVER_OBJECTS_ABSORBED).add(stats.objects);
    reg.counter(obs::names::RECEIVER_BYTES_ABSORBED).add(stats.bytes);
    reg.counter(obs::names::RECEIVER_CHUNKS_ABSORBED).add(stats.chunks);
    reg.counter(obs::names::RECEIVER_REF_FIXUPS).add(stats.ref_fixups);
    reg.counter(obs::names::RECEIVER_CLASSES_LOADED).add(stats.classes_loaded);
    if let Some(h) = hooks {
        for (obj, idx) in streams.iter_mut().flat_map(|s| std::mem::take(&mut s.pending_hooks)) {
            h.apply(vm, obj, idx)?;
        }
    }
    Ok(stats)
}

/// The other way a transfer ends: closes the shared window and turns every
/// input buffer `streams` placed back into filler. A stream that failed
/// midway leaves relative addresses in reference slots and perhaps class
/// numbers this VM never loaded in klass slots; as filler the space stays
/// walkable, and nothing of it is adopted.
pub(crate) fn abandon(vm: &mut Vm, streams: &[AbsorbCore<'_>]) {
    vm.heap_mut().end_shared_old_alloc();
    for c in streams.iter().flat_map(|s| &s.chunks) {
        // Cannot fail: the heap carved this aligned range out itself.
        let _ = vm.heap().fill_filler(c.base, c.len);
    }
}

/// The receiver side of one stream for callers that hold the `&mut Vm`
/// themselves: accumulates chunks and absolutizes them — either in one pass
/// at [`GraphReceiver::finish`] or chunk by chunk as they arrive via
/// [`GraphReceiver::absorb_ready`]. A thin owner over one `AbsorbCore`:
/// it opens the heap's shared allocation window, and closes it again by
/// adopting the stream in `finish` or by abandoning it when dropped
/// unfinished.
pub struct GraphReceiver<'a> {
    vm: &'a mut Vm,
    core: AbsorbCore<'a>,
    /// Cleared once `finish` hands the stream to [`adopt`].
    open: bool,
}

impl<'a> std::fmt::Debug for GraphReceiver<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphReceiver")
            .field("node", &self.core.node)
            .field("chunks", &self.core.chunks.len())
            .field("bytes", &self.core.next_logical)
            .finish()
    }
}

impl Drop for GraphReceiver<'_> {
    fn drop(&mut self) {
        if self.open {
            abandon(self.vm, std::slice::from_ref(&self.core));
        }
    }
}

impl<'a> GraphReceiver<'a> {
    /// Starts receiving a stream into `vm` on `node`.
    pub fn new(vm: &'a mut Vm, dir: &'a TypeDirectory, node: NodeId) -> Self {
        vm.heap_mut().begin_shared_old_alloc();
        GraphReceiver { vm, core: AbsorbCore::new(dir, node), open: true }
    }

    /// Reports into `registry` instead of the process-wide default
    /// (scoped registries keep test assertions exact).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.core.registry = registry;
        self
    }

    /// Re-attaches the sender's trace context so receiver-side spans
    /// (absorb, fixup) and subsequent GC pauses on this VM stitch into
    /// the same transfer trace.
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.core.trace_ctx = ctx;
        self.vm.set_trace_ctx(ctx);
        self
    }

    /// Checks one received chunk against its trailer and places its payload
    /// into a fresh old-generation input buffer. Chunks must arrive in
    /// stream order (they do: links are FIFO).
    ///
    /// # Errors
    /// [`Error::ClassPathMismatch`] for a VM on another classpath than the
    /// directory serves; trailer errors for a corrupt, duplicated or
    /// reordered chunk; [`mheap::Error::OldGenFull`] (wrapped) when the heap
    /// cannot host the buffer.
    pub fn push_chunk(&mut self, bytes: &[u8]) -> Result<()> {
        self.core.push_chunk(self.vm, bytes).map(drop)
    }

    /// Absolutizes every chunk placed so far but not yet absorbed (see
    /// `AbsorbCore::absorb_ready`).
    ///
    /// # Errors
    /// Corrupt-stream and heap errors.
    pub fn absorb_ready(&mut self, hooks: Option<&UpdateRegistry>) -> Result<()> {
        self.core.absorb_ready(self.vm, hooks)
    }

    /// Completes the receive: absolutizes any chunks not yet absorbed,
    /// drains the cross-chunk fixup lists, adopts the stream, and applies
    /// update hooks. Returns the root objects in arrival order, plus
    /// statistics.
    ///
    /// The returned roots are *not yet GC roots*: callers must register
    /// them (handles) before any further allocation on this VM.
    ///
    /// # Errors
    /// Corrupt-stream and heap errors.
    pub fn finish(mut self, hooks: Option<&UpdateRegistry>) -> Result<(Vec<Addr>, ReceiveStats)> {
        self.core.finish_stream(self.vm, hooks)?;
        self.open = false;
        let stats = adopt(self.vm, std::slice::from_mut(&mut self.core), hooks)?;
        Ok((self.core.take_roots(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::{stdlib::define_core_classes, ClassPath, HeapConfig, LayoutSpec};

    fn env_with(spec: LayoutSpec) -> (Vm, TypeDirectory) {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        let vm = Vm::new("recv", &HeapConfig { spec, ..HeapConfig::small() }, cp).unwrap();
        (vm, TypeDirectory::new(1, NodeId(0)))
    }

    fn env() -> (Vm, TypeDirectory) {
        env_with(LayoutSpec::SKYWAY)
    }

    fn words(ws: &[u64]) -> Vec<u8> {
        ws.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// One wire chunk at stream offset `at`: the words `ws`, then their
    /// trailer.
    fn chunk(ws: &[u64], at: u64) -> Vec<u8> {
        let mut ws = ws.to_vec();
        ws.push(at);
        ws.push(mheap::segment::checksum_words(&ws, u64::from));
        words(&ws)
    }

    #[test]
    fn translate_empty_chunk_list_is_dangling() {
        let (mut vm, dir) = env();
        let r = GraphReceiver::new(&mut vm, &dir, NodeId(0));
        assert!(matches!(r.core.translate(0), Err(Error::DanglingRelativeAddr(0))));
        assert!(matches!(r.core.translate(64), Err(Error::DanglingRelativeAddr(64))));
    }

    #[test]
    fn translate_past_the_end_is_dangling() {
        let (mut vm, dir) = env();
        let mut r = GraphReceiver::new(&mut vm, &dir, NodeId(0));
        r.push_chunk(&chunk(&[0; 4], 0)).unwrap();
        r.push_chunk(&chunk(&[0; 2], 32)).unwrap();
        // In-range logicals resolve, and stay contiguous across chunks.
        let a0 = r.core.translate(0).unwrap();
        let a31 = r.core.translate(31).unwrap();
        assert_eq!(a31.0 - a0.0, 31);
        assert!(r.core.translate(32).is_ok());
        assert!(r.core.translate(47).is_ok());
        // One past the end of the last chunk must not clamp to it.
        assert!(matches!(r.core.translate(48), Err(Error::DanglingRelativeAddr(48))));
        assert!(matches!(r.core.translate(u64::MAX - 1), Err(Error::DanglingRelativeAddr(_))));
    }

    /// A marker or an object header cut off by the end of its chunk is a
    /// bad frame, and the scan neither reads its operand from nor writes
    /// filler into whatever follows the buffer.
    #[test]
    fn scan_never_reads_or_writes_past_its_chunk() {
        for spec in [LayoutSpec::SKYWAY, LayoutSpec::STOCK] {
            // Last word of the chunk is a top reference missing its operand;
            // last word of the chunk starts an object whose klass slot
            // would be the neighbour's first word.
            for tail in [TOP_REF, 0x1] {
                let (mut vm, dir) = env_with(spec);
                let mut r = GraphReceiver::new(&mut vm, &dir, NodeId(0));
                r.push_chunk(&chunk(&[FILLER_WORD, tail], 0)).unwrap();
                // A neighbouring buffer (the next chunk, or in parallel mode
                // another stream's) directly behind the first one.
                let mut next = AbsorbCore::new(&dir, NodeId(0));
                next.push_chunk(r.vm, &chunk(&[1], 0)).unwrap();
                let neighbour = next.chunks[0].base;
                assert_eq!(neighbour.0, r.core.chunks[0].base.0 + 16, "buffers are adjacent");

                let err = r.absorb_ready(None).unwrap_err();
                assert!(matches!(err, Error::BadFrame(_)), "{spec:?} {tail:#x}: {err}");
                assert!(r.core.roots.is_empty(), "a cut-off marker yields no root");
                let after = r.vm.heap().arena().load_word(neighbour.0).unwrap();
                assert_eq!(after, 1, "{spec:?} {tail:#x}: word after the chunk was clobbered");
            }
        }
    }

    /// The klass table's indexed load and the absorbed-chunk shortcut in
    /// `translate` only skip lookups; they trust nothing. Objects
    /// alternating two class numbers each resolve to their own class, a
    /// number the classpath never issued after them is a typed error rather
    /// than a class resolved earlier, and a reference to the first byte past
    /// the stream fails the finish pass.
    #[test]
    fn fast_paths_still_reject_hostile_input() {
        use mheap::stdlib::{INTEGER, LONG, PAIR};
        let (mut vm, dir) = env();
        let ids = [INTEGER, LONG, PAIR].map(|name| vm.load_class(name).unwrap());
        let [int_t, long_t, pair_t] = ids.map(|id| u64::from(id.0));
        let unknown = 10_000;

        // Four 4-word boxes alternating Integer / Long, then a box whose
        // number the classpath never issued.
        let mut r = GraphReceiver::new(&mut vm, &dir, NodeId(0));
        let mut boxes = Vec::new();
        for (i, t) in [int_t, long_t, int_t, long_t, unknown].into_iter().enumerate() {
            boxes.extend([0, t, 0, i as u64]);
        }
        r.push_chunk(&chunk(&boxes, 0)).unwrap();
        let err = r.absorb_ready(None).unwrap_err();
        assert!(matches!(err, Error::Heap(mheap::Error::UnknownKlass(10_000))), "{err}");
        let base = r.core.chunks[0].base.0;
        for (i, id) in [ids[0], ids[1], ids[0], ids[1]].into_iter().enumerate() {
            let k = r.vm.klass_of(Addr::from_raw(base + 32 * i as u64)).unwrap();
            assert_eq!(k.id, id, "object {i} took another object's class");
        }
        drop(r);
        assert_eq!(vm.verify_heap().unwrap(), vec![]);

        // A root pair whose `first` names logical 48: exactly the bytes
        // received, so past every chunk.
        let mut r = GraphReceiver::new(&mut vm, &dir, NodeId(0));
        r.push_chunk(&chunk(&[TOP_MARK, 0, pair_t, 0, 48 + 1, 0], 0)).unwrap();
        r.absorb_ready(None).unwrap();
        let err = r.finish(None).unwrap_err();
        assert!(matches!(err, Error::DanglingRelativeAddr(48)), "{err}");
        assert_eq!(vm.verify_heap().unwrap(), vec![]);
    }

    /// Dropping a receiver mid-stream hands its buffers back as filler and
    /// closes the allocation window: the heap verifies, and the next
    /// receiver on the same VM opens its own window.
    #[test]
    fn dropped_receiver_leaves_a_walkable_heap() {
        let (mut vm, dir) = env();
        let mut r = GraphReceiver::new(&mut vm, &dir, NodeId(0));
        // An "object" whose klass slot holds a number nobody issued.
        r.push_chunk(&chunk(&[0x1, 0xdead, 0, 0], 0)).unwrap();
        assert!(r.absorb_ready(None).is_err());
        drop(r);
        assert_eq!(vm.verify_heap().unwrap(), vec![]);
        let r = GraphReceiver::new(&mut vm, &dir, NodeId(0));
        assert!(r.finish(None).unwrap().0.is_empty());
    }
}
