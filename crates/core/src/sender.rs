//! Sending an object graph (paper §4.2, Algorithm 2).
//!
//! A GC-like breadth-first traversal discovers every object reachable from
//! the roots, clones each object — format preserved — into a
//! per-destination output buffer, and performs the three lightweight
//! adjustments the paper defines:
//!
//! 1. the klass word stays the klass id, which is the global type id
//!    (`tID`): every VM on the classpath gives the class that number;
//! 2. the mark word is sanitized (GC/lock bits reset, **identity hashcode
//!    preserved**);
//! 3. every reference field is *relativized* to the referee's logical
//!    position in the output buffer, recorded through the `baddr` header
//!    word tagged with the shuffle-phase id (`sID`) and stream id.
//!
//! Visited-tracking normally rides in the `baddr` word (one atomic CAS per
//! object); when the heap has no `baddr` word, or another thread already
//! claimed the object, a thread-local hash table takes over (§4.2 "Support
//! for Threads").
//!
//! The per-object budget is what a GC copy pays:
//!
//! * **one class resolution**, at the visit — the klass word indexes a
//!   per-stream table, the object's shape in both formats (headers, array
//!   length, payload, size) is worked out there too, and the gray queue
//!   carries both to the clone;
//! * **one atomic load and one CAS** per new object — the visited check's
//!   load of the `baddr` word is the CAS's expected value;
//! * **one output slice** — header written into it, payload bulk-copied
//!   into it, and the reference slots relativized there in place, never
//!   re-read from the heap.
//!
//! Heterogeneous clusters are handled here too: if the
//! receiver's object format differs, the clone is written *in the
//! receiver's format*, so only the sender pays (§3.1).
//!
//! The same traversal also writes the final image of a shared segment
//! ([`GraphSender::with_segment_base`]): nothing will parse or patch that
//! output again, so references go out absolute against the segment's
//! reserved base, root markers as filler words, and chunks without
//! trailers. The two encodings differ in one added constant per reference
//! and one branch per root.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use mheap::layout::{baddr, mark};
use mheap::{Addr, Klass, KlassKind, LayoutSpec, Vm, FILLER_WORD};
use simnet::NodeId;

use crate::buffer::{OutputBuffer, TOP_MARK, TOP_REF};
use crate::registry::TypeDirectory;
use crate::{Error, Result};

/// How visited objects are tracked during a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracking {
    /// Through the `baddr` header word (the paper's design; requires the
    /// sender heap's object format to carry one).
    Baddr,
    /// Through a side hash table only (the ablation baseline quantifying
    /// what the extra header word buys).
    HashTable,
}

/// Configuration of one graph send.
#[derive(Debug, Clone, Copy)]
pub struct SendConfig {
    /// Flush threshold of the output buffer in bytes.
    pub chunk_limit: usize,
    /// The receiver's object format (equal to the sender's in homogeneous
    /// clusters; different formats trigger sender-side adjustment).
    pub receiver_spec: LayoutSpec,
    /// Visited-tracking mode.
    pub tracking: Tracking,
}

impl SendConfig {
    /// Homogeneous-cluster defaults for a sender VM.
    pub fn for_vm(vm: &Vm) -> Self {
        SendConfig {
            chunk_limit: crate::buffer::DEFAULT_CHUNK,
            receiver_spec: vm.spec(),
            tracking: if vm.spec().with_baddr { Tracking::Baddr } else { Tracking::HashTable },
        }
    }
}

/// Byte-composition statistics of a finished stream — the paper's §5.2
/// analysis of what the "extra bytes" consist of (headers 51%, padding 34%,
/// pointers 15% in their Spark runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct SendStats {
    /// Objects cloned into the buffer.
    pub objects: u64,
    /// Total logical bytes (markers included).
    pub total_bytes: u64,
    /// Bytes spent on object headers (mark + klass + baddr + array length).
    pub header_bytes: u64,
    /// Bytes spent on alignment padding.
    pub padding_bytes: u64,
    /// Bytes spent on reference fields (pointers).
    pub pointer_bytes: u64,
    /// Bytes spent on primitive payload.
    pub data_bytes: u64,
    /// Marker words (top marks / top refs).
    pub marker_bytes: u64,
    /// Objects found via the hash-table fallback rather than `baddr`.
    pub fallback_hits: u64,
    /// `baddr` CAS races lost to a concurrent stream (each falls back to
    /// the thread-local table and duplicates the object per stream).
    pub cas_conflicts: u64,
}

impl SendStats {
    /// Accumulates another stream's statistics (parallel-stream merge).
    pub fn merge(&mut self, o: &SendStats) {
        self.objects += o.objects;
        self.total_bytes += o.total_bytes;
        self.header_bytes += o.header_bytes;
        self.padding_bytes += o.padding_bytes;
        self.pointer_bytes += o.pointer_bytes;
        self.data_bytes += o.data_bytes;
        self.marker_bytes += o.marker_bytes;
        self.fallback_hits += o.fallback_hits;
        self.cas_conflicts += o.cas_conflicts;
    }
}

/// A finished per-destination stream: chunks plus statistics.
#[derive(Debug)]
pub struct StreamOut {
    /// Stream id (thread id within the shuffle phase).
    pub stream: u16,
    /// Flushed chunks in order.
    pub chunks: Vec<Vec<u8>>,
    /// Composition statistics.
    pub stats: SendStats,
}

/// What the traversal writes for references and root markers — the one
/// thing that differs between a stream a receiver will parse and a segment
/// image nobody will touch again.
#[derive(Debug)]
enum Encoding {
    /// The wire stream: a reference is its target's logical address plus
    /// one (0 = null), and `TOP_MARK` / `TOP_REF` words announce roots to
    /// the receiver's parser.
    Wire,
    /// The final image of a segment: a reference is the absolute address
    /// `base + logical` (`base` rides in `GraphSender::ref_bias`), valid
    /// unchanged in every attacher, marker slots hold filler the heap
    /// walkers skip, and the roots are collected on the side.
    Image { roots: Vec<Addr> },
}

/// A finished segment image ([`GraphSender::finish_image`]).
#[derive(Debug)]
pub struct SegmentImage {
    /// The image: heap-format objects and filler words, references
    /// absolute against the base the sender was given. Its backing came
    /// from the sender's pool, if it had one — release it there.
    pub bytes: Vec<u8>,
    /// Graph roots as absolute addresses, one per `write_root`, in order.
    pub roots: Vec<Addr>,
    /// Composition statistics.
    pub stats: SendStats,
}

/// Where one object's bytes sit in both formats, worked out once at its
/// visit ([`GraphSender::shape_of`]) and carried to the clone.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Header bytes in the sender's format (where the payload starts).
    src_hdr: u64,
    /// Header bytes in the receiver's format.
    hdr: u64,
    /// Array length; 0 for instances.
    len: u64,
    /// Payload bytes, identical in both formats.
    payload: u64,
    /// Receiver-format object size: `hdr + payload`, 8-aligned.
    size: u64,
}

/// What the visited check found for an object.
#[derive(Debug, Clone, Copy)]
enum Seen {
    /// Already sent by this stream, at this logical position.
    At(u64),
    /// New to this stream. [`GraphSender::claim`] records it through the
    /// `baddr` word the check loaded — the CAS's expected value — or, for
    /// `None`, in the thread-local table.
    New(Option<u64>),
}

/// Multiply-mix hasher for heap-address keys (fxhash-style). The visited
/// fallback table sits on the traversal's hottest path — one lookup per
/// reference slot plus one insert per object — where SipHash costs more
/// than the probe itself. Addresses are word-aligned with entropy in the
/// middle bits; one odd-constant multiply spreads them adequately.
#[derive(Debug, Default, Clone)]
pub struct AddrHasher(u64);

impl std::hash::Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Heap address → logical buffer address, keyed by the cheap [`AddrHasher`].
type AddrMap = HashMap<u64, u64, std::hash::BuildHasherDefault<AddrHasher>>;

/// The sender-side traversal state for one (destination, stream) pair.
pub struct GraphSender<'a> {
    vm: &'a Vm,
    dir: &'a TypeDirectory,
    node: NodeId,
    sid: u8,
    stream: u16,
    cfg: SendConfig,
    out: OutputBuffer,
    encoding: Encoding,
    /// Added to a target's logical address to form the reference word: 1
    /// on the wire, the segment base in an image. Kept beside `encoding`
    /// so the per-reference path is one add either way.
    ref_bias: u64,
    /// Thread-local fallback: heap address → logical buffer address.
    fallback: AddrMap,
    /// Objects assigned a logical address but not yet cloned, with the
    /// klass and shape their visit resolved.
    gray: VecDeque<(Addr, u64, &'a Klass, Shape)>,
    stats: SendStats,
    /// The classes this stream met, indexed by klass word. The layout —
    /// kind, reference map, payload end, element size — is read off the
    /// klass where it lies in the sender VM's table, as the real Skyway's
    /// VM-internal send loop reads its klass meta-objects. Grows only to a
    /// word `klass_of` has resolved, so a hit is one indexed load.
    klasses: Vec<Option<&'a Klass>>,
    /// Where [`GraphSender::finish`] publishes `stats`, and whose tracer
    /// records this stream's spans. The traversal itself counts into
    /// `stats` only.
    registry: Arc<obs::Registry>,
    /// Trace context of the transfer this stream belongs to
    /// ([`obs::TraceCtx::NONE`] keeps every span inert).
    trace_ctx: obs::TraceCtx,
    /// Trace lane (0 = main; parallel worker *w* records on lane `w+1`).
    lane: u32,
    /// Open traverse-burst accumulator (see [`GraphSender::write_root`]).
    traverse: Option<TraverseBurst>,
}

/// Accumulator for one `trace.sender.traverse` burst span: consecutive
/// root traversals coalesce into a single span that closes when a chunk
/// flushes (or at stream finish). Per-root spans would outnumber every
/// other span kind a thousandfold on small-object workloads and dominate
/// the tracing overhead; a burst per flushed chunk matches the pipeline's
/// unit of work.
struct TraverseBurst {
    start_ns: u64,
    roots: u64,
    objects_before: u64,
    bytes_before: u64,
    cas_before: u64,
}

impl<'a> std::fmt::Debug for GraphSender<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphSender")
            .field("node", &self.node)
            .field("sid", &self.sid)
            .field("stream", &self.stream)
            .field("bytes", &self.out.total_bytes())
            .finish()
    }
}

impl<'a> GraphSender<'a> {
    /// Starts a send from `vm` on `node`, within shuffle phase `sid`, as
    /// stream `stream`.
    ///
    /// # Errors
    /// [`Error::NeedsBaddr`] if `Tracking::Baddr` is requested on a heap
    /// whose format has no `baddr` word.
    pub fn new(
        vm: &'a Vm,
        dir: &'a TypeDirectory,
        node: NodeId,
        sid: u8,
        stream: u16,
        cfg: SendConfig,
    ) -> Result<Self> {
        if cfg.tracking == Tracking::Baddr && !vm.spec().with_baddr {
            return Err(Error::NeedsBaddr);
        }
        dir.serve(node, vm)?;
        Ok(GraphSender {
            vm,
            dir,
            node,
            sid,
            stream,
            cfg,
            out: OutputBuffer::new(cfg.chunk_limit),
            encoding: Encoding::Wire,
            ref_bias: 1,
            fallback: AddrMap::default(),
            gray: VecDeque::new(),
            stats: SendStats::default(),
            klasses: Vec::new(),
            registry: Arc::clone(obs::global()),
            trace_ctx: obs::TraceCtx::NONE,
            lane: 0,
            traverse: None,
        })
    }

    /// Reports into `registry` instead of the process-wide default
    /// (scoped registries keep test assertions exact).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.registry = registry;
        self
    }

    /// Attaches this stream's spans (traversal per root) to `ctx`.
    /// Without this the sender emits no spans at all.
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.trace_ctx = ctx;
        self
    }

    /// Records this stream's spans on worker lane `lane` (its own Perfetto
    /// thread row) instead of the node's main lane.
    #[must_use]
    pub fn with_lane(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Draws chunk backings from `pool` instead of allocating each one,
    /// so steady-state pipelined transfer does zero per-chunk allocations.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<crate::buffer::ChunkPool>) -> Self {
        let trailers = self.out.trailers;
        self.out = OutputBuffer::new_pooled(self.cfg.chunk_limit, pool);
        self.out.trailers = trailers;
        self
    }

    /// Writes the final image of a segment based at `base` instead of a
    /// wire stream: absolute references, filler in place of marker words,
    /// no chunk trailer, roots collected for [`GraphSender::finish_image`].
    /// The caller sizes `chunk_limit` so the whole image fits one chunk.
    #[must_use]
    pub fn with_segment_base(mut self, base: u64) -> Self {
        self.encoding = Encoding::Image { roots: Vec::new() };
        self.ref_bias = base;
        self.out.trailers = false;
        self
    }

    /// Resolves (and caches) the klass of `obj` — once per object, at its
    /// visit; the gray queue carries it to the clone. A wire stream's first
    /// object of a class accounts the class at the type directory.
    fn klass_for(&mut self, obj: Addr) -> Result<&'a Klass> {
        let sspec = self.vm.spec();
        let kw = self.vm.heap().arena().load_word(obj.0 + sspec.klass_off())? as u32 as usize;
        if let Some(&Some(klass)) = self.klasses.get(kw) {
            return Ok(klass);
        }
        let klass = self.vm.klass_of(obj)?;
        if let Encoding::Wire = self.encoding {
            self.dir.tid_for(self.node, klass)?;
        }
        if self.klasses.len() <= kw {
            self.klasses.resize(kw + 1, None);
        }
        self.klasses[kw] = Some(klass);
        Ok(klass)
    }

    /// The visited check (Algorithm 2 lines 18–26).
    fn lookup_visited(&mut self, obj: Addr) -> Result<Seen> {
        // Segment residents have no writable baddr word (sealed memory is
        // read-only, and a stale sealed baddr could falsely match): track
        // them in the thread-local table.
        if self.cfg.tracking == Tracking::HashTable || self.vm.heap().in_segment(obj) {
            return Ok(self.fallback.get(&obj.0).map_or(Seen::New(None), |&rel| Seen::At(rel)));
        }
        let off = obj.0 + self.vm.spec().baddr_off()?;
        let w = self.vm.heap().arena().load_word_atomic(off)?;
        if baddr::sid_of(w) == self.sid {
            if baddr::stream_of(w) == self.stream {
                return Ok(Seen::At(baddr::rel_of(w)));
            }
            // Claimed by another stream/thread: our own copy lives in the
            // thread-local table (or doesn't exist yet).
            if let Some(&rel) = self.fallback.get(&obj.0) {
                self.stats.fallback_hits += 1;
                return Ok(Seen::At(rel));
            }
        }
        Ok(Seen::New(Some(w)))
    }

    /// Records `obj → logical` for this phase: a CAS on `baddr` expecting
    /// the `seen` word the visited check loaded, falling back to the hash
    /// table when that word already belongs to this phase or the CAS loses
    /// (another stream claimed the object since).
    fn claim(&mut self, obj: Addr, seen: Option<u64>, logical: u64) -> Result<()> {
        if let Some(old) = seen {
            if baddr::sid_of(old) != self.sid {
                let off = obj.0 + self.vm.spec().baddr_off()?;
                let new = baddr::compose(self.sid, self.stream, logical);
                if self.vm.heap().arena().cas_word(off, old, new)?.is_ok() {
                    return Ok(());
                }
            }
            self.stats.cas_conflicts += 1;
        }
        self.fallback.insert(obj.0, logical);
        Ok(())
    }

    /// Where `obj`'s bytes sit in the sender's and the receiver's format:
    /// the same payload behind each format's header, arrays sized from
    /// their length.
    fn shape_of(&self, obj: Addr, k: &Klass) -> Result<Shape> {
        let (sspec, rspec) = (self.vm.spec(), self.cfg.receiver_spec);
        let (src_hdr, hdr, len, payload) = match k.kind {
            KlassKind::Instance => (
                sspec.instance_header(),
                rspec.instance_header(),
                0,
                k.payload_end - sspec.instance_header(),
            ),
            _ => {
                let len = self.vm.array_len(obj)?;
                (sspec.array_header(), rspec.array_header(), len, len * u64::from(k.elem_size))
            }
        };
        Ok(Shape { src_hdr, hdr, len, payload, size: mheap::layout::align8(hdr + payload) })
    }

    /// Visits a referee: returns its logical address, enqueuing it for
    /// cloning if unseen (Algorithm 2 lines 15–27).
    fn visit(&mut self, obj: Addr) -> Result<u64> {
        match self.lookup_visited(obj)? {
            Seen::At(rel) => Ok(rel),
            Seen::New(seen) => self.enqueue(obj, seen),
        }
    }

    /// Assigns an unseen object its logical address, claims it and queues
    /// it for cloning — its class resolved here, once.
    fn enqueue(&mut self, obj: Addr, seen: Option<u64>) -> Result<u64> {
        let klass = self.klass_for(obj)?;
        let shape = self.shape_of(obj, klass)?;
        let logical = self.out.assign(shape.size);
        self.claim(obj, seen, logical)?;
        self.gray.push_back((obj, logical, klass, shape));
        Ok(logical)
    }

    /// Clones one object into the buffer at its assigned logical address,
    /// adjusting headers and relativizing references (Algorithm 2 lines
    /// 10–27).
    fn clone_object(&mut self, obj: Addr, logical: u64, k: &Klass, shape: Shape) -> Result<()> {
        let Shape { src_hdr, hdr, len, payload, size } = shape;
        self.out.place(logical, size)?;
        self.stats.objects += 1;
        let rspec = self.cfg.receiver_spec;
        let arena = self.vm.heap().arena();
        let m = arena.load_word(obj.0 + self.vm.spec().mark_off())?;
        // The object's one output slice, zero-filled by `place` (so the
        // `baddr` word and the padding need no write): header — sanitized
        // mark (hashcode preserved), klass word, array length — then the whole
        // payload in one bulk copy, the "transfers every object as a
        // whole" fast path, references included.
        let (head, body) = self.out.slice_mut(logical, size as usize)?.split_at_mut(hdr as usize);
        head[..8].copy_from_slice(&mark::sanitized_for_transfer(m).to_le_bytes());
        head[8..16].copy_from_slice(&u64::from(k.id.0).to_le_bytes());
        if k.kind != KlassKind::Instance {
            let at = rspec.array_len_off() as usize;
            match rspec.array_len_size {
                8 => head[at..at + 8].copy_from_slice(&len.to_le_bytes()),
                4 => head[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes()),
                n => return Err(Error::BadFrame(format!("array_len_size {n}"))),
            }
        }
        arena.read_bytes(obj.0 + src_hdr, &mut body[..payload as usize])?;
        self.stats.header_bytes += hdr;
        self.stats.padding_bytes += size - hdr - payload;
        // Relativize the copied reference slots in place.
        match k.kind {
            KlassKind::Instance => {
                let pointers = 8 * k.ref_offsets.len() as u64;
                self.stats.pointer_bytes += pointers;
                self.stats.data_bytes += payload - pointers;
                for &off in &*k.ref_offsets {
                    self.relativize(logical + hdr + (off - src_hdr))?;
                }
            }
            KlassKind::PrimArray(_) => self.stats.data_bytes += payload,
            KlassKind::RefArray => {
                self.stats.pointer_bytes += payload;
                for i in 0..len {
                    self.relativize(logical + hdr + i * 8)?;
                }
            }
        }
        Ok(())
    }

    /// Rewrites the sender-heap reference the bulk copy left at logical
    /// `slot` into its target's logical address plus `ref_bias`; a null
    /// stays the zero it was copied as.
    fn relativize(&mut self, slot: u64) -> Result<()> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.out.slice_mut(slot, 8)?);
        let tgt = Addr(u64::from_le_bytes(word));
        if tgt.is_null() {
            return Ok(());
        }
        let rel = self.visit(tgt)?;
        self.out.write_word(slot, rel + self.ref_bias)
    }

    /// Transfers the object graph of one root (`writeObject(root)`): emits
    /// a top mark (or a backward reference if this root already went out in
    /// this phase), then drains the BFS queue.
    ///
    /// When traced, consecutive roots accumulate into one open traverse
    /// burst; [`GraphSender::take_ready_chunks`] and
    /// [`GraphSender::finish`] close it, so traverse spans scale with
    /// flushed chunks rather than with object count.
    ///
    /// # Errors
    /// Heap/registry errors.
    pub fn write_root(&mut self, root: Addr) -> Result<()> {
        if self.trace_ctx.is_none() {
            return self.write_root_inner(root);
        }
        if self.traverse.is_none() {
            self.traverse = Some(TraverseBurst {
                start_ns: self.registry.tracer().now_ns(),
                roots: 0,
                objects_before: self.stats.objects,
                bytes_before: self.out.total_bytes(),
                cas_before: self.stats.cas_conflicts,
            });
        }
        if let Some(b) = self.traverse.as_mut() {
            b.roots += 1;
        }
        self.write_root_inner(root)
    }

    /// Publishes the open traverse-burst span, ending now.
    fn close_traverse_burst(&mut self) {
        let Some(b) = self.traverse.take() else {
            return;
        };
        let tracer = self.registry.tracer();
        let dur = tracer.now_ns().saturating_sub(b.start_ns);
        tracer.record_closed_on(
            obs::names::TRACE_SENDER_TRAVERSE,
            self.trace_ctx,
            &self.vm.name,
            self.lane,
            dur,
            &[
                ("roots", b.roots),
                ("objects", self.stats.objects - b.objects_before),
                ("bytes", self.out.total_bytes() - b.bytes_before),
                ("cas_conflicts", self.stats.cas_conflicts - b.cas_before),
                ("sid", u64::from(self.sid)),
            ],
        );
    }

    fn write_root_inner(&mut self, root: Addr) -> Result<()> {
        if root.is_null() {
            return Err(Error::NullRoot);
        }
        let seen = match self.lookup_visited(root)? {
            Seen::At(rel) => {
                let words = match &mut self.encoding {
                    Encoding::Wire => [TOP_REF, rel + 1],
                    Encoding::Image { roots } => {
                        roots.push(Addr::from_raw(self.ref_bias + rel));
                        [FILLER_WORD; 2]
                    }
                };
                let at = self.out.emit(16)?;
                self.out.write_word(at, words[0])?;
                self.out.write_word(at + 8, words[1])?;
                self.stats.marker_bytes += 16;
                return Ok(());
            }
            Seen::New(seen) => seen,
        };
        let at = self.out.emit(8)?;
        self.stats.marker_bytes += 8;
        let logical = self.enqueue(root, seen)?;
        let marker = match &mut self.encoding {
            Encoding::Wire => TOP_MARK,
            Encoding::Image { roots } => {
                roots.push(Addr::from_raw(self.ref_bias + logical));
                FILLER_WORD
            }
        };
        self.out.write_word(at, marker)?;
        while let Some((obj, logical, klass, shape)) = self.gray.pop_front() {
            self.clone_object(obj, logical, klass, shape)?;
        }
        Ok(())
    }

    /// Completes the stream and publishes its [`SendStats`] — the one
    /// place a sender feeds the `skyway.sender.*` counters, so a sender
    /// dropped unfinished publishes nothing.
    pub fn finish(mut self) -> StreamOut {
        self.close_traverse_burst();
        self.stats.total_bytes = self.out.total_bytes();
        self.out.flush();
        let chunks = self.out.take_ready_chunks();
        for c in &chunks {
            self.note_chunk_sent(c.len());
        }
        let (reg, stats) = (&self.registry, self.stats);
        reg.counter(obs::names::SENDER_OBJECTS_VISITED).add(stats.objects);
        reg.counter(obs::names::SENDER_BYTES_CLONED).add(stats.total_bytes);
        reg.counter(obs::names::SENDER_CAS_CONFLICTS).add(stats.cas_conflicts);
        reg.counter(obs::names::SENDER_FALLBACK_HITS).add(stats.fallback_hits);
        StreamOut { stream: self.stream, chunks, stats }
    }

    /// Completes a sender started with [`GraphSender::with_segment_base`],
    /// yielding the image in one piece.
    ///
    /// # Errors
    /// [`Error::BadFrame`] if the sender was writing a wire stream, or if
    /// the image outgrew `chunk_limit` and was cut into chunks.
    pub fn finish_image(mut self) -> Result<SegmentImage> {
        let Encoding::Image { roots } = std::mem::replace(&mut self.encoding, Encoding::Wire)
        else {
            return Err(Error::BadFrame("sender was not writing a segment image".into()));
        };
        let mut out = self.finish();
        if out.chunks.len() > 1 {
            return Err(Error::BadFrame(format!(
                "segment image cut into {} chunks; chunk_limit must bound the whole image",
                out.chunks.len()
            )));
        }
        let bytes = out.chunks.pop().unwrap_or_default();
        Ok(SegmentImage { bytes, roots, stats: out.stats })
    }

    /// Upper-bound estimate of the wire bytes `roots` will produce, or
    /// `None` as soon as the stream may exceed `cap` or the graph is not
    /// *flat* — some root carries reference fields (or is a reference
    /// array), so the traversal could reach an unbounded amount of extra
    /// data. For flat graphs the stream is exactly one top mark plus one
    /// object per root (a repeated root costs a 16-byte backward reference,
    /// never more), which makes this bound tight enough for the pipeline's
    /// single-chunk fallback to trust without walking the heap twice.
    ///
    /// Must be called before any `write_root` — it only inspects klass
    /// layouts and array lengths, consuming no buffer space.
    ///
    /// # Errors
    /// Heap/registry errors resolving a root's klass.
    pub fn estimate_flat_bytes(&mut self, roots: &[Addr], cap: u64) -> Result<Option<u64>> {
        let mut total = 0u64;
        for &root in roots {
            if root.is_null() {
                return Ok(None);
            }
            let k = self.klass_for(root)?;
            if !k.ref_offsets.is_empty() || k.kind == KlassKind::RefArray {
                return Ok(None);
            }
            total += 8 + self.shape_of(root, k)?.size;
            if total > cap {
                return Ok(None);
            }
        }
        Ok(Some(total))
    }

    /// Chunks that have already flushed (the engine's lanes drain these so
    /// transfer overlaps with the traversal, §3.2).
    pub fn take_ready_chunks(&mut self) -> Vec<Vec<u8>> {
        let chunks = self.out.take_ready_chunks();
        if !chunks.is_empty() {
            // A chunk boundary ends the current traverse burst.
            self.close_traverse_burst();
        }
        for c in &chunks {
            self.note_chunk_sent(c.len());
        }
        chunks
    }

    /// Records one cut chunk in the chunk-size histogram.
    fn note_chunk_sent(&self, bytes: usize) {
        self.registry.histogram(obs::names::SENDER_CHUNK_BYTES).record(bytes as u64);
    }
}

/// Worker count and engagement floor for parallel traversal. Worker `t`
/// of `workers` sends a fixed strided share of the roots — every
/// `workers`-th run of consecutive roots, starting at run `t` — as its own
/// stream (§4.2 "Support for Threads": independent senders; nothing moves
/// roots between them).
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Traversal workers (= streams). Defaults to the host's available
    /// parallelism; never clamped to a magic ceiling.
    pub workers: usize,
    /// Pipeline policy knob: parallel mode engages only when
    /// `roots >= workers * min_roots_per_worker` — below that the
    /// per-worker setup outweighs the traversal it parallelizes.
    pub min_roots_per_worker: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            min_roots_per_worker: 8,
        }
    }
}

/// The sender-lane body, shared by every transfer path: traverse each of
/// `roots`, in order, into the stream `open` creates once the first root
/// arrives, and hand every flushed chunk to `sink` as soon as it is cut. A
/// `false` from `sink` means the consumer is gone (its error wins): the
/// lane stops producing and only closes its stream. Returns the stream's
/// statistics (all zero when `roots` was empty, so no stream was opened).
///
/// # Errors
/// The first sender error.
pub(crate) fn send_lane<'a>(
    open: impl FnOnce() -> Result<GraphSender<'a>>,
    roots: impl Iterator<Item = Addr>,
    mut sink: impl FnMut(Vec<u8>) -> bool,
) -> Result<SendStats> {
    let mut roots = roots.peekable();
    if roots.peek().is_none() {
        return Ok(SendStats::default());
    }
    let mut sender = open()?;
    let mut consumer_alive = true;
    for root in roots {
        let flushed = sender.out.flushed_bytes;
        sender.write_root(root)?;
        // Most roots cut no chunk; only a moved flush mark is worth a drain.
        if sender.out.flushed_bytes != flushed {
            consumer_alive = sender.take_ready_chunks().into_iter().all(&mut sink);
            if !consumer_alive {
                break;
            }
        }
    }
    let out = sender.finish();
    if consumer_alive {
        out.chunks.into_iter().all(&mut sink);
    }
    Ok(out.stats)
}
