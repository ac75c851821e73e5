//! Generational garbage collection: minor copying collection of the young
//! generation and full mark-compact collection.
//!
//! The collector is a deliberately straightforward rendition of the Parallel
//! Scavenge structure the paper modifies (§4, "we have modified ... the
//! Parallel Scavenge garbage collector, which is the default GC in OpenJDK
//! 8"): eden + two survivor semispaces, tenuring by age, a card table for
//! old→young references, and sliding compaction of the old generation.
//!
//! Skyway interacts with the collector in two ways this module must honor:
//!
//! 1. input buffers are raw old-generation regions that become parseable
//!    objects after absolutization, padded with filler words the walkers
//!    skip, and
//! 2. a received graph is ordinary tenured data: it references only its
//!    own input buffers (or null), so its arrival dirties no card, and a
//!    young object stored into it later is remembered by the write barrier
//!    like any mutator's store.
//!
//! A minor collection costs the dirty cards, not the old generation. The
//! heap's *object-start record* keeps, per card, the lowest object start
//! noted there: by promotion and large-object allocation, and by the
//! receiver for each input-buffer chunk it adopts (a chunk parses from its
//! base; the shared old-generation window it claims chunks through notes
//! nothing itself). A record is always a true object start (`verify_heap`
//! checks it); a card without one only makes the walk reach further back. The
//! card walk visits each maximal run of dirty cards, parses forward from
//! the nearest recorded start at or before the run, and cleans the run as
//! it goes.
//!
//! A full collection costs live words, not table probes. Like ParallelOld,
//! the old-generation compactor of the paper's Parallel Scavenge, it keeps
//! one side bitmap and no per-object table. It marks every word a
//! reachable object covers, counts the live words per block of the bitmap,
//! and then makes one address-order pass over the marked objects. That
//! pass rewrites each reference through the count (Compressor-style: a
//! block count plus a popcount), slides each old object down, re-notes its
//! start, and dirties its card while it holds a young reference.

use std::ops::Range;

use crate::heap::Gen;
use crate::layout::{mark, Addr};
use crate::vm::{ObjLayout, Vm};
use crate::{Error, Result};

impl Vm {
    /// Writes a reference slot of `obj` without the generational write
    /// barrier — the collector manages card state explicitly (it re-checks
    /// slot targets after evacuation, so an unconditional dirty would
    /// over-mark). `obj` must come from a root set or a live-object walk;
    /// everything else goes through [`Vm::write_ref_at`].
    fn write_ref_raw(&self, obj: Addr, offset: u64, val: Addr) -> Result<()> {
        self.heap.arena().store_word(obj.0 + offset, val.0)
    }

    /// Runs a minor (young-generation) collection.
    ///
    /// Live young objects move to the to-survivor space, or are promoted to
    /// the old generation once their age reaches the tenuring threshold (or
    /// when the survivor space overflows).
    ///
    /// Roots are the handles, the temp roots and every old object that
    /// overlaps a dirty card. Those are found through the dirty cards
    /// alone: each maximal run is cleaned and parsed from the nearest
    /// recorded object start at or before it, so the work follows the
    /// number of dirty cards, not the size of the old generation. A scanned
    /// object's card is dirtied again only while it still references a
    /// young (survivor) object.
    ///
    /// # Errors
    /// [`Error::PromotionFailed`] when the old generation cannot absorb
    /// promoted objects — the caller ([`Vm::alloc_instance`] etc.) responds
    /// with a full collection.
    pub fn minor_gc(&mut self) -> Result<()> {
        let gc_start = std::time::Instant::now();
        let promoted_before = self.stats.bytes_promoted;
        let mut cards_scanned: u64 = 0;
        let mut copied: Vec<Addr> = Vec::new();

        // 1. Evacuate handle and temp roots.
        for i in 0..self.handles.slots.len() {
            if let Some(a) = self.handles.slots[i] {
                self.handles.slots[i] = Some(self.evacuate(a, &mut copied)?);
            }
        }
        for i in 0..self.temp_roots.len() {
            self.temp_roots[i] = self.evacuate(self.temp_roots[i], &mut copied)?;
        }

        // 2. Old→young references found through dirty cards.
        let dirty_objs = self.dirty_card_objects(&mut cards_scanned)?;
        // One buffer for the whole collection: the slot walk borrows the
        // klass out of `self`, and evacuating a target needs `&mut self`.
        let mut slots: Vec<u64> = Vec::new();
        for obj in dirty_objs {
            self.scavenge_slots(obj, &mut slots, &mut copied)?;
        }

        // 3. Transitive closure over the copied objects.
        let mut i = 0;
        while i < copied.len() {
            let obj = copied[i];
            i += 1;
            self.scavenge_slots(obj, &mut slots, &mut copied)?;
        }

        // 4. Reset eden and the (now dead) from-space; swap survivors.
        self.heap.reset_young_after_minor()?;
        self.stats.minor_gcs += 1;
        let pause_ns = gc_start.elapsed().as_nanos() as u64;
        self.stats.gc_ns += pause_ns;
        self.note_gc(pause_ns, self.stats.bytes_promoted - promoted_before, cards_scanned, None);
        Ok(())
    }

    /// Steps 2 and 3's slot scan of `obj`, one read per slot: each young
    /// target is evacuated and its new address stored, and an old `obj`
    /// stays remembered (its card dirty) only while a new address is still
    /// young. `slots` is scratch space reused across calls.
    fn scavenge_slots(
        &mut self,
        obj: Addr,
        slots: &mut Vec<u64>,
        copied: &mut Vec<Addr>,
    ) -> Result<()> {
        slots.clear();
        slots.extend(self.ref_slots(obj)?);
        for &off in slots.iter() {
            let tgt = self.read_ref_at(obj, off)?;
            if !tgt.is_null() && self.heap.in_young(tgt) {
                let n = self.evacuate(tgt, copied)?;
                self.write_ref_raw(obj, off, n)?;
                if self.heap.in_old(obj) && self.heap.in_young(n) {
                    self.heap.dirty_card(obj); // survivor target: keep remembered
                }
            }
        }
        Ok(())
    }

    /// Step 2's card walk: every old object overlapping a dirty card, each
    /// once, in address order. Each maximal run of dirty cards below
    /// `old.top` is cleaned, then parsed forward from the nearest recorded
    /// object start at or before its first byte; `cards_scanned` grows by
    /// the run's length. Work follows the dirty cards, not the old
    /// generation's size.
    fn dirty_card_objects(&mut self, cards_scanned: &mut u64) -> Result<Vec<Addr>> {
        let mut objs: Vec<Addr> = Vec::new();
        let mut next = 0;
        while let Some(run) = self.heap.take_dirty_run(next) {
            *cards_scanned += run.len() as u64;
            let lo = self.heap.card_start(run.start);
            let hi = self.heap.card_start(run.end).min(self.heap.old.top);
            let from = self.heap.parse_point(run.start);
            self.walk_range(from, hi, |_, addr, size| {
                // An object spanning two runs is collected by the first.
                if addr.0 + size > lo && objs.last().is_none_or(|l| l.0 < addr.0) {
                    objs.push(addr);
                }
                Ok(())
            })?;
            next = run.end;
        }
        Ok(objs)
    }

    /// Reports one completed collection to the metrics registry. `live`
    /// is a full collection's `(objects, words)` marked, `None` for a minor
    /// one.
    fn note_gc(&self, pause_ns: u64, promoted: u64, cards: u64, live: Option<(u64, u64)>) {
        let (reg, ctx, full) = (&self.metrics, self.trace_ctx.get(), live.is_some());
        reg.counter(if full { obs::names::GC_FULL_GCS } else { obs::names::GC_MINOR_GCS }).inc();
        reg.histogram(obs::names::GC_PAUSE_NS).record(pause_ns);
        reg.counter(obs::names::GC_PROMOTED_BYTES).add(promoted);
        reg.counter(obs::names::GC_CARDS_SCANNED).add(cards);
        let (objects, words) = live.unwrap_or_default();
        let live = [("live_objects", objects), ("live_words", words)];
        let args = [("full", u64::from(full)), ("promoted_bytes", promoted), live[0], live[1]];
        // Attribute the pause to the transfer that last touched this
        // heap (inert unless tracing is on and a context was attached).
        let args = &args[..if full { 4 } else { 2 }];
        reg.tracer().record_closed(obs::names::TRACE_GC_PAUSE, ctx, &self.name, pause_ns, args);
    }

    /// Copies one young object out of the collected region, leaving a
    /// forwarding pointer; idempotent for already-forwarded objects. Null,
    /// old objects, attached segment residents (immutable, never moved) and
    /// to-space objects (already moved this cycle) stay where they are.
    fn evacuate(&mut self, obj: Addr, copied: &mut Vec<Addr>) -> Result<Addr> {
        let settled = obj.is_null() || self.heap.gen_of(obj)? != Gen::Young;
        if settled || self.heap.to_space().contains(obj) {
            return Ok(obj);
        }
        let m = self.heap.arena().load_word(obj.0)?;
        if mark::is_forwarded(m) {
            return Ok(Addr(mark::forwarded_addr(m)));
        }
        let size = self.obj_size(obj)?;
        let age = mark::age_of(m).saturating_add(1);
        let tenure = age >= self.heap.tenure_threshold;
        let dest = if tenure { None } else { self.heap.bump_to_space(size) };
        let (dest, promoted) = match dest {
            Some(d) => (d, false),
            None => {
                let d =
                    self.heap.bump_old(size).ok_or(Error::PromotionFailed { requested: size })?;
                (d, true)
            }
        };
        self.heap.arena().copy_within(obj.0, dest.0, size as usize)?;
        // Stamp the new age; clear age if promoted (it no longer matters).
        let new_mark = mark::with_age(m, if promoted { 0 } else { age });
        self.heap.arena().store_word(dest.0, new_mark)?;
        self.heap.arena().store_word(obj.0, mark::forward_to(dest.0))?;
        if promoted {
            self.stats.bytes_promoted += size;
        }
        copied.push(dest);
        Ok(dest)
    }

    /// Runs a full collection in three steps over one side bitmap, then a
    /// minor collection to clean the young generation.
    ///
    /// 1. *Mark* sets a bit for every word a reachable object covers,
    ///    resolving each object's class once; it stops at attached segments.
    ///    [`Vm::live_bytes`] and [`Vm::live_object_count`] read the same
    ///    mark.
    /// 2. *Count* the live words in each block of the bitmap. An old
    ///    object's new address is `old.start` plus the live old words below
    ///    it: a block count plus a popcount. No forwarding table, no sort.
    /// 3. *Slide*: one address-order pass over the marked objects rewrites
    ///    every reference through that rank, slides each old object down
    ///    (an object already in place is not copied), re-notes its start,
    ///    and dirties its card while it holds a young reference.
    ///
    /// # Errors
    /// Propagates heap access errors; an object or reference outside
    /// `[0, old.top)` and outside every attached segment is
    /// [`Error::BadAddress`]. [`Error::PromotionFailed`] only if the heap
    /// is genuinely too full.
    pub fn full_gc(&mut self) -> Result<()> {
        let gc_start = std::time::Instant::now();
        let (mut bits, live_objects, live_words) = self.mark()?;
        bits.count();
        let roots = self.handles.slots.iter_mut().flatten().chain(&mut self.temp_roots);
        roots.for_each(|r| *r = bits.forward(*r));

        // Every object-start record and card goes stale here; each object
        // is re-noted, and its card re-dirtied, where it lands.
        self.heap.drop_object_starts();
        self.heap.clear_cards();
        let (old_start, mut cursor, mut moved) = (self.heap.old.start, self.heap.old.start, 0);
        let mut next = bits.next_marked(0);
        while let Some(word) = next {
            let obj = Addr::from_raw(word * 8);
            let ObjLayout { size, slots } = self.layout_of(obj)?;
            let mut young = false;
            for off in slots {
                let n = bits.forward(self.read_ref_at(obj, off)?);
                self.write_ref_raw(obj, off, n)?;
                young |= self.heap.in_young(n);
            }
            next = bits.next_marked(word + size / 8);
            if obj.byte_add(size).raw() <= old_start {
                continue; // young objects stay where they are
            }
            // In address order a copy lands below every object not yet
            // slid, so it overwrites nothing still to be read.
            if obj.raw() != cursor {
                self.heap.arena().copy_within(obj.raw(), cursor, size as usize)?;
                moved += size / 8;
            }
            let dest = Addr::from_raw(cursor);
            self.heap.note_object_start(dest);
            if young {
                self.heap.dirty_card(dest);
            }
            cursor += size;
        }
        self.heap.set_old_top(cursor)?;

        self.stats.full_gcs += 1;
        self.stats.full_gc_live_words += live_words;
        self.stats.full_gc_words_moved += moved;
        let pause_ns = gc_start.elapsed().as_nanos() as u64;
        self.stats.gc_ns += pause_ns;
        // The sliding compaction promotes nothing and scans no cards — it
        // dirties exactly the remembered ones as it slides.
        self.note_gc(pause_ns, 0, 0, Some((live_objects, live_words)));

        // Clean the young generation with a minor pass, but only when the
        // compacted old generation can absorb a worst-case promotion;
        // otherwise the caller's allocation retry surfaces a clean
        // OutOfMemory.
        if self.minor_gc_is_safe() {
            self.minor_gc()
        } else {
            Ok(())
        }
    }

    /// Marks every object reachable from the handle and temp roots into a
    /// bitmap over `[0, old.top)`, resolving each object's class once, and
    /// returns it with the count of objects and words marked. Attached
    /// segments are marking boundaries: immutable, self-contained, never
    /// moved, and kept alive by their attach refcount.
    ///
    /// # Errors
    /// [`Error::BadAddress`] for an object that does not end by `old.top`;
    /// heap access errors.
    fn mark(&self) -> Result<(MarkBits, u64, u64)> {
        let mut bits = MarkBits::new(self.heap.old.start..self.heap.old.top);
        let (mut objects, mut words) = (0, 0);
        let roots = self.handles.slots.iter().flatten().chain(&self.temp_roots);
        let mut stack: Vec<Addr> = roots.copied().filter(|a| !a.is_null()).collect();
        while let Some(obj) = stack.pop() {
            if self.heap.in_segment(obj) || bits.is_marked(obj.raw() / 8) {
                continue;
            }
            let ObjLayout { size, slots } = self.layout_of(obj)?;
            if obj.raw().checked_add(size).is_none_or(|end| end > bits.old.end) {
                return Err(Error::BadAddress(obj.raw()));
            }
            bits.mark(obj.raw() / 8, size / 8);
            objects += 1;
            words += size / 8;
            for off in slots {
                let tgt = self.read_ref_at(obj, off)?;
                if !tgt.is_null() && !bits.is_marked(tgt.raw() / 8) {
                    stack.push(tgt);
                }
            }
        }
        Ok((bits, objects, words))
    }

    /// Counts live objects reachable from the roots (diagnostic; used by
    /// tests to assert collection behaviour).
    ///
    /// # Errors
    /// Propagates heap access errors.
    // tidy:allow(unreached-pub, read by gc_tests' unrooted_objects_are_collected, prop_tests)
    pub fn live_object_count(&self) -> Result<usize> {
        Ok(self.mark()?.1 as usize)
    }

    /// Total bytes of live data reachable from the roots (diagnostic).
    ///
    /// # Errors
    /// Propagates heap access errors.
    // tidy:allow(unreached-pub, read by gc_tests' unrooted_objects_are_collected, prop_tests)
    pub fn live_bytes(&self) -> Result<u64> {
        Ok(self.mark()?.2 * 8)
    }
}

/// Bitmap words per counted block: a rank sums one block's count and at
/// most eight popcounts.
const BLOCK: usize = 8;

/// The full collection's side bitmap: one bit per heap word of
/// `[0, old.top)`, set over every word a marked object covers. After
/// [`MarkBits::count`], `below[b]` holds the live words below block `b`.
struct MarkBits {
    bits: Vec<u64>,
    below: Vec<u64>,
    /// `old.start..old.top`.
    old: Range<u64>,
    /// Live words below `old_start` (the young generation's).
    young_words: u64,
}

impl MarkBits {
    fn new(old: Range<u64>) -> Self {
        // One spare word, so `old.top`'s own word has a bit and a block.
        let bits = vec![0; (old.end / 512) as usize + 1];
        MarkBits { bits, below: Vec::new(), old, young_words: 0 }
    }

    fn is_marked(&self, word: u64) -> bool {
        self.bits.get((word / 64) as usize).is_some_and(|b| b >> (word % 64) & 1 != 0)
    }

    /// Marks the `n` words from `word`, which the caller keeps below `top`.
    fn mark(&mut self, word: u64, n: u64) {
        for w in word..word + n {
            self.bits[(w / 64) as usize] |= 1 << (w % 64);
        }
    }

    /// Counts the live words below each block.
    fn count(&mut self) {
        let mut sum = 0;
        for c in self.bits.chunks(BLOCK) {
            self.below.push(sum);
            sum += c.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
        self.young_words = self.rank(self.old.start / 8);
    }

    /// Live words below heap word `word` (at most `top`'s).
    fn rank(&self, word: u64) -> u64 {
        let (i, bit) = ((word / 64) as usize, word % 64);
        let whole = &self.bits[i / BLOCK * BLOCK..i];
        let ones = whole.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        self.below[i / BLOCK] + ones + u64::from((self.bits[i] & ((1 << bit) - 1)).count_ones())
    }

    /// Where the object at `a` lands: an old one at `old.start` plus the
    /// live old words below it, anything else where it is.
    fn forward(&self, a: Addr) -> Addr {
        if !self.old.contains(&a.raw()) {
            return a;
        }
        Addr::from_raw(self.old.start + (self.rank(a.raw() / 8) - self.young_words) * 8)
    }

    /// The first marked word at or after `word`.
    fn next_marked(&self, word: u64) -> Option<u64> {
        let mut i = (word / 64) as usize;
        let mut w = self.bits.get(i)? & (!0 << (word % 64));
        while w == 0 {
            i += 1;
            w = *self.bits.get(i)?;
        }
        Some(i as u64 * 64 + u64::from(w.trailing_zeros()))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    use std::sync::Arc;

    use proptest::prelude::*;

    use crate::heap::HeapConfig;
    use crate::layout::Addr;
    use crate::stdlib::define_core_classes;
    use crate::vm::{Handle, Vm};
    use crate::{ClassPath, FieldType, KlassDef, PrimType, SegmentBuilder};

    /// One step of building a random old generation.
    #[derive(Debug, Clone)]
    enum Step {
        /// `n` rooted, chained nodes tenured by one minor GC.
        Promote(usize),
        /// A rooted reference array of `len` slots (up to 40 cards) pointing
        /// at earlier roots, tenured by one minor GC.
        RefArray(u64),
        /// A received-style input buffer: `n` nodes and `pad` filler words
        /// in one shared-window chunk, written once and recorded at
        /// adoption; no card is dirtied.
        Chunk(usize, u64),
        /// An abandoned shared window: a claim of `words` turned into
        /// filler, with no record.
        Abandoned(u64),
        /// A full collection: every record dropped and rebuilt.
        FullGc,
    }

    fn vm() -> Vm {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        cp.define(KlassDef::new(
            "Node",
            None,
            vec![("id", FieldType::Prim(PrimType::Int)), ("next", FieldType::Ref)],
        ));
        // Tenure on the first survival: each minor GC promotes what lives.
        let config = HeapConfig { tenure_threshold: 1, ..HeapConfig::small() };
        Vm::new("cards", &config, cp).unwrap()
    }

    fn apply(vm: &mut Vm, roots: &mut Vec<Handle>, step: &Step) {
        let node = vm.load_class("Node").unwrap();
        let id = roots.len() as i32;
        match *step {
            Step::Promote(n) => {
                for i in 0..n {
                    let a = vm.alloc_instance(node).unwrap();
                    vm.set_int(a, "id", id + i as i32).unwrap();
                    let prev = roots.last().map_or(Addr::NULL, |&h| vm.resolve(h).unwrap());
                    vm.set_ref(a, "next", prev).unwrap();
                    roots.push(vm.handle(a));
                }
                vm.minor_gc().unwrap();
            }
            Step::RefArray(len) => {
                let objs = vm.load_class("[Ljava.lang.Object;").unwrap();
                let arr = vm.alloc_array(objs, len).unwrap();
                for (i, &h) in roots.iter().enumerate().take(len as usize) {
                    let tgt = vm.resolve(h).unwrap();
                    vm.array_set_ref(arr, (i as u64 * 13) % len, tgt).unwrap();
                }
                roots.push(vm.handle(arr));
                vm.minor_gc().unwrap();
            }
            Step::Chunk(n, pad) => {
                // A young node is the template for the received ones.
                let t = vm.alloc_instance(node).unwrap();
                let size = vm.obj_size(t).unwrap();
                let nodes = n as u64 * size;
                vm.heap_mut().begin_shared_old_alloc();
                let base = vm.heap().shared_alloc_raw_old(nodes + pad * 8).unwrap();
                vm.heap().fill_filler(Addr(base.0 + nodes), pad * 8).unwrap();
                vm.heap_mut().end_shared_old_alloc();
                let next = vm.klasses().get(node).unwrap().field_by_name("next").unwrap().offset;
                for i in 0..n as u64 {
                    let at = Addr(base.0 + i * size);
                    vm.heap().arena().copy_within(t.0, at.0, size as usize).unwrap();
                    vm.set_int(at, "id", id + i as i32).unwrap();
                    let prev = if i == 0 { Addr::NULL } else { Addr(at.0 - size) };
                    vm.heap().arena().store_word(at.0 + next, prev.0).unwrap();
                    roots.push(vm.handle(at));
                }
                vm.heap_mut().note_object_start(base);
            }
            Step::Abandoned(words) => {
                vm.heap_mut().begin_shared_old_alloc();
                let base = vm.heap().shared_alloc_raw_old(words * 8).unwrap();
                vm.heap_mut().end_shared_old_alloc();
                vm.heap().fill_filler(base, words * 8).unwrap();
            }
            Step::FullGc => vm.full_gc().unwrap(),
        }
    }

    /// The graph reachable from `roots`, numbered in breadth-first order:
    /// per object its class, its `id` if a node, and its references.
    type Shape = Vec<(String, Option<i32>, Vec<Option<usize>>)>;

    fn shape(vm: &Vm, roots: &[Handle]) -> Shape {
        shape_of(vm, roots.iter().map(|&h| vm.resolve(h).unwrap()))
    }

    /// [`shape`] from root addresses.
    fn shape_of(vm: &Vm, roots: impl IntoIterator<Item = Addr>) -> Shape {
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut order: Vec<Addr> = Vec::new();
        let mut number = |a: Addr, order: &mut Vec<Addr>| {
            (!a.is_null()).then(|| {
                *index.entry(a.0).or_insert_with(|| {
                    order.push(a);
                    order.len() - 1
                })
            })
        };
        for a in roots {
            number(a, &mut order);
        }
        let mut out = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let obj = order[i];
            i += 1;
            let name = vm.klass_of(obj).unwrap().name.clone();
            let id = (name == "Node").then(|| vm.get_int(obj, "id").unwrap());
            let slots: Vec<u64> = vm.ref_slots(obj).unwrap().collect();
            let refs = slots
                .iter()
                .map(|&o| number(vm.read_ref_at(obj, o).unwrap(), &mut order))
                .collect();
            out.push((name, id, refs));
        }
        out
    }

    /// Attaches a sealed segment holding one `Node` (`id` -7, `next` null)
    /// and returns the resident's address.
    fn attach_resident(vm: &mut Vm) -> Addr {
        let node = vm.load_class("Node").unwrap();
        let t = vm.alloc_instance(node).unwrap();
        vm.set_int(t, "id", -7).unwrap();
        let size = vm.obj_size(t).unwrap();
        let mut bytes = vec![0u8; size as usize];
        vm.heap().arena().read_bytes(t.0, &mut bytes).unwrap();
        let b = SegmentBuilder::reserve(size, vm.spec()).unwrap();
        let resident = Addr(b.base());
        let seg = b.seal(&bytes, vec![resident], Arc::clone(vm.classpath())).unwrap();
        vm.attach_segment(seg).unwrap();
        resident
    }

    /// Per card of the old generation that holds an object start: the
    /// lowest start, and whether any object starting there holds a young
    /// reference (the cards a minor GC must find dirty).
    fn old_starts_and_remembered(vm: &Vm) -> (BTreeMap<usize, u64>, BTreeSet<usize>) {
        let (mut lowest, mut remembered) = (BTreeMap::new(), BTreeSet::new());
        let old = vm.heap().old;
        vm.walk_range(old.start, old.top, |vm, a, _| {
            let card = vm.heap().card_range(a.0, 1).start;
            lowest.entry(card).or_insert(a.0);
            for off in vm.ref_slots(a)? {
                if vm.heap().in_young(vm.read_ref_at(a, off)?) {
                    remembered.insert(card);
                }
            }
            Ok(())
        })
        .unwrap();
        (lowest, remembered)
    }

    /// Indices of the dirty cards.
    fn dirty_cards(vm: &Vm) -> BTreeSet<usize> {
        let h = vm.heap();
        h.card_range(h.old.start, h.old.size())
            .filter(|&i| h.is_card_dirty(Addr(h.card_start(i))))
            .collect()
    }

    /// Five to ten steps, each kind at least once, in random order.
    fn layout() -> impl Strategy<Value = Vec<Step>> {
        let sizes = (1usize..200, 1u64..2_500, 0u64..64, 1u64..1_500, any::<u64>());
        proptest::collection::vec(sizes, 5..11).prop_map(|drawn| {
            let mut keyed: Vec<(u64, Step)> = drawn
                .into_iter()
                .enumerate()
                .map(|(i, (n, len, pad, words, key))| {
                    let step = match i % 5 {
                        0 => Step::Promote(n),
                        1 => Step::RefArray(len),
                        2 => Step::Chunk(n.min(150), pad),
                        3 => Step::Abandoned(words),
                        _ => Step::FullGc,
                    };
                    (key, step)
                })
                .collect();
            keyed.sort_by_key(|&(key, _)| key);
            keyed.into_iter().map(|(_, step)| step).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Step 2's card walk collects exactly the old objects that overlap
        /// a dirty card — the predicate a whole-generation walk applies —
        /// and the minor GC built on it keeps the graph and the remembered
        /// set intact.
        #[test]
        fn card_walk_collects_what_the_overlap_predicate_selects(
            steps in layout(),
            links in proptest::collection::vec((any::<usize>(), any::<u64>()), 0..24),
            extra in proptest::collection::vec(any::<usize>(), 0..24),
        ) {
            let mut vm = vm();
            let mut roots = Vec::new();
            for s in &steps {
                apply(&mut vm, &mut roots, s);
            }
            // Old→young edges through the write barrier.
            let node = vm.load_class("Node").unwrap();
            for (r, slot) in links {
                let young = vm.alloc_instance(node).unwrap();
                vm.set_int(young, "id", -1).unwrap();
                let obj = vm.resolve(roots[r % roots.len()]).unwrap();
                if !vm.heap().in_old(obj) {
                    continue;
                }
                if vm.klass_of(obj).unwrap().name == "Node" {
                    vm.set_ref(obj, "next", young).unwrap();
                } else {
                    let len = vm.array_len(obj).unwrap();
                    vm.array_set_ref(obj, slot % len, young).unwrap();
                }
            }
            // Random extra dirty cards below the old generation's top.
            let used = vm.heap().card_range(vm.heap().old.start, vm.heap().old.used());
            for e in extra {
                let card = vm.heap().card_start(e % used.len());
                vm.heap_mut().dirty_card(Addr(card));
            }

            let old = vm.heap().old;
            let mut want = Vec::new();
            vm.walk_range(old.start, old.top, |vm, a, size| {
                if vm.heap().overlaps_dirty_card(a, size) {
                    want.push(a);
                }
                Ok(())
            }).unwrap();
            let dirty = dirty_cards(&vm);
            let mut scanned = 0;
            let got = vm.dirty_card_objects(&mut scanned).unwrap();
            prop_assert_eq!(got, want);
            prop_assert_eq!(scanned, dirty.len() as u64);
            prop_assert!(dirty_cards(&vm).is_empty(), "the walk cleans what it visits");

            // The same dirty set through a real minor GC.
            for &i in &dirty {
                let card = vm.heap().card_start(i);
                vm.heap_mut().dirty_card(Addr(card));
            }
            let before = shape(&vm, &roots);
            vm.minor_gc().unwrap();
            let faults = vm.verify_heap().unwrap();
            prop_assert!(faults.is_empty(), "{:?}", faults);
            prop_assert_eq!(shape(&vm, &roots), before);
            // Only the cards of old objects still holding a young reference
            // stay dirty.
            let mut remembered = BTreeSet::new();
            let old = vm.heap().old;
            vm.walk_range(old.start, old.top, |vm, a, _| {
                for off in vm.ref_slots(a)? {
                    if vm.heap().in_young(vm.read_ref_at(a, off)?) {
                        remembered.insert(vm.heap().card_range(a.0, 1).start);
                    }
                }
                Ok(())
            }).unwrap();
            prop_assert_eq!(dirty_cards(&vm), remembered);
        }

        /// A full collection over a random heap keeps the graph, and leaves
        /// the heap verified, every object-start record a true start (the
        /// lowest in its card) and exactly the remembered cards dirty. The
        /// heap mixes promoted nodes, reference arrays over several cards,
        /// received-style chunks, abandoned windows, a segment resident, a
        /// random dead share of the handles, temp roots, and young nodes
        /// behind old→young links.
        #[test]
        fn full_gc_keeps_the_graph_and_rebuilds_records_and_cards(
            steps in layout(),
            dead in proptest::collection::vec(any::<bool>(), 64),
            temps in proptest::collection::vec(any::<usize>(), 0..8),
            links in proptest::collection::vec((any::<usize>(), any::<u64>()), 0..24),
        ) {
            let mut vm = vm();
            let resident = attach_resident(&mut vm);
            let mut roots = vec![vm.handle(resident)];
            for s in &steps {
                apply(&mut vm, &mut roots, s);
            }
            // Young targets stay young through the collection's closing
            // minor GC (unless the survivor space overflows).
            vm.heap.tenure_threshold = 15;
            let node = vm.load_class("Node").unwrap();
            for (r, slot) in links {
                let young = vm.alloc_instance(node).unwrap();
                vm.set_int(young, "id", -1).unwrap();
                let obj = vm.resolve(roots[r % roots.len()]).unwrap();
                if !vm.heap().in_old(obj) {
                    continue;
                }
                if vm.klass_of(obj).unwrap().name == "Node" {
                    vm.set_ref(obj, "next", young).unwrap();
                } else {
                    let len = vm.array_len(obj).unwrap();
                    vm.array_set_ref(obj, slot % len, young).unwrap();
                }
            }
            for t in temps {
                let a = vm.resolve(roots[t % roots.len()]).unwrap();
                vm.push_temp_root(a);
            }
            let mut kept = Vec::new();
            for (i, h) in roots.into_iter().enumerate() {
                if dead[i % dead.len()] {
                    vm.release(h).unwrap();
                } else {
                    kept.push(h);
                }
            }
            let all = |vm: &Vm| {
                let handles = kept.iter().map(|&h| vm.resolve(h).unwrap());
                handles.chain(vm.temp_roots.iter().copied()).collect::<Vec<_>>()
            };

            let before = shape_of(&vm, all(&vm));
            vm.full_gc().unwrap();
            prop_assert_eq!(shape_of(&vm, all(&vm)), before);
            let faults = vm.verify_heap().unwrap();
            prop_assert!(faults.is_empty(), "{:?}", faults);
            let (lowest, remembered) = old_starts_and_remembered(&vm);
            let records: Vec<u64> = vm.heap().object_starts().collect();
            prop_assert_eq!(records, lowest.into_values().collect::<Vec<_>>());
            prop_assert_eq!(dirty_cards(&vm), remembered);
        }
    }
    /// A full collection counts the live words it marked, reports them on
    /// its pause span, and a second one back to back moves nothing.
    #[test]
    fn full_gc_counts_live_words_and_a_compacted_heap_stays_put() {
        let reg = Arc::new(obs::Registry::new());
        reg.tracer().set_enabled(true);
        let mut vm = vm().with_metrics(Arc::clone(&reg));
        vm.set_trace_ctx(reg.tracer().new_trace());
        let mut roots = Vec::new();
        let steps = [
            Step::Promote(50),
            Step::RefArray(300),
            Step::Chunk(20, 5),
            Step::Abandoned(40),
            Step::Promote(30),
        ];
        for s in &steps {
            apply(&mut vm, &mut roots, s);
        }
        for &h in roots.iter().step_by(3) {
            vm.release(h).unwrap();
        }
        let (objects, words) =
            (vm.live_object_count().unwrap() as u64, vm.live_bytes().unwrap() / 8);

        vm.full_gc().unwrap();
        assert_eq!(vm.stats.full_gc_live_words, words);
        let moved = vm.stats.full_gc_words_moved;
        assert!(moved > 0 && moved <= words, "moved {moved} of {words} live words");
        let full = reg.tracer().spans().into_iter().find(|s| s.args.contains(&("full", 1)));
        let args = full.expect("a full collection's pause span").args;
        assert!(args.contains(&("live_objects", objects)) && args.contains(&("live_words", words)));

        vm.full_gc().unwrap();
        assert_eq!(vm.stats.full_gc_live_words, 2 * words);
        assert_eq!(vm.stats.full_gc_words_moved, moved, "a compacted heap moves nothing");
    }
}
