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
//! noted there: by promotion and large-object allocation, by
//! [`Heap::alloc_raw_old`](crate::heap::Heap::alloc_raw_old), and by the
//! receiver for each input-buffer chunk it adopts (a chunk parses from its
//! base). A record is always a true object start; a card without one only
//! makes the walk reach further back. The card walk visits each maximal
//! run of dirty cards, parses forward from the nearest recorded start at
//! or before the run, and cleans the run as it goes. The full collection
//! drops every record before it slides objects and re-notes each one where
//! it lands.

use std::collections::HashMap;

use crate::heap::Gen;
use crate::layout::{mark, Addr};
use crate::vm::Vm;
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
                if !a.is_null() {
                    let n = self.evacuate(a, &mut copied)?;
                    self.handles.slots[i] = Some(n);
                }
            }
        }
        for i in 0..self.temp_roots.len() {
            let a = self.temp_roots[i];
            if !a.is_null() {
                self.temp_roots[i] = self.evacuate(a, &mut copied)?;
            }
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
        self.note_gc(false, pause_ns, self.stats.bytes_promoted - promoted_before, cards_scanned);
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

    /// Reports one completed collection to the metrics registry.
    fn note_gc(&self, full: bool, pause_ns: u64, promoted_bytes: u64, cards_scanned: u64) {
        let reg = &self.metrics;
        reg.counter(if full { obs::names::GC_FULL_GCS } else { obs::names::GC_MINOR_GCS }).inc();
        reg.histogram(obs::names::GC_PAUSE_NS).record(pause_ns);
        reg.counter(obs::names::GC_PROMOTED_BYTES).add(promoted_bytes);
        reg.counter(obs::names::GC_CARDS_SCANNED).add(cards_scanned);
        // Attribute the pause to the transfer that last touched this
        // heap (inert unless tracing is on and a context was attached).
        reg.tracer().record_closed(
            obs::names::TRACE_GC_PAUSE,
            self.trace_ctx.get(),
            &self.name,
            pause_ns,
            &[("full", u64::from(full)), ("promoted_bytes", promoted_bytes)],
        );
    }

    /// Copies one young object out of the collected region, leaving a
    /// forwarding pointer; idempotent for already-forwarded objects.
    fn evacuate(&mut self, obj: Addr, copied: &mut Vec<Addr>) -> Result<Addr> {
        match self.heap.gen_of(obj)? {
            Gen::Old => return Ok(obj),
            // Attached segments are immutable and never move.
            Gen::Segment => return Ok(obj),
            Gen::Young => {}
        }
        // Only evacuate from eden/from-space; to-space objects already moved
        // this cycle.
        if self.heap.to_space().contains(obj) {
            return Ok(obj);
        }
        let moff = obj.0;
        let m = self.heap.arena().load_word(moff)?;
        if mark::is_forwarded(m) {
            return Ok(Addr(mark::forwarded_addr(m)));
        }
        let size = self.obj_size(obj)?;
        let age = mark::age_of(m).saturating_add(1);
        let tenure = age >= self.tenure_threshold();
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
        self.heap.arena().store_word(moff, mark::forward_to(dest.0))?;
        if promoted {
            self.stats.bytes_promoted += size;
        }
        copied.push(dest);
        Ok(dest)
    }

    fn tenure_threshold(&self) -> u8 {
        self.heap.tenure_threshold
    }

    /// Runs a full collection: marks the whole heap from the roots, slides
    /// the live old generation down (compaction), updates every reference,
    /// then runs a minor collection to clean the young generation.
    ///
    /// # Errors
    /// Propagates heap access errors; [`Error::PromotionFailed`] only if the
    /// heap is genuinely too full.
    pub fn full_gc(&mut self) -> Result<()> {
        let gc_start = std::time::Instant::now();
        // ---- mark ----
        let mut live: HashMap<u64, u64> = HashMap::new(); // addr -> size
        let mut stack = self.roots();
        while let Some(obj) = stack.pop() {
            if live.contains_key(&obj.0) {
                continue;
            }
            // Attached segments are marking boundaries: they are immutable,
            // self-contained (no refs back into owned generations), never
            // move, and are kept alive by the attach refcount — nothing to
            // mark, forward, or compact.
            if self.heap.in_segment(obj) {
                continue;
            }
            let size = self.obj_size(obj)?;
            live.insert(obj.0, size);
            for off in self.ref_slots(obj)? {
                let tgt = self.read_ref_at(obj, off)?;
                if !tgt.is_null() && !live.contains_key(&tgt.0) {
                    stack.push(tgt);
                }
            }
        }

        // ---- compute sliding forwarding for live old objects ----
        let (_, _, _, old) = self.heap.spaces();
        let mut old_live: Vec<(u64, u64)> = live
            .iter()
            .filter(|(&a, _)| a >= old.start && a < old.end)
            .map(|(&a, &s)| (a, s))
            .collect();
        old_live.sort_unstable();
        let mut fwd: HashMap<u64, u64> = HashMap::with_capacity(old_live.len());
        let mut cursor = old.start;
        for &(a, s) in &old_live {
            fwd.insert(a, cursor);
            cursor += s;
        }

        // ---- update references everywhere (live objects + roots) ----
        let translate = |fwd: &HashMap<u64, u64>, a: Addr| -> Addr {
            match fwd.get(&a.0) {
                Some(&n) => Addr(n),
                None => a,
            }
        };
        let live_addrs: Vec<u64> = live.keys().copied().collect();
        for &a in &live_addrs {
            let obj = Addr(a);
            for off in self.ref_slots(obj)? {
                let tgt = self.read_ref_at(obj, off)?;
                if !tgt.is_null() {
                    let n = translate(&fwd, tgt);
                    if n != tgt {
                        self.write_ref_raw(obj, off, n)?;
                    }
                }
            }
        }
        for slot in self.handles.slots.iter_mut().flatten() {
            *slot = translate(&fwd, *slot);
        }
        for r in &mut self.temp_roots {
            *r = translate(&fwd, *r);
        }

        // ---- move (slide down, address order keeps copies safe) ----
        // Every object-start record goes stale here; each is re-recorded
        // as its object lands.
        self.heap.drop_object_starts();
        for &(a, s) in &old_live {
            let dest = fwd[&a];
            if dest != a {
                self.heap.arena().copy_within(a, dest, s as usize)?;
            }
            self.heap.note_object_start(Addr(dest));
        }
        self.heap.set_old_top(cursor)?;

        // ---- rebuild the card table (old objects with young refs) ----
        self.heap.clear_cards();
        let old_now = {
            let (_, _, _, o) = self.heap.spaces();
            o
        };
        let mut to_dirty: Vec<Addr> = Vec::new();
        self.walk_range(old_now.start, old_now.top, |vm, addr, _| {
            for off in vm.ref_slots(addr)? {
                let tgt = vm.read_ref_at(addr, off)?;
                if !tgt.is_null() && vm.heap().in_young(tgt) {
                    to_dirty.push(addr);
                    break;
                }
            }
            Ok(())
        })?;
        for a in to_dirty {
            self.heap.dirty_card(a);
        }

        self.stats.full_gcs += 1;
        let pause_ns = gc_start.elapsed().as_nanos() as u64;
        self.stats.gc_ns += pause_ns;
        // The sliding compaction promotes nothing and scans no cards — it
        // rebuilds the card table from scratch instead.
        self.note_gc(true, pause_ns, 0, 0);

        // ---- clean the young generation with a minor pass ----
        // Only when the compacted old generation can absorb a worst-case
        // promotion; otherwise leave the young generation as is — the
        // caller's allocation retry will surface a clean OutOfMemory.
        let young_used = {
            let (eden, from, _, _) = self.heap.spaces();
            eden.used() + from.used()
        };
        let (_, _, _, old_now) = self.heap.spaces();
        if old_now.free() >= young_used {
            self.minor_gc()
        } else {
            Ok(())
        }
    }

    /// The non-null handle and temp roots.
    fn roots(&self) -> Vec<Addr> {
        let roots = self.handles.slots.iter().flatten().chain(&self.temp_roots);
        roots.copied().filter(|a| !a.is_null()).collect()
    }

    /// Count and total bytes of the objects reachable from the roots.
    fn live_census(&self) -> Result<(usize, u64)> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = self.roots();
        let (mut count, mut bytes) = (0, 0);
        while let Some(obj) = stack.pop() {
            if !seen.insert(obj.0) || self.heap.in_segment(obj) {
                continue; // segment residents are store-owned, not heap-live
            }
            count += 1;
            bytes += self.obj_size(obj)?;
            for off in self.ref_slots(obj)? {
                let tgt = self.read_ref_at(obj, off)?;
                if !tgt.is_null() && !seen.contains(&tgt.0) {
                    stack.push(tgt);
                }
            }
        }
        Ok((count, bytes))
    }

    /// Counts live objects reachable from the roots (diagnostic; used by
    /// tests to assert collection behaviour).
    ///
    /// # Errors
    /// Propagates heap access errors.
    pub fn live_object_count(&self) -> Result<usize> {
        Ok(self.live_census()?.0)
    }

    /// Total bytes of live data reachable from the roots (diagnostic).
    ///
    /// # Errors
    /// Propagates heap access errors.
    pub fn live_bytes(&self) -> Result<u64> {
        Ok(self.live_census()?.1)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use proptest::prelude::*;

    use crate::heap::HeapConfig;
    use crate::layout::Addr;
    use crate::stdlib::define_core_classes;
    use crate::vm::{Handle, Vm};
    use crate::{ClassPath, FieldType, KlassDef, PrimType};

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
        for &h in roots {
            number(vm.resolve(h).unwrap(), &mut order);
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
    }
}
