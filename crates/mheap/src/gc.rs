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
//! 2. the receiver dirties cards for transferred buffers so a minor GC
//!    discovers any young objects they come to reference.

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
        let (_, _, _, old) = self.heap.spaces();
        let mut dirty_objs: Vec<Addr> = Vec::new();
        self.walk_range(old.start, old.top, |vm, addr, size| {
            // An object is relevant if any card it overlaps is dirty.
            let mut a = addr.0 & !(crate::heap::CARD_SIZE - 1);
            let end = addr.0 + size;
            while a < end {
                cards_scanned += 1;
                if vm.heap().is_card_dirty(Addr(a.max(addr.0))) {
                    dirty_objs.push(addr);
                    break;
                }
                a += crate::heap::CARD_SIZE;
            }
            Ok(())
        })?;
        self.heap.clear_cards();
        // One buffer for the whole collection: the slot walk borrows the
        // klass out of `self`, and evacuating a target needs `&mut self`.
        let mut slots: Vec<u64> = Vec::new();
        for obj in dirty_objs {
            slots.clear();
            slots.extend(self.ref_slots(obj)?);
            for &off in &slots {
                let tgt = self.read_ref_at(obj, off)?;
                if !tgt.is_null() && self.heap.in_young(tgt) {
                    let n = self.evacuate(tgt, &mut copied)?;
                    self.write_ref_raw(obj, off, n)?;
                }
                let tgt = self.read_ref_at(obj, off)?;
                if !tgt.is_null() && self.heap.in_young(tgt) {
                    self.heap.dirty_card(obj); // survivor target: keep remembered
                }
            }
        }

        // 3. Transitive closure over the copied objects.
        let mut i = 0;
        while i < copied.len() {
            let obj = copied[i];
            i += 1;
            slots.clear();
            slots.extend(self.ref_slots(obj)?);
            for &off in &slots {
                let tgt = self.read_ref_at(obj, off)?;
                if !tgt.is_null() && self.heap.in_young(tgt) {
                    let n = self.evacuate(tgt, &mut copied)?;
                    self.write_ref_raw(obj, off, n)?;
                    if self.heap.in_old(obj) && self.heap.in_young(n) {
                        self.heap.dirty_card(obj);
                    }
                }
            }
        }

        // 4. Reset eden and the (now dead) from-space; swap survivors.
        self.heap.reset_young_after_minor()?;
        self.stats.minor_gcs += 1;
        let pause_ns = gc_start.elapsed().as_nanos() as u64;
        self.stats.gc_ns += pause_ns;
        self.note_gc(false, pause_ns, self.stats.bytes_promoted - promoted_before, cards_scanned);
        Ok(())
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
        for &(a, s) in &old_live {
            let dest = fwd[&a];
            if dest != a {
                self.heap.arena().copy_within(a, dest, s as usize)?;
            }
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
