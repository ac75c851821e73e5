//! Heap verification and statistics: structural invariant checking and
//! per-class histograms.
//!
//! The verifier is the debugging backstop for everything that writes raw
//! memory (the GC, Skyway's receiver): it walks every allocated space and
//! checks that each object parses, that every reference lands on a valid
//! object header, and that no GC forwarding state leaks out of a
//! collection. The histogram is the `jmap -histo` analogue used by the
//! memory-overhead experiment and by tests asserting what a transfer
//! actually materialized.

use std::collections::HashMap;

use crate::heap::{Gen, FILLER_WORD};
use crate::layout::{mark, Addr};
use crate::vm::Vm;
use crate::Result;

/// One structural problem found by [`Vm::verify_heap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapFault {
    /// An object's klass word does not name a loaded klass.
    BadKlassWord {
        /// Object address.
        obj: u64,
        /// The bogus klass word.
        word: u64,
    },
    /// A reference field points outside every allocated region.
    DanglingRef {
        /// Referencing object.
        obj: u64,
        /// Slot offset within the object.
        offset: u64,
        /// The dangling target.
        target: u64,
    },
    /// A reference points into an allocated region but not at an object
    /// header.
    MisalignedRef {
        /// Referencing object.
        obj: u64,
        /// Slot offset.
        offset: u64,
        /// The misaligned target.
        target: u64,
    },
    /// A mark word still carries a GC forwarding pointer outside a
    /// collection.
    StrayForwarding {
        /// Object address.
        obj: u64,
    },
    /// An old-generation object holds a young-generation reference but
    /// overlaps no dirty card — a minor GC would miss the reference and
    /// collect (or move) its target. This is what a skipped write barrier
    /// looks like. The barrier is the only producer of dirty cards, so this
    /// check also catches a young reference stored into received data
    /// without it.
    StaleCard {
        /// The old-generation object.
        obj: u64,
        /// The young-generation target the remembered set is missing.
        target: u64,
    },
    /// An object-start record names a word that is neither an object
    /// header nor a filler word below `old.top` — a minor GC parsing from
    /// it would mis-parse the old generation.
    BadObjectStart {
        /// The recorded address.
        at: u64,
    },
    /// An attached sealed segment's bytes no longer match its seal-time
    /// checksum — something wrote into memory that every attacher relies
    /// on being immutable (the arena mapping rejects in-heap stores, so
    /// this means out-of-band tampering through a raw handle).
    TamperedSegment {
        /// Base of the tampered segment.
        base: u64,
    },
    /// A reference inside a sealed segment escapes the segment. Segments
    /// must be self-contained: an outbound reference would go stale the
    /// moment the owning heap's GC moved the referent, because no GC ever
    /// scans or patches sealed segment memory.
    SegmentEscapingRef {
        /// The segment-resident object.
        obj: u64,
        /// Slot offset within the object.
        offset: u64,
        /// The out-of-segment target.
        target: u64,
    },
}

impl std::fmt::Display for HeapFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapFault::BadKlassWord { obj, word } => {
                write!(f, "object {obj:#x} has bogus klass word {word:#x}")
            }
            HeapFault::DanglingRef { obj, offset, target } => {
                write!(f, "object {obj:#x}+{offset} references unallocated {target:#x}")
            }
            HeapFault::MisalignedRef { obj, offset, target } => {
                write!(f, "object {obj:#x}+{offset} references non-header address {target:#x}")
            }
            HeapFault::StrayForwarding { obj } => {
                write!(f, "object {obj:#x} carries a stray GC forwarding pointer")
            }
            HeapFault::StaleCard { obj, target } => {
                write!(
                    f,
                    "old-gen object {obj:#x} references young-gen {target:#x} but lies on no \
                     dirty card"
                )
            }
            HeapFault::BadObjectStart { at } => {
                write!(f, "object-start record {at:#x} is neither a header nor a filler word")
            }
            HeapFault::TamperedSegment { base } => {
                write!(f, "sealed segment {base:#x} fails its seal-time checksum")
            }
            HeapFault::SegmentEscapingRef { obj, offset, target } => {
                write!(
                    f,
                    "segment object {obj:#x}+{offset} references {target:#x} outside its sealed \
                     segment"
                )
            }
        }
    }
}

/// Per-class allocation statistics (one row of [`Vm::class_histogram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStat {
    /// Class name.
    pub class: String,
    /// Live instances found.
    pub instances: u64,
    /// Total bytes (headers + payload + padding).
    pub bytes: u64,
}

impl Vm {
    /// Walks every allocated region and returns all structural faults
    /// found (empty = heap is well-formed).
    ///
    /// # Errors
    /// Only on arena access failures — faults are *returned*, not raised,
    /// so tests can assert on them.
    pub fn verify_heap(&self) -> Result<Vec<HeapFault>> {
        let mut faults = Vec::new();
        let (eden, from, _, old) = self.heap().spaces();
        let segs = self.heap().attached_segments();
        // Every range a walk parses: the allocated spaces, then each
        // attached segment (so references into it resolve to headers).
        let ranges: Vec<(u64, u64)> = [eden, from, old]
            .iter()
            .map(|s| (s.start, s.top))
            .chain(segs.iter().map(|seg| (seg.base(), seg.base() + seg.len())))
            .collect();
        // First pass: mark every valid object start, in one bitmap per
        // range. A range whose walk stops early has a klass word nothing can
        // size the object behind; that object is reported and the rest of
        // its range skipped.
        let mut starts: Vec<StartBits> =
            ranges.iter().map(|&(lo, hi)| StartBits::new(lo, hi)).collect();
        for (bits, &(start, end)) in starts.iter_mut().zip(&ranges) {
            let stopped = self.walk_parsed(start, end, |_, a, _| {
                bits.set(a.0);
                Ok(())
            })?;
            if let Some((at, _)) = stopped {
                let kw = self.heap().arena().load_word(at + self.spec().klass_off())?;
                faults.push(HeapFault::BadKlassWord { obj: at, word: kw });
            }
        }
        // Each attached segment's first sharing invariant (immutability),
        // against the seal-time checksum. The second (self-containment) is
        // checked per reference below.
        for seg in segs {
            if !seg.verify_checksum() {
                faults.push(HeapFault::TamperedSegment { base: seg.base() });
            }
        }
        // Second pass, over the same walks: check marks and references.
        for &(start, end) in &ranges {
            self.walk_parsed(start, end, |_, obj, _| {
                self.verify_object(obj, &starts, &mut faults)
            })?;
        }
        // The object-start record: a minor GC parses from each record.
        for at in self.heap().object_starts() {
            let filler = at < old.top && self.heap().arena().load_word(at)? == FILLER_WORD;
            if !filler && !is_start(&starts, at) {
                faults.push(HeapFault::BadObjectStart { at });
            }
        }
        Ok(faults)
    }

    /// The second pass of [`Vm::verify_heap`] over one object: its mark
    /// word, each reference against `starts`, and its card.
    fn verify_object(
        &self,
        obj: Addr,
        starts: &[StartBits],
        faults: &mut Vec<HeapFault>,
    ) -> Result<()> {
        let m = self.heap().arena().load_word(obj.0)?;
        if mark::is_forwarded(m) {
            faults.push(HeapFault::StrayForwarding { obj: obj.0 });
            return Ok(());
        }
        let home_seg = self.heap().segment_for(obj);
        let mut young_target: Option<Addr> = None;
        let lay = self.layout_of(obj)?;
        for off in lay.slots {
            let tgt = self.read_ref_at(obj, off)?;
            if tgt.is_null() {
                continue;
            }
            if self.heap().gen_of(tgt).is_err() {
                faults.push(HeapFault::DanglingRef { obj: obj.0, offset: off, target: tgt.0 });
            } else if home_seg.is_some_and(|seg| !seg.contains(tgt)) {
                // Self-containment: a segment-resident reference must stay
                // inside its own sealed segment.
                faults.push(HeapFault::SegmentEscapingRef {
                    obj: obj.0,
                    offset: off,
                    target: tgt.0,
                });
            } else if !is_start(starts, tgt.0) {
                faults.push(HeapFault::MisalignedRef { obj: obj.0, offset: off, target: tgt.0 });
            } else if home_seg.is_none() && young_target.is_none() && self.heap().in_young(tgt) {
                young_target = Some(tgt);
            }
        }
        // Card-table consistency: an old-gen object with a young-gen
        // reference must overlap at least one dirty card, or the next minor
        // GC will miss it. Same overlap predicate the minor-GC card scan
        // uses.
        if let Some(tgt) = young_target {
            if self.heap().in_old(obj) && !self.heap().overlaps_dirty_card(obj, lay.size) {
                faults.push(HeapFault::StaleCard { obj: obj.0, target: tgt.0 });
            }
        }
        Ok(())
    }

    /// `jmap -histo` analogue: per-class instance counts and byte totals
    /// over all allocated objects (live or not — allocation order, like a
    /// heap dump), sorted by bytes descending.
    ///
    /// # Errors
    /// Heap walking errors.
    // tidy:allow(unreached-pub, read by verify::tests::histogram_counts_classes)
    pub fn class_histogram(&self) -> Result<Vec<ClassStat>> {
        // Keyed by the name where it lies on the klass: one `String` per
        // class in the result, none per object.
        let mut m: HashMap<&str, (u64, u64)> = HashMap::new();
        self.walk_heap(|_, a, size| {
            let e = m.entry(&self.klass_of(a)?.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += size;
            Ok(())
        })?;
        let mut out: Vec<ClassStat> = m
            .into_iter()
            .map(|(class, (instances, bytes))| ClassStat {
                class: class.to_owned(),
                instances,
                bytes,
            })
            .collect();
        out.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.class.cmp(&b.class)));
        Ok(out)
    }

    /// Bytes of live data per generation `(young, old)` (diagnostics for
    /// input-buffer placement assertions).
    ///
    /// # Errors
    /// Heap walking errors.
    // tidy:allow(unreached-pub, read by verify::tests::bytes_per_gen_tracks_tenuring)
    pub fn bytes_per_gen(&self) -> Result<(u64, u64)> {
        let mut young = 0;
        let mut old = 0;
        self.walk_heap(|vm, a, size| {
            match vm.heap().gen_of(a)? {
                Gen::Young => young += size,
                Gen::Old => old += size,
                // walk_heap never enters attached segments.
                Gen::Segment => {}
            }
            Ok(())
        })?;
        Ok((young, old))
    }
}

/// One bit per heap word of `[lo, hi)`: the object starts a walk met.
struct StartBits {
    lo: u64,
    hi: u64,
    bits: Vec<u64>,
}

impl StartBits {
    fn new(lo: u64, hi: u64) -> Self {
        StartBits { lo, hi, bits: vec![0; (hi.saturating_sub(lo) / 8).div_ceil(64) as usize] }
    }

    fn covers(&self, at: u64) -> bool {
        (self.lo..self.hi).contains(&at)
    }

    /// Records a start the caller's walk found inside `[lo, hi)`.
    fn set(&mut self, at: u64) {
        let w = (at - self.lo) / 8;
        self.bits[(w / 64) as usize] |= 1 << (w % 64);
    }

    fn get(&self, at: u64) -> bool {
        let w = (at - self.lo) / 8;
        at.is_multiple_of(8) && self.bits[(w / 64) as usize] >> (w % 64) & 1 != 0
    }
}

/// True if a walk met an object start at `at`: `starts` holds one bitmap
/// per walked range.
fn is_start(starts: &[StartBits], at: u64) -> bool {
    starts.iter().find(|s| s.covers(at)).is_some_and(|s| s.get(at))
}

/// Convenience: asserts a well-formed heap, panicking with the fault list
/// otherwise (test helper).
///
/// # Panics
/// Panics if any fault is found or the walk fails.
// tidy:allow(unreached-pub, read by the field_handles and record_handles tests)
pub fn assert_heap_ok(vm: &Vm) {
    let faults = vm.verify_heap().expect("heap walk failed"); // tidy:allow(panic, documented test helper; panicking is its API)
    assert!(faults.is_empty(), "heap faults: {faults:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::klass::{ClassPath, FieldType, KlassDef, PrimType};
    use crate::segment::{Segment, SegmentBuilder};
    use crate::stdlib::define_core_classes;
    use crate::{Error, HeapConfig};

    fn vm() -> Vm {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        cp.define(KlassDef::new(
            "VNode",
            None,
            vec![("id", FieldType::Prim(PrimType::Int)), ("next", FieldType::Ref)],
        ));
        Vm::new("verify", &HeapConfig::small(), cp).unwrap()
    }

    #[test]
    fn clean_heap_verifies() {
        let mut v = vm();
        let s = v.new_string("ok").unwrap();
        let _h = v.handle(s);
        let list = v.new_list(4).unwrap();
        let lh = v.handle(list);
        let s2 = v.new_string("two").unwrap();
        let list = v.resolve(lh).unwrap();
        v.list_push(list, s2).unwrap();
        assert_heap_ok(&v);
        v.minor_gc().unwrap();
        assert_heap_ok(&v);
        v.full_gc().unwrap();
        assert_heap_ok(&v);
    }

    #[test]
    fn dangling_ref_detected() {
        let mut v = vm();
        let k = v.load_class("VNode").unwrap();
        let n = v.alloc_instance(k).unwrap();
        let _h = v.handle(n);
        // Forge a reference beyond the heap.
        let f = v.klasses().get(k).unwrap().field_by_name("next").unwrap().clone();
        v.heap().arena().store_word(n.0 + f.offset, v.heap().capacity() + 64).unwrap();
        let faults = v.verify_heap().unwrap();
        assert!(matches!(faults.as_slice(), [HeapFault::DanglingRef { .. }]));
    }

    #[test]
    fn misaligned_ref_detected() {
        let mut v = vm();
        let k = v.load_class("VNode").unwrap();
        let a = v.alloc_instance(k).unwrap();
        let ah = v.handle(a);
        let b = v.alloc_instance(k).unwrap();
        let a = v.resolve(ah).unwrap();
        // Point at b's interior rather than its header.
        let f = v.klasses().get(k).unwrap().field_by_name("next").unwrap().clone();
        v.heap().arena().store_word(a.0 + f.offset, b.0 + 8).unwrap();
        let faults = v.verify_heap().unwrap();
        assert!(matches!(faults.as_slice(), [HeapFault::MisalignedRef { .. }]));
    }

    #[test]
    fn bad_klass_word_detected() {
        let mut v = vm();
        let k = v.load_class("VNode").unwrap();
        let n = v.alloc_instance(k).unwrap();
        let _h = v.handle(n);
        // Forge a klass word that names no loaded klass.
        let off = v.spec().klass_off();
        v.heap().arena().store_word(n.0 + off, 0xdead_beef).unwrap();
        let faults = v.verify_heap().unwrap();
        assert!(matches!(faults.as_slice(), [HeapFault::BadKlassWord { word: 0xdead_beef, .. }]));
    }

    #[test]
    fn stray_forwarding_detected() {
        let mut v = vm();
        let k = v.load_class("VNode").unwrap();
        let a = v.alloc_instance(k).unwrap();
        let _ha = v.handle(a);
        let b = v.alloc_instance(k).unwrap();
        let _hb = v.handle(b);
        // Leak a GC forwarding pointer outside a collection.
        v.heap().arena().store_word(a.0, mark::forward_to(b.0)).unwrap();
        let faults = v.verify_heap().unwrap();
        assert!(matches!(faults.as_slice(), [HeapFault::StrayForwarding { obj }] if *obj == a.0));
    }

    #[test]
    fn stale_card_detected_and_cured_by_dirty_card_range() {
        let mut v = vm();
        let k = v.load_class("VNode").unwrap();
        // Tenure one node into the old generation; after the collections
        // its cards are clean (it holds no young refs).
        let a = v.alloc_instance(k).unwrap();
        let ha = v.handle(a);
        for _ in 0..10 {
            v.minor_gc().unwrap();
        }
        let a = v.resolve(ha).unwrap();
        assert!(v.heap().in_old(a));
        // A young node, referenced from the old one via a raw store that
        // bypasses the write barrier — exactly the corruption a skipped
        // barrier would leave behind.
        let b = v.alloc_instance(k).unwrap();
        let _hb = v.handle(b);
        assert!(v.heap().in_young(b));
        let f = v.klasses().get(k).unwrap().field_by_name("next").unwrap().clone();
        v.heap().arena().store_word(a.0 + f.offset, b.0).unwrap();
        let faults = v.verify_heap().unwrap();
        assert!(
            matches!(faults.as_slice(),
                     [HeapFault::StaleCard { obj, target }] if *obj == a.0 && *target == b.0),
            "expected StaleCard, got {faults:?}"
        );
        // Dirtying the object's cards restores the remembered-set invariant.
        let size = v.obj_size(a).unwrap();
        v.heap_mut().dirty_card_range(a, size);
        assert_heap_ok(&v);
        // And the next minor GC must now see (and keep) the young target.
        v.minor_gc().unwrap();
        assert_heap_ok(&v);
    }

    #[test]
    fn bad_object_start_detected() {
        let mut v = vm();
        let k = v.load_class("VNode").unwrap();
        let a = v.alloc_instance(k).unwrap();
        let ha = v.handle(a);
        for _ in 0..10 {
            v.minor_gc().unwrap();
        }
        let a = v.resolve(ha).unwrap();
        assert!(v.heap().in_old(a));
        assert_heap_ok(&v);
        // A record on the object's klass word, the only one in its card.
        v.heap_mut().drop_object_starts();
        v.heap_mut().note_object_start(Addr(a.0 + 8));
        let faults = v.verify_heap().unwrap();
        assert!(
            matches!(faults.as_slice(), [HeapFault::BadObjectStart { at }] if *at == a.0 + 8),
            "expected BadObjectStart, got {faults:?}"
        );
    }

    /// Seals a one-`VNode` segment from a freshly allocated VNode's bytes —
    /// its klass word, VNode's klass id, kept as is — with its `next` slot
    /// rewritten to `next` (a global address).
    fn seal_one_vnode(v: &mut Vm, next: Addr) -> Arc<Segment> {
        let k = v.load_class("VNode").unwrap();
        let n = v.alloc_instance(k).unwrap();
        let size = v.obj_size(n).unwrap();
        let mut bytes = vec![0u8; size as usize];
        v.heap().arena().read_bytes(n.0, &mut bytes).unwrap();
        let off = v.klasses().get(k).unwrap().field_by_name("next").unwrap().offset as usize;
        bytes[off..off + 8].copy_from_slice(&next.0.to_le_bytes());
        let b = SegmentBuilder::reserve(size, v.spec()).unwrap();
        let root = Addr(b.base());
        b.seal(&bytes, vec![root], Arc::clone(v.classpath())).unwrap()
    }

    #[test]
    fn attached_segment_verifies_reads_and_rejects_writes() {
        let mut v = vm();
        let seg = seal_one_vnode(&mut v, Addr(0));
        let base = seg.base();
        v.heap_mut().attach_segment(seg).unwrap();
        assert_heap_ok(&v);
        let root = Addr(base);
        assert!(matches!(v.gen_of(root), Ok(Gen::Segment)));
        // Reads resolve through the mapping; the klass word resolves like
        // any other.
        assert_eq!(v.klass_of(root).unwrap().name, "VNode");
        assert!(v.read_ref_at(root, 8).is_ok());
        // Writes into sealed memory are rejected by the arena routing.
        let k = v.load_class("VNode").unwrap();
        let f = v.klasses().get(k).unwrap().field_by_name("next").unwrap().clone();
        assert!(matches!(
            v.write_ref_at(root, f.offset, Addr(0)),
            Err(Error::SegmentReadOnly { .. })
        ));
        assert_heap_ok(&v);
        // After detach the addresses are gone.
        v.heap_mut().detach_segment(base).unwrap();
        assert!(v.gen_of(root).is_err());
        assert_heap_ok(&v);
    }

    #[test]
    fn tampered_segment_detected() {
        let mut v = vm();
        let seg = seal_one_vnode(&mut v, Addr(0));
        let base = seg.base();
        let raw = Arc::clone(&seg);
        v.heap_mut().attach_segment(seg).unwrap();
        assert_heap_ok(&v);
        // Forge a write through the store's raw handle — the attacher-side
        // mapping would have rejected it, so only the checksum catches it.
        let k = v.load_class("VNode").unwrap();
        let f = v.klasses().get(k).unwrap().field_by_name("id").unwrap().clone();
        raw.raw_mem().store_u32(f.offset, 999).unwrap();
        let faults = v.verify_heap().unwrap();
        assert!(
            matches!(faults.as_slice(), [HeapFault::TamperedSegment { base: b }] if *b == base),
            "expected TamperedSegment, got {faults:?}"
        );
    }

    #[test]
    fn segment_escaping_ref_detected() {
        let mut v = vm();
        let k = v.load_class("VNode").unwrap();
        let owned = v.alloc_instance(k).unwrap();
        let _h = v.handle(owned);
        // Seal a segment whose `next` escapes into the owned heap — the
        // self-containment invariant every GC relies on is broken.
        let seg = seal_one_vnode(&mut v, owned);
        v.heap_mut().attach_segment(seg).unwrap();
        let faults = v.verify_heap().unwrap();
        assert!(
            matches!(
                faults.as_slice(),
                [HeapFault::SegmentEscapingRef { target, .. }] if *target == owned.0
            ),
            "expected SegmentEscapingRef, got {faults:?}"
        );
    }

    #[test]
    fn histogram_counts_classes() {
        let mut v = vm();
        for i in 0..10 {
            let s = v.new_string(&format!("s{i}")).unwrap();
            let _ = v.handle(s);
        }
        let hist = v.class_histogram().unwrap();
        let strings = hist.iter().find(|c| c.class == "java.lang.String").unwrap();
        assert_eq!(strings.instances, 10);
        let chars = hist.iter().find(|c| c.class == "[C").unwrap();
        assert_eq!(chars.instances, 10);
        assert!(chars.bytes >= 10 * 32);
    }

    #[test]
    fn bytes_per_gen_tracks_tenuring() {
        let mut v = vm();
        let s = v.new_string("tenure me").unwrap();
        let _h = v.handle(s);
        let (y0, o0) = v.bytes_per_gen().unwrap();
        assert!(y0 > 0);
        assert_eq!(o0, 0);
        for _ in 0..10 {
            v.minor_gc().unwrap();
        }
        let (y1, o1) = v.bytes_per_gen().unwrap();
        assert_eq!(y1, 0);
        assert!(o1 > 0);
    }
}
