//! Heap spaces, bump allocation, the card table, and filler words.
//!
//! The heap is one fixed-capacity arena split into HotSpot-style spaces:
//! eden + two survivor semispaces (the young generation) and a tenured old
//! generation. Skyway's receiver allocates its *input buffers* directly in
//! the old generation (§4.3 "Interaction with GC"). Outside the collector,
//! the write barrier ([`Heap::dirty_card`]) is the only producer of dirty
//! cards: an absorbed graph references only its own buffers, so it creates
//! no old→young edge.
//!
//! Partially-filled input-buffer chunks leave gaps in the otherwise linearly
//! parseable old space; gaps are filled with [`FILLER_WORD`]s, which the
//! space walkers skip (the moral equivalent of HotSpot's filler arrays).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::layout::{align8, Addr, LayoutSpec};
use crate::mem::Arena;
use crate::segment::Segment;
use crate::{Error, Result};

/// Bit pattern marking an unused 8-byte slot in a parseable space. Chosen so
/// it can never collide with a real mark word (real marks never have all of
/// bits 48..=62 set).
pub const FILLER_WORD: u64 = u64::MAX;

/// Card size in bytes (HotSpot uses 512).
pub const CARD_SIZE: u64 = 512;

/// Configuration of a managed heap.
#[derive(Debug, Clone, Copy)]
pub struct HeapConfig {
    /// Total capacity in bytes (the `-Xmx` of this simulated JVM).
    pub capacity: usize,
    /// Fraction of the capacity given to the young generation.
    pub young_fraction: f64,
    /// Fraction of the young generation given to *each* survivor space.
    pub survivor_fraction: f64,
    /// Number of minor collections an object survives before tenuring.
    pub tenure_threshold: u8,
    /// Object format (Skyway `baddr` word present or not).
    pub spec: LayoutSpec,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            capacity: 64 << 20,
            young_fraction: 0.3,
            survivor_fraction: 0.1,
            tenure_threshold: 6,
            spec: LayoutSpec::SKYWAY,
        }
    }
}

impl HeapConfig {
    /// A small heap for unit tests.
    pub fn small() -> Self {
        HeapConfig { capacity: 1 << 20, ..HeapConfig::default() }
    }

    /// Sets the capacity, builder-style.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the object format, builder-style.
    pub fn with_spec(mut self, spec: LayoutSpec) -> Self {
        self.spec = spec;
        self
    }
}

/// A contiguous bump-allocated region of the arena.
#[derive(Debug, Clone, Copy)]
pub struct Space {
    /// First usable byte.
    pub start: u64,
    /// One past the last usable byte.
    pub end: u64,
    /// Allocation cursor.
    pub top: u64,
}

impl Space {
    fn new(start: u64, end: u64) -> Self {
        Space { start, end, top: start }
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn used(&self) -> u64 {
        self.top - self.start
    }

    /// Bytes remaining.
    #[inline]
    pub fn free(&self) -> u64 {
        self.end - self.top
    }

    /// Total size.
    #[inline]
    pub fn size(&self) -> u64 {
        self.end - self.start
    }

    /// True if `addr` falls inside this space.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.start && addr.0 < self.end
    }

    fn bump(&mut self, size: u64) -> Option<u64> {
        if self.top + size <= self.end {
            let at = self.top;
            self.top += size;
            Some(at)
        } else {
            None
        }
    }
}

/// Which generation an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    /// Eden or a survivor space.
    Young,
    /// The tenured generation.
    Old,
    /// An attached immutable segment (never collected, never moved; see
    /// [`crate::segment`]).
    Segment,
}

/// The heap: arena + spaces + card table.
#[derive(Debug)]
pub struct Heap {
    pub(crate) arena: Arena,
    spec: LayoutSpec,
    pub(crate) eden: Space,
    pub(crate) s0: Space,
    pub(crate) s1: Space,
    pub(crate) from_is_s0: bool,
    pub(crate) old: Space,
    cards: Vec<u8>,
    /// The object-start record, one byte per card: 1 + the word offset of
    /// the lowest object start recorded in that card, 0 for none. Grown
    /// lazily to the highest card noted; every record is a true object
    /// start (a missing one only lengthens a minor GC's walk back).
    starts: Vec<u8>,
    hash_state: u64,
    peak_used: u64,
    pub(crate) tenure_threshold: u8,
    /// Atomic old-gen allocation cursor, live only inside a
    /// [`Heap::begin_shared_old_alloc`] window (see
    /// [`Heap::shared_alloc_raw_old`]).
    shared_top: AtomicU64,
    shared_active: bool,
    /// Attached immutable segments, in attach order. Their memory is
    /// mapped read-only into `arena`; the GC treats them as roots and
    /// never moves or scans into them.
    attached: Vec<Arc<Segment>>,
}

impl Heap {
    /// Builds a heap from a configuration.
    ///
    /// # Errors
    /// [`Error::ArenaAlloc`] if the arena cannot be allocated, or
    /// [`Error::BadConfig`] for nonsensical fractions.
    pub fn new(config: &HeapConfig) -> Result<Self> {
        if !(0.05..=0.9).contains(&config.young_fraction)
            || !(0.01..=0.4).contains(&config.survivor_fraction)
        {
            return Err(Error::BadConfig(format!(
                "young_fraction {} / survivor_fraction {} out of range",
                config.young_fraction, config.survivor_fraction
            )));
        }
        let capacity = align8(config.capacity as u64);
        let arena = Arena::new(capacity as usize)?;
        let young = align8((capacity as f64 * config.young_fraction) as u64);
        let survivor = align8((young as f64 * config.survivor_fraction) as u64);
        let eden_size = young - 2 * survivor;
        // Reserve the first 16 bytes so no object lives at address 0 (null).
        let eden = Space::new(16, 16 + eden_size);
        let s0 = Space::new(eden.end, eden.end + survivor);
        let s1 = Space::new(s0.end, s0.end + survivor);
        let old = Space::new(s1.end, capacity);
        let n_cards = old.size().div_ceil(CARD_SIZE);
        Ok(Heap {
            arena,
            spec: config.spec,
            eden,
            s0,
            s1,
            from_is_s0: true,
            old,
            cards: vec![0; n_cards as usize],
            starts: Vec::new(),
            hash_state: 0x9e37_79b9_7f4a_7c15,
            peak_used: 0,
            tenure_threshold: config.tenure_threshold,
            shared_top: AtomicU64::new(0),
            shared_active: false,
            attached: Vec::new(),
        })
    }

    /// The object format of this heap.
    #[inline]
    pub fn spec(&self) -> LayoutSpec {
        self.spec
    }

    /// Raw memory access (used by the object layer and Skyway).
    #[inline]
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The survivor space objects are currently evacuated *from*.
    #[allow(clippy::wrong_self_convention)] // GC "from-space", not a conversion
    pub(crate) fn from_space(&self) -> Space {
        if self.from_is_s0 {
            self.s0
        } else {
            self.s1
        }
    }

    /// The survivor space objects are evacuated *to* during a minor GC.
    pub(crate) fn to_space(&self) -> Space {
        if self.from_is_s0 {
            self.s1
        } else {
            self.s0
        }
    }

    /// Generation containing `addr`.
    ///
    /// # Errors
    /// [`Error::BadAddress`] if `addr` is null or outside every space.
    pub fn gen_of(&self, addr: Addr) -> Result<Gen> {
        if self.eden.contains(addr) || self.s0.contains(addr) || self.s1.contains(addr) {
            Ok(Gen::Young)
        } else if self.old.contains(addr) {
            Ok(Gen::Old)
        } else if self.in_segment(addr) {
            Ok(Gen::Segment)
        } else {
            Err(Error::BadAddress(addr.0))
        }
    }

    /// True if `addr` is in the young generation.
    pub fn in_young(&self, addr: Addr) -> bool {
        self.eden.contains(addr) || self.s0.contains(addr) || self.s1.contains(addr)
    }

    /// True if `addr` is in the old generation.
    pub fn in_old(&self, addr: Addr) -> bool {
        self.old.contains(addr)
    }

    /// True if `addr` falls inside an attached segment.
    pub fn in_segment(&self, addr: Addr) -> bool {
        // Segment bases start at `SEGMENT_BASE`, far above the owned
        // capacity, so the cheap range test short-circuits the scan for
        // every ordinary heap address.
        addr.raw() >= crate::segment::SEGMENT_BASE && self.attached.iter().any(|s| s.contains(addr))
    }

    /// The attached segment containing `addr`, if any.
    pub fn segment_for(&self, addr: Addr) -> Option<&Arc<Segment>> {
        if addr.raw() < crate::segment::SEGMENT_BASE {
            return None;
        }
        self.attached.iter().find(|s| s.contains(addr))
    }

    /// All attached segments, in attach order.
    pub fn attached_segments(&self) -> &[Arc<Segment>] {
        &self.attached
    }

    /// Attaches a sealed segment: maps its memory read-only into this
    /// heap's address space. Metadata-only — nothing is cloned, no cards
    /// are dirtied; after this call every address in the segment resolves
    /// through ordinary heap reads and [`Heap::gen_of`] reports
    /// [`Gen::Segment`].
    ///
    /// # Errors
    /// [`Error::SegmentFormatMismatch`] if the segment was sealed in a
    /// different object format than this heap's (its walkers would
    /// mis-parse every header); [`Error::SegmentAlreadyAttached`] if a
    /// segment with the same base is already attached.
    pub fn attach_segment(&mut self, seg: Arc<Segment>) -> Result<()> {
        if seg.spec() != self.spec {
            return Err(Error::SegmentFormatMismatch {
                base: seg.base(),
                sealed: seg.spec(),
                attacher: self.spec,
            });
        }
        if self.attached.iter().any(|s| s.base() == seg.base()) {
            return Err(Error::SegmentAlreadyAttached(seg.base()));
        }
        self.arena.map_range(seg.base(), seg.len(), Arc::clone(seg.mem()));
        self.attached.push(seg);
        Ok(())
    }

    /// Detaches the segment with the given base, unmapping its memory.
    /// The heap must no longer hold references into the segment (the
    /// verifier reports any survivor as a dangling ref). Returns the
    /// detached segment so the caller's store can run refcount/epoch
    /// reclamation.
    ///
    /// # Errors
    /// [`Error::UnknownSegment`] if no such segment is attached.
    pub fn detach_segment(&mut self, base: u64) -> Result<Arc<Segment>> {
        let idx = self
            .attached
            .iter()
            .position(|s| s.base() == base)
            .ok_or(Error::UnknownSegment(base))?;
        self.arena.unmap_range(base);
        Ok(self.attached.remove(idx))
    }

    /// Bytes in use across all spaces.
    pub fn used(&self) -> u64 {
        self.eden.used() + self.from_space().used() + self.old.used()
    }

    /// High-water mark of [`Heap::used`] (the §5.2 peak-consumption metric).
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    pub(crate) fn note_usage(&mut self) {
        let u = self.used();
        if u > self.peak_used {
            self.peak_used = u;
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.arena.len() as u64
    }

    /// Bump-allocates `size` bytes in eden (young generation).
    pub(crate) fn bump_young(&mut self, size: u64) -> Option<Addr> {
        let at = self.eden.bump(size)?;
        self.note_usage();
        Some(Addr(at))
    }

    /// Bump-allocates `size` bytes in the old generation.
    pub(crate) fn bump_old(&mut self, size: u64) -> Option<Addr> {
        let at = Addr(self.old.bump(size)?);
        self.note_object_start(at);
        self.note_usage();
        Some(at)
    }

    /// Allocates a raw, contiguous old-generation region, handed back
    /// filled with [`FILLER_WORD`]s. The caller must leave the region
    /// linearly parseable (real objects plus filler padding).
    ///
    /// # Errors
    /// [`Error::OldGenFull`] when the old generation cannot fit `len` bytes.
    pub fn alloc_raw_old(&mut self, len: u64) -> Result<Addr> {
        let len = align8(len);
        let addr = self.old.bump(len).map(Addr).ok_or(Error::OldGenFull { requested: len })?;
        // Regions from a previous GC epoch may contain stale bytes.
        self.arena.zero(addr.0, len as usize)?;
        // Until the caller writes real objects, keep the region parseable.
        self.fill_filler(addr, len)?;
        self.note_object_start(addr);
        self.note_usage();
        Ok(addr)
    }

    /// Opens a *shared* old-generation allocation window: seeds the atomic
    /// cursor from `old.top` so concurrent absorb workers can carve
    /// disjoint input-buffer regions via [`Heap::shared_alloc_raw_old`]
    /// through a shared `&Heap`. No GC can run during the window (the
    /// parallel receiver holds the only `&mut Vm` access path), so the
    /// bump cursor is the only mutable space state in play.
    pub fn begin_shared_old_alloc(&mut self) {
        debug_assert!(!self.shared_active, "shared old-gen window already open");
        // ORDER: Release — publishes the seeded cursor (and every heap
        // write program-ordered before opening the window) to workers
        // whose first sight of it is the Acquire side of the CAS in
        // `shared_alloc_raw_old`.
        self.shared_top.store(self.old.top, Ordering::Release);
        self.shared_active = true;
    }

    /// Closes the shared window: publishes the atomic cursor back into
    /// `old.top` and refreshes the peak-usage high-water mark.
    pub fn end_shared_old_alloc(&mut self) {
        debug_assert!(self.shared_active, "shared old-gen window not open");
        // ORDER: Acquire — pairs with the Release half of each worker's
        // claiming CAS: every region claim is ordered before the window
        // close folds the cursor back into exclusive state. The claimers'
        // own writes reach this thread through whatever joined them (a
        // thread join, or running on this thread).
        self.old.top = self.shared_top.load(Ordering::Acquire);
        self.shared_active = false;
        self.note_usage();
    }

    /// Claims a raw old-generation region through a shared reference, for
    /// concurrent absorb workers inside a [`Heap::begin_shared_old_alloc`]
    /// window. Regions are claimed with a CAS loop on the shared cursor and
    /// handed back as they are: unlike [`Heap::alloc_raw_old`] nothing is
    /// zeroed or filled. The claimer writes or fills every byte of the claim
    /// before the window closes, so the old generation stays parseable.
    ///
    /// # Errors
    /// [`Error::OldGenFull`] when the old generation cannot fit `len` bytes.
    pub fn shared_alloc_raw_old(&self, len: u64) -> Result<Addr> {
        debug_assert!(self.shared_active, "shared old-gen window not open");
        let len = align8(len);
        // The seed load may be stale — the CAS below revalidates it, so
        // Relaxed is enough here.
        let mut cur = self.shared_top.load(Ordering::Relaxed);
        loop {
            let end = cur.checked_add(len).ok_or(Error::OldGenFull { requested: len })?;
            if end > self.old.end {
                return Err(Error::OldGenFull { requested: len });
            }
            // ORDER: AcqRel on success — Acquire pairs with the window
            // opener's Release store (the claimed region's bounds are only
            // meaningful after the seed publish) and with prior claimers'
            // Release halves; Release orders this claim before the window
            // close's Acquire load in `end_shared_old_alloc`. Failure is
            // Relaxed: a lost race only reseeds the loop.
            match self.shared_top.compare_exchange_weak(
                cur,
                end,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let addr = Addr(cur);
                    // The CAS win proves `[cur, end)` sits inside the old
                    // generation and no other worker can claim it.
                    debug_assert!(addr.0 >= self.old.start && end <= self.old.end);
                    return Ok(addr);
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Fills `[addr, addr+len)` with filler words so space walkers skip it.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`] for bad ranges.
    pub fn fill_filler(&self, addr: Addr, len: u64) -> Result<()> {
        let mut off = addr.0;
        let end = addr.0 + len;
        while off < end {
            self.arena.store_word(off, FILLER_WORD)?;
            off += 8;
        }
        Ok(())
    }

    /// Generates a fresh nonzero 31-bit identity hashcode (xorshift64*).
    pub(crate) fn next_hash(&mut self) -> u32 {
        loop {
            let mut x = self.hash_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.hash_state = x;
            let h = ((x.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 33) as u32 & 0x7fff_ffff;
            if h != 0 {
                return h;
            }
        }
    }

    // ----- card table -------------------------------------------------

    /// The indices of the cards overlapping `[addr, addr + len)` (one byte
    /// at least), clipped to the old generation. Cards are counted from
    /// `old.start`; this and its inverse, [`Heap::card_start`], are the only
    /// code that maps between addresses and cards.
    pub(crate) fn card_range(&self, addr: u64, len: u64) -> Range<usize> {
        let (lo, hi) = (addr.max(self.old.start), (addr + len.max(1)).min(self.old.end));
        if lo >= hi {
            return 0..0;
        }
        let card = |a: u64| ((a - self.old.start) / CARD_SIZE) as usize;
        card(lo)..card(hi - 1) + 1
    }

    /// First byte of card `i`.
    pub(crate) fn card_start(&self, i: usize) -> u64 {
        self.old.start + i as u64 * CARD_SIZE
    }

    /// Dirties the card covering `addr` (no-op outside the old generation).
    /// This is the write barrier, the only producer of dirty cards outside
    /// the collector itself.
    pub fn dirty_card(&mut self, addr: Addr) {
        let r = self.card_range(addr.0, 1);
        self.cards[r].fill(1);
    }

    /// Dirties every card overlapping `[addr, addr+len)`.
    pub fn dirty_card_range(&mut self, addr: Addr, len: u64) {
        let r = self.card_range(addr.0, len);
        self.cards[r].fill(1);
    }

    /// True if the card covering `addr` is dirty.
    pub fn is_card_dirty(&self, addr: Addr) -> bool {
        self.overlaps_dirty_card(addr, 1)
    }

    /// True if any card overlapping `[addr, addr + len)` is dirty: the
    /// predicate by which a minor GC scans an old object.
    pub(crate) fn overlaps_dirty_card(&self, addr: Addr, len: u64) -> bool {
        self.cards[self.card_range(addr.0, len)].contains(&1)
    }

    pub(crate) fn clear_cards(&mut self) {
        self.cards.iter_mut().for_each(|c| *c = 0);
    }

    /// Number of dirty cards (diagnostics).
    pub fn dirty_card_count(&self) -> usize {
        self.cards.iter().filter(|&&c| c == 1).count()
    }

    /// The first maximal run of dirty cards at or after card `from` that
    /// lies below `old.top`, cleaned as it is handed out.
    pub(crate) fn take_dirty_run(&mut self, from: usize) -> Option<Range<usize>> {
        let below_top = self.card_range(self.old.start, self.old.used()).end;
        let cards = self.cards.get_mut(from..below_top)?;
        let first = cards.iter().position(|&c| c != 0)?;
        let len = cards[first..].iter().position(|&c| c == 0).unwrap_or(cards.len() - first);
        cards[first..first + len].fill(0);
        Some(from + first..from + first + len)
    }

    // ----- object-start record -----------------------------------------

    /// Records `addr` as a place where the old generation parses: an object
    /// header, or the base of a filler-padded region. A no-op outside the
    /// old generation. Skyway's receiver calls it for each input-buffer
    /// chunk it adopts. The caller guarantees the claim: a minor GC starts
    /// parsing here, and a wrong record would make it mis-parse.
    pub fn note_object_start(&mut self, addr: Addr) {
        let Some(i) = self.card_range(addr.0, 1).next() else { return };
        if self.starts.len() <= i {
            self.starts.resize(i + 1, 0);
        }
        let rec = ((addr.0 - self.card_start(i)) / 8 + 1) as u8;
        if self.starts[i] == 0 || rec < self.starts[i] {
            self.starts[i] = rec;
        }
    }

    /// Drops every record (the full GC's slide invalidates them all).
    pub(crate) fn drop_object_starts(&mut self) {
        self.starts.clear();
    }

    /// The nearest recorded object start at or before the first byte of
    /// card `i`, walking back card by card; `old.start` if none is.
    pub(crate) fn parse_point(&self, i: usize) -> u64 {
        if self.starts.get(i) == Some(&1) {
            return self.card_start(i);
        }
        let below = &self.starts[..i.min(self.starts.len())];
        match below.iter().rposition(|&r| r != 0) {
            Some(j) => self.card_start(j) + u64::from(below[j] - 1) * 8,
            None => self.old.start,
        }
    }

    // ----- GC-internal space management --------------------------------

    pub(crate) fn reset_young_after_minor(&mut self) -> Result<()> {
        self.arena.zero(self.eden.start, self.eden.used() as usize)?;
        let from = self.from_space();
        self.arena.zero(from.start, from.used() as usize)?;
        self.eden.top = self.eden.start;
        if self.from_is_s0 {
            self.s0.top = self.s0.start;
        } else {
            self.s1.top = self.s1.start;
        }
        self.from_is_s0 = !self.from_is_s0;
        Ok(())
    }

    pub(crate) fn bump_to_space(&mut self, size: u64) -> Option<Addr> {
        let sp = if self.from_is_s0 { &mut self.s1 } else { &mut self.s0 };
        sp.bump(size).map(Addr)
    }

    pub(crate) fn set_old_top(&mut self, top: u64) -> Result<()> {
        let old_top = self.old.top;
        self.old.top = top;
        if top < old_top {
            self.arena.zero(top, (old_top - top) as usize)?;
        }
        Ok(())
    }

    /// Snapshot of (eden, from-survivor, to-survivor, old) for reporting.
    pub fn spaces(&self) -> (Space, Space, Space, Space) {
        (self.eden, self.from_space(), self.to_space(), self.old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaces_partition_capacity() {
        let h = Heap::new(&HeapConfig::small()).unwrap();
        let (eden, from, to, old) = h.spaces();
        assert_eq!(eden.start, 16);
        assert!(eden.end <= from.start || from.start <= eden.end); // contiguous chain
        assert_eq!(old.end, h.capacity());
        assert!(eden.size() > 0 && from.size() > 0 && to.size() > 0 && old.size() > 0);
        assert_eq!(from.size(), to.size());
    }

    #[test]
    fn rejects_bad_config() {
        let cfg = HeapConfig { young_fraction: 0.99, ..HeapConfig::small() };
        assert!(matches!(Heap::new(&cfg), Err(Error::BadConfig(_))));
    }

    #[test]
    fn raw_old_region_is_filler_filled() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        let a = h.alloc_raw_old(64).unwrap();
        for i in 0..8 {
            assert_eq!(h.arena().load_word(a.0 + i * 8).unwrap(), FILLER_WORD);
        }
    }

    #[test]
    fn old_gen_full_errors() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        let huge = h.old.size() + 8;
        assert!(matches!(h.alloc_raw_old(huge), Err(Error::OldGenFull { .. })));
    }

    #[test]
    fn shared_old_alloc_carves_disjoint_filler_regions() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        let before = h.old.top;
        h.begin_shared_old_alloc();
        let addrs: Vec<Addr> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let h = &h;
                    s.spawn(move || {
                        // Each claimer fills its own claim, as the contract
                        // asks: the heap hands the bytes back untouched.
                        let claim = |_| {
                            let a = h.shared_alloc_raw_old(56).unwrap();
                            h.fill_filler(a, 56).unwrap();
                            a
                        };
                        (0..8).map(claim).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|j| j.join().unwrap()).collect()
        });
        h.end_shared_old_alloc();
        // 32 allocations of align8(56) = 56 bytes, all disjoint, all filler.
        let mut sorted: Vec<u64> = addrs.iter().map(|a| a.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
        for w in sorted.windows(2) {
            assert!(w[1] - w[0] >= 56, "overlapping regions {w:?}");
        }
        assert_eq!(h.old.top, before + 32 * 56, "cursor published back to old.top");
        for a in &addrs {
            assert_eq!(h.arena().load_word(a.0).unwrap(), FILLER_WORD);
        }
        assert!(h.peak_used() >= 32 * 56);
    }

    #[test]
    fn shared_old_alloc_full_errors_and_keeps_cursor_sane() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        h.begin_shared_old_alloc();
        let huge = h.old.size() + 8;
        assert!(matches!(h.shared_alloc_raw_old(huge), Err(Error::OldGenFull { .. })));
        let ok = h.shared_alloc_raw_old(64).unwrap();
        h.end_shared_old_alloc();
        assert!(h.old.contains(ok));
        // The exclusive path picks up right after the shared window.
        let next = h.alloc_raw_old(8).unwrap();
        assert_eq!(next.0, ok.0 + 64);
    }

    #[test]
    fn card_dirtying() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        let a = h.alloc_raw_old(CARD_SIZE * 3).unwrap();
        assert!(!h.is_card_dirty(a));
        h.dirty_card(a);
        assert!(h.is_card_dirty(a));
        h.dirty_card_range(a, CARD_SIZE * 3);
        assert!(h.is_card_dirty(Addr(a.0 + CARD_SIZE)));
        assert!(h.is_card_dirty(Addr(a.0 + 2 * CARD_SIZE)));
        // Ranges outside the old generation are a no-op, not a panic.
        let dirty = h.dirty_card_count();
        h.dirty_card_range(Addr(8), 64);
        assert_eq!(h.dirty_card_count(), dirty);
        h.clear_cards();
        assert_eq!(h.dirty_card_count(), 0);
    }

    #[test]
    fn young_gen_membership() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        let y = h.bump_young(32).unwrap();
        assert_eq!(h.gen_of(y).unwrap(), Gen::Young);
        let o = h.bump_old(32).unwrap();
        assert_eq!(h.gen_of(o).unwrap(), Gen::Old);
        assert!(h.gen_of(Addr(0)).is_err());
        assert!(h.gen_of(Addr(h.capacity() + 8)).is_err());
    }

    #[test]
    fn hashes_nonzero_31bit_and_distinct() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        let a = h.next_hash();
        let b = h.next_hash();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        assert!(a <= 0x7fff_ffff);
    }

    #[test]
    fn peak_usage_tracks_high_water() {
        let mut h = Heap::new(&HeapConfig::small()).unwrap();
        h.bump_young(1024).unwrap();
        let p = h.peak_used();
        assert!(p >= 1024);
        h.reset_young_after_minor().unwrap();
        assert_eq!(h.peak_used(), p); // peak survives resets
        assert!(h.used() < p);
    }
}
