//! Sealed, immutable, shareable heap segments.
//!
//! A *segment* is a self-contained object graph laid out in store-owned
//! memory, in exactly the managed-heap object format (Skyway's central
//! invariant). It is built once — a [`SegmentBuilder`] reserves its base,
//! the sealing traversal writes the image against that base — then
//! *sealed*, after which its bytes never change. Any number of
//! co-located heaps can then **attach** it: a metadata-only operation that
//! maps the segment's memory into the heap's address space (see
//! [`crate::mem::Arena`]'s mapped windows) without cloning a byte or
//! dirtying a card.
//!
//! Segments occupy a global address region disjoint from every heap's
//! owned range: bases are bump-allocated from [`SEGMENT_BASE`] (1 TiB),
//! far above any arena capacity, so the *same* absolute addresses are
//! valid in every attacher and reference slots inside the segment need no
//! per-attacher fixup.
//!
//! Two invariants make sharing sound, and [`crate::verify`] checks both:
//!
//! 1. **Immutability** — nobody writes a sealed segment. The attacher-side
//!    arena mapping already rejects writes; a seal-time checksum catches
//!    out-of-band tampering through a retained raw handle.
//! 2. **Self-containment** — every reference inside a segment points into
//!    the same segment. A ref out into some heap's generations would go
//!    stale the moment that heap's GC moved the referent (segments are
//!    never scanned or patched by any GC).
//!
//! Klass words inside a segment are klass ids, as in any heap. Every VM on
//! one [`ClassPath`] gives a class the same id, so a segment records the
//! classpath it was sealed on and only VMs on that classpath may attach it
//! ([`crate::Vm::attach_segment`]); they resolve its klass words exactly as
//! they resolve their own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::klass::ClassPath;
use crate::layout::{Addr, LayoutSpec};
use crate::mem::Arena;
use crate::{Error, Result};

/// Base of the global segment address region: 1 TiB, far above any arena
/// capacity, so segment addresses never collide with owned-heap offsets.
pub const SEGMENT_BASE: u64 = 1 << 40;

/// Spacing granularity between consecutive segment bases (1 MiB). A
/// coarse granule keeps bases readable in dumps and leaves a guard gap so
/// an out-of-range access off one segment's end cannot silently land in
/// the next.
const BASE_GRANULE: u64 = 1 << 20;

/// Exclusive upper bound of the segment base region (256 TiB). Bases are
/// never recycled, so a long-lived process *can* exhaust the region; the
/// claim must then fail with a typed error rather than wrap into live
/// address space (heap offsets live below [`SEGMENT_BASE`], and a u64
/// wrap would eventually land there).
pub const SEGMENT_LIMIT: u64 = 1 << 48;

/// Process-wide bump allocator for segment bases.
static NEXT_BASE: AtomicU64 = AtomicU64::new(SEGMENT_BASE);

/// Base-region bytes a `len`-byte segment occupies: its granules plus a
/// guard granule.
fn span_of(len: u64) -> u64 {
    (len / BASE_GRANULE + 2) * BASE_GRANULE
}

/// Claims a `len`-byte (plus guard granule) base from `cursor`. A CAS loop
/// instead of `fetch_add`: an unconditional add would push the cursor past
/// [`SEGMENT_LIMIT`] — or wrap u64 entirely — even on the *failing* call,
/// poisoning every later claim. Factored over the cursor so tests can
/// drive a private one to the edge.
///
/// # Errors
/// [`Error::SegmentSpaceExhausted`] once the region cannot fit the span.
fn claim_base_from(cursor: &AtomicU64, len: u64) -> Result<u64> {
    let span = span_of(len);
    // The seed may be stale — the CAS revalidates it, so Relaxed is fine.
    let mut cur = cursor.load(Ordering::Relaxed);
    loop {
        let end = cur
            .checked_add(span)
            .filter(|&end| end <= SEGMENT_LIMIT)
            .ok_or(Error::SegmentSpaceExhausted { requested: span })?;
        // A base claim is a pure address-space reservation: no memory is
        // published through it (segment bytes travel via seal/attach), so
        // Relaxed on both sides is sufficient — only atomicity matters.
        match cursor.compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Ok(cur),
            Err(now) => cur = now,
        }
    }
}

/// Gives the unused tail of the claim `(base, reserved)` back once the
/// segment turned out to need only `len <= reserved` bytes. Succeeds only
/// while the claim is still the newest: a later claim starts at the old
/// end and moves the cursor past it for good (every span is at least two
/// granules), so the CAS can neither take back space someone else owns nor
/// be fooled by the cursor returning to the old value.
fn trim_claim_on(cursor: &AtomicU64, base: u64, reserved: u64, len: u64) {
    let (old_end, new_end) = (base + span_of(reserved), base + span_of(len));
    if new_end < old_end {
        // Losing the race only leaves the tail unused; Relaxed for the
        // same reason as the claim.
        let _ = cursor.compare_exchange(old_end, new_end, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// A sealed, immutable object-graph segment. Only a [`SegmentBuilder`] can
/// produce one, so every `Segment` in existence is sealed — immutability
/// is enforced by construction, not by a runtime flag.
#[derive(Debug)]
pub struct Segment {
    mem: Arc<Arena>,
    base: u64,
    len: u64,
    spec: LayoutSpec,
    roots: Vec<Addr>,
    classpath: Arc<ClassPath>,
    checksum: u64,
}

impl Segment {
    /// Base of this segment in the global segment address space.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Used bytes (8-aligned).
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the segment holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The object format the segment was sealed in; only heaps of the same
    /// format can attach it.
    #[inline]
    pub fn spec(&self) -> LayoutSpec {
        self.spec
    }

    /// True if `addr` falls inside this segment.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr.raw() >= self.base && addr.raw() < self.base + self.len
    }

    /// The graph roots, as global (attacher-valid) addresses, in the order
    /// the sealing traversal emitted them.
    pub fn roots(&self) -> &[Addr] {
        &self.roots
    }

    /// The classpath the segment was sealed on, which numbers the classes
    /// its klass words name; only VMs on it can attach the segment.
    pub(crate) fn classpath(&self) -> &Arc<ClassPath> {
        &self.classpath
    }

    /// The seal-time content checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the content checksum and compares it with the seal-time
    /// value — `false` means the sealed bytes were tampered with.
    pub fn verify_checksum(&self) -> bool {
        self.mem
            .words(self.len)
            .map(|w| checksum_words(w, u64::from) == self.checksum)
            .unwrap_or(false)
    }

    /// The backing memory as a raw arena handle: what an attach maps,
    /// read-only, into the attacher's arena. Tests also use it to forge
    /// post-seal corruption.
    pub fn raw_mem(&self) -> &Arc<Arena> {
        &self.mem
    }
}

/// FNV-1a-style content checksum, a word at a time — of a sealed segment
/// and of every wire chunk. One multiply chain is latency-bound, so four
/// lanes take every fourth word each and fold into the chain that finishes
/// the tail; distinct lane seeds make swapped lanes change the value.
/// `value` reads one word: the identity on heap words, `u64::from_le_bytes`
/// on the eight-byte words of a chunk.
pub fn checksum_words<W: Copy>(words: &[W], value: impl Fn(W) -> u64) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1_0000_01b3;
    let mut lanes = [BASIS, BASIS ^ 1, BASIS ^ 2, BASIS ^ 3];
    let mut quads = words.chunks_exact(4);
    for q in &mut quads {
        for (lane, &w) in lanes.iter_mut().zip(q) {
            *lane = (*lane ^ value(w)).wrapping_mul(PRIME);
        }
    }
    let mut h = BASIS;
    for w in lanes.into_iter().chain(quads.remainder().iter().map(|&w| value(w))) {
        h = (h ^ w).wrapping_mul(PRIME);
    }
    h
}

/// A reserved place in the global segment address space, waiting for its
/// image. The base is claimed *before* the graph is traversed — for an
/// upper bound on the image size — so the traversal can write final,
/// absolute reference values; [`SegmentBuilder::seal`] then takes the
/// finished image and returns the part of the reservation it did not need.
#[derive(Debug)]
pub struct SegmentBuilder {
    base: u64,
    reserved: u64,
    spec: LayoutSpec,
}

impl SegmentBuilder {
    /// Claims a base for a segment of at most `max_len` bytes of objects in
    /// format `spec`. No memory is allocated yet.
    ///
    /// # Errors
    /// [`crate::Error::SegmentSpaceExhausted`] if the global base region
    /// is used up.
    pub fn reserve(max_len: u64, spec: LayoutSpec) -> Result<Self> {
        Ok(SegmentBuilder { base: claim_base_from(&NEXT_BASE, max_len)?, reserved: max_len, spec })
    }

    /// Base of the segment under construction: the image's byte `rel` will
    /// live at global address `base + rel`.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Seals `image` — heap-format objects and filler words, references
    /// already absolute — into store-owned memory of exactly its size (one
    /// copy), records `roots` (global addresses) and the `classpath` whose
    /// klass ids the image's klass words hold, and computes the content
    /// checksum. The unused tail of the reservation goes back to
    /// the base allocator unless a later claim already sits behind it.
    ///
    /// # Errors
    /// [`crate::Error::OutOfBounds`] if `image` outgrew the reservation;
    /// [`crate::Error::Misaligned`] if it is not whole words;
    /// [`crate::Error::ArenaAlloc`] if the backing allocation fails.
    pub fn seal(
        self,
        image: &[u8],
        roots: Vec<Addr>,
        classpath: Arc<ClassPath>,
    ) -> Result<Arc<Segment>> {
        let len = image.len() as u64;
        if len > self.reserved {
            return Err(Error::OutOfBounds { off: self.base, size: image.len() });
        }
        // An empty image still gets (one word of) memory to map.
        let mem = Arena::new(image.len().max(8))?;
        mem.write_bytes(0, image)?;
        let checksum = checksum_words(mem.words(len)?, u64::from);
        trim_claim_on(&NEXT_BASE, self.base, self.reserved, len);
        Ok(Arc::new(Segment {
            mem: Arc::new(mem),
            base: self.base,
            len,
            spec: self.spec,
            roots,
            classpath,
            checksum,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn bases_are_disjoint_and_above_segment_base() {
        let a = SegmentBuilder::reserve(64, LayoutSpec::SKYWAY).unwrap();
        let b = SegmentBuilder::reserve(64, LayoutSpec::SKYWAY).unwrap();
        assert!(a.base() >= SEGMENT_BASE);
        assert!(b.base() >= SEGMENT_BASE);
        assert_ne!(a.base(), b.base());
        // Guard gap: a reservation never reaches the next base.
        assert!(a.base() + 64 < b.base() || b.base() + 64 < a.base());
    }

    #[test]
    fn base_claim_fails_typed_at_region_limit() {
        // A private cursor near the limit: the claim that would cross it
        // must fail with the typed error and leave the cursor unmoved so
        // later (smaller) claims still work.
        let cursor = AtomicU64::new(SEGMENT_LIMIT - 3 * BASE_GRANULE);
        let first = claim_base_from(&cursor, BASE_GRANULE).unwrap();
        assert_eq!(first, SEGMENT_LIMIT - 3 * BASE_GRANULE);
        let err = claim_base_from(&cursor, 4 * BASE_GRANULE).unwrap_err();
        assert!(
            matches!(err, Error::SegmentSpaceExhausted { requested } if requested == 6 * BASE_GRANULE),
            "unexpected error: {err}"
        );
        // The failed claim did not advance the cursor past the limit.
        assert_eq!(cursor.load(Ordering::Relaxed), SEGMENT_LIMIT);
    }

    #[test]
    fn base_claim_never_wraps_u64() {
        let cursor = AtomicU64::new(u64::MAX - BASE_GRANULE);
        let err = claim_base_from(&cursor, BASE_GRANULE).unwrap_err();
        assert!(matches!(err, Error::SegmentSpaceExhausted { .. }), "unexpected error: {err}");
        assert_eq!(cursor.load(Ordering::Relaxed), u64::MAX - BASE_GRANULE);
    }

    #[test]
    fn trim_returns_the_unused_tail_unless_a_later_claim_intervened() {
        let cursor = AtomicU64::new(SEGMENT_BASE);
        // An upper-bound reservation of 64 granules for a 100-byte image:
        // after the trim the next claim starts one sealed span further on.
        let a = claim_base_from(&cursor, 64 * BASE_GRANULE).unwrap();
        trim_claim_on(&cursor, a, 64 * BASE_GRANULE, 100);
        let b = claim_base_from(&cursor, 64 * BASE_GRANULE).unwrap();
        assert_eq!(b - a, span_of(100));
        // `b` is no longer the newest claim once `c` exists: its trim must
        // leave the cursor (and `c`'s space) alone.
        let c = claim_base_from(&cursor, 8).unwrap();
        assert_eq!(c - b, span_of(64 * BASE_GRANULE));
        let before = cursor.load(Ordering::Relaxed);
        trim_claim_on(&cursor, b, 64 * BASE_GRANULE, 100);
        assert_eq!(cursor.load(Ordering::Relaxed), before);
        // An exact reservation has no tail to return.
        trim_claim_on(&cursor, c, 8, 8);
        assert_eq!(cursor.load(Ordering::Relaxed), before);
    }

    #[test]
    fn seal_checksum_detects_tampering() {
        let b = SegmentBuilder::reserve(64, LayoutSpec::SKYWAY).unwrap();
        let seg = b.seal(&image(&[0xfeed, 0xbeef]), Vec::new(), ClassPath::new()).unwrap();
        assert!(seg.verify_checksum());
        // Forge a write through the raw handle (the attacher-side mapping
        // would reject this; the checksum is the second line of defense).
        seg.raw_mem().store_word(8, 0xdead).unwrap();
        assert!(!seg.verify_checksum());
    }

    #[test]
    fn checksum_sees_every_lane_and_the_tail() {
        // Ten words: two full quads plus a two-word tail. Flipping any one
        // word, or swapping two words of different lanes, changes the sum.
        let words: Vec<u64> = (1..=10).collect();
        let sum = checksum_words(&words, u64::from);
        for i in 0..words.len() {
            let mut w = words.clone();
            w[i] ^= 1 << 40;
            assert_ne!(checksum_words(&w, u64::from), sum, "word {i} not covered");
        }
        let mut swapped = words.clone();
        swapped.swap(0, 1);
        assert_ne!(checksum_words(&swapped, u64::from), sum);
        assert_ne!(checksum_words(&words[..9], u64::from), sum);
        assert_eq!(checksum_words(&words, u64::from), sum);
    }

    #[test]
    fn roots_survive_seal() {
        let b = SegmentBuilder::reserve(32, LayoutSpec::COMPACT).unwrap();
        let base = b.base();
        let seg = b.seal(&image(&[1]), vec![Addr::from_raw(base)], ClassPath::new()).unwrap();
        assert_eq!(seg.roots(), &[Addr::from_raw(base)]);
        assert_eq!(seg.spec(), LayoutSpec::COMPACT);
        assert_eq!(seg.len(), 8);
        assert!(seg.contains(Addr::from_raw(base)));
        assert!(!seg.contains(Addr::from_raw(base + seg.len())));
    }

    #[test]
    fn seal_rejects_an_image_beyond_its_reservation() {
        let b = SegmentBuilder::reserve(8, LayoutSpec::SKYWAY).unwrap();
        let err = b.seal(&image(&[1, 2]), Vec::new(), ClassPath::new()).unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { .. }), "unexpected error: {err}");
        // An empty image seals to an empty, attachable segment.
        let b = SegmentBuilder::reserve(0, LayoutSpec::SKYWAY).unwrap();
        let seg = b.seal(&[], Vec::new(), ClassPath::new()).unwrap();
        assert!(seg.is_empty());
        assert!(seg.verify_checksum());
    }
}
