//! Object layout: headers, mark-word packing, and Skyway's `baddr` word.
//!
//! The layout follows Figure 6 of the paper (64-bit HotSpot-style):
//!
//! ```text
//! offset  0        8        16       24            32
//!         +--------+--------+--------+-------------+----------------+
//!         | mark   | klass  | baddr  | [array len] | payload ... pad|
//!         +--------+--------+--------+-------------+----------------+
//! ```
//!
//! * `mark` packs lock bits, GC age, the cached identity **hashcode** (whose
//!   preservation lets hash-based collections be reused on the receiver
//!   without rehashing — §4.2 "Header Update"), and a forwarding pointer
//!   during GC.
//! * `klass` holds the klass id, which is also Skyway's global type id
//!   (`tID`): a transfer buffer carries it unchanged.
//! * `baddr` is the extra word Skyway adds to every object (§4.2): it caches
//!   the object's relative position in an output buffer, tagged with the
//!   shuffle-phase id (`sID`, highest byte) and the sending stream/thread id
//!   (next two bytes), leaving five bytes for the relative address.
//!
//! A [`LayoutSpec`] makes the `baddr` word optional so the memory-overhead
//! experiment (paper §5.2) can compare heaps with and without it, and so
//! heterogeneous clusters (paper §3.1) can mix object formats.

use crate::{Error, Result};

/// A heap address: byte offset of an object header inside a VM's arena.
///
/// Address 0 is reserved and plays the role of `null` (see [`Addr::NULL`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u64);

impl Addr {
    /// The null reference.
    pub const NULL: Addr = Addr(0);

    /// True if this is the null reference.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    // The typed conversion helpers below are the only sanctioned way to
    // move between `Addr` and raw integers outside this module and `mem`
    // (enforced by skyway-tidy's `addr-cast` rule). Keeping the
    // conversions named makes absolute-vs-relative mixups — the paper's
    // §3.3 bug class — grep-able and reviewable.

    /// Wraps a raw arena offset as an address.
    #[inline]
    pub fn from_raw(raw: u64) -> Addr {
        Addr(raw)
    }

    /// The raw arena offset.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The address `bytes` further into the arena.
    ///
    /// # Panics
    /// In debug builds, if the addition overflows (it wraps in release —
    /// out-of-arena addresses fault at `translate()` time, not here).
    #[inline]
    #[must_use]
    pub fn byte_add(self, bytes: u64) -> Addr {
        debug_assert!(self.0.checked_add(bytes).is_some(), "byte_add: {self} + {bytes} overflows");
        Addr(self.0.wrapping_add(bytes))
    }
}

impl std::fmt::Debug for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "Addr(null)")
        } else {
            write!(f, "Addr({:#x})", self.0)
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// Mark-word bit assignments.
///
/// ```text
/// bits  0..=2   lock bits
/// bits  3..=6   GC age (tenuring counter)
/// bits  8..=38  identity hashcode (31 bits; 0 = not yet computed)
/// bit   63      forwarding flag (GC-internal; bits 0..=47 then hold the
///               forwarded-to address)
/// ```
pub mod mark {
    /// Shift of the GC-age field.
    pub const AGE_SHIFT: u32 = 3;
    /// Mask of the GC-age field (after shifting).
    pub const AGE_MASK: u64 = 0b1111;
    /// Shift of the identity-hashcode field.
    pub const HASH_SHIFT: u32 = 8;
    /// Mask of the identity-hashcode field (after shifting).
    pub const HASH_MASK: u64 = 0x7fff_ffff;
    /// Forwarding flag used during copying/compacting GC.
    pub const FORWARD_FLAG: u64 = 1 << 63;
    /// Mask of the forwarded-to address when [`FORWARD_FLAG`] is set.
    pub const FORWARD_ADDR_MASK: u64 = (1 << 48) - 1;

    /// Extracts the cached identity hashcode (0 = not computed).
    #[inline]
    pub fn hash_of(mark: u64) -> u32 {
        ((mark >> HASH_SHIFT) & HASH_MASK) as u32
    }

    /// Stores an identity hashcode into a mark word.
    #[inline]
    pub fn with_hash(mark: u64, hash: u32) -> u64 {
        (mark & !(HASH_MASK << HASH_SHIFT)) | ((u64::from(hash) & HASH_MASK) << HASH_SHIFT)
    }

    /// Extracts the GC age.
    #[inline]
    pub fn age_of(mark: u64) -> u8 {
        ((mark >> AGE_SHIFT) & AGE_MASK) as u8
    }

    /// Stores a GC age into a mark word.
    #[inline]
    pub fn with_age(mark: u64, age: u8) -> u64 {
        (mark & !(AGE_MASK << AGE_SHIFT)) | ((u64::from(age) & AGE_MASK) << AGE_SHIFT)
    }

    /// Clears the machine-specific bits Skyway must reset when an object
    /// leaves a VM (§3.1: "GC bits and lock bits need to be reset"), while
    /// preserving the identity hashcode.
    #[inline]
    pub fn sanitized_for_transfer(mark: u64) -> u64 {
        mark & (HASH_MASK << HASH_SHIFT)
    }

    /// True if the word is a GC forwarding pointer.
    #[inline]
    pub fn is_forwarded(mark: u64) -> bool {
        mark & FORWARD_FLAG != 0
    }

    /// Builds a forwarding pointer to `to`.
    #[inline]
    pub fn forward_to(to: u64) -> u64 {
        FORWARD_FLAG | (to & FORWARD_ADDR_MASK)
    }

    /// Extracts the forwarded-to address.
    #[inline]
    pub fn forwarded_addr(mark: u64) -> u64 {
        mark & FORWARD_ADDR_MASK
    }
}

/// Skyway `baddr` word packing (§4.2 "Support for Threads"):
/// `sID` in the highest byte, the sending stream/thread id in the next two
/// bytes, and the relative buffer address in the lowest five bytes.
pub mod baddr {
    /// Shift of the shuffle-phase id (highest byte).
    pub const SID_SHIFT: u32 = 56;
    /// Shift of the stream/thread id (two bytes below `sID`).
    pub const STREAM_SHIFT: u32 = 40;
    /// Mask of the stream/thread id after shifting.
    pub const STREAM_MASK: u64 = 0xffff;
    /// Mask of the relative buffer address (lowest five bytes).
    pub const REL_MASK: u64 = (1 << 40) - 1;

    /// Packs a `baddr` word from phase id, stream id and relative address.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `rel` fits in five bytes (1 TiB of buffer), which
    /// is orders of magnitude above any buffer this simulation produces.
    #[inline]
    pub fn compose(sid: u8, stream: u16, rel: u64) -> u64 {
        debug_assert!(rel <= REL_MASK, "relative buffer address overflows 5 bytes");
        (u64::from(sid) << SID_SHIFT) | (u64::from(stream) << STREAM_SHIFT) | (rel & REL_MASK)
    }

    /// Extracts the shuffle-phase id (highest byte).
    #[inline]
    pub fn sid_of(word: u64) -> u8 {
        (word >> SID_SHIFT) as u8
    }

    /// Extracts the stream/thread id.
    #[inline]
    pub fn stream_of(word: u64) -> u16 {
        ((word >> STREAM_SHIFT) & STREAM_MASK) as u16
    }

    /// Extracts the relative buffer address (lowest five bytes; the paper's
    /// "lowest seven bytes" before thread support splits them).
    #[inline]
    pub fn rel_of(word: u64) -> u64 {
        word & REL_MASK
    }
}

/// Object-format specification for one VM (or one side of a transfer).
///
/// The paper's heterogeneous-cluster support (§3.1) adjusts "header size,
/// pointer size, or header format" on the sender; this struct is the value
/// such adjustments translate between. References are always 8 bytes in this
/// simulation; the variable parts are the presence of the Skyway `baddr`
/// header word and compressed (4-byte) array-length slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutSpec {
    /// Whether every object carries the extra Skyway `baddr` header word.
    pub with_baddr: bool,
    /// Array-length slot size in bytes (8 for the default format, 4 for a
    /// "compact" format used to exercise heterogeneous transfer).
    pub array_len_size: u8,
}

impl Default for LayoutSpec {
    fn default() -> Self {
        LayoutSpec { with_baddr: true, array_len_size: 8 }
    }
}

impl LayoutSpec {
    /// The default Skyway-enabled format.
    pub const SKYWAY: LayoutSpec = LayoutSpec { with_baddr: true, array_len_size: 8 };

    /// A format without the `baddr` word — a stock JVM, used as the baseline
    /// of the §5.2 memory-overhead experiment.
    pub const STOCK: LayoutSpec = LayoutSpec { with_baddr: false, array_len_size: 8 };

    /// A compact format (no `baddr`, 4-byte array length) used to exercise
    /// heterogeneous-cluster format adjustment.
    pub const COMPACT: LayoutSpec = LayoutSpec { with_baddr: false, array_len_size: 4 };

    /// Offset of the mark word.
    #[inline]
    pub fn mark_off(&self) -> u64 {
        0
    }

    /// Offset of the klass word.
    #[inline]
    pub fn klass_off(&self) -> u64 {
        8
    }

    /// Offset of the `baddr` word.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoBaddr`] if this format has no `baddr` word.
    #[inline]
    pub fn baddr_off(&self) -> Result<u64> {
        if self.with_baddr {
            Ok(16)
        } else {
            Err(Error::NoBaddr)
        }
    }

    /// Header size in bytes for a non-array instance.
    #[inline]
    pub fn instance_header(&self) -> u64 {
        if self.with_baddr {
            24
        } else {
            16
        }
    }

    /// Offset of the array-length slot.
    #[inline]
    pub fn array_len_off(&self) -> u64 {
        self.instance_header()
    }

    /// Header size in bytes for an array (length slot included, padded so
    /// the element area starts 8-aligned).
    #[inline]
    pub fn array_header(&self) -> u64 {
        // Both terms are single-digit byte counts; wrapping is unreachable.
        align8(self.instance_header().wrapping_add(u64::from(self.array_len_size)))
    }
}

/// Rounds `n` up to a multiple of 8 (object alignment).
///
/// # Panics
/// In debug builds, if `n` is within 7 of `u64::MAX` (wraps in release).
#[inline]
pub fn align8(n: u64) -> u64 {
    debug_assert!(n <= u64::MAX - 7, "align8: {n} overflows");
    n.wrapping_add(7) & !7
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_hash_roundtrip() {
        let m = mark::with_hash(0, 0x7fff_ffff);
        assert_eq!(mark::hash_of(m), 0x7fff_ffff);
        let m2 = mark::with_age(m, 5);
        assert_eq!(mark::hash_of(m2), 0x7fff_ffff);
        assert_eq!(mark::age_of(m2), 5);
    }

    #[test]
    fn sanitize_preserves_hash_only() {
        let m = mark::with_age(mark::with_hash(0b101, 1234), 7);
        let s = mark::sanitized_for_transfer(m);
        assert_eq!(mark::hash_of(s), 1234);
        assert_eq!(mark::age_of(s), 0);
        assert_eq!(s & 0b111, 0, "lock bits cleared");
    }

    #[test]
    fn forwarding_roundtrip() {
        let f = mark::forward_to(0xabcdef);
        assert!(mark::is_forwarded(f));
        assert_eq!(mark::forwarded_addr(f), 0xabcdef);
        assert!(!mark::is_forwarded(mark::with_hash(0, 99)));
    }

    #[test]
    fn baddr_roundtrip() {
        let w = baddr::compose(3, 512, 0xff_1234_5678);
        assert_eq!(baddr::sid_of(w), 3);
        assert_eq!(baddr::stream_of(w), 512);
        assert_eq!(baddr::rel_of(w), 0xff_1234_5678);
    }

    #[test]
    fn layout_offsets() {
        let sky = LayoutSpec::SKYWAY;
        assert_eq!(sky.instance_header(), 24);
        assert_eq!(sky.array_header(), 32);
        assert_eq!(sky.baddr_off().unwrap(), 16);

        let stock = LayoutSpec::STOCK;
        assert_eq!(stock.instance_header(), 16);
        assert_eq!(stock.array_header(), 24);
        assert!(matches!(stock.baddr_off(), Err(Error::NoBaddr)));

        let compact = LayoutSpec::COMPACT;
        assert_eq!(compact.array_header(), 24); // 16 + 4 → aligned to 24
    }

    #[test]
    fn align8_works() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(17), 24);
    }
}
