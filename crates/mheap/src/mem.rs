//! Raw arena memory backing a simulated managed heap.
//!
//! This is the only module in the workspace that contains `unsafe` code. It
//! provides a fixed-capacity, zero-initialized, 8-byte-aligned memory region
//! with bounds-checked typed accessors and *atomic* word operations.
//!
//! Atomic word access matters because Skyway's multi-threaded sender
//! (paper §4.2, "Support for Threads") claims the `baddr` header word of a
//! shared object with a compare-and-swap while several transfer threads
//! traverse the same heap concurrently. The arena therefore exposes
//! [`Arena::load_word_atomic`] and [`Arena::cas_word`] that take `&self`.
//!
//! Every non-atomic accessor also takes `&self`: the arena behaves like one
//! large `UnsafeCell`. Callers above this layer (the [`crate::heap::Heap`])
//! restore single-writer discipline through `&mut` methods; the narrow
//! `&self` write surface exists only for the sender paths that the paper
//! defines to be data-race-free by construction (application threads are
//! quiesced during a shuffle, and each non-`baddr` word is read-only then).

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{Error, Result};

/// A read-only window of another arena mapped into this arena's offset
/// space at `base` (attached-segment memory; see [`crate::segment`]).
/// Mapped ranges sit far above the owned capacity — segment bases start at
/// [`crate::segment::SEGMENT_BASE`] — so routing only runs on the
/// bounds-check failure path and costs the owned-memory hot path nothing.
#[derive(Clone)]
struct SegMap {
    base: u64,
    len: u64,
    mem: Arc<Arena>,
}

/// Fixed-capacity, zeroed, 8-byte-aligned raw memory region.
///
/// Offsets are `u64` byte offsets from the start of the region. Offset `0`
/// is a valid byte but the managed heap never allocates an object there, so
/// address `0` can represent `null` one layer up.
///
/// Beyond its owned capacity an arena may carry *mapped* read-only windows
/// onto other arenas (attached segments). Reads resolve through the
/// mapping; any store, CAS, or zero into a mapped range fails with
/// [`Error::SegmentReadOnly`].
pub struct Arena {
    ptr: *mut u8,
    len: usize,
    maps: Vec<SegMap>,
}

// SAFETY: the arena itself is just memory; synchronization discipline is the
// responsibility of the owning heap (single mutator, or the documented
// race-free Skyway sender protocol using the atomic accessors).
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl Arena {
    /// Allocates a zeroed arena of `len` bytes (rounded up to 8).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArenaAlloc`] if the allocation fails or `len` is 0.
    pub fn new(len: usize) -> Result<Self> {
        let len = len.checked_add(7).ok_or(Error::ArenaAlloc(len))? & !7usize;
        if len == 0 {
            return Err(Error::ArenaAlloc(len));
        }
        let layout = Layout::from_size_align(len, 8).map_err(|_| Error::ArenaAlloc(len))?;
        // SAFETY: layout has non-zero size (checked above).
        let ptr = unsafe { alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(Error::ArenaAlloc(len));
        }
        Ok(Arena { ptr, len, maps: Vec::new() })
    }

    /// The first `len` bytes of owned memory as 8-byte words, for bulk
    /// read-only passes (the segment checksum). The caller guarantees that
    /// nothing stores into that range while the slice is alive — true of
    /// sealed segment memory, which is never written again.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`] (`len` must be a
    /// multiple of 8).
    pub(crate) fn words(&self, len: u64) -> Result<&[u64]> {
        self.check(0, len as usize)?;
        if !len.is_multiple_of(8) {
            return Err(Error::Misaligned { off: len, align: 8 });
        }
        // SAFETY: `ptr` is 8-aligned (allocation layout) and the first
        // `len` bytes are in bounds (checked above) and initialized (the
        // arena is zeroed at allocation); no writer runs during the borrow
        // per this function's contract.
        Ok(unsafe { std::slice::from_raw_parts(self.ptr as *const u64, (len / 8) as usize) })
    }

    /// Maps `len` bytes of `mem` into this arena's offset space at `base`,
    /// read-only. Reads at `[base, base + len)` resolve into `mem`; writes
    /// there fail with [`Error::SegmentReadOnly`]. The caller (the heap's
    /// attach path) guarantees `base` is disjoint from the owned range and
    /// from every existing mapping.
    pub(crate) fn map_range(&mut self, base: u64, len: u64, mem: Arc<Arena>) {
        self.maps.push(SegMap { base, len, mem });
    }

    /// Removes the mapping at `base`, returning whether one existed.
    pub(crate) fn unmap_range(&mut self, base: u64) -> bool {
        let before = self.maps.len();
        self.maps.retain(|m| m.base != base);
        self.maps.len() != before
    }

    /// Resolves an access that missed the owned range into a mapped
    /// window: the backing arena plus the window-relative offset.
    #[inline]
    fn route(&self, off: u64, size: usize) -> Option<(&Arena, u64)> {
        for m in &self.maps {
            let end = off.checked_add(size as u64)?;
            if off >= m.base && end <= m.base.checked_add(m.len)? {
                return Some((&m.mem, off - m.base));
            }
        }
        None
    }

    /// True if `off` lands in a mapped (read-only) window.
    #[inline]
    fn routed_write(&self, off: u64, size: usize) -> Option<Error> {
        self.route(off, size).map(|_| Error::SegmentReadOnly { off })
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the arena has zero capacity (never true for a live arena).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, off: u64, size: usize) -> Result<usize> {
        let off = off as usize;
        let end = off.checked_add(size).ok_or(Error::OutOfBounds { off: off as u64, size })?;
        if end > self.len {
            return Err(Error::OutOfBounds { off: off as u64, size });
        }
        Ok(off)
    }

    #[inline]
    fn check_aligned(&self, off: u64, size: usize) -> Result<usize> {
        let o = self.check(off, size)?;
        if o % size != 0 {
            return Err(Error::Misaligned { off, align: size });
        }
        Ok(o)
    }

    /// Reads an 8-byte word at an 8-aligned offset.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn load_word(&self, off: u64) -> Result<u64> {
        match self.check_aligned(off, 8) {
            // SAFETY: bounds and alignment checked.
            Ok(o) => Ok(unsafe { (self.ptr.add(o) as *const u64).read() }),
            Err(e) => match self.route(off, 8) {
                Some((mem, rel)) => mem.load_word(rel),
                None => Err(e),
            },
        }
    }

    /// Writes an 8-byte word at an 8-aligned offset.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn store_word(&self, off: u64, val: u64) -> Result<()> {
        match self.check_aligned(off, 8) {
            Ok(o) => {
                // SAFETY: bounds and alignment checked.
                unsafe { (self.ptr.add(o) as *mut u64).write(val) };
                Ok(())
            }
            Err(e) => Err(self.routed_write(off, 8).unwrap_or(e)),
        }
    }

    /// Atomically reads an 8-byte word (Acquire).
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn load_word_atomic(&self, off: u64) -> Result<u64> {
        match self.check_aligned(off, 8) {
            Ok(o) => {
                // SAFETY: bounds and alignment checked; AtomicU64 has the
                // same layout as u64.
                let a = unsafe { &*(self.ptr.add(o) as *const AtomicU64) };
                // ORDER: Acquire — pairs with the AcqRel CAS in `cas_word`
                // (the `baddr` claim protocol): a reader that observes a
                // claimed word also observes the claimer's earlier writes.
                Ok(a.load(Ordering::Acquire))
            }
            // Sealed segment words never change, so a plain read has
            // acquire semantics trivially.
            Err(e) => match self.route(off, 8) {
                Some((mem, rel)) => mem.load_word(rel),
                None => Err(e),
            },
        }
    }

    /// Atomically compare-and-swaps an 8-byte word (AcqRel on success).
    ///
    /// Returns `Ok(Ok(old))` on success and `Ok(Err(current))` if the word
    /// did not match `expected`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn cas_word(
        &self,
        off: u64,
        expected: u64,
        new: u64,
    ) -> Result<std::result::Result<u64, u64>> {
        match self.check_aligned(off, 8) {
            Ok(o) => {
                // SAFETY: bounds and alignment checked.
                let a = unsafe { &*(self.ptr.add(o) as *const AtomicU64) };
                // ORDER: AcqRel on success — the winning claim publishes
                // the claimer's prior writes to `load_word_atomic` readers
                // and orders it after the claims it contends with. Acquire
                // on failure: the loser reads the winner's value and must
                // see the writes it covers before reacting.
                Ok(a.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire))
            }
            Err(e) => Err(self.routed_write(off, 8).unwrap_or(e)),
        }
    }

    /// Reads a 4-byte value at a 4-aligned offset.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn load_u32(&self, off: u64) -> Result<u32> {
        match self.check_aligned(off, 4) {
            // SAFETY: bounds and alignment checked.
            Ok(o) => Ok(unsafe { (self.ptr.add(o) as *const u32).read() }),
            Err(e) => match self.route(off, 4) {
                Some((mem, rel)) => mem.load_u32(rel),
                None => Err(e),
            },
        }
    }

    /// Writes a 4-byte value at a 4-aligned offset.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn store_u32(&self, off: u64, val: u32) -> Result<()> {
        match self.check_aligned(off, 4) {
            Ok(o) => {
                // SAFETY: bounds and alignment checked.
                unsafe { (self.ptr.add(o) as *mut u32).write(val) };
                Ok(())
            }
            Err(e) => Err(self.routed_write(off, 4).unwrap_or(e)),
        }
    }

    /// Reads a 2-byte value at a 2-aligned offset.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn load_u16(&self, off: u64) -> Result<u16> {
        match self.check_aligned(off, 2) {
            // SAFETY: bounds and alignment checked.
            Ok(o) => Ok(unsafe { (self.ptr.add(o) as *const u16).read() }),
            Err(e) => match self.route(off, 2) {
                Some((mem, rel)) => mem.load_u16(rel),
                None => Err(e),
            },
        }
    }

    /// Writes a 2-byte value at a 2-aligned offset.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    #[inline]
    pub fn store_u16(&self, off: u64, val: u16) -> Result<()> {
        match self.check_aligned(off, 2) {
            Ok(o) => {
                // SAFETY: bounds and alignment checked.
                unsafe { (self.ptr.add(o) as *mut u16).write(val) };
                Ok(())
            }
            Err(e) => Err(self.routed_write(off, 2).unwrap_or(e)),
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`].
    #[inline]
    pub fn load_u8(&self, off: u64) -> Result<u8> {
        match self.check(off, 1) {
            // SAFETY: bounds checked.
            Ok(o) => Ok(unsafe { self.ptr.add(o).read() }),
            Err(e) => match self.route(off, 1) {
                Some((mem, rel)) => mem.load_u8(rel),
                None => Err(e),
            },
        }
    }

    /// Writes one byte.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`].
    #[inline]
    pub fn store_u8(&self, off: u64, val: u8) -> Result<()> {
        match self.check(off, 1) {
            Ok(o) => {
                // SAFETY: bounds checked.
                unsafe { self.ptr.add(o).write(val) };
                Ok(())
            }
            Err(e) => Err(self.routed_write(off, 1).unwrap_or(e)),
        }
    }

    /// Copies `len` bytes out of the arena into `dst`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`].
    pub fn read_bytes(&self, off: u64, dst: &mut [u8]) -> Result<()> {
        match self.check(off, dst.len()) {
            Ok(o) => {
                // SAFETY: bounds checked; dst is a distinct Rust allocation.
                unsafe {
                    std::ptr::copy_nonoverlapping(self.ptr.add(o), dst.as_mut_ptr(), dst.len())
                };
                Ok(())
            }
            Err(e) => match self.route(off, dst.len()) {
                Some((mem, rel)) => mem.read_bytes(rel, dst),
                None => Err(e),
            },
        }
    }

    /// Copies `dst.len()` 8-byte words out of the arena, starting at an
    /// 8-aligned offset: one bounds check for the whole range.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::Misaligned`].
    pub fn read_words(&self, off: u64, dst: &mut [u64]) -> Result<()> {
        let len = std::mem::size_of_val(dst);
        if !off.is_multiple_of(8) {
            return Err(Error::Misaligned { off, align: 8 });
        }
        match self.check(off, len) {
            Ok(o) => {
                // SAFETY: bounds checked; dst is a distinct Rust allocation
                // of exactly `len` bytes.
                unsafe {
                    std::ptr::copy_nonoverlapping(self.ptr.add(o), dst.as_mut_ptr().cast(), len)
                };
                Ok(())
            }
            Err(e) => match self.route(off, len) {
                Some((mem, rel)) => mem.read_words(rel, dst),
                None => Err(e),
            },
        }
    }

    /// Copies `src` into the arena at `off`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`].
    pub fn write_bytes(&self, off: u64, src: &[u8]) -> Result<()> {
        match self.check(off, src.len()) {
            Ok(o) => {
                // SAFETY: bounds checked; src is a distinct Rust allocation.
                unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(o), src.len()) };
                Ok(())
            }
            Err(e) => Err(self.routed_write(off, src.len()).unwrap_or(e)),
        }
    }

    /// Copies `len` bytes within the arena (regions may overlap). The
    /// source may lie in a mapped segment window; the destination must be
    /// owned, writable memory.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::SegmentReadOnly`].
    pub fn copy_within(&self, src: u64, dst: u64, len: usize) -> Result<()> {
        let d = match self.check(dst, len) {
            Ok(d) => d,
            Err(e) => return Err(self.routed_write(dst, len).unwrap_or(e)),
        };
        match self.check(src, len) {
            Ok(s) => {
                // SAFETY: both ranges bounds checked; copy handles overlap.
                unsafe { std::ptr::copy(self.ptr.add(s), self.ptr.add(d), len) };
                Ok(())
            }
            Err(e) => match self.route(src, len) {
                Some((mem, rel)) => {
                    // Mapped source and owned destination never overlap.
                    let mut tmp = vec![0u8; len];
                    mem.read_bytes(rel, &mut tmp)?;
                    self.write_bytes(dst, &tmp)
                }
                None => Err(e),
            },
        }
    }

    /// Zeroes `len` bytes starting at `off`.
    ///
    /// # Errors
    /// [`Error::OutOfBounds`] / [`Error::SegmentReadOnly`].
    pub fn zero(&self, off: u64, len: usize) -> Result<()> {
        match self.check(off, len) {
            Ok(o) => {
                // SAFETY: bounds checked.
                unsafe { std::ptr::write_bytes(self.ptr.add(o), 0, len) };
                Ok(())
            }
            Err(e) => Err(self.routed_write(off, len).unwrap_or(e)),
        }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        if !self.ptr.is_null() && self.len > 0 {
            // SAFETY: allocated with the identical layout in `new`.
            unsafe {
                dealloc(self.ptr, Layout::from_size_align_unchecked(self.len, 8));
            }
        }
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_on_alloc() {
        let a = Arena::new(1024).unwrap();
        for off in (0..1024).step_by(8) {
            assert_eq!(a.load_word(off as u64).unwrap(), 0);
        }
    }

    #[test]
    fn word_roundtrip() {
        let a = Arena::new(64).unwrap();
        a.store_word(8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(a.load_word(8).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let a = Arena::new(64).unwrap();
        assert!(matches!(a.load_word(64), Err(Error::OutOfBounds { .. })));
        assert!(matches!(a.store_word(60, 1), Err(Error::OutOfBounds { .. })));
        assert!(matches!(a.load_u8(64), Err(Error::OutOfBounds { .. })));
    }

    #[test]
    fn rejects_misaligned() {
        let a = Arena::new(64).unwrap();
        assert!(matches!(a.load_word(4), Err(Error::Misaligned { .. })));
        assert!(matches!(a.load_u32(2), Err(Error::Misaligned { .. })));
        assert!(matches!(a.load_u16(1), Err(Error::Misaligned { .. })));
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Arena::new(64).unwrap();
        a.write_bytes(3, b"skyway").unwrap();
        let mut buf = [0u8; 6];
        a.read_bytes(3, &mut buf).unwrap();
        assert_eq!(&buf, b"skyway");
    }

    #[test]
    fn overlapping_copy_within() {
        let a = Arena::new(64).unwrap();
        a.write_bytes(0, b"abcdef").unwrap();
        a.copy_within(0, 2, 6).unwrap();
        let mut buf = [0u8; 8];
        a.read_bytes(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ababcdef");
    }

    #[test]
    fn cas_success_and_failure() {
        let a = Arena::new(64).unwrap();
        a.store_word(16, 7).unwrap();
        assert_eq!(a.cas_word(16, 7, 9).unwrap(), Ok(7));
        assert_eq!(a.cas_word(16, 7, 11).unwrap(), Err(9));
        assert_eq!(a.load_word_atomic(16).unwrap(), 9);
    }

    #[test]
    fn zero_range() {
        let a = Arena::new(64).unwrap();
        a.store_word(8, u64::MAX).unwrap();
        a.zero(8, 8).unwrap();
        assert_eq!(a.load_word(8).unwrap(), 0);
    }

    #[test]
    fn concurrent_cas_claims_once() {
        use std::sync::Arc;
        let a = Arc::new(Arena::new(64).unwrap());
        let winners: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let a = Arc::clone(&a);
                    s.spawn(move || a.cas_word(32, 0, i + 1).unwrap().is_ok() as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(winners, 1);
        assert_ne!(a.load_word_atomic(32).unwrap(), 0);
    }
}
