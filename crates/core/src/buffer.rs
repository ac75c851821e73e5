//! Output buffers: native (non-heap) memory that objects are cloned into,
//! flushed in chunks to a sink (paper §3.2, §4.2).
//!
//! Output buffers live *outside* the managed heap so the GC cannot reclaim
//! objects mid-transfer. Relative ("logical") addresses assigned during
//! relativization are gapless and keep growing across flushes —
//! `flushed_bytes` converts between the logical space and the physical
//! buffer. The byte stream cut into chunks at flush points *is* the logical
//! space; objects never span a chunk boundary (the flush happens when the
//! next object does not fit).
//!
//! Each wire chunk ends in a [`TRAILER`] written where the chunk is cut:
//! the payload's stream offset, then a checksum over payload and offset
//! ([`mheap::segment::checksum_words`]). The receiver checks both with
//! [`open_chunk`] before its one copy into the heap, so a flipped bit, a
//! duplicated, reordered or lost chunk is a typed error, never a wrong
//! field. Trailers are not stream bytes: no logical address, statistic or
//! chunk limit counts them. A segment image is never cut and has none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mheap::segment::checksum_words;

use crate::{Error, Result};

/// Marker word: the next object in the stream is a top-level (root) object
/// (§4.2 "Root Object Recognition").
pub const TOP_MARK: u64 = 0xffff_ffff_ffff_fff0;

/// Marker word: the following word is the logical address (+1) of an
/// already-transferred root — the paper's "backward reference" for a root
/// that was copied earlier in the same shuffle phase.
pub const TOP_REF: u64 = 0xffff_ffff_ffff_fff1;

/// Default chunk size (1 MiB).
pub const DEFAULT_CHUNK: usize = 1 << 20;

/// Bytes after each wire chunk's payload: its stream offset and checksum.
pub const TRAILER: usize = 16;

/// A reusable pool of chunk backings shared between output buffers and the
/// consumers that drain their chunks. In steady state a pipelined transfer
/// cycles the same handful of `Vec`s — sender acquires, receiver releases —
/// so per-chunk heap allocation drops to zero after warm-up.
#[derive(Debug, Default)]
pub struct ChunkPool {
    free: parking_lot::Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ChunkPool {
    /// An empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(ChunkPool::default())
    }

    /// The process-wide per-node pool. Every [`crate::pipeline::PipelineEngine`]
    /// draws from it by default, so back-to-back transfers — even through
    /// different engines — recycle the same chunk backings instead of
    /// re-allocating per transfer. Tests that assert exact hit/miss counts
    /// should use an explicit pool ([`ChunkPool::new`]) instead: the global
    /// counters aggregate every transfer in the process.
    pub fn global() -> &'static Arc<ChunkPool> {
        static GLOBAL: std::sync::OnceLock<Arc<ChunkPool>> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ChunkPool::new)
    }

    /// Hands out an empty `Vec` with at least `cap` capacity, preferring a
    /// recycled backing (a *hit*) over a fresh allocation (a *miss*). Best
    /// fit — the smallest parked backing that is large enough — so a chunk
    /// request never walks off with the multi-megabyte backing a segment
    /// seal parked here and will ask for again.
    pub fn acquire(&self, cap: usize) -> Vec<u8> {
        let recycled = {
            let mut free = self.free.lock();
            let idx = (0..free.len())
                .filter(|&i| free[i].capacity() >= cap)
                .min_by_key(|&i| free[i].capacity());
            idx.map(|i| free.swap_remove(i))
        };
        match recycled {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a chunk backing to the pool (cleared, capacity kept).
    pub fn release(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        self.free.lock().push(v);
    }

    /// Number of backings currently parked in the pool.
    // tidy:allow(unreached-pub, read by buffer's pool tests and segstore's global_pool test)
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    /// Acquisitions served from the pool so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to allocate fresh memory so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// An output buffer bound to one destination/stream.
#[derive(Debug)]
pub struct OutputBuffer {
    data: Vec<u8>,
    chunk_limit: usize,
    /// Bytes already flushed out of the physical buffer (the paper's
    /// `ob.flushedBytes`).
    pub flushed_bytes: u64,
    /// Next logical allocation address (the paper's `ob.allocableAddr`).
    pub allocable_addr: u64,
    chunks: Vec<Vec<u8>>,
    pool: Option<Arc<ChunkPool>>,
    /// Whether a cut chunk gets its [`TRAILER`] (a segment image does not).
    pub(crate) trailers: bool,
}

impl OutputBuffer {
    /// Creates a buffer with the given flush threshold.
    pub fn new(chunk_limit: usize) -> Self {
        OutputBuffer {
            data: Vec::with_capacity(chunk_limit.min(DEFAULT_CHUNK) + TRAILER),
            chunk_limit: chunk_limit.max(64),
            flushed_bytes: 0,
            allocable_addr: 0,
            chunks: Vec::new(),
            pool: None,
            trailers: true,
        }
    }

    /// Creates a buffer whose chunk backings come from (and should be
    /// released back to) `pool`. The backing for each chunk is acquired
    /// lazily on first placement, so a final flush never strands a buffer.
    pub fn new_pooled(chunk_limit: usize, pool: Arc<ChunkPool>) -> Self {
        OutputBuffer {
            data: Vec::new(),
            chunk_limit: chunk_limit.max(64),
            flushed_bytes: 0,
            allocable_addr: 0,
            chunks: Vec::new(),
            pool: Some(pool),
            trailers: true,
        }
    }

    /// Logical bytes produced so far (flushed + pending).
    pub fn total_bytes(&self) -> u64 {
        self.flushed_bytes + self.data.len() as u64
    }

    /// Assigns logical space for an object of `size` bytes *without*
    /// consuming physical buffer space — this is the address-assignment of
    /// Algorithm 2 line 21/24. The physical bytes are reserved later by
    /// [`OutputBuffer::place`] when the object is popped from the gray
    /// queue, which is what lets earlier objects finish their reference
    /// patching before a flush cuts the stream.
    pub fn assign(&mut self, size: u64) -> u64 {
        let at = self.allocable_addr;
        self.allocable_addr += size;
        at
    }

    /// Reserves the physical bytes for a previously assigned logical
    /// address. Placements must happen in logical order (the gray queue is
    /// FIFO, so they do); if the object does not fit in the current chunk,
    /// the pending data is flushed first.
    ///
    /// # Errors
    /// [`Error::OutOfOrderPlacement`] if `logical` is not the next pending
    /// position.
    pub fn place(&mut self, logical: u64, size: u64) -> Result<()> {
        if self.data.len() + size as usize > self.chunk_limit && !self.data.is_empty() {
            self.flush();
        }
        if self.data.capacity() == 0 {
            if let Some(pool) = &self.pool {
                self.data = pool.acquire(self.chunk_limit + TRAILER);
            }
        }
        if logical != self.flushed_bytes + self.data.len() as u64 {
            return Err(Error::OutOfOrderPlacement {
                logical,
                expected: self.flushed_bytes + self.data.len() as u64,
            });
        }
        self.data.resize(self.data.len() + size as usize, 0);
        Ok(())
    }

    /// Assigns *and* places in one step (markers, which are emitted
    /// immediately).
    ///
    /// # Errors
    /// As [`OutputBuffer::place`].
    pub fn emit(&mut self, size: u64) -> Result<u64> {
        let at = self.assign(size);
        self.place(at, size)?;
        Ok(at)
    }

    /// Cuts the pending data into a chunk (no-op when empty), ending it in
    /// its trailer.
    pub fn flush(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let offset = self.flushed_bytes;
        self.flushed_bytes += self.data.len() as u64;
        if self.trailers {
            self.data.extend_from_slice(&offset.to_le_bytes());
            let sum = checksum_words(self.data.as_chunks::<8>().0, u64::from_le_bytes);
            self.data.extend_from_slice(&sum.to_le_bytes());
        }
        self.chunks.push(std::mem::take(&mut self.data));
    }

    /// Finishes the stream, returning all chunks.
    pub fn finish(mut self) -> Vec<Vec<u8>> {
        self.flush();
        self.chunks
    }

    /// Chunks flushed so far (streaming consumers may drain these early).
    pub fn take_ready_chunks(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.chunks)
    }

    fn phys(&self, logical: u64, len: usize) -> Result<usize> {
        let start = logical
            .checked_sub(self.flushed_bytes)
            .ok_or(Error::BufferUnderflow { logical, flushed: self.flushed_bytes })?
            as usize;
        if start + len > self.data.len() {
            return Err(Error::BufferUnderflow { logical, flushed: self.flushed_bytes });
        }
        Ok(start)
    }

    /// Writes an 8-byte word at a logical address (must not be flushed yet).
    ///
    /// # Errors
    /// [`Error::BufferUnderflow`] if the address was already flushed.
    pub fn write_word(&mut self, logical: u64, val: u64) -> Result<()> {
        let p = self.phys(logical, 8)?;
        self.data[p..p + 8].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    /// Writes raw bytes at a logical address.
    ///
    /// # Errors
    /// [`Error::BufferUnderflow`].
    pub fn write_bytes(&mut self, logical: u64, bytes: &[u8]) -> Result<()> {
        let p = self.phys(logical, bytes.len())?;
        self.data[p..p + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Mutable slice at a logical address (for direct heap→buffer copies).
    ///
    /// # Errors
    /// [`Error::BufferUnderflow`].
    pub fn slice_mut(&mut self, logical: u64, len: usize) -> Result<&mut [u8]> {
        let p = self.phys(logical, len)?;
        Ok(&mut self.data[p..p + len])
    }
}

/// The only frame version there is: 2, whose chunks end in trailers.
const FRAME_VERSION: u8 = 2;

/// Bytes before the first chunk: magic, version, flags, chunk count.
const FRAME_HEADER: usize = 10;

/// Frames a finished stream of chunks into one self-describing byte blob
/// (what a Spark shuffle file or a socket payload carries) — the one
/// container a Skyway stream travels in.
///
/// Layout: `magic "SKYW" | version u8 = 2 | flags u8 | chunk_count u32 |`
/// then per chunk `len u32 | bytes`, integers little-endian; a chunk's
/// bytes are its payload and its [`TRAILER`], and `len` counts both.
pub fn frame_chunks(chunks: &[Vec<u8>], flags: u8) -> Vec<u8> {
    let total: usize = chunks.iter().map(|c| c.len() + 4).sum();
    let mut out = Vec::with_capacity(total + FRAME_HEADER);
    out.extend_from_slice(b"SKYW");
    out.push(FRAME_VERSION);
    out.push(flags);
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for c in chunks {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c);
    }
    out
}

/// Parses a framed blob back into its flags and chunks (borrowed slices).
/// Every count and length in the blob is untrusted: the blob is only ever
/// split at positions its own remaining length has bounded, and nothing is
/// allocated for a count the blob could not hold.
///
/// # Errors
/// [`Error::FrameVersion`] for any version but 2; [`Error::BadFrame`] for a
/// wrong magic, a chunk count the blob cannot hold, or truncation.
pub fn parse_frames(blob: &[u8]) -> Result<(u8, Vec<&[u8]>)> {
    let Some((&[b'S', b'K', b'Y', b'W', version, flags, n @ ..], mut rest)) =
        blob.split_first_chunk::<FRAME_HEADER>()
    else {
        return Err(Error::BadFrame("missing SKYW magic".into()));
    };
    if version != FRAME_VERSION {
        return Err(Error::FrameVersion(version));
    }
    let n = u32::from_le_bytes(n) as usize;
    // Every chunk costs at least its length word.
    if n > rest.len() / 4 {
        return Err(Error::BadFrame(format!("{n} chunks cannot fit {} bytes", rest.len())));
    }
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        let (len, body) = rest
            .split_first_chunk::<4>()
            .ok_or_else(|| Error::BadFrame("truncated chunk header".into()))?;
        let (chunk, tail) = body
            .split_at_checked(u32::from_le_bytes(*len) as usize)
            .ok_or_else(|| Error::BadFrame("truncated chunk body".into()))?;
        chunks.push(chunk);
        rest = tail;
    }
    Ok((flags, chunks))
}

/// Checks a received chunk against its trailer and the stream offset
/// `expected` next, returning the payload.
///
/// # Errors
/// [`Error::BadFrame`] for a chunk that is not 8-aligned or has no room for
/// a trailer; [`Error::ChunkChecksum`] if payload or offset changed on the
/// way; [`Error::ChunkOutOfOrder`] for a chunk of another stream offset.
pub fn open_chunk(chunk: &[u8], expected: u64) -> Result<&[u8]> {
    let (words, []) = chunk.as_chunks::<8>() else {
        return Err(Error::BadFrame(format!("chunk length {} not 8-aligned", chunk.len())));
    };
    let Some((payload, [offset, sum])) = words.split_last_chunk::<2>() else {
        return Err(Error::BadFrame(format!("{}-byte chunk has no trailer", chunk.len())));
    };
    if checksum_words(&words[..words.len() - 1], u64::from_le_bytes) != u64::from_le_bytes(*sum) {
        return Err(Error::ChunkChecksum(expected));
    }
    let found = u64::from_le_bytes(*offset);
    if found != expected {
        return Err(Error::ChunkOutOfOrder { expected, found });
    }
    Ok(payload.as_flattened())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chunk's payload: all but its trailer.
    fn payload(c: &[u8]) -> &[u8] {
        &c[..c.len() - TRAILER]
    }

    #[test]
    fn logical_space_is_gapless_across_flushes() {
        let mut b = OutputBuffer::new(64);
        let a1 = b.emit(48).unwrap();
        let a2 = b.emit(48).unwrap(); // doesn't fit with a1 → flush first
        let a3 = b.emit(8).unwrap();
        assert_eq!(a1, 0);
        assert_eq!(a2, 48);
        assert_eq!(a3, 96);
        let chunks = b.finish();
        let total: usize = chunks.iter().map(|c| payload(c).len()).sum();
        assert_eq!(total, 104);
        // First chunk holds only the first object (flush-at-boundary).
        assert_eq!(payload(&chunks[0]).len(), 48);
    }

    #[test]
    fn assignment_does_not_consume_physical_space() {
        let mut b = OutputBuffer::new(64);
        let a1 = b.assign(32);
        let a2 = b.assign(32);
        assert_eq!((a1, a2), (0, 32));
        // Place in order; no flush needed (64 bytes fits exactly).
        b.place(a1, 32).unwrap();
        b.place(a2, 32).unwrap();
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn out_of_order_placement_errors() {
        let mut b = OutputBuffer::new(64);
        let _a1 = b.assign(16);
        let a2 = b.assign(16);
        assert!(matches!(b.place(a2, 16), Err(Error::OutOfOrderPlacement { .. })));
    }

    #[test]
    fn writes_after_flush_fail() {
        let mut b = OutputBuffer::new(64);
        let a1 = b.emit(48).unwrap();
        b.write_word(a1, 42).unwrap();
        let _a2 = b.emit(48).unwrap(); // flushes chunk 1
        assert!(matches!(b.write_word(a1, 7), Err(Error::BufferUnderflow { .. })));
    }

    #[test]
    fn oversized_object_gets_its_own_chunk() {
        let mut b = OutputBuffer::new(64);
        b.emit(8).unwrap();
        let big = b.emit(500).unwrap();
        assert_eq!(big, 8);
        let chunks = b.finish();
        assert_eq!(chunks.len(), 2);
        assert_eq!(payload(&chunks[1]).len(), 500);
    }

    #[test]
    fn word_roundtrip_via_frames() {
        let mut b = OutputBuffer::new(1024);
        let a = b.emit(16).unwrap();
        b.write_word(a, 0x1122_3344_5566_7788).unwrap();
        b.write_word(a + 8, TOP_MARK).unwrap();
        let chunks = b.finish();
        let blob = frame_chunks(&chunks, 3);
        let (flags, parsed) = parse_frames(&blob).unwrap();
        assert_eq!(flags, 3);
        assert_eq!(parsed.len(), 1);
        assert_eq!(u64::from_le_bytes(parsed[0][0..8].try_into().unwrap()), 0x1122_3344_5566_7788);
        assert_eq!(u64::from_le_bytes(parsed[0][8..16].try_into().unwrap()), TOP_MARK);
    }

    #[test]
    fn bad_frames_rejected() {
        assert!(parse_frames(b"nope").is_err());
        // Version 3 does not exist.
        assert!(parse_frames(b"SKYW\x03\x00\x00\x00\x00\x00").is_err());
        // Version 1 is rejected for its version, not for truncation.
        assert!(matches!(
            parse_frames(b"SKYW\x01\x00\x01\x00\x00\x00"),
            Err(Error::FrameVersion(1))
        ));
        let blob = frame_chunks(&[vec![1, 2, 3]], 0);
        assert!(parse_frames(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn frame_header_bytes_are_pinned() {
        let blob = frame_chunks(&[vec![0xaa, 0xbb, 0xcc], vec![]], 0b11);
        assert_eq!(blob, b"SKYW\x02\x03\x02\0\0\0\x03\0\0\0\xaa\xbb\xcc\0\0\0\0");
        assert_eq!(frame_chunks(&[], 0), b"SKYW\x02\0\0\0\0\0");
    }

    #[test]
    fn chunk_count_is_bounded_by_the_blob_before_allocating() {
        // Ten bytes claiming u32::MAX chunks: sizing a Vec by that count
        // would abort the process.
        let e = parse_frames(b"SKYW\x02\x00\xff\xff\xff\xff").unwrap_err();
        assert!(matches!(e, Error::BadFrame(_)), "{e}");
        // One more chunk than the body's length words can account for.
        let mut blob = frame_chunks(&[vec![], vec![]], 0);
        blob[6] = 3;
        assert!(matches!(parse_frames(&blob), Err(Error::BadFrame(_))));
    }

    #[test]
    fn only_version_two_parses() {
        for v in [0u8, 1, 3, 0xff] {
            let mut blob = frame_chunks(&[vec![7u8; 8]], 0);
            blob[4] = v;
            assert!(matches!(parse_frames(&blob), Err(Error::FrameVersion(w)) if w == v));
        }
    }

    /// Every chunk ends in its stream offset and a checksum over payload and
    /// offset; `open_chunk` hands back the payload only when both hold.
    #[test]
    fn trailers_catch_flips_duplicates_and_reorders() {
        let mut b = OutputBuffer::new(64);
        for v in 1..=3 {
            let at = b.emit(48).unwrap();
            b.write_word(at, v).unwrap();
        }
        let chunks = b.finish();
        assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [64; 3]);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(open_chunk(c, 48 * i as u64).unwrap(), payload(c));
        }
        for bit in 0..64 * 8 {
            let mut c = chunks[1].clone();
            c[bit / 8] ^= 1 << (bit % 8);
            assert!(matches!(open_chunk(&c, 48), Err(Error::ChunkChecksum(48))), "bit {bit}");
        }
        let e = open_chunk(&chunks[2], 48).unwrap_err();
        assert!(matches!(e, Error::ChunkOutOfOrder { expected: 48, found: 96 }), "{e}");
        assert!(matches!(open_chunk(&chunks[0][..8], 0), Err(Error::BadFrame(_))));
        assert!(matches!(open_chunk(&chunks[0][..20], 0), Err(Error::BadFrame(_))));
    }

    #[test]
    fn pooled_buffer_recycles_backings() {
        let pool = ChunkPool::new();
        let mut b = OutputBuffer::new_pooled(64, Arc::clone(&pool));
        b.emit(48).unwrap();
        b.emit(48).unwrap(); // flush #1
        let chunks = b.finish(); // flush #2
        assert_eq!(chunks.len(), 2);
        assert_eq!(pool.misses(), 2, "cold pool allocates every backing");
        assert_eq!(pool.hits(), 0);
        for c in chunks {
            pool.release(c);
        }
        assert_eq!(pool.idle(), 2);
        // A second stream of the same shape runs entirely on recycled
        // backings: zero new misses.
        let mut b = OutputBuffer::new_pooled(64, Arc::clone(&pool));
        b.emit(48).unwrap();
        b.emit(48).unwrap();
        let chunks = b.finish();
        assert_eq!(chunks.len(), 2);
        assert_eq!(pool.misses(), 2);
        assert_eq!(pool.hits(), 2);
        assert!(chunks.iter().all(|c| c.len() == 48 + TRAILER));
    }

    #[test]
    fn pool_acquire_respects_capacity() {
        let pool = ChunkPool::new();
        pool.release(Vec::with_capacity(16));
        // Too small for the request: a miss, small backing stays parked.
        let v = pool.acquire(1024);
        assert!(v.capacity() >= 1024);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.idle(), 1);
        // Small request reuses the parked backing.
        let v = pool.acquire(8);
        assert!(v.capacity() >= 8);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.idle(), 0);
        // Best fit: with a large backing parked *before* a small one, the
        // small request takes the small one and the large request still
        // hits.
        pool.release(Vec::with_capacity(1 << 20));
        pool.release(Vec::with_capacity(64));
        let small = pool.acquire(48);
        assert!(small.capacity() < 1 << 20, "small request took the large backing");
        let large = pool.acquire(1 << 19);
        assert!(large.capacity() >= 1 << 20);
        assert_eq!((pool.hits(), pool.misses(), pool.idle()), (3, 1, 0));
    }

    #[test]
    fn empty_stream_frames_cleanly() {
        let b = OutputBuffer::new(64);
        let chunks = b.finish();
        assert!(chunks.is_empty());
        let blob = frame_chunks(&chunks, 0);
        let (_, parsed) = parse_frames(&blob).unwrap();
        assert!(parsed.is_empty());
    }
}
