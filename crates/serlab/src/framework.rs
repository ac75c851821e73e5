//! The serialization framework: the [`Serializer`] trait every S/D library
//! (and Skyway's adapter) implements, byte-stream primitives, per-class
//! field plans, and a temp-rooted deserialization scratchpad.
//!
//! A serializer turns the object graphs reachable from a set of root
//! objects in one VM's managed heap into a byte sequence, and rebuilds them
//! in another VM's heap. The cost *shape* of each library — reflective
//! string lookups vs. compiled field plans vs. Skyway's format-preserving
//! copy — is the subject of the paper's Figure 7.

use mheap::{Addr, FieldType, Klass, PrimType, Vm};
use simnet::{Category, Profile};

use crate::{Error, Result};

/// A serialization/deserialization library under test.
///
/// ```
/// use std::sync::Arc;
/// use mheap::{ClassPath, HeapConfig, Vm};
/// use mheap::stdlib::define_core_classes;
/// use serlab::{JavaSerializer, Serializer};
/// use simnet::Profile;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cp = ClassPath::new();
/// define_core_classes(&cp);
/// let mut a = Vm::new("a", &HeapConfig::small(), Arc::clone(&cp))?;
/// let mut b = Vm::new("b", &HeapConfig::small(), cp)?;
/// let s = a.new_string("round trip")?;
/// let java = JavaSerializer::new();
/// let mut p = Profile::new();
/// let bytes = java.serialize(&mut a, &[s], &mut p)?;
/// let roots = java.deserialize(&mut b, &bytes, &mut p)?;
/// assert_eq!(b.read_string(roots[0])?, "round trip");
/// assert!(p.ser_invocations > 0); // unlike Skyway!
/// # Ok(())
/// # }
/// ```
pub trait Serializer: Send + Sync {
    /// Display name as it appears in figures (e.g. `"kryo-manual"`).
    fn name(&self) -> &str;

    /// Serializes the object graphs rooted at `roots` into bytes.
    ///
    /// Implementations must count per-object function invocations into
    /// `profile.ser_invocations` (time is charged by
    /// [`serialize_profiled`]).
    ///
    /// # Errors
    /// Implementation-specific encoding errors.
    fn serialize(&self, vm: &mut Vm, roots: &[Addr], profile: &mut Profile) -> Result<Vec<u8>>;

    /// Rebuilds the object graphs in `vm`, returning the root addresses in
    /// the order they were serialized.
    ///
    /// # Errors
    /// Implementation-specific decoding errors.
    fn deserialize(&self, vm: &mut Vm, bytes: &[u8], profile: &mut Profile) -> Result<Vec<Addr>>;

    /// Whether this library preserves aliasing (two references to one
    /// object stay one object). Tree-only formats duplicate shared objects,
    /// like their real-world counterparts.
    fn preserves_sharing(&self) -> bool {
        true
    }
}

/// Runs [`Serializer::serialize`], charging the calling thread's CPU time
/// to `Ser` (a node whose task shares a core is not billed for waiting).
///
/// # Errors
/// Propagates the serializer's error.
pub fn serialize_profiled(
    s: &dyn Serializer,
    vm: &mut Vm,
    roots: &[Addr],
    profile: &mut Profile,
) -> Result<Vec<u8>> {
    let t0 = obs::thread_cpu_ns();
    let r = s.serialize(vm, roots, profile);
    let ns = obs::thread_cpu_ns().saturating_sub(t0);
    profile.add_ns(Category::Ser, ns);
    let reg = obs::global();
    reg.histogram(&format!("serlab.{}.serialize_ns", s.name())).record(ns);
    if let Ok(bytes) = &r {
        reg.counter(&format!("serlab.{}.ser_bytes", s.name())).add(bytes.len() as u64);
        reg.counter(&format!("serlab.{}.ser_calls", s.name())).inc();
    }
    r
}

/// Runs [`Serializer::deserialize`], charging the calling thread's CPU time
/// to `Deser`.
///
/// # Errors
/// Propagates the serializer's error.
pub fn deserialize_profiled(
    s: &dyn Serializer,
    vm: &mut Vm,
    bytes: &[u8],
    profile: &mut Profile,
) -> Result<Vec<Addr>> {
    let t0 = obs::thread_cpu_ns();
    let r = s.deserialize(vm, bytes, profile);
    let ns = obs::thread_cpu_ns().saturating_sub(t0);
    profile.add_ns(Category::Deser, ns);
    let reg = obs::global();
    reg.histogram(&format!("serlab.{}.deserialize_ns", s.name())).record(ns);
    if r.is_ok() {
        reg.counter(&format!("serlab.{}.deser_bytes", s.name())).add(bytes.len() as u64);
        reg.counter(&format!("serlab.{}.deser_calls", s.name())).inc();
    }
    r
}

// ---------------------------------------------------------------------------
// byte streams
// ---------------------------------------------------------------------------

/// Growable little-endian byte sink with varint support.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(n) }
    }

    /// Finishes, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes two bytes LE.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes four bytes LE.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes eight bytes LE.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an unsigned LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                break;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Writes a zig-zag-encoded signed varint.
    pub fn varint_signed(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a byte slice, mirror of [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Truncated { at: self.pos, wanted: n });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`Error::Truncated`].
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads two bytes LE.
    ///
    /// # Errors
    /// [`Error::Truncated`].
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads four bytes LE.
    ///
    /// # Errors
    /// [`Error::Truncated`].
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads eight bytes LE.
    ///
    /// # Errors
    /// [`Error::Truncated`].
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    /// [`Error::Truncated`] / [`Error::Malformed`] for over-long varints.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(Error::Malformed("varint longer than 10 bytes".into()));
            }
        }
    }

    /// Reads a zig-zag-encoded signed varint.
    ///
    /// # Errors
    /// As [`ByteReader::varint`].
    pub fn varint_signed(&mut self) -> Result<i64> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`Error::Truncated`] / [`Error::Malformed`] for invalid UTF-8.
    pub fn string(&mut self) -> Result<String> {
        let n = self.varint()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| Error::Malformed("invalid UTF-8".into()))
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    /// [`Error::Truncated`].
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

// ---------------------------------------------------------------------------
// field plans
// ---------------------------------------------------------------------------

/// A "compiled" field accessor: direct offset, no name lookup. This is what
/// Kryo's generated serializers and schema compilers (Colfer, protostuff)
/// amount to; the Java serializer instead resolves names reflectively on
/// every access.
#[derive(Debug, Clone)]
pub struct FieldPlan {
    /// Field name (kept for formats that need it).
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
    /// Byte offset within the object.
    pub offset: u64,
}

/// Builds the compiled plan for a klass (field order = layout order).
pub fn field_plans(klass: &Klass) -> Vec<FieldPlan> {
    klass
        .fields
        .iter()
        .map(|f| FieldPlan { name: f.name.clone(), ty: f.ty, offset: f.offset })
        .collect()
}

/// Encodes a primitive by wire width (full fixed-width little-endian).
pub fn write_prim_fixed(w: &mut ByteWriter, ty: PrimType, bits: u64) {
    match ty.size() {
        1 => w.u8(bits as u8),
        2 => w.u16(bits as u16),
        4 => w.u32(bits as u32),
        _ => w.u64(bits),
    }
}

/// Decodes a primitive written by [`write_prim_fixed`].
///
/// # Errors
/// [`Error::Truncated`].
pub fn read_prim_fixed(r: &mut ByteReader<'_>, ty: PrimType) -> Result<u64> {
    Ok(match ty.size() {
        1 => u64::from(r.u8()?),
        2 => u64::from(r.u16()?),
        4 => u64::from(r.u32()?),
        _ => r.u64()?,
    })
}

// ---------------------------------------------------------------------------
// temp-rooted deserialization scratchpad
// ---------------------------------------------------------------------------

/// Tracks every object a deserializer allocates as a GC temp root, so that
/// collections triggered mid-rebuild cannot invalidate the id→object table.
/// Objects are referred to by dense ids; addresses are re-read after any
/// allocation.
#[derive(Debug)]
pub struct RebuildArena {
    base: usize,
    count: usize,
}

impl RebuildArena {
    /// Starts a rebuild session on `vm`.
    pub fn new(vm: &Vm) -> Self {
        let _ = vm;
        RebuildArena { base: usize::MAX, count: 0 }
    }

    /// Registers a freshly allocated object, returning its dense id.
    pub fn push(&mut self, vm: &mut Vm, addr: Addr) -> usize {
        let idx = vm.push_temp_root(addr);
        if self.count == 0 {
            self.base = idx;
        }
        debug_assert_eq!(idx, self.base + self.count);
        self.count += 1;
        self.count - 1
    }

    /// Current address of object `id` (safe across GCs).
    pub fn get(&self, vm: &Vm, id: usize) -> Addr {
        vm.temp_root(self.base + id)
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Ends the session, unrooting everything and returning the current
    /// addresses of the requested ids.
    pub fn finish(self, vm: &mut Vm, keep: &[usize]) -> Vec<Addr> {
        let kept: Vec<Addr> = keep.iter().map(|&i| vm.temp_root(self.base + i)).collect();
        for _ in 0..self.count {
            vm.pop_temp_root();
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.varint(0);
        w.varint(127);
        w.varint(128);
        w.varint(u64::MAX);
        w.varint_signed(-1);
        w.varint_signed(i64::MIN);
        w.string("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.varint().unwrap(), 0);
        assert_eq!(r.varint().unwrap(), 127);
        assert_eq!(r.varint().unwrap(), 128);
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.varint_signed().unwrap(), -1);
        assert_eq!(r.varint_signed().unwrap(), i64::MIN);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.position(), bytes.len(), "every byte read");
    }

    #[test]
    fn truncated_reads_error() {
        let bytes = [1u8, 2];
        let mut r = ByteReader::new(&bytes);
        assert!(r.u32().is_err());
        // Position unchanged after failed read start? take() is atomic.
        assert_eq!(r.u16().unwrap(), 0x0201);
    }

    #[test]
    fn malformed_varint_errors() {
        let bytes = [0xffu8; 11];
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.varint(), Err(Error::Malformed(_))));
    }

    #[test]
    fn varint_sizes_are_compact() {
        let mut w = ByteWriter::new();
        w.varint(5);
        assert_eq!(w.len(), 1);
        let mut w = ByteWriter::new();
        w.varint(300);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn rebuild_arena_tracks_objects_across_gc() {
        use mheap::stdlib::define_core_classes;
        use mheap::{ClassPath, HeapConfig, Vm};
        let cp = ClassPath::new();
        define_core_classes(&cp);
        let mut vm = Vm::new("arena", &HeapConfig::small(), cp).unwrap();
        let mut arena = RebuildArena::new(&vm);
        let mut ids = Vec::new();
        for i in 0..10 {
            let s = vm.new_string(&format!("obj {i}")).unwrap();
            ids.push(arena.push(&mut vm, s));
        }
        assert_eq!(arena.len(), 10);
        // A GC moves everything; arena ids must still resolve.
        vm.minor_gc().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            let a = arena.get(&vm, id);
            assert_eq!(vm.read_string(a).unwrap(), format!("obj {i}"));
        }
        let kept = arena.finish(&mut vm, &[ids[3], ids[7]]);
        assert_eq!(kept.len(), 2);
        assert_eq!(vm.read_string(kept[0]).unwrap(), "obj 3");
        assert_eq!(vm.read_string(kept[1]).unwrap(), "obj 7");
    }

    #[test]
    fn field_plans_follow_layout_order() {
        use mheap::{ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};
        let cp = ClassPath::new();
        cp.define(KlassDef::new(
            "Planned",
            None,
            vec![
                ("tiny", FieldType::Prim(PrimType::Byte)),
                ("big", FieldType::Prim(PrimType::Long)),
                ("r", FieldType::Ref),
            ],
        ));
        let vm = Vm::new("plans", &HeapConfig::small(), cp).unwrap();
        let kid = vm.load_class("Planned").unwrap();
        let k = vm.klasses().get(kid).unwrap();
        let plan = field_plans(k);
        assert_eq!(plan.len(), 3);
        // Layout order = size-descending: big/r (8) before tiny (1).
        assert_eq!(plan[0].name, "big");
        assert_eq!(plan[1].name, "r");
        assert_eq!(plan[2].name, "tiny");
        assert!(plan.windows(2).all(|w| w[0].offset < w[1].offset));
    }

    #[test]
    fn prim_fixed_roundtrip() {
        for (ty, bits) in [
            (PrimType::Bool, 1u64),
            (PrimType::Byte, 0xf0),
            (PrimType::Char, 0xbeef),
            (PrimType::Int, 0xdead_beef),
            (PrimType::Double, 0x0123_4567_89ab_cdef),
        ] {
            let mut w = ByteWriter::new();
            write_prim_fixed(&mut w, ty, bits);
            let b = w.into_bytes();
            assert_eq!(b.len(), ty.size() as usize);
            let mut r = ByteReader::new(&b);
            assert_eq!(read_prim_fixed(&mut r, ty).unwrap(), bits);
        }
    }
}
