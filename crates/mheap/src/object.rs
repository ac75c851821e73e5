//! Typed object accessors: resolved field handles and by-name lookups.
//!
//! Two ways to reach a field, as on a JVM:
//!
//! * **Compiled access.** [`Vm::field_handle`] resolves a field once into a
//!   [`FieldHandle`]: the klass id it belongs to, its offset and its type.
//!   An access through the handle ([`Vm::int_field`], [`Vm::set_ref_field`],
//!   ...) compares the object's klass word with the handle's klass id and
//!   touches the slot, the way compiled bytecode uses a field offset the
//!   linker resolved. sparklite's records and the core library's strings
//!   and lists resolve their handles once and keep them.
//! * **By name.** [`Vm::get_int`], [`Vm::set_ref`], ... look the name up in
//!   the klass's field index on every call: the convenience and reflection
//!   path (tests, examples, the JSBS and Flink table builders, the boxed
//!   values and the hash map of the core library).
//!
//! Klass ids agree across every VM on a classpath, and a class's field
//! offsets across every VM of one object format ([`LayoutSpec`]), so a
//! handle resolved on one VM serves every VM of its classpath and format,
//! whether or not that VM has loaded the class yet. A handle used on a VM
//! of another classpath or format fails with a typed error.

use crate::klass::{FieldType, KlassId, PrimType};
use crate::layout::{Addr, LayoutSpec};
use crate::vm::Vm;
use crate::{Error, Result};

/// A typed primitive value read from / written to a field or array element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// 8-bit signed.
    Byte(i8),
    /// UTF-16 code unit.
    Char(u16),
    /// 16-bit signed.
    Short(i16),
    /// 32-bit signed.
    Int(i32),
    /// 32-bit float.
    Float(f32),
    /// 64-bit signed.
    Long(i64),
    /// 64-bit float.
    Double(f64),
}

impl Value {
    /// Raw bit pattern stored in the heap.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Bool(b) => u64::from(b),
            Value::Byte(v) => v as u8 as u64,
            Value::Char(v) => u64::from(v),
            Value::Short(v) => v as u16 as u64,
            Value::Int(v) => v as u32 as u64,
            Value::Float(v) => u64::from(v.to_bits()),
            Value::Long(v) => v as u64,
            Value::Double(v) => v.to_bits(),
        }
    }

    /// Decodes a raw bit pattern as `ty`.
    pub fn from_bits(ty: PrimType, bits: u64) -> Value {
        match ty {
            PrimType::Bool => Value::Bool(bits & 1 != 0),
            PrimType::Byte => Value::Byte(bits as u8 as i8),
            PrimType::Char => Value::Char(bits as u16),
            PrimType::Short => Value::Short(bits as u16 as i16),
            PrimType::Int => Value::Int(bits as u32 as i32),
            PrimType::Float => Value::Float(f32::from_bits(bits as u32)),
            PrimType::Long => Value::Long(bits as i64),
            PrimType::Double => Value::Double(f64::from_bits(bits)),
        }
    }

    /// The primitive type of this value.
    pub fn prim_type(self) -> PrimType {
        match self {
            Value::Bool(_) => PrimType::Bool,
            Value::Byte(_) => PrimType::Byte,
            Value::Char(_) => PrimType::Char,
            Value::Short(_) => PrimType::Short,
            Value::Int(_) => PrimType::Int,
            Value::Float(_) => PrimType::Float,
            Value::Long(_) => PrimType::Long,
            Value::Double(_) => PrimType::Double,
        }
    }
}

/// A field resolved once: the klass id it belongs to, its offset and its
/// declared type (see the module docs). `Copy`, so a job resolves its
/// handles once and captures them in every closure.
///
/// An access checks the object's klass word against [`FieldHandle::klass`]
/// with one compare: an object of any other class, a subclass included,
/// fails with [`Error::HandleMismatch`]. Klass ids number one classpath's
/// classes and offsets follow one object format's header, so the handle
/// also records the classpath and format it was resolved on: it is good
/// on every VM that shares both, and fails with
/// [`Error::HandleClassPathMismatch`] or [`Error::HandleFormatMismatch`]
/// on any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldHandle {
    klass: KlassId,
    offset: u64,
    ty: FieldType,
    classpath: u64,
    spec: LayoutSpec,
}

impl FieldHandle {
    /// The klass id the field was resolved for: what an allocation of the
    /// field's class passes to [`Vm::alloc_instance`].
    #[inline]
    pub fn klass(self) -> KlassId {
        self.klass
    }
}

impl Vm {
    /// Resolves field `name` of the class `class` into a handle. The class
    /// is loaded by number if this VM has not loaded it yet.
    ///
    /// ```
    /// use mheap::{ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};
    /// # fn main() -> mheap::Result<()> {
    /// let cp = ClassPath::new();
    /// cp.define(KlassDef::new("P", None, vec![("x", FieldType::Prim(PrimType::Int))]));
    /// let mut vm = Vm::new("doc", &HeapConfig::small(), cp)?;
    /// let k = vm.load_class("P")?;
    /// let x = vm.field_handle(k, "x")?;
    /// let p = vm.alloc_instance(k)?;
    /// vm.set_int_field(p, x, 7)?;
    /// assert_eq!(vm.int_field(p, x)?, 7);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// [`Error::UnknownKlass`] for an id the classpath never issued;
    /// [`Error::NoSuchField`] when the class has no such field.
    pub fn field_handle(&self, class: KlassId, name: &str) -> Result<FieldHandle> {
        let k = self.klasses.get(class).or_else(|_| self.load_numbered(class))?;
        match k.field_by_name(name) {
            Some(f) => Ok(FieldHandle {
                klass: class,
                offset: f.offset,
                ty: f.ty,
                classpath: self.classpath().id(),
                spec: self.spec(),
            }),
            None => Err(Error::NoSuchField { class: k.name.clone(), field: name.to_owned() }),
        }
    }

    /// The arena offset of `h`'s slot in `obj`, once the handle's
    /// classpath and format have matched this VM's and the object's klass
    /// word the handle's klass id.
    #[inline]
    fn slot(&self, obj: Addr, h: FieldHandle) -> Result<u64> {
        if obj.is_null() {
            return Err(Error::BadAddress(0));
        }
        if h.classpath != self.classpath().id() {
            return Err(Error::HandleClassPathMismatch { obj: obj.0 });
        }
        if h.spec != self.spec() {
            return Err(Error::HandleFormatMismatch {
                obj: obj.0,
                resolved: h.spec,
                used: self.spec(),
            });
        }
        let found = self.heap.arena().load_word(obj.0 + self.spec().klass_off())?;
        if found != u64::from(h.klass.0) {
            return Err(Error::HandleMismatch { obj: obj.0, expected: h.klass.0, found });
        }
        Ok(obj.0 + h.offset)
    }

    /// As [`Vm::slot`], for a primitive access of type `want`.
    #[inline]
    fn prim_slot(&self, obj: Addr, h: FieldHandle, want: PrimType) -> Result<u64> {
        if h.ty != FieldType::Prim(want) {
            return Err(self.handle_type_mismatch(h));
        }
        self.slot(obj, h)
    }

    /// As [`Vm::slot`], for a reference access.
    #[inline]
    fn ref_slot(&self, obj: Addr, h: FieldHandle) -> Result<u64> {
        if h.ty != FieldType::Ref {
            return Err(self.handle_type_mismatch(h));
        }
        self.slot(obj, h)
    }

    #[cold]
    fn handle_type_mismatch(&self, h: FieldHandle) -> Error {
        match self.klasses.get(h.klass).or_else(|_| self.load_numbered(h.klass)) {
            Ok(k) => {
                let field = k.fields.iter().find(|f| f.offset == h.offset);
                let field = field.map_or_else(|| format!("+{}", h.offset), |f| f.name.clone());
                Error::FieldTypeMismatch { class: k.name.clone(), field }
            }
            Err(e) => e,
        }
    }

    /// Reads an `Int` field through a handle.
    ///
    /// # Errors
    /// [`Error::BadAddress`] for null; [`Error::HandleClassPathMismatch`]
    /// or [`Error::HandleFormatMismatch`] for a handle resolved on a VM of
    /// another classpath or format; [`Error::HandleMismatch`] for an
    /// object of another class; [`Error::FieldTypeMismatch`] for a field
    /// that is not an `Int`.
    #[inline]
    pub fn int_field(&self, obj: Addr, h: FieldHandle) -> Result<i32> {
        Ok(self.heap.arena().load_u32(self.prim_slot(obj, h, PrimType::Int)?)? as i32)
    }

    /// Writes an `Int` field through a handle.
    ///
    /// # Errors
    /// As [`Vm::int_field`].
    #[inline]
    pub fn set_int_field(&mut self, obj: Addr, h: FieldHandle, v: i32) -> Result<()> {
        self.heap.arena().store_u32(self.prim_slot(obj, h, PrimType::Int)?, v as u32)
    }

    /// Reads a `Long` field through a handle.
    ///
    /// # Errors
    /// As [`Vm::int_field`], for `Long` fields.
    #[inline]
    pub fn long_field(&self, obj: Addr, h: FieldHandle) -> Result<i64> {
        Ok(self.heap.arena().load_word(self.prim_slot(obj, h, PrimType::Long)?)? as i64)
    }

    /// Writes a `Long` field through a handle.
    ///
    /// # Errors
    /// As [`Vm::long_field`].
    #[inline]
    pub fn set_long_field(&mut self, obj: Addr, h: FieldHandle, v: i64) -> Result<()> {
        self.heap.arena().store_word(self.prim_slot(obj, h, PrimType::Long)?, v as u64)
    }

    /// Reads a `Double` field through a handle.
    ///
    /// # Errors
    /// As [`Vm::int_field`], for `Double` fields.
    #[inline]
    pub fn double_field(&self, obj: Addr, h: FieldHandle) -> Result<f64> {
        let bits = self.heap.arena().load_word(self.prim_slot(obj, h, PrimType::Double)?)?;
        Ok(f64::from_bits(bits))
    }

    /// Writes a `Double` field through a handle.
    ///
    /// # Errors
    /// As [`Vm::double_field`].
    #[inline]
    pub fn set_double_field(&mut self, obj: Addr, h: FieldHandle, v: f64) -> Result<()> {
        self.heap.arena().store_word(self.prim_slot(obj, h, PrimType::Double)?, v.to_bits())
    }

    /// Reads a reference field through a handle.
    ///
    /// # Errors
    /// As [`Vm::int_field`], for reference fields.
    #[inline]
    pub fn ref_field(&self, obj: Addr, h: FieldHandle) -> Result<Addr> {
        Ok(Addr(self.heap.arena().load_word(self.ref_slot(obj, h)?)?))
    }

    /// Writes a reference field through a handle, with the write barrier
    /// of [`Vm::write_ref_at`].
    ///
    /// # Errors
    /// As [`Vm::ref_field`].
    #[inline]
    pub fn set_ref_field(&mut self, obj: Addr, h: FieldHandle, val: Addr) -> Result<()> {
        self.ref_slot(obj, h)?;
        self.write_ref_at(obj, h.offset, val)
    }
}

impl Vm {
    /// Offset and declared type of field `name` of `obj` — the two `Copy`
    /// facts an access needs; names are only built on the error paths.
    fn named_field(&self, obj: Addr, name: &str) -> Result<(u64, FieldType)> {
        let k = self.klass_of(obj)?;
        match k.field_by_name(name) {
            Some(f) => Ok((f.offset, f.ty)),
            None => Err(Error::NoSuchField { class: k.name.clone(), field: name.to_owned() }),
        }
    }

    fn type_mismatch(&self, obj: Addr, field: &str) -> Error {
        match self.klass_of(obj) {
            Ok(k) => Error::FieldTypeMismatch { class: k.name.clone(), field: field.to_owned() },
            Err(e) => e,
        }
    }

    /// Reads a primitive field by name.
    ///
    /// # Errors
    /// [`Error::NoSuchField`]; [`Error::FieldTypeMismatch`] for ref fields.
    pub fn get_prim(&self, obj: Addr, name: &str) -> Result<Value> {
        match self.named_field(obj, name)? {
            (offset, FieldType::Prim(p)) => {
                let bits = self.read_prim_raw(obj, offset, p.size())?;
                Ok(Value::from_bits(p, bits))
            }
            (_, FieldType::Ref) => Err(self.type_mismatch(obj, name)),
        }
    }

    /// Writes a primitive field by name.
    ///
    /// # Errors
    /// [`Error::NoSuchField`]; [`Error::FieldTypeMismatch`] when the value
    /// type does not match the declared field type.
    pub fn set_prim(&mut self, obj: Addr, name: &str, val: Value) -> Result<()> {
        match self.named_field(obj, name)? {
            (offset, FieldType::Prim(p)) if p == val.prim_type() => {
                self.write_prim_raw(obj, offset, p.size(), val.to_bits())
            }
            _ => Err(self.type_mismatch(obj, name)),
        }
    }

    /// Convenience: reads an `Int` field.
    ///
    /// # Errors
    /// As [`Vm::get_prim`], plus a mismatch error for non-int fields.
    pub fn get_int(&self, obj: Addr, name: &str) -> Result<i32> {
        match self.get_prim(obj, name)? {
            Value::Int(v) => Ok(v),
            _ => Err(self.type_mismatch(obj, name)),
        }
    }

    /// Convenience: writes an `Int` field.
    ///
    /// # Errors
    /// As [`Vm::set_prim`].
    pub fn set_int(&mut self, obj: Addr, name: &str, v: i32) -> Result<()> {
        self.set_prim(obj, name, Value::Int(v))
    }

    /// Convenience: reads a `Long` field.
    ///
    /// # Errors
    /// As [`Vm::get_prim`], plus a mismatch error for non-long fields.
    pub fn get_long(&self, obj: Addr, name: &str) -> Result<i64> {
        match self.get_prim(obj, name)? {
            Value::Long(v) => Ok(v),
            _ => Err(self.type_mismatch(obj, name)),
        }
    }

    /// Convenience: writes a `Long` field.
    ///
    /// # Errors
    /// As [`Vm::set_prim`].
    pub fn set_long(&mut self, obj: Addr, name: &str, v: i64) -> Result<()> {
        self.set_prim(obj, name, Value::Long(v))
    }

    /// Convenience: reads a `Double` field.
    ///
    /// # Errors
    /// As [`Vm::get_prim`], plus a mismatch error for non-double fields.
    pub fn get_double(&self, obj: Addr, name: &str) -> Result<f64> {
        match self.get_prim(obj, name)? {
            Value::Double(v) => Ok(v),
            _ => Err(self.type_mismatch(obj, name)),
        }
    }

    /// Convenience: writes a `Double` field.
    ///
    /// # Errors
    /// As [`Vm::set_prim`].
    pub fn set_double(&mut self, obj: Addr, name: &str, v: f64) -> Result<()> {
        self.set_prim(obj, name, Value::Double(v))
    }

    /// Reads a reference field by name.
    ///
    /// # Errors
    /// [`Error::NoSuchField`]; [`Error::FieldTypeMismatch`] for prim fields.
    pub fn get_ref(&self, obj: Addr, name: &str) -> Result<Addr> {
        match self.named_field(obj, name)? {
            (offset, FieldType::Ref) => self.read_ref_at(obj, offset),
            (_, FieldType::Prim(_)) => Err(self.type_mismatch(obj, name)),
        }
    }

    /// Writes a reference field by name (with write barrier).
    ///
    /// # Errors
    /// [`Error::NoSuchField`]; [`Error::FieldTypeMismatch`] for prim fields.
    pub fn set_ref(&mut self, obj: Addr, name: &str, val: Addr) -> Result<()> {
        match self.named_field(obj, name)? {
            (offset, FieldType::Ref) => self.write_ref_at(obj, offset, val),
            (_, FieldType::Prim(_)) => Err(self.type_mismatch(obj, name)),
        }
    }

    /// Reads a typed primitive array element.
    ///
    /// # Errors
    /// [`Error::IndexOutOfBounds`], [`Error::NotAnArray`].
    // tidy:allow(unreached-pub, read by object::tests::prim_array_type_safety)
    pub fn array_get(&self, obj: Addr, idx: u64) -> Result<Value> {
        let k = self.klass_of(obj)?;
        match k.kind {
            crate::klass::KlassKind::PrimArray(p) => {
                let bits = self.array_get_raw(obj, idx)?;
                Ok(Value::from_bits(p, bits))
            }
            _ => Err(Error::NotAnArray(k.name.clone())),
        }
    }

    /// Writes a typed primitive array element.
    ///
    /// # Errors
    /// [`Error::IndexOutOfBounds`], [`Error::NotAnArray`],
    /// [`Error::FieldTypeMismatch`] for wrong value types.
    // tidy:allow(unreached-pub, read by object::tests::prim_array_type_safety, field_handles)
    pub fn array_set(&mut self, obj: Addr, idx: u64, val: Value) -> Result<()> {
        let k = self.klass_of(obj)?;
        match k.kind {
            crate::klass::KlassKind::PrimArray(p) if p == val.prim_type() => {
                self.array_set_raw(obj, idx, val.to_bits())
            }
            crate::klass::KlassKind::PrimArray(_) => {
                Err(Error::FieldTypeMismatch { class: k.name.clone(), field: format!("[{idx}]") })
            }
            _ => Err(Error::NotAnArray(k.name.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_bits_roundtrip_every_type() {
        let cases = [
            Value::Bool(true),
            Value::Byte(-7),
            Value::Char(0xbeef),
            Value::Short(-30_000),
            Value::Int(i32::MIN),
            Value::Float(-0.5),
            Value::Long(i64::MAX),
            Value::Double(f64::MIN_POSITIVE),
        ];
        for v in cases {
            let back = Value::from_bits(v.prim_type(), v.to_bits());
            assert_eq!(back, v, "{v:?} did not round-trip through bits");
        }
    }

    #[test]
    fn typed_accessors_reject_wrong_types() {
        use crate::klass::{ClassPath, KlassDef};
        use crate::{HeapConfig, Vm};
        let cp = ClassPath::new();
        cp.define(KlassDef::new(
            "T",
            None,
            vec![("i", FieldType::Prim(PrimType::Int)), ("r", FieldType::Ref)],
        ));
        let mut vm = Vm::new("obj", &HeapConfig::small(), cp).unwrap();
        let k = vm.load_class("T").unwrap();
        let o = vm.alloc_instance(k).unwrap();
        // Prim accessor on a ref field and vice versa.
        assert!(matches!(vm.get_prim(o, "r"), Err(Error::FieldTypeMismatch { .. })));
        assert!(matches!(vm.get_ref(o, "i"), Err(Error::FieldTypeMismatch { .. })));
        // Wrong prim type on write.
        assert!(matches!(
            vm.set_prim(o, "i", Value::Long(1)),
            Err(Error::FieldTypeMismatch { .. })
        ));
        // Unknown field name.
        assert!(matches!(vm.get_int(o, "nope"), Err(Error::NoSuchField { .. })));
    }

    #[test]
    fn long_convenience_accessors() {
        use crate::klass::{ClassPath, KlassDef};
        use crate::{HeapConfig, Vm};
        let cp = ClassPath::new();
        cp.define(KlassDef::new(
            "L",
            None,
            vec![("v", FieldType::Prim(PrimType::Long)), ("d", FieldType::Prim(PrimType::Double))],
        ));
        let mut vm = Vm::new("obj", &HeapConfig::small(), cp).unwrap();
        let k = vm.load_class("L").unwrap();
        let o = vm.alloc_instance(k).unwrap();
        vm.set_long(o, "v", -1).unwrap();
        assert_eq!(vm.get_long(o, "v").unwrap(), -1);
        vm.set_double(o, "d", 2.5).unwrap();
        assert_eq!(vm.get_double(o, "d").unwrap(), 2.5);
        // get_long on a double field is a mismatch.
        assert!(matches!(vm.get_long(o, "d"), Err(Error::FieldTypeMismatch { .. })));
    }

    #[test]
    fn prim_array_type_safety() {
        use crate::klass::ClassPath;
        use crate::{HeapConfig, Vm};
        let cp = ClassPath::new();
        let mut vm = Vm::new("obj", &HeapConfig::small(), cp).unwrap();
        let ik = vm.load_class("[I").unwrap();
        let arr = vm.alloc_array(ik, 3).unwrap();
        vm.array_set(arr, 0, Value::Int(-5)).unwrap();
        assert_eq!(vm.array_get(arr, 0).unwrap(), Value::Int(-5));
        assert!(matches!(
            vm.array_set(arr, 1, Value::Long(1)),
            Err(Error::FieldTypeMismatch { .. })
        ));
        assert!(matches!(vm.array_get(arr, 9), Err(Error::IndexOutOfBounds { .. })));
    }
}
