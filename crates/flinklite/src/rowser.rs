//! Flink's built-in row serializer: statically-chosen per-field
//! serializers plus **lazy deserialization**.
//!
//! Per the paper (§5.3): "Flink can select a built-in serializer for each
//! field to use when creating tuples from the input" and "Flink does not
//! deserialize all fields of a row upon receiving it — only those involved
//! in the transformation are deserialized." That is why Flink's
//! deserialization time (8.7%) is so much smaller than its serialization
//! time (23.5%) — and it is the mechanism this serializer implements: a
//! per-class *lazy projection* tells the decoder which columns downstream
//! operators touch; all other columns are parsed past (varints skipped,
//! string payloads skipped) but never written to the heap and never
//! allocated.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use mheap::{Addr, FieldType, KlassKind, PrimType, Vm};
use parking_lot::Mutex;
use serlab::framework::{field_plans, FieldPlan, RebuildArena};
use serlab::{ByteReader, ByteWriter, Serializer};
use simnet::Profile;

use crate::{Error as FlinkError, Result as FlinkResult};

/// Type registry of the row serializer: class name ↔ compact id, fixed at
/// plan time on every node (Flink knows tuple types statically).
#[derive(Debug, Default)]
pub struct RowSchema {
    names: Vec<String>,
    ids: HashMap<String, u32>,
    lazy: HashMap<String, HashSet<String>>,
}

impl RowSchema {
    /// Builds the schema over the given row classes.
    pub fn new<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut s = RowSchema::default();
        for n in names {
            if !s.ids.contains_key(n) {
                let id = s.names.len() as u32;
                s.names.push(n.to_owned());
                s.ids.insert(n.to_owned(), id);
            }
        }
        s
    }

    /// Declares that downstream operators only read `fields` of `class`
    /// — receiving nodes lazily skip everything else.
    pub fn project(mut self, class: &str, fields: &[&str]) -> Self {
        self.lazy.insert(class.to_owned(), fields.iter().map(|s| (*s).to_owned()).collect());
        self
    }

    fn wanted(&self, class: &str, field: &str) -> bool {
        match self.lazy.get(class) {
            Some(set) => set.contains(field),
            None => true,
        }
    }
}

/// The built-in row serializer (the paper's Flink baseline).
#[derive(Debug)]
pub struct FlinkRowSerializer {
    schema: Arc<RowSchema>,
    plan_cache: Mutex<HashMap<u64, Arc<Vec<FieldPlan>>>>,
}

impl FlinkRowSerializer {
    /// Creates the serializer over a shared schema.
    pub fn new(schema: Arc<RowSchema>) -> Self {
        FlinkRowSerializer { schema, plan_cache: Mutex::new(HashMap::new()) }
    }

    fn plan(&self, k: &Arc<mheap::Klass>) -> Arc<Vec<FieldPlan>> {
        let key = k.uid;
        if let Some(p) = self.plan_cache.lock().get(&key) {
            return Arc::clone(p);
        }
        let p = Arc::new(field_plans(k));
        self.plan_cache.lock().insert(key, Arc::clone(&p));
        p
    }

    fn write_prim(w: &mut ByteWriter, p: PrimType, bits: u64) {
        match p {
            PrimType::Int => w.varint_signed(i64::from(bits as u32 as i32)),
            PrimType::Long => w.varint_signed(bits as i64),
            PrimType::Bool | PrimType::Byte => w.u8(bits as u8),
            PrimType::Char | PrimType::Short => w.u16(bits as u16),
            PrimType::Float => w.u32(bits as u32),
            PrimType::Double => w.u64(bits),
        }
    }

    fn read_prim(r: &mut ByteReader<'_>, p: PrimType) -> serlab::Result<u64> {
        Ok(match p {
            PrimType::Int => r.varint_signed()? as u32 as u64,
            PrimType::Long => r.varint_signed()? as u64,
            PrimType::Bool | PrimType::Byte => u64::from(r.u8()?),
            PrimType::Char | PrimType::Short => u64::from(r.u16()?),
            PrimType::Float => u64::from(r.u32()?),
            PrimType::Double => r.u64()?,
        })
    }

    fn skip_prim(r: &mut ByteReader<'_>, p: PrimType) -> serlab::Result<()> {
        // Parsing without materializing: this is the "lazy" saving.
        Self::read_prim(r, p).map(|_| ())
    }

    fn write_row(
        &self,
        vm: &Vm,
        w: &mut ByteWriter,
        row: Addr,
        profile: &mut Profile,
    ) -> FlinkResult<()> {
        profile.ser_invocations += 1;
        profile.objects_transferred += 1;
        let k = vm.klass_of(row).map_err(FlinkError::Heap)?;
        let tid = self
            .schema
            .ids
            .get(&k.name)
            .copied()
            .ok_or_else(|| FlinkError::UnknownRowClass(k.name.clone()))?;
        w.varint(u64::from(tid) + 1);
        let plan = self.plan(k);
        for f in plan.iter() {
            match f.ty {
                FieldType::Prim(p) => {
                    let bits =
                        vm.read_prim_raw(row, f.offset, p.size()).map_err(FlinkError::Heap)?;
                    Self::write_prim(w, p, bits);
                }
                FieldType::Ref => {
                    // Row fields may hold strings (built-in StringSerializer:
                    // length + UTF-16 units) or be null.
                    let s = vm.read_ref_at(row, f.offset).map_err(FlinkError::Heap)?;
                    if s.is_null() {
                        w.varint(0);
                    } else {
                        let text = vm.read_string(s).map_err(FlinkError::Heap)?;
                        w.varint(text.len() as u64 + 1);
                        w.raw(text.as_bytes());
                    }
                }
            }
        }
        Ok(())
    }

    fn read_row(
        &self,
        vm: &mut Vm,
        r: &mut ByteReader<'_>,
        arena: &mut RebuildArena,
        profile: &mut Profile,
    ) -> FlinkResult<usize> {
        profile.deser_invocations += 1;
        let tag = r.varint().map_err(FlinkError::Serde)?;
        if tag == 0 {
            return Err(FlinkError::Corrupt("null row tag".into()));
        }
        let cname = self
            .schema
            .names
            .get((tag - 1) as usize)
            .cloned()
            .ok_or_else(|| FlinkError::UnknownRowClass(format!("row tag {tag}")))?;
        let klass = vm.load_class(&cname).map_err(FlinkError::Heap)?;
        // Held across the allocating `&mut Vm` calls below.
        let k = Arc::clone(vm.klasses().get(klass).map_err(FlinkError::Heap)?);
        if k.kind != KlassKind::Instance {
            return Err(FlinkError::UnknownRowClass(cname));
        }
        let row = vm.alloc_instance(klass).map_err(FlinkError::Heap)?;
        let id = arena.push(vm, row);
        let plan = self.plan(&k);
        for f in plan.iter() {
            let wanted = self.schema.wanted(&cname, &f.name);
            match f.ty {
                FieldType::Prim(p) => {
                    if wanted {
                        let bits = Self::read_prim(r, p).map_err(FlinkError::Serde)?;
                        let row = arena.get(vm, id);
                        vm.write_prim_raw(row, f.offset, p.size(), bits)
                            .map_err(FlinkError::Heap)?;
                    } else {
                        Self::skip_prim(r, p).map_err(FlinkError::Serde)?;
                    }
                }
                FieldType::Ref => {
                    let n = r.varint().map_err(FlinkError::Serde)?;
                    if n == 0 {
                        continue; // null stays null
                    }
                    let raw = r.raw((n - 1) as usize).map_err(FlinkError::Serde)?;
                    if wanted {
                        // Materializing the string costs a char-array
                        // allocation + copy — exactly what laziness avoids
                        // for untouched columns.
                        let text = std::str::from_utf8(raw)
                            .map_err(|_| FlinkError::Corrupt("bad UTF-8 string column".into()))?
                            .to_owned();
                        let s = vm.new_string(&text).map_err(FlinkError::Heap)?;
                        let ts = vm.push_temp_root(s);
                        let row = arena.get(vm, id);
                        let s = vm.temp_root(ts);
                        vm.pop_temp_root();
                        vm.set_ref(row, &f.name, s).map_err(FlinkError::Heap)?;
                    }
                }
            }
        }
        Ok(id)
    }
}

impl Serializer for FlinkRowSerializer {
    fn name(&self) -> &str {
        "flink-builtin"
    }

    fn serialize(
        &self,
        vm: &mut Vm,
        roots: &[Addr],
        profile: &mut Profile,
    ) -> serlab::Result<Vec<u8>> {
        let mut w = ByteWriter::with_capacity(roots.len() * 48);
        w.varint(roots.len() as u64);
        for &row in roots {
            self.write_row(vm, &mut w, row, profile).map_err(to_serlab)?;
        }
        Ok(w.into_bytes())
    }

    fn deserialize(
        &self,
        vm: &mut Vm,
        bytes: &[u8],
        profile: &mut Profile,
    ) -> serlab::Result<Vec<Addr>> {
        let mut r = ByteReader::new(bytes);
        let n = r.varint()? as usize;
        let mut arena = RebuildArena::new(vm);
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(self.read_row(vm, &mut r, &mut arena, profile).map_err(to_serlab)?);
        }
        Ok(arena.finish(vm, &ids))
    }

    fn preserves_sharing(&self) -> bool {
        false
    }
}

fn to_serlab(e: FlinkError) -> serlab::Error {
    match e {
        FlinkError::Heap(h) => serlab::Error::Heap(h),
        FlinkError::Serde(s) => s,
        other => serlab::Error::Malformed(other.to_string()),
    }
}
