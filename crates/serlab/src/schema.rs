//! Schema-driven serializer family: one configurable engine standing in for
//! the schema-compiled and tag-value libraries of the JSBS population
//! (Fig. 7) — Colfer, protostuff, protobuf, Thrift, Avro, CBOR/Jackson, FST.
//!
//! All of these share a structure: a schema known on both sides, tree-shaped
//! encoding (no aliasing), and per-object encode/decode functions. They
//! differ along four axes this engine exposes:
//!
//! * **tagging** — positional (Colfer/FST-flat), varint field numbers
//!   (protobuf/protostuff), 16-bit field ids (Thrift), or full field *names*
//!   (CBOR/JSON-style, bloated and slow);
//! * **integer encoding** — varint vs fixed width;
//! * **dispatch** — compiled field plans ("manual"/generated code) vs
//!   runtime field-table lookups by name (`*-runtime` variants);
//! * **schema header** — Avro-style schema JSON written once per stream.

use std::collections::HashMap;
use std::sync::Arc;

use mheap::{Addr, FieldType, KlassKind, PrimType, Vm};
use parking_lot::Mutex;
use simnet::Profile;

use crate::framework::{
    field_plans, read_prim_fixed, write_prim_fixed, ByteReader, ByteWriter, FieldPlan,
    RebuildArena, Serializer,
};
use crate::{Error, Result};

const MAX_DEPTH: usize = 10_000;

/// How fields are identified on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tagging {
    /// No tags: fields in schema order (Colfer, FST-flat).
    Positional,
    /// Varint field numbers (protobuf, protostuff).
    FieldNumber,
    /// 16-bit field ids with a stop marker (Thrift).
    FieldId16,
    /// Full field-name strings (CBOR/JSON-with-names).
    FieldName,
}

/// Integer wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntEnc {
    /// Zig-zag varints for int/long.
    Varint,
    /// Fixed-width little-endian.
    Fixed,
}

/// Configuration of one schema-family serializer.
#[derive(Debug, Clone)]
pub struct SchemaConfig {
    /// Display name (Fig. 7 entrant label).
    pub name: String,
    /// Field identification.
    pub tagging: Tagging,
    /// Integer encoding.
    pub int_enc: IntEnc,
    /// If true, resolve fields by name at runtime instead of using the
    /// compiled plan (the `*-runtime` variants; slower).
    pub runtime_dispatch: bool,
    /// If true, write the full schema text once at stream start (Avro).
    pub schema_header: bool,
}

/// The shared type registry of a schema family: class name ↔ compact id,
/// derived from the schema at build time (both ends compile the same
/// schema, so ids agree by construction).
#[derive(Debug, Default)]
pub struct SchemaRegistry {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl SchemaRegistry {
    /// Builds a registry over the given class names (order-sensitive; both
    /// ends must use the same schema, as with real IDL compilers).
    pub fn new<'a>(names: impl IntoIterator<Item = &'a str>) -> Arc<Self> {
        let mut reg = SchemaRegistry::default();
        for n in names {
            if !reg.ids.contains_key(n) {
                let id = reg.names.len() as u32;
                reg.names.push(n.to_owned());
                reg.ids.insert(n.to_owned(), id);
            }
        }
        Arc::new(reg)
    }

    fn id_of(&self, name: &str) -> Result<u32> {
        self.ids.get(name).copied().ok_or_else(|| Error::Unregistered(name.to_owned()))
    }

    fn name_of(&self, id: u32) -> Result<&str> {
        self.names
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| Error::Unregistered(format!("schema type id {id}")))
    }

    /// Pseudo-IDL text of the schema (what Avro-style headers embed).
    pub fn schema_text(&self) -> String {
        let mut s = String::from("schema{");
        for n in &self.names {
            s.push_str(n);
            s.push(';');
        }
        s.push('}');
        s
    }
}

/// A schema-family serializer; construct via the preset functions.
#[derive(Debug)]
pub struct SchemaSerializer {
    cfg: SchemaConfig,
    registry: Arc<SchemaRegistry>,
    plan_cache: Mutex<HashMap<u64, Arc<Vec<FieldPlan>>>>,
}

/// Builds the standard Fig. 7 population of schema-family entrants over one
/// registry.
pub fn standard_entrants(registry: &Arc<SchemaRegistry>) -> Vec<SchemaSerializer> {
    let mk = |name: &str, tagging, int_enc, runtime_dispatch, schema_header| SchemaSerializer {
        cfg: SchemaConfig {
            name: name.to_owned(),
            tagging,
            int_enc,
            runtime_dispatch,
            schema_header,
        },
        registry: Arc::clone(registry),
        plan_cache: Mutex::new(HashMap::new()),
    };
    vec![
        mk("colfer", Tagging::Positional, IntEnc::Varint, false, false),
        mk("protostuff", Tagging::FieldNumber, IntEnc::Varint, false, false),
        mk("protostuff-manual", Tagging::FieldNumber, IntEnc::Varint, false, false),
        mk("protobuf", Tagging::FieldNumber, IntEnc::Varint, false, false),
        mk("protostuff-runtime", Tagging::FieldNumber, IntEnc::Varint, true, false),
        mk("thrift-compact", Tagging::FieldId16, IntEnc::Varint, false, false),
        mk("thrift", Tagging::FieldId16, IntEnc::Fixed, false, false),
        mk("avro-specific", Tagging::Positional, IntEnc::Varint, false, true),
        mk("avro-generic", Tagging::Positional, IntEnc::Varint, true, true),
        mk("fst-flat", Tagging::Positional, IntEnc::Fixed, false, false),
        mk("smile/jackson/manual", Tagging::FieldName, IntEnc::Varint, false, false),
        mk("cbor/jackson/databind", Tagging::FieldName, IntEnc::Varint, true, false),
        mk("json/databind", Tagging::FieldName, IntEnc::Fixed, true, false),
    ]
}

impl SchemaSerializer {
    fn plan(&self, k: &Arc<mheap::Klass>) -> Result<Arc<Vec<FieldPlan>>> {
        let key = k.uid;
        if let Some(p) = self.plan_cache.lock().get(&key) {
            return Ok(Arc::clone(p));
        }
        let p = Arc::new(field_plans(k));
        self.plan_cache.lock().insert(key, Arc::clone(&p));
        Ok(p)
    }

    fn write_prim(&self, w: &mut ByteWriter, p: PrimType, bits: u64) {
        match (self.cfg.int_enc, p) {
            (IntEnc::Varint, PrimType::Int) => w.varint_signed(i64::from(bits as u32 as i32)),
            (IntEnc::Varint, PrimType::Long) => w.varint_signed(bits as i64),
            _ => write_prim_fixed(w, p, bits),
        }
    }

    fn read_prim(&self, r: &mut ByteReader<'_>, p: PrimType) -> Result<u64> {
        match (self.cfg.int_enc, p) {
            (IntEnc::Varint, PrimType::Int) => Ok(r.varint_signed()? as u32 as u64),
            (IntEnc::Varint, PrimType::Long) => Ok(r.varint_signed()? as u64),
            _ => read_prim_fixed(r, p),
        }
    }

    fn write_tag(&self, w: &mut ByteWriter, idx: usize, name: &str) {
        match self.cfg.tagging {
            Tagging::Positional => {}
            Tagging::FieldNumber => w.varint(idx as u64 + 1),
            Tagging::FieldId16 => w.u16(idx as u16 + 1),
            Tagging::FieldName => w.string(name),
        }
    }

    fn read_tag(&self, r: &mut ByteReader<'_>, expect_idx: usize, expect_name: &str) -> Result<()> {
        match self.cfg.tagging {
            Tagging::Positional => Ok(()),
            Tagging::FieldNumber => {
                let t = r.varint()?;
                if t != expect_idx as u64 + 1 {
                    return Err(Error::Malformed(format!(
                        "field tag {t}, expected {}",
                        expect_idx + 1
                    )));
                }
                Ok(())
            }
            Tagging::FieldId16 => {
                let t = r.u16()?;
                if t != expect_idx as u16 + 1 {
                    return Err(Error::Malformed(format!(
                        "field id {t}, expected {}",
                        expect_idx + 1
                    )));
                }
                Ok(())
            }
            Tagging::FieldName => {
                let n = r.string()?;
                if n != expect_name {
                    return Err(Error::Malformed(format!(
                        "field name {n}, expected {expect_name}"
                    )));
                }
                Ok(())
            }
        }
    }

    fn write_object(
        &self,
        vm: &Vm,
        w: &mut ByteWriter,
        obj: Addr,
        profile: &mut Profile,
        depth: usize,
    ) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(Error::DepthExceeded(MAX_DEPTH));
        }
        if obj.is_null() {
            w.varint(0);
            return Ok(());
        }
        profile.ser_invocations += 1;
        profile.objects_transferred += 1;
        let k = vm.klass_of(obj).map_err(Error::Heap)?;
        let tid = self.registry.id_of(&k.name)?;
        w.varint(u64::from(tid) + 1);
        match k.kind {
            KlassKind::Instance => {
                if self.cfg.runtime_dispatch {
                    // Runtime variants resolve every field by name in the
                    // klass field table — the protostuff-runtime /
                    // avro-generic cost profile.
                    let names: Vec<String> = k.fields.iter().map(|f| f.name.clone()).collect();
                    for (i, name) in names.iter().enumerate() {
                        let f = k
                            .field_by_name_reflective(name)
                            .ok_or_else(|| Error::Malformed(format!("lost field {name}")))?
                            .clone();
                        self.write_tag(w, i, name);
                        match f.ty {
                            FieldType::Prim(p) => {
                                let bits = vm
                                    .read_prim_raw(obj, f.offset, p.size())
                                    .map_err(Error::Heap)?;
                                self.write_prim(w, p, bits);
                            }
                            FieldType::Ref => {
                                let tgt = vm.read_ref_at(obj, f.offset).map_err(Error::Heap)?;
                                self.write_object(vm, w, tgt, profile, depth + 1)?;
                            }
                        }
                    }
                } else {
                    let plan = self.plan(k)?;
                    for (i, f) in plan.iter().enumerate() {
                        self.write_tag(w, i, &f.name);
                        match f.ty {
                            FieldType::Prim(p) => {
                                let bits = vm
                                    .read_prim_raw(obj, f.offset, p.size())
                                    .map_err(Error::Heap)?;
                                self.write_prim(w, p, bits);
                            }
                            FieldType::Ref => {
                                let tgt = vm.read_ref_at(obj, f.offset).map_err(Error::Heap)?;
                                self.write_object(vm, w, tgt, profile, depth + 1)?;
                            }
                        }
                    }
                }
                if self.cfg.tagging == Tagging::FieldId16 {
                    w.u16(0); // Thrift stop marker
                }
            }
            KlassKind::PrimArray(p) => {
                let len = vm.array_len(obj).map_err(Error::Heap)?;
                w.varint(len);
                for i in 0..len {
                    let bits = vm.array_get_raw(obj, i).map_err(Error::Heap)?;
                    self.write_prim(w, p, bits);
                }
            }
            KlassKind::RefArray => {
                let len = vm.array_len(obj).map_err(Error::Heap)?;
                w.varint(len);
                for i in 0..len {
                    let tgt = vm.array_get_ref(obj, i).map_err(Error::Heap)?;
                    self.write_object(vm, w, tgt, profile, depth + 1)?;
                }
            }
        }
        Ok(())
    }

    fn read_object(
        &self,
        vm: &mut Vm,
        r: &mut ByteReader<'_>,
        arena: &mut RebuildArena,
        profile: &mut Profile,
        depth: usize,
    ) -> Result<Option<usize>> {
        if depth > MAX_DEPTH {
            return Err(Error::DepthExceeded(MAX_DEPTH));
        }
        let tag = r.varint()?;
        if tag == 0 {
            return Ok(None);
        }
        profile.deser_invocations += 1;
        let cname = self.registry.name_of((tag - 1) as u32)?.to_owned();
        let klass = vm.load_class(&cname).map_err(Error::Heap)?;
        // Held across the allocating `&mut Vm` calls below.
        let k = Arc::clone(vm.klasses().get(klass).map_err(Error::Heap)?);
        match k.kind {
            KlassKind::Instance => {
                let obj = vm.alloc_instance(klass).map_err(Error::Heap)?;
                let id = arena.push(vm, obj);
                let plan = self.plan(&k)?;
                for (i, f) in plan.iter().enumerate() {
                    self.read_tag(r, i, &f.name)?;
                    match f.ty {
                        FieldType::Prim(p) => {
                            let bits = self.read_prim(r, p)?;
                            let obj = arena.get(vm, id);
                            if self.cfg.runtime_dispatch {
                                // Name-resolved store.
                                let k2 = vm.klass_of(obj).map_err(Error::Heap)?;
                                let f2 = k2.field_by_name_reflective(&f.name).cloned().ok_or_else(
                                    || Error::Malformed(format!("no field {}", f.name)),
                                )?;
                                vm.write_prim_raw(obj, f2.offset, p.size(), bits)
                                    .map_err(Error::Heap)?;
                            } else {
                                vm.write_prim_raw(obj, f.offset, p.size(), bits)
                                    .map_err(Error::Heap)?;
                            }
                        }
                        FieldType::Ref => {
                            let tgt = self.read_object(vm, r, arena, profile, depth + 1)?;
                            let obj = arena.get(vm, id);
                            let tgt_addr = match tgt {
                                Some(t) => arena.get(vm, t),
                                None => Addr::NULL,
                            };
                            vm.write_ref_at(obj, f.offset, tgt_addr).map_err(Error::Heap)?;
                        }
                    }
                }
                if self.cfg.tagging == Tagging::FieldId16 {
                    let stop = r.u16()?;
                    if stop != 0 {
                        return Err(Error::Malformed(format!("missing stop marker, got {stop}")));
                    }
                }
                Ok(Some(id))
            }
            KlassKind::PrimArray(p) => {
                let len = r.varint()?;
                let obj = vm.alloc_array(klass, len).map_err(Error::Heap)?;
                let id = arena.push(vm, obj);
                for i in 0..len {
                    let bits = self.read_prim(r, p)?;
                    let obj = arena.get(vm, id);
                    vm.array_set_raw(obj, i, bits).map_err(Error::Heap)?;
                }
                Ok(Some(id))
            }
            KlassKind::RefArray => {
                let len = r.varint()?;
                let obj = vm.alloc_array(klass, len).map_err(Error::Heap)?;
                let id = arena.push(vm, obj);
                for i in 0..len {
                    let tgt = self.read_object(vm, r, arena, profile, depth + 1)?;
                    let obj = arena.get(vm, id);
                    let tgt_addr = match tgt {
                        Some(t) => arena.get(vm, t),
                        None => Addr::NULL,
                    };
                    vm.array_set_ref(obj, i, tgt_addr).map_err(Error::Heap)?;
                }
                Ok(Some(id))
            }
        }
    }
}

impl Serializer for SchemaSerializer {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn serialize(&self, vm: &mut Vm, roots: &[Addr], profile: &mut Profile) -> Result<Vec<u8>> {
        let mut w = ByteWriter::with_capacity(roots.len() * 32);
        if self.cfg.schema_header {
            w.string(&self.registry.schema_text());
        }
        w.varint(roots.len() as u64);
        for &root in roots {
            self.write_object(vm, &mut w, root, profile, 0)?;
        }
        Ok(w.into_bytes())
    }

    fn deserialize(&self, vm: &mut Vm, bytes: &[u8], profile: &mut Profile) -> Result<Vec<Addr>> {
        let mut r = ByteReader::new(bytes);
        if self.cfg.schema_header {
            let hdr = r.string()?;
            if hdr != self.registry.schema_text() {
                return Err(Error::Malformed("schema header mismatch".into()));
            }
        }
        let n_roots = r.varint()? as usize;
        let mut arena = RebuildArena::new(vm);
        let mut root_ids = Vec::with_capacity(n_roots);
        for _ in 0..n_roots {
            let id = self
                .read_object(vm, &mut r, &mut arena, profile, 0)?
                .ok_or_else(|| Error::Malformed("null root".into()))?;
            root_ids.push(id);
        }
        Ok(arena.finish(vm, &root_ids))
    }

    fn preserves_sharing(&self) -> bool {
        false // tree formats duplicate shared objects
    }
}
