//! The built-in Java serializer analogue.
//!
//! Reproduces the cost *shape* the paper attributes to
//! `ObjectOutputStream` (§1–2):
//!
//! * **type strings** — every class is described by its name *and the names
//!   of all its super classes*, with full per-field metadata ("serializing
//!   an object containing a 1-byte data field can generate a 50-byte
//!   sequence");
//! * **reflective field access** — field values are read and written by
//!   *name lookup* in the klass field table, once per field per object,
//!   mirroring `Reflection.getField`/`setField`;
//! * **periodic stream reset** — like Spark's
//!   `spark.serializer.objectStreamReset` (default 100), the handle and
//!   class-descriptor tables are cleared every N top-level objects, so class
//!   descriptors are re-emitted throughout a large stream. This is what
//!   makes Java-serializer output so much larger on the wire (Fig. 3(b)).

use std::collections::HashMap;
use std::sync::Arc;

use mheap::{Addr, FieldType, KlassKind, PrimType, Vm};
use simnet::Profile;

use crate::framework::{
    read_prim_fixed, write_prim_fixed, ByteReader, ByteWriter, RebuildArena, Serializer,
};
use crate::{Error, Result};

const TC_NULL: u8 = 0x70;
const TC_REFERENCE: u8 = 0x71;
const TC_CLASSDESC: u8 = 0x72;
const TC_CLASSDESC_REF: u8 = 0x76;
const TC_OBJECT: u8 = 0x73;
const TC_ARRAY: u8 = 0x75;
const TC_RESET: u8 = 0x79;

const MAX_DEPTH: usize = 10_000;

/// The Java serializer analogue. See the module docs for what it models.
#[derive(Debug, Clone)]
pub struct JavaSerializer {
    /// Top-level objects between stream resets (Spark default: 100).
    pub reset_interval: usize,
}

impl Default for JavaSerializer {
    fn default() -> Self {
        JavaSerializer { reset_interval: 100 }
    }
}

impl JavaSerializer {
    /// Creates the serializer with the Spark-default reset interval.
    pub fn new() -> Self {
        JavaSerializer::default()
    }

    /// Creates the serializer with a custom reset interval.
    // tidy:allow(unreached-pub, read by serlab's java_roundtrip_across_stream_resets)
    pub fn with_reset_interval(reset_interval: usize) -> Self {
        JavaSerializer { reset_interval: reset_interval.max(1) }
    }
}

#[derive(Default)]
struct WriteState {
    handles: HashMap<u64, u32>,
    class_handles: HashMap<u32, u32>,
    next_handle: u32,
    next_class: u32,
}

impl WriteState {
    fn reset(&mut self) {
        self.handles.clear();
        self.class_handles.clear();
        self.next_handle = 0;
        self.next_class = 0;
    }
}

impl Serializer for JavaSerializer {
    fn name(&self) -> &str {
        "java"
    }

    fn serialize(&self, vm: &mut Vm, roots: &[Addr], profile: &mut Profile) -> Result<Vec<u8>> {
        let mut w = ByteWriter::with_capacity(roots.len() * 64);
        let mut st = WriteState::default();
        w.varint(roots.len() as u64);
        for (i, &root) in roots.iter().enumerate() {
            if i > 0 && i % self.reset_interval == 0 {
                w.u8(TC_RESET);
                st.reset();
            }
            write_object(vm, &mut w, root, &mut st, profile, 0)?;
        }
        Ok(w.into_bytes())
    }

    fn deserialize(&self, vm: &mut Vm, bytes: &[u8], profile: &mut Profile) -> Result<Vec<Addr>> {
        let mut r = ByteReader::new(bytes);
        let n_roots = r.varint()? as usize;
        let mut arena = RebuildArena::new(vm);
        let mut st = ReadState::default();
        let mut root_ids = Vec::with_capacity(n_roots);
        for _ in 0..n_roots {
            let id = read_object(vm, &mut r, &mut arena, &mut st, profile, 0)?;
            root_ids.push(id);
        }
        let keep: Vec<usize> = root_ids
            .iter()
            .map(|o| o.ok_or_else(|| Error::Malformed("null root".into())))
            .collect::<Result<_>>()?;
        Ok(arena.finish(vm, &keep))
    }
}

fn write_class_desc(vm: &Vm, w: &mut ByteWriter, klass_id: u32, st: &mut WriteState) -> Result<()> {
    if let Some(&h) = st.class_handles.get(&klass_id) {
        w.u8(TC_CLASSDESC_REF);
        w.u32(h);
        return Ok(());
    }
    let k = vm.klasses().get(mheap::KlassId(klass_id)).map_err(Error::Heap)?;
    w.u8(TC_CLASSDESC);
    // The full superclass chain, names and all — the paper's type-string
    // bloat. Field metadata (name + descriptor char) rides along, grouped
    // by declaring class as in real serialization streams.
    w.varint(k.descriptor_chain.len() as u64);
    for cname in &k.descriptor_chain {
        w.string(cname);
        let fields: Vec<_> = k.fields.iter().filter(|f| &f.declared_in == cname).collect();
        w.varint(fields.len() as u64);
        for f in fields {
            w.string(&f.name);
            let c = match f.ty {
                FieldType::Prim(p) => p.descriptor(),
                FieldType::Ref => 'L',
            };
            w.u8(c as u8);
        }
    }
    st.class_handles.insert(klass_id, st.next_class);
    st.next_class += 1;
    Ok(())
}

fn write_object(
    vm: &mut Vm,
    w: &mut ByteWriter,
    obj: Addr,
    st: &mut WriteState,
    profile: &mut Profile,
    depth: usize,
) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(Error::DepthExceeded(MAX_DEPTH));
    }
    if obj.is_null() {
        w.u8(TC_NULL);
        return Ok(());
    }
    if let Some(&h) = st.handles.get(&obj.0) {
        w.u8(TC_REFERENCE);
        w.u32(h);
        return Ok(());
    }
    profile.ser_invocations += 1;
    profile.objects_transferred += 1;
    // Held across the recursive `&mut Vm` calls below.
    let k = Arc::clone(vm.klass_of(obj).map_err(Error::Heap)?);
    match k.kind {
        KlassKind::Instance => {
            w.u8(TC_OBJECT);
            write_class_desc(vm, w, k.id.0, st)?;
            st.handles.insert(obj.0, st.next_handle);
            st.next_handle += 1;
            // Reflective access: resolve each field BY NAME, as
            // Reflection.getField would, then read the value.
            let names: Vec<String> = k.fields.iter().map(|f| f.name.clone()).collect();
            for name in names {
                let f = k
                    .field_by_name_reflective(&name)
                    .ok_or_else(|| Error::Malformed(format!("lost field {name}")))?
                    .clone();
                match f.ty {
                    FieldType::Prim(p) => {
                        let bits =
                            vm.read_prim_raw(obj, f.offset, p.size()).map_err(Error::Heap)?;
                        write_prim_fixed(w, p, bits);
                    }
                    FieldType::Ref => {
                        let tgt = vm.read_ref_at(obj, f.offset).map_err(Error::Heap)?;
                        write_object(vm, w, tgt, st, profile, depth + 1)?;
                    }
                }
            }
        }
        KlassKind::PrimArray(p) => {
            w.u8(TC_ARRAY);
            write_class_desc(vm, w, k.id.0, st)?;
            st.handles.insert(obj.0, st.next_handle);
            st.next_handle += 1;
            let len = vm.array_len(obj).map_err(Error::Heap)?;
            w.varint(len);
            for i in 0..len {
                let bits = vm.array_get_raw(obj, i).map_err(Error::Heap)?;
                write_prim_fixed(w, p, bits);
            }
        }
        KlassKind::RefArray => {
            w.u8(TC_ARRAY);
            write_class_desc(vm, w, k.id.0, st)?;
            st.handles.insert(obj.0, st.next_handle);
            st.next_handle += 1;
            let len = vm.array_len(obj).map_err(Error::Heap)?;
            w.varint(len);
            for i in 0..len {
                let tgt = vm.array_get_ref(obj, i).map_err(Error::Heap)?;
                write_object(vm, w, tgt, st, profile, depth + 1)?;
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct ReadState {
    /// Stream handle → rebuild-arena id.
    handles: Vec<usize>,
    /// Stream class handle → (class name, field names in stream order).
    classes: Vec<(String, Vec<(String, u8)>)>,
}

impl ReadState {
    fn reset(&mut self) {
        self.handles.clear();
        self.classes.clear();
    }
}

fn read_class_desc(r: &mut ByteReader<'_>, st: &mut ReadState) -> Result<usize> {
    match r.u8()? {
        TC_CLASSDESC_REF => {
            let h = r.u32()? as usize;
            if h >= st.classes.len() {
                return Err(Error::Malformed(format!("bad class handle {h}")));
            }
            Ok(h)
        }
        TC_CLASSDESC => {
            let n_classes = r.varint()? as usize;
            let mut own_name = String::new();
            let mut fields = Vec::new();
            for ci in 0..n_classes {
                let cname = r.string()?;
                if ci == 0 {
                    own_name = cname;
                }
                let n_fields = r.varint()? as usize;
                for _ in 0..n_fields {
                    let fname = r.string()?;
                    let desc = r.u8()?;
                    fields.push((fname, desc));
                }
            }
            st.classes.push((own_name, fields));
            Ok(st.classes.len() - 1)
        }
        t => Err(Error::Malformed(format!("expected class desc, got tag {t:#x}"))),
    }
}

fn prim_from_descriptor(d: u8) -> Result<PrimType> {
    PrimType::ALL
        .into_iter()
        .find(|p| p.descriptor() as u8 == d)
        .ok_or_else(|| Error::Malformed(format!("bad type descriptor {d:#x}")))
}

/// Reads one object, returning its rebuild-arena id (`None` for null).
fn read_object(
    vm: &mut Vm,
    r: &mut ByteReader<'_>,
    arena: &mut RebuildArena,
    st: &mut ReadState,
    profile: &mut Profile,
    depth: usize,
) -> Result<Option<usize>> {
    if depth > MAX_DEPTH {
        return Err(Error::DepthExceeded(MAX_DEPTH));
    }
    let tag = r.u8()?;
    match tag {
        TC_RESET => {
            st.reset();
            read_object(vm, r, arena, st, profile, depth)
        }
        TC_NULL => Ok(None),
        TC_REFERENCE => {
            let h = r.u32()? as usize;
            st.handles
                .get(h)
                .copied()
                .map(Some)
                .ok_or_else(|| Error::Malformed(format!("bad back reference {h}")))
        }
        TC_OBJECT => {
            profile.deser_invocations += 1;
            let ch = read_class_desc(r, st)?;
            let (cname, field_descs) = st.classes[ch].clone();
            // Type resolution by string — the reflective lookup the paper
            // calls out.
            let klass = vm.load_class(&cname).map_err(Error::Heap)?;
            let obj = vm.alloc_instance(klass).map_err(Error::Heap)?;
            let id = arena.push(vm, obj);
            st.handles.push(id);
            for (fname, desc) in &field_descs {
                if *desc == b'L' {
                    let tgt = read_object(vm, r, arena, st, profile, depth + 1)?;
                    let obj = arena.get(vm, id);
                    let tgt_addr = match tgt {
                        Some(t) => arena.get(vm, t),
                        None => Addr::NULL,
                    };
                    vm.set_ref(obj, fname, tgt_addr).map_err(Error::Heap)?;
                } else {
                    let p = prim_from_descriptor(*desc)?;
                    let bits = read_prim_fixed(r, p)?;
                    let obj = arena.get(vm, id);
                    // Reflective set: resolve the field by name again.
                    let k = vm.klass_of(obj).map_err(Error::Heap)?;
                    let f = k
                        .field_by_name_reflective(fname)
                        .cloned()
                        .ok_or_else(|| Error::Malformed(format!("no field {fname} in {cname}")))?;
                    vm.write_prim_raw(obj, f.offset, p.size(), bits).map_err(Error::Heap)?;
                }
            }
            Ok(Some(id))
        }
        TC_ARRAY => {
            profile.deser_invocations += 1;
            let ch = read_class_desc(r, st)?;
            let (cname, _) = st.classes[ch].clone();
            let klass = vm.load_class(&cname).map_err(Error::Heap)?;
            let kind = vm.klasses().get(klass).map_err(Error::Heap)?.kind;
            let len = r.varint()?;
            let obj = vm.alloc_array(klass, len).map_err(Error::Heap)?;
            let id = arena.push(vm, obj);
            st.handles.push(id);
            match kind {
                KlassKind::PrimArray(p) => {
                    for i in 0..len {
                        let bits = read_prim_fixed(r, p)?;
                        let obj = arena.get(vm, id);
                        vm.array_set_raw(obj, i, bits).map_err(Error::Heap)?;
                    }
                }
                KlassKind::RefArray => {
                    for i in 0..len {
                        let tgt = read_object(vm, r, arena, st, profile, depth + 1)?;
                        let obj = arena.get(vm, id);
                        let tgt_addr = match tgt {
                            Some(t) => arena.get(vm, t),
                            None => Addr::NULL,
                        };
                        vm.array_set_ref(obj, i, tgt_addr).map_err(Error::Heap)?;
                    }
                }
                KlassKind::Instance => {
                    return Err(Error::Malformed(format!("{cname} is not an array class")))
                }
            }
            Ok(Some(id))
        }
        t => Err(Error::Malformed(format!("unknown tag {t:#x}"))),
    }
}
