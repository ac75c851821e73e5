//! The Kryo analogue: developer-registered classes with integer type ids
//! and "generated" (offset-compiled) per-class serializer functions.
//!
//! Per the paper (§1, §2.1), Kryo asks developers to (1) hand-register every
//! class involved in data transfer in a consistent order across all nodes so
//! types can be written as small integers, and (2) provide per-type S/D
//! functions, eliminating reflective field access. The fundamental per-object
//! function-invocation cost remains — which is exactly what Figure 3 shows.
//!
//! Variants (Fig. 7 entrants):
//! * `kryo-manual` — reference tracking on, varint integers (the Spark
//!   configuration the paper compares against);
//! * `kryo-opt` — reference tracking off (trees only), varint integers;
//! * `kryo-flat` — reference tracking off, fixed-width integers.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use mheap::{Addr, FieldType, Klass, KlassId, KlassKind, KlassSlots, LayoutSpec, PrimType, Vm};
use simnet::Profile;

use crate::framework::{
    field_plans, read_prim_fixed, write_prim_fixed, ByteReader, ByteWriter, FieldPlan,
    RebuildArena, Serializer,
};
use crate::{Error, Result};

const K_NULL: u8 = 0;
const K_REF: u8 = 1;
const K_OBJ: u8 = 2;

const MAX_DEPTH: usize = 10_000;

/// The developer-maintained class registry: registration order defines the
/// integer id of each class, and must be identical on every node (§2.1).
///
/// Interior-mutable so a registry shared across serializer instances can
/// still accept registrations (`conf.registerKryoClasses` before a job).
#[derive(Debug, Default)]
pub struct KryoRegistry {
    inner: parking_lot::RwLock<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl KryoRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        KryoRegistry::default()
    }

    /// Registers a class; order defines ids. Re-registration is an error —
    /// real Kryo setups break subtly when nodes register inconsistently, so
    /// we fail loudly.
    ///
    /// # Errors
    /// [`Error::AlreadyRegistered`].
    pub fn register(&self, name: &str) -> Result<u32> {
        let mut inner = self.inner.write();
        if inner.ids.contains_key(name) {
            return Err(Error::AlreadyRegistered(name.to_owned()));
        }
        let id = inner.names.len() as u32;
        inner.names.push(name.to_owned());
        inner.ids.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Registers many classes in order.
    ///
    /// # Errors
    /// [`Error::AlreadyRegistered`].
    pub fn register_all<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Result<()> {
        for n in names {
            self.register(n)?;
        }
        Ok(())
    }

    /// Id of a registered class.
    fn id_of(&self, name: &str) -> Result<u32> {
        self.inner.read().ids.get(name).copied().ok_or_else(|| Error::Unregistered(name.to_owned()))
    }

    /// Name behind an id.
    fn name_of(&self, id: u32) -> Result<String> {
        self.inner
            .read()
            .names
            .get(id as usize)
            .cloned()
            .ok_or_else(|| Error::Unregistered(format!("type id {id}")))
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Kryo analogue; see module docs.
#[derive(Debug)]
pub struct KryoSerializer {
    registry: Arc<KryoRegistry>,
    references: bool,
    varint_ints: bool,
    name: String,
    /// Compiled per-class field plans indexed by klass id — Kryo's
    /// "generated" serializer code, found the way real Kryo finds a
    /// registered serializer: by number, with no lock and no hash.
    plans: KlassSlots<KlassPlan>,
    /// The read side's registration-id switch: the klass each registration
    /// id names, paged by registration id (not klass id).
    classes: KlassSlots<RegisteredKlass>,
}

/// The klass a registration id names on the classpath it was resolved on:
/// klass ids agree across the VMs of one classpath, so one resolution
/// serves every receiver of it.
#[derive(Debug, Clone, Copy)]
struct RegisteredKlass {
    classpath: u64,
    klass: KlassId,
}

/// The compiled plan of one class — its registration id, if registered
/// when first seen, and its field plans — with the classpath and object
/// format it was compiled for. Klass ids agree across the VMs of one
/// classpath and field offsets across the VMs of one format, so one table
/// serves every VM that shares both, the two ends of a shuffle included;
/// a VM of another classpath may number another class the same, and one of
/// another format lays the class out elsewhere, which the two tell apart.
#[derive(Debug, Clone)]
struct KlassPlan {
    classpath: u64,
    spec: LayoutSpec,
    tid: Option<u32>,
    fields: Vec<FieldPlan>,
}

impl KryoSerializer {
    /// `kryo-manual`: the Spark configuration (reference tracking on).
    pub fn manual(registry: Arc<KryoRegistry>) -> Self {
        KryoSerializer {
            registry,
            references: true,
            varint_ints: true,
            name: "kryo-manual".into(),
            plans: KlassSlots::new(),
            classes: KlassSlots::new(),
        }
    }

    /// `kryo-opt`: reference tracking off (duplicates shared objects).
    pub fn opt(registry: Arc<KryoRegistry>) -> Self {
        KryoSerializer {
            registry,
            references: false,
            varint_ints: true,
            name: "kryo-opt".into(),
            plans: KlassSlots::new(),
            classes: KlassSlots::new(),
        }
    }

    /// `kryo-flat`: no reference tracking, fixed-width integers.
    pub fn flat(registry: Arc<KryoRegistry>) -> Self {
        KryoSerializer {
            registry,
            references: false,
            varint_ints: false,
            name: "kryo-flat".into(),
            plans: KlassSlots::new(),
            classes: KlassSlots::new(),
        }
    }

    /// The compiled plan of `vm`'s class `k`: one indexed read once the
    /// class has been seen on a VM of `vm`'s classpath and format. A class
    /// the first such VM's table entry does not match — another classpath
    /// or format — gets its plan compiled per call.
    fn plan(&self, vm: &Vm, k: &Klass) -> Cow<'_, KlassPlan> {
        let (classpath, spec) = (vm.classpath().id(), vm.spec());
        let compile = || KlassPlan {
            classpath,
            spec,
            tid: self.registry.id_of(&k.name).ok(),
            fields: field_plans(k),
        };
        let cached = self.plans.get_or_init(k.id, compile);
        if cached.classpath == classpath && cached.spec == spec {
            Cow::Borrowed(cached)
        } else {
            Cow::Owned(compile())
        }
    }

    /// The klass `vm` numbers registration id `tid` with: one indexed read
    /// once any VM of `vm`'s classpath resolved it, and a load by number on
    /// a VM that has not met the class yet. A VM of another classpath
    /// resolves by name per call.
    fn klass_for<'v>(&self, vm: &'v Vm, tid: u32) -> Result<&'v Arc<Klass>> {
        let classpath = vm.classpath().id();
        let by_name = || vm.load_class(&self.registry.name_of(tid)?).map_err(Error::Heap);
        let entry = match self.classes.get(KlassId(tid)) {
            Some(entry) => *entry,
            None => {
                let klass = by_name()?;
                *self.classes.get_or_init(KlassId(tid), || RegisteredKlass { classpath, klass })
            }
        };
        let klass = if entry.classpath == classpath { entry.klass } else { by_name()? };
        vm.klasses().get(klass).or_else(|_| vm.load_numbered(klass)).map_err(Error::Heap)
    }

    fn write_prim(&self, w: &mut ByteWriter, p: PrimType, bits: u64) {
        if self.varint_ints {
            match p {
                PrimType::Int => w.varint_signed(i64::from(bits as u32 as i32)),
                PrimType::Long => w.varint_signed(bits as i64),
                _ => write_prim_fixed(w, p, bits),
            }
        } else {
            write_prim_fixed(w, p, bits);
        }
    }

    fn read_prim(&self, r: &mut ByteReader<'_>, p: PrimType) -> Result<u64> {
        if self.varint_ints {
            match p {
                PrimType::Int => Ok(r.varint_signed()? as u32 as u64),
                PrimType::Long => Ok(r.varint_signed()? as u64),
                _ => read_prim_fixed(r, p),
            }
        } else {
            read_prim_fixed(r, p)
        }
    }

    fn write_object(
        &self,
        vm: &Vm,
        w: &mut ByteWriter,
        obj: Addr,
        seen: &mut HashMap<u64, u32>,
        profile: &mut Profile,
        depth: usize,
    ) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(Error::DepthExceeded(MAX_DEPTH));
        }
        if obj.is_null() {
            w.u8(K_NULL);
            return Ok(());
        }
        if self.references {
            if let Some(&h) = seen.get(&obj.0) {
                w.u8(K_REF);
                w.varint(u64::from(h));
                return Ok(());
            }
        }
        profile.ser_invocations += 1;
        profile.objects_transferred += 1;
        let k = vm.klass_of(obj).map_err(Error::Heap)?;
        let plan = self.plan(vm, k);
        // A class registered after its plan was compiled is looked up by
        // name (and an unregistered one fails there).
        let tid = match plan.tid {
            Some(tid) => tid,
            None => self.registry.id_of(&k.name)?,
        };
        w.u8(K_OBJ);
        w.varint(u64::from(tid));
        if self.references {
            let h = seen.len() as u32;
            seen.insert(obj.0, h);
        }
        match k.kind {
            KlassKind::Instance => {
                // "Generated" serializer: compiled plan, direct offsets.
                for f in &plan.fields {
                    match f.ty {
                        FieldType::Prim(p) => {
                            let bits =
                                vm.read_prim_raw(obj, f.offset, p.size()).map_err(Error::Heap)?;
                            self.write_prim(w, p, bits);
                        }
                        FieldType::Ref => {
                            let tgt = vm.read_ref_at(obj, f.offset).map_err(Error::Heap)?;
                            self.write_object(vm, w, tgt, seen, profile, depth + 1)?;
                        }
                    }
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
                    self.write_object(vm, w, tgt, seen, profile, depth + 1)?;
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
        seen: &mut Vec<usize>,
        profile: &mut Profile,
        depth: usize,
    ) -> Result<Option<usize>> {
        if depth > MAX_DEPTH {
            return Err(Error::DepthExceeded(MAX_DEPTH));
        }
        match r.u8()? {
            K_NULL => Ok(None),
            K_REF => {
                let h = r.varint()? as usize;
                seen.get(h)
                    .copied()
                    .map(Some)
                    .ok_or_else(|| Error::Malformed(format!("bad kryo back reference {h}")))
            }
            K_OBJ => {
                profile.deser_invocations += 1;
                let tid = r.varint()? as u32;
                // No reflection: the registration id gives the class
                // directly (the generated `case id: return new T()` switch
                // of §2.1).
                // Held across the allocating `&mut Vm` calls below.
                let k = Arc::clone(self.klass_for(vm, tid)?);
                let klass = k.id;
                match k.kind {
                    KlassKind::Instance => {
                        let obj = vm.alloc_instance(klass).map_err(Error::Heap)?;
                        let id = arena.push(vm, obj);
                        if self.references {
                            seen.push(id);
                        }
                        let plan = self.plan(vm, &k);
                        for f in &plan.fields {
                            match f.ty {
                                FieldType::Prim(p) => {
                                    let bits = self.read_prim(r, p)?;
                                    let obj = arena.get(vm, id);
                                    vm.write_prim_raw(obj, f.offset, p.size(), bits)
                                        .map_err(Error::Heap)?;
                                }
                                FieldType::Ref => {
                                    let tgt =
                                        self.read_object(vm, r, arena, seen, profile, depth + 1)?;
                                    let obj = arena.get(vm, id);
                                    let tgt_addr = match tgt {
                                        Some(t) => arena.get(vm, t),
                                        None => Addr::NULL,
                                    };
                                    vm.write_ref_at(obj, f.offset, tgt_addr)
                                        .map_err(Error::Heap)?;
                                }
                            }
                        }
                        Ok(Some(id))
                    }
                    KlassKind::PrimArray(p) => {
                        let len = r.varint()?;
                        let obj = vm.alloc_array(klass, len).map_err(Error::Heap)?;
                        let id = arena.push(vm, obj);
                        if self.references {
                            seen.push(id);
                        }
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
                        if self.references {
                            seen.push(id);
                        }
                        for i in 0..len {
                            let tgt = self.read_object(vm, r, arena, seen, profile, depth + 1)?;
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
            t => Err(Error::Malformed(format!("unknown kryo tag {t:#x}"))),
        }
    }
}

impl Serializer for KryoSerializer {
    fn name(&self) -> &str {
        &self.name
    }

    fn serialize(&self, vm: &mut Vm, roots: &[Addr], profile: &mut Profile) -> Result<Vec<u8>> {
        let mut w = ByteWriter::with_capacity(roots.len() * 32);
        let mut seen: HashMap<u64, u32> = HashMap::new();
        w.varint(roots.len() as u64);
        for &root in roots {
            // Kryo resets its reference table per writeObject call.
            seen.clear();
            self.write_object(vm, &mut w, root, &mut seen, profile, 0)?;
        }
        Ok(w.into_bytes())
    }

    fn deserialize(&self, vm: &mut Vm, bytes: &[u8], profile: &mut Profile) -> Result<Vec<Addr>> {
        let mut r = ByteReader::new(bytes);
        let n_roots = r.varint()? as usize;
        let mut arena = RebuildArena::new(vm);
        let mut root_ids = Vec::with_capacity(n_roots);
        let mut seen: Vec<usize> = Vec::new();
        for _ in 0..n_roots {
            seen.clear();
            let id = self
                .read_object(vm, &mut r, &mut arena, &mut seen, profile, 0)?
                .ok_or_else(|| Error::Malformed("null root".into()))?;
            root_ids.push(id);
        }
        Ok(arena.finish(vm, &root_ids))
    }

    fn preserves_sharing(&self) -> bool {
        self.references
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::{ClassPath, HeapConfig, KlassDef};

    fn classpath() -> Arc<ClassPath> {
        let cp = ClassPath::new();
        cp.define(KlassDef::new("P", None, vec![("x", FieldType::Prim(PrimType::Long))]));
        cp
    }

    fn vm(cp: &Arc<ClassPath>, spec: LayoutSpec) -> Vm {
        Vm::new("v", &HeapConfig { spec, ..HeapConfig::small() }, Arc::clone(cp)).unwrap()
    }

    fn p(vm: &Vm) -> Arc<Klass> {
        Arc::clone(vm.klasses().get(vm.load_class("P").unwrap()).unwrap())
    }

    #[test]
    fn one_plan_serves_every_vm_of_a_classpath_and_format() {
        let registry = Arc::new(KryoRegistry::new());
        registry.register("P").unwrap();
        let kryo = KryoSerializer::manual(registry);
        let cp = classpath();
        let (a, b) = (vm(&cp, LayoutSpec::SKYWAY), vm(&cp, LayoutSpec::SKYWAY));
        let cached = kryo.plan(&a, &p(&a));
        assert!(matches!(cached, Cow::Borrowed(_)));
        // A second VM of the classpath and format reuses the table entry.
        assert!(matches!(kryo.plan(&b, &p(&b)), Cow::Borrowed(_)));
        // Another format numbers P the same but lays it out 8 bytes
        // earlier; another classpath is told apart as well.
        let compact = vm(&cp, LayoutSpec::COMPACT);
        let plan = kryo.plan(&compact, &p(&compact));
        assert!(matches!(plan, Cow::Owned(_)));
        assert_eq!(plan.fields[0].offset + 8, cached.fields[0].offset);
        let other = vm(&classpath(), LayoutSpec::SKYWAY);
        assert!(matches!(kryo.plan(&other, &p(&other)), Cow::Owned(_)));
    }

    #[test]
    fn registration_ids_resolve_on_fresh_vms_of_either_classpath() {
        let registry = Arc::new(KryoRegistry::new());
        registry.register("P").unwrap();
        let kryo = KryoSerializer::manual(registry);
        let cp = classpath();
        let mut sender = vm(&cp, LayoutSpec::SKYWAY);
        let k = sender.load_class("P").unwrap();
        let obj = sender.alloc_instance(k).unwrap();
        sender.set_long(obj, "x", -7).unwrap();
        let mut prof = Profile::new();
        let bytes = kryo.serialize(&mut sender, &[obj], &mut prof).unwrap();

        // A fresh VM of the classpath has not loaded P: it loads it by the
        // number the table holds.
        let mut same = vm(&cp, LayoutSpec::SKYWAY);
        let got = kryo.deserialize(&mut same, &bytes, &mut prof).unwrap();
        assert_eq!(same.get_long(got[0], "x").unwrap(), -7);
        assert_eq!(same.klass_of(got[0]).unwrap().id, k);

        // Another classpath numbers P otherwise: it resolves by name, and
        // the table entry stays the first classpath's.
        let other_cp = classpath();
        other_cp.define(KlassDef::new("Q", None, vec![]));
        let mut other = vm(&other_cp, LayoutSpec::SKYWAY);
        other.load_class("Q").unwrap();
        for _ in 0..2 {
            let got = kryo.deserialize(&mut other, &bytes, &mut prof).unwrap();
            assert_eq!(other.get_long(got[0], "x").unwrap(), -7);
            let theirs = other.klass_of(got[0]).unwrap();
            assert_eq!(theirs.name, "P");
            assert_ne!(theirs.id, k, "the other classpath numbers P differently");
        }
        let got = kryo.deserialize(&mut same, &bytes, &mut prof).unwrap();
        assert_eq!(same.klass_of(got[0]).unwrap().id, k);
    }
}
