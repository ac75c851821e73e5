//! Class metadata ("klass" meta-objects) and field-layout computation.
//!
//! Every object header's klass word names a [`Klass`] in the owning VM's
//! [`KlassTable`]. A klass knows its flattened field list with computed
//! offsets (HotSpot-style size-descending packing, superclass fields first),
//! which is exactly the information the baseline serializers consult
//! "reflectively" (by string lookup) and that Skyway never needs to touch.
//!
//! The paper adds "an extra field in each klass to accommodate its ID"
//! (the `tID`, §4.1) so the send path reads a class's global number with one
//! load. Here the klass id is that number: the [`ClassPath`] issues one
//! number per class *definition*, and every VM on the classpath publishes
//! the class under it, so the id is the word a heap, a segment image and a
//! wire stream all carry.
//!
//! **Layout lives on [`Klass`]; walkers borrow.** Which slots of an object
//! hold references, where its payload ends and how wide an array element is
//! are derived from `fields` exactly once, at class load, and stored on the
//! record ([`Klass::ref_offsets`], [`Klass::payload_end`],
//! [`Klass::elem_size`]). The collector, the verifier, the Skyway sender
//! and the receiver all read them where they lie: the table is append-only,
//! so [`KlassTable::get`] hands out a borrow that takes no lock and touches
//! no reference count. Nothing else keeps a second copy of the layout.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::layout::{align8, LayoutSpec};
use crate::{Error, Result};

/// Index of a klass in its VM's [`KlassTable`]: the number the VM's
/// [`ClassPath`] gave the class name.
///
/// Klass ids are per classpath: every VM sharing one `ClassPath` gives a
/// class definition the same id, so a klass word means the same in all of
/// their heaps, in every segment they seal and on the wire between them.
/// VMs on different classpaths disagree, so nothing crosses from one
/// classpath to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KlassId(pub u32);

/// Process-wide unique klass id counter (see [`Klass::uid`]).
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Process-wide unique classpath id counter (see [`ClassPath::id`]).
static NEXT_CLASSPATH_ID: AtomicU64 = AtomicU64::new(1);

/// A primitive field/element type with its Java size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimType {
    /// 1-byte boolean.
    Bool,
    /// 1-byte signed integer.
    Byte,
    /// 2-byte unsigned UTF-16 code unit.
    Char,
    /// 2-byte signed integer.
    Short,
    /// 4-byte signed integer.
    Int,
    /// 4-byte IEEE float.
    Float,
    /// 8-byte signed integer.
    Long,
    /// 8-byte IEEE float.
    Double,
}

impl PrimType {
    /// Size in bytes.
    #[inline]
    pub fn size(self) -> u8 {
        match self {
            PrimType::Bool | PrimType::Byte => 1,
            PrimType::Char | PrimType::Short => 2,
            PrimType::Int | PrimType::Float => 4,
            PrimType::Long | PrimType::Double => 8,
        }
    }

    /// JVM descriptor character (`Z`, `B`, `C`, `S`, `I`, `F`, `J`, `D`).
    pub fn descriptor(self) -> char {
        match self {
            PrimType::Bool => 'Z',
            PrimType::Byte => 'B',
            PrimType::Char => 'C',
            PrimType::Short => 'S',
            PrimType::Int => 'I',
            PrimType::Float => 'F',
            PrimType::Long => 'J',
            PrimType::Double => 'D',
        }
    }

    /// All primitive types, in descriptor order.
    pub const ALL: [PrimType; 8] = [
        PrimType::Bool,
        PrimType::Byte,
        PrimType::Char,
        PrimType::Short,
        PrimType::Int,
        PrimType::Float,
        PrimType::Long,
        PrimType::Double,
    ];
}

/// The declared type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// A primitive-typed field (object data, in the paper's terms).
    Prim(PrimType),
    /// A reference-typed field (an object reference that Skyway must
    /// relativize/absolutize).
    Ref,
}

impl FieldType {
    /// Field slot size in bytes (references are 8).
    #[inline]
    pub fn size(self) -> u8 {
        match self {
            FieldType::Prim(p) => p.size(),
            FieldType::Ref => 8,
        }
    }
}

/// What kind of objects a klass describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KlassKind {
    /// Ordinary instance with named fields.
    Instance,
    /// Array of primitives.
    PrimArray(PrimType),
    /// Array of references.
    RefArray,
}

/// A class definition as it would appear "on the classpath": name, super
/// class, and declared fields. Layout is computed when a VM loads it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KlassDef {
    /// Fully qualified class name, e.g. `"media.MediaContent"`.
    pub name: String,
    /// Super class name (`None` only for `java.lang.Object`).
    pub super_name: Option<String>,
    /// Declared fields (name, type), excluding inherited ones.
    pub fields: Vec<(String, FieldType)>,
}

impl KlassDef {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        super_name: Option<&str>,
        fields: Vec<(&str, FieldType)>,
    ) -> Self {
        KlassDef {
            name: name.into(),
            super_name: super_name.map(str::to_owned),
            fields: fields.into_iter().map(|(n, t)| (n.to_owned(), t)).collect(),
        }
    }
}

/// A field with its computed offset inside the object.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
    /// Byte offset from the object start.
    pub offset: u64,
    /// Name of the class that declared this field (for descriptor strings).
    pub declared_in: String,
}

/// Loaded class metadata with computed layout.
#[derive(Debug)]
pub struct Klass {
    /// Klass id (index in the [`KlassTable`], numbered by the classpath).
    pub id: KlassId,
    /// Fully qualified name.
    pub name: String,
    /// Super klass, if any.
    pub super_id: Option<KlassId>,
    /// Kind (instance or array).
    pub kind: KlassKind,
    /// Flattened fields (super-class fields first), with offsets.
    pub fields: Vec<Field>,
    /// Name → index into `fields` (the "reflection" lookup surface).
    field_index: HashMap<String, usize>,
    /// Total object size in bytes for instances (8-aligned). Zero for
    /// arrays, whose size depends on the length.
    pub instance_size: u64,
    /// Object-relative offsets of an instance's reference fields, ascending,
    /// inherited fields included — the reference map every walker borrows.
    /// Empty for arrays (a reference array's slots are its elements).
    pub ref_offsets: Box<[u64]>,
    /// Object-relative end of an instance's last field (unaligned; the
    /// header size for a fieldless class): where a bulk payload copy stops.
    /// Zero for arrays.
    pub payload_end: u64,
    /// Array element size in bytes. Zero for instances.
    pub elem_size: u8,
    /// Names of this class and all super classes, most-derived first —
    /// what the Java serializer writes out per object (§2.1).
    pub descriptor_chain: Vec<String>,
    /// Process-wide unique id, never reused — a sound cache key for
    /// compiled per-class serializer plans (unlike `Arc` pointers, which
    /// the allocator recycles once a VM is dropped).
    pub uid: u64,
}

impl Klass {
    /// Looks a field up by name — the operation whose per-object, per-field
    /// repetition makes reflective serialization expensive.
    pub fn field_by_name(&self, name: &str) -> Option<&Field> {
        self.field_index.get(name).map(|&i| &self.fields[i])
    }

    /// Reflective field lookup: linear scan with string comparison over the
    /// declared-field lists of the class and its supers, the way
    /// `Class.getDeclaredField` walks `Field[]` arrays. Baseline
    /// serializers use this; compiled plans and Skyway never do.
    pub fn field_by_name_reflective(&self, name: &str) -> Option<&Field> {
        // Walk per-declaring-class, most-derived first, as reflection does.
        for cname in &self.descriptor_chain {
            for f in self.fields.iter().filter(|f| &f.declared_in == cname) {
                if f.name == name {
                    return Some(f);
                }
            }
        }
        None
    }

    /// True if objects of this klass are arrays.
    #[inline]
    pub fn is_array(&self) -> bool {
        !matches!(self.kind, KlassKind::Instance)
    }
}

/// Name of the root class.
pub const OBJECT: &str = "java.lang.Object";

/// A shared "classpath": class definitions by name, shared between all VMs
/// of a cluster so that a receiving VM can load a class on demand when it
/// meets a class number it has not loaded (§4.1: "Skyway instructs the
/// class loader to load the missing class since the type registry knows the
/// full class name").
///
/// The classpath also numbers classes, one number per *definition*: the
/// first VM to load a definition — array classes included — fixes its
/// [`KlassId`] for every VM sharing this classpath. A name redefined with
/// another layout gets a fresh number when a VM first loads it, so a number
/// never names two layouts.
#[derive(Debug)]
pub struct ClassPath {
    id: u64,
    defs: RwLock<HashMap<String, KlassDef>>,
    numbers: RwLock<Numbers>,
}

impl Default for ClassPath {
    fn default() -> Self {
        ClassPath {
            id: NEXT_CLASSPATH_ID.fetch_add(1, Ordering::Relaxed),
            defs: RwLock::default(),
            numbers: RwLock::default(),
        }
    }
}

/// What one class number names: a class name with exactly the layout the
/// number was issued for — the definition (none for a synthesized array
/// class) and the number of the class it builds on, which a VM loads first
/// (the super class of an instance class, the element class of a reference
/// array).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Definition {
    pub(crate) name: String,
    pub(crate) def: Option<KlassDef>,
    pub(crate) parent: Option<KlassId>,
}

/// Issued class numbers, in first-load order and never reused: the number
/// of each definition, and the definition of each number.
#[derive(Debug, Default)]
struct Numbers {
    by_def: HashMap<Definition, u32>,
    defs: Vec<Definition>,
}

impl ClassPath {
    /// Creates an empty classpath.
    pub fn new() -> Arc<Self> {
        Arc::new(ClassPath::default())
    }

    /// This classpath's process-wide unique id: klass ids mean the same on
    /// every VM whose classpath has the same id, and nothing more.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds (or replaces) a class definition. VMs that already loaded the
    /// name keep the class they loaded, under its number.
    pub fn define(&self, def: KlassDef) {
        self.defs.write().insert(def.name.clone(), def);
    }

    /// Adds many definitions.
    pub fn define_all(&self, defs: impl IntoIterator<Item = KlassDef>) {
        let mut map = self.defs.write();
        for def in defs {
            map.insert(def.name.clone(), def);
        }
    }

    /// Fetches a definition by name.
    pub fn lookup(&self, name: &str) -> Option<KlassDef> {
        self.defs.read().get(name).cloned()
    }

    /// The number of definition `d`, issued the first time any VM on this
    /// classpath loads it. Called once per class per VM, at its publication.
    pub(crate) fn number(&self, d: Definition) -> u32 {
        let mut n = self.numbers.write();
        if let Some(&id) = n.by_def.get(&d) {
            return id;
        }
        let id = n.defs.len() as u32;
        n.by_def.insert(d.clone(), id);
        n.defs.push(d);
        id
    }

    /// The definition numbered `number`, if some VM on this classpath loaded
    /// it: one indexed read, asked once per class by a VM that meets the
    /// number before loading the class.
    pub(crate) fn definition(&self, number: u32) -> Option<Definition> {
        self.numbers.read().defs.get(number as usize).cloned()
    }
}

/// Slots in the first page of a [`KlassSlots`]; page `p` holds
/// `PAGE0_SLOTS << p`, so 27 pages cover every `u32` klass id.
const PAGE0_SLOTS: u64 = 64;
const PAGES: usize = 27;

/// Page and slot of klass id `id` (page `p` starts at id
/// `PAGE0_SLOTS * (2^p - 1)`).
fn locate(id: u32) -> (usize, usize) {
    let page = (u64::from(id) / PAGE0_SLOTS + 1).ilog2();
    let start = PAGE0_SLOTS * ((1 << page) - 1);
    (page as usize, (u64::from(id) - start) as usize)
}

/// Write-once slots indexed by [`KlassId`]: one indexed, lock-free read per
/// lookup. Pages are allocated when the first id on them is set (nothing
/// is reserved up front), so sparse ids cost nothing. The klass table keeps
/// its klasses in one; a per-class cache keyed by klass id (a serializer's
/// compiled plans) keeps its entries in another. Built from `OnceLock`
/// alone — no hand-written atomics, hence no `// ORDER:` notes and no
/// interleaving model of its own.
pub struct KlassSlots<T> {
    pages: [OnceLock<Box<[OnceLock<T>]>>; PAGES],
}

impl<T> Default for KlassSlots<T> {
    fn default() -> Self {
        KlassSlots { pages: std::array::from_fn(|_| OnceLock::new()) }
    }
}

impl<T> std::fmt::Debug for KlassSlots<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pages = self.pages.iter().filter(|p| p.get().is_some()).count();
        f.debug_struct("KlassSlots").field("pages", &pages).finish()
    }
}

impl<T> KlassSlots<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        KlassSlots::default()
    }

    /// The value set for `id`, if any.
    #[inline]
    pub fn get(&self, id: KlassId) -> Option<&T> {
        let (page, slot) = locate(id.0);
        self.pages[page].get().and_then(|p| p[slot].get())
    }

    /// The value for `id`, set from `init` if none is. A value once set is
    /// never replaced.
    pub fn get_or_init(&self, id: KlassId, init: impl FnOnce() -> T) -> &T {
        let (page, slot) = locate(id.0);
        let slots = self.pages[page]
            .get_or_init(|| (0..PAGE0_SLOTS << page).map(|_| OnceLock::new()).collect());
        slots[slot].get_or_init(init)
    }
}

/// Per-VM table of loaded klasses.
///
/// Append-only: a published klass never moves and is never replaced, so
/// [`KlassTable::get`] returns a borrow good for as long as the table is —
/// the id → class path of every heap walker takes no lock and touches no
/// reference count. A klass sits in the write-once slot of the id its
/// classpath numbered it with, so a VM's ids are sparse when other VMs on
/// the classpath loaded classes it has not; pages are allocated when the
/// first id on them is published ([`KlassSlots`]). Class *load*
/// serializes on the name index's lock, which also makes the index the
/// count of what is published.
#[derive(Debug, Default)]
pub struct KlassTable {
    slots: KlassSlots<Arc<Klass>>,
    by_name: RwLock<HashMap<String, KlassId>>,
}

impl KlassTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        KlassTable::default()
    }

    /// Number of loaded klasses.
    pub fn len(&self) -> usize {
        self.by_name.read().len()
    }

    /// True if no klass is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a klass by id.
    ///
    /// # Errors
    /// [`Error::UnknownKlass`] for ids never issued by this table.
    #[inline]
    pub fn get(&self, id: KlassId) -> Result<&Arc<Klass>> {
        self.slots.get(id).ok_or(Error::UnknownKlass(id.0))
    }

    /// Resolves a klass by name, if loaded.
    pub fn by_name(&self, name: &str) -> Option<&Arc<Klass>> {
        let id = *self.by_name.read().get(name)?;
        self.get(id).ok()
    }

    /// All loaded klasses in this VM's load order.
    pub fn all(&self) -> Vec<Arc<Klass>> {
        let ids = self.by_name.read();
        let mut all: Vec<_> = ids.values().filter_map(|&id| self.get(id).ok()).cloned().collect();
        // `publish` issues each uid under the index's write lock, so uids
        // follow this table's load order.
        all.sort_unstable_by_key(|k| k.uid);
        all
    }

    /// Loads `name` (and, recursively, its supers) from `classpath` with the
    /// given object format, returning its id. Loading an already-loaded
    /// class is a cheap lookup. Array classes (`[I`, `[Lfoo;`) are
    /// synthesized without a classpath entry.
    ///
    /// # Errors
    /// [`Error::ClassNotFound`] if the classpath has no such definition;
    /// [`Error::DuplicateField`] for ill-formed definitions.
    pub fn load(&self, name: &str, classpath: &ClassPath, spec: LayoutSpec) -> Result<KlassId> {
        if let Some(k) = self.by_name(name) {
            return Ok(k.id);
        }
        // Array classes are synthesized.
        if let Some(rest) = name.strip_prefix('[') {
            let kind = match rest.chars().next() {
                Some('L') => KlassKind::RefArray,
                Some(c) => {
                    let p = PrimType::ALL
                        .into_iter()
                        .find(|p| p.descriptor() == c)
                        .ok_or_else(|| Error::ClassNotFound(name.to_owned()))?;
                    KlassKind::PrimArray(p)
                }
                None => return Err(Error::ClassNotFound(name.to_owned())),
            };
            let object_id = self.ensure_object(classpath, spec)?;
            // The element class of a reference array is loaded first, as a
            // JVM does; the array's number builds on the element's.
            let elem = match kind {
                KlassKind::RefArray => {
                    let elem = rest[1..].strip_suffix(';');
                    let elem = elem.ok_or_else(|| Error::ClassNotFound(name.to_owned()))?;
                    Some(self.load(elem, classpath, spec)?)
                }
                _ => None,
            };
            let elem_size = match kind {
                KlassKind::PrimArray(p) => p.size(),
                _ => 8,
            };
            let d = Definition { name: name.to_owned(), def: None, parent: elem };
            return Ok(self.publish(name, KlassId(classpath.number(d)), |id| Klass {
                id,
                name: name.to_owned(),
                super_id: Some(object_id),
                kind,
                fields: Vec::new(),
                field_index: HashMap::new(),
                instance_size: 0,
                ref_offsets: Box::default(),
                payload_end: 0,
                elem_size,
                descriptor_chain: vec![name.to_owned(), OBJECT.to_owned()],
                uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            }));
        }

        let def = classpath.lookup(name).ok_or_else(|| Error::ClassNotFound(name.to_owned()))?;
        let super_id = match &def.super_name {
            Some(s) => Some(self.load(s, classpath, spec)?),
            None => {
                if name == OBJECT {
                    None
                } else {
                    Some(self.ensure_object(classpath, spec)?)
                }
            }
        };
        self.insert_instance(def, super_id, classpath, spec)
    }

    /// Loads the class the classpath numbered `id` — exactly the definition
    /// that number was issued for, its parent first, also by number —
    /// unless this table already holds the class.
    ///
    /// # Errors
    /// [`Error::UnknownKlass`] for a number the classpath never issued;
    /// [`Error::LayoutMismatch`] if this table holds the class name under
    /// another number, i.e. another definition.
    pub(crate) fn load_numbered(
        &self,
        id: KlassId,
        classpath: &ClassPath,
        spec: LayoutSpec,
    ) -> Result<KlassId> {
        let d = classpath.definition(id.0).ok_or(Error::UnknownKlass(id.0))?;
        let loaded = match self.by_name(&d.name) {
            Some(k) => k.id,
            None => {
                if let Some(parent) = d.parent {
                    self.load_numbered(parent, classpath, spec)?;
                }
                match d.def {
                    Some(def) => self.insert_instance(def, d.parent, classpath, spec)?,
                    None => self.load(&d.name, classpath, spec)?,
                }
            }
        };
        if loaded != id {
            return Err(Error::LayoutMismatch { numbered: id.0, loaded: loaded.0 });
        }
        Ok(id)
    }

    fn ensure_object(&self, classpath: &ClassPath, spec: LayoutSpec) -> Result<KlassId> {
        if classpath.lookup(OBJECT).is_none() {
            classpath.define(KlassDef::new(OBJECT, None, vec![]));
        }
        self.load(OBJECT, classpath, spec)
    }

    fn insert_instance(
        &self,
        def: KlassDef,
        super_id: Option<KlassId>,
        classpath: &ClassPath,
        spec: LayoutSpec,
    ) -> Result<KlassId> {
        let name = def.name.clone();
        // Super fields (already laid out) come first; own fields are packed
        // size-descending after the super's payload end (HotSpot-style).
        let (mut fields, mut cursor, mut chain) = match super_id {
            Some(sid) => {
                let sk = self.get(sid)?;
                (sk.fields.clone(), sk.payload_end, sk.descriptor_chain.clone())
            }
            None => (Vec::new(), spec.instance_header(), Vec::new()),
        };
        chain.insert(0, name.clone());

        let mut own: Vec<&(String, FieldType)> = def.fields.iter().collect();
        own.sort_by(|a, b| b.1.size().cmp(&a.1.size()).then_with(|| a.0.cmp(&b.0)));
        for (fname, ty) in own {
            let size = u64::from(ty.size());
            cursor = (cursor + size - 1) & !(size - 1); // align to field size
            let (name, declared_in) = (fname.clone(), name.clone());
            fields.push(Field { name, ty: *ty, offset: cursor, declared_in });
            cursor += size;
        }

        let mut field_index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if field_index.insert(f.name.clone(), i).is_some() {
                return Err(Error::DuplicateField { class: name, field: f.name.clone() });
            }
        }
        // The one place the reference map is derived: offsets only grow
        // along `fields`, so the filter keeps them ascending.
        let ref_offsets =
            fields.iter().filter(|f| f.ty == FieldType::Ref).map(|f| f.offset).collect();

        let d = Definition { name: name.clone(), def: Some(def), parent: super_id };
        Ok(self.publish(&name, KlassId(classpath.number(d)), |id| Klass {
            id,
            name: name.clone(),
            super_id,
            kind: KlassKind::Instance,
            fields,
            field_index,
            instance_size: align8(cursor),
            ref_offsets,
            payload_end: cursor,
            elem_size: 0,
            descriptor_chain: chain,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
        }))
    }

    /// Publishes the klass `build` makes under `name` and `id`, the number
    /// the classpath gave its definition — taken before the index lock, so
    /// the two locks never nest — unless a concurrent loader already
    /// published that name. Holding the index's write lock across the slot write is what
    /// keeps every id in the index resolvable.
    fn publish(&self, name: &str, id: KlassId, build: impl FnOnce(KlassId) -> Klass) -> KlassId {
        let mut by_name = self.by_name.write();
        if let Some(&id) = by_name.get(name) {
            return id; // lost a benign race
        }
        self.slots.get_or_init(id, || Arc::new(build(id)));
        by_name.insert(name.to_owned(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp() -> Arc<ClassPath> {
        let cp = ClassPath::new();
        cp.define(KlassDef::new(
            "Point",
            None,
            vec![("x", FieldType::Prim(PrimType::Int)), ("y", FieldType::Prim(PrimType::Int))],
        ));
        cp.define(KlassDef::new(
            "Point3D",
            Some("Point"),
            vec![("z", FieldType::Prim(PrimType::Int))],
        ));
        cp.define(KlassDef::new(
            "Mixed",
            None,
            vec![
                ("flag", FieldType::Prim(PrimType::Bool)),
                ("big", FieldType::Prim(PrimType::Long)),
                ("small", FieldType::Prim(PrimType::Short)),
                ("next", FieldType::Ref),
                ("val", FieldType::Prim(PrimType::Int)),
            ],
        ));
        cp
    }

    #[test]
    fn loads_with_implicit_object_super() {
        let cp = cp();
        let t = KlassTable::new();
        let id = t.load("Point", &cp, LayoutSpec::SKYWAY).unwrap();
        let k = t.get(id).unwrap();
        assert_eq!(k.super_id, Some(t.by_name(OBJECT).unwrap().id));
        assert_eq!(k.descriptor_chain, vec!["Point".to_owned(), OBJECT.to_owned()]);
    }

    #[test]
    fn packs_fields_size_descending() {
        let cp = cp();
        let t = KlassTable::new();
        let id = t.load("Mixed", &cp, LayoutSpec::SKYWAY).unwrap();
        let k = t.get(id).unwrap();
        // header = 24; 8-byte fields first (big, next by name), then int,
        // short, bool.
        let off = |n: &str| k.field_by_name(n).unwrap().offset;
        assert_eq!(off("big"), 24);
        assert_eq!(off("next"), 32);
        assert_eq!(off("val"), 40);
        assert_eq!(off("small"), 44);
        assert_eq!(off("flag"), 46);
        assert_eq!(k.instance_size, 48);
    }

    #[test]
    fn subclass_layout_appends_after_super() {
        let cp = cp();
        let t = KlassTable::new();
        let id = t.load("Point3D", &cp, LayoutSpec::SKYWAY).unwrap();
        let k = t.get(id).unwrap();
        assert_eq!(k.field_by_name("x").unwrap().offset, 24);
        assert_eq!(k.field_by_name("y").unwrap().offset, 28);
        assert_eq!(k.field_by_name("z").unwrap().offset, 32);
        assert_eq!(k.instance_size, 40);
        assert_eq!(
            k.descriptor_chain,
            vec!["Point3D".to_owned(), "Point".to_owned(), OBJECT.to_owned()]
        );
    }

    #[test]
    fn stock_layout_is_8_bytes_smaller() {
        let cp = cp();
        let t = KlassTable::new();
        let id = t.load("Point", &cp, LayoutSpec::STOCK).unwrap();
        let k = t.get(id).unwrap();
        assert_eq!(k.field_by_name("x").unwrap().offset, 16);
        assert_eq!(k.instance_size, 24);
    }

    #[test]
    fn array_classes_synthesized() {
        let cp = cp();
        let t = KlassTable::new();
        let ia = t.load("[I", &cp, LayoutSpec::SKYWAY).unwrap();
        assert_eq!(t.get(ia).unwrap().kind, KlassKind::PrimArray(PrimType::Int));
        assert_eq!(t.get(ia).unwrap().elem_size, 4);
        let ra = t.load("[LPoint;", &cp, LayoutSpec::SKYWAY).unwrap();
        assert_eq!(t.get(ra).unwrap().kind, KlassKind::RefArray);
        // Element class got loaded too.
        assert!(t.by_name("Point").is_some());
    }

    #[test]
    fn unknown_class_errors() {
        let cp = cp();
        let t = KlassTable::new();
        assert!(matches!(t.load("NoSuch", &cp, LayoutSpec::SKYWAY), Err(Error::ClassNotFound(_))));
    }

    #[test]
    fn every_id_has_a_slot() {
        // Dense across page seams, and the largest klass word a corrupt
        // heap can hold still lands inside the page directory.
        let at: Vec<_> = [0, 63, 64, 191, 192, u32::MAX].into_iter().map(locate).collect();
        assert_eq!(at, [(0, 0), (0, 63), (1, 0), (1, 127), (2, 0), (PAGES - 1, 63)]);
        let t = KlassTable::new();
        assert!(matches!(t.get(KlassId(u32::MAX)), Err(Error::UnknownKlass(u32::MAX))));
    }

    /// Loaders publish while readers resolve: every id a loader is handed,
    /// and every klass the index lists, resolves through the borrow path to
    /// a fully built klass.
    #[test]
    fn concurrent_loads_publish_whole_klasses() {
        const LOADERS: usize = 4;
        const PER_LOADER: usize = 64;
        const TOTAL: usize = LOADERS * PER_LOADER + 1; // + java.lang.Object
        let cp = ClassPath::new();
        for l in 0..LOADERS {
            for i in 0..PER_LOADER {
                let fields = vec![("x", FieldType::Prim(PrimType::Int)), ("r", FieldType::Ref)];
                cp.define(KlassDef::new(format!("L{l}_{i}"), None, fields));
            }
        }
        let t = KlassTable::new();
        let whole = |k: &Klass| k.name == OBJECT || *k.ref_offsets == [24];
        let start = std::sync::Barrier::new(LOADERS + 2);
        std::thread::scope(|s| {
            for l in 0..LOADERS {
                let (t, cp, start) = (&t, &cp, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_LOADER {
                        let name = format!("L{l}_{i}");
                        let id = t.load(&name, cp, LayoutSpec::SKYWAY).unwrap();
                        let k = t.get(id).unwrap();
                        assert_eq!((k.id, &k.name), (id, &name));
                        assert!(whole(k), "{name} published without its reference map");
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    loop {
                        // The index only grows, and an entry that did not
                        // resolve would be missing from `all()`.
                        let n = t.len();
                        let all = t.all();
                        assert!(all.len() >= n, "an indexed id did not resolve");
                        for k in &all {
                            assert!(Arc::ptr_eq(t.get(k.id).unwrap(), k));
                            assert!(whole(k), "{} read half-built", k.name);
                        }
                        if n == TOTAL {
                            break;
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), TOTAL);
        assert!(matches!(t.get(KlassId(TOTAL as u32)), Err(Error::UnknownKlass(_))));
    }

    /// Two VMs load the same classes in opposite orders — implicit supers
    /// and array classes included — and agree on every klass id, while
    /// each table still lists its own load order.
    #[test]
    fn tables_on_one_classpath_agree_on_every_id() {
        let cp = cp();
        let names = ["Point3D", "[LPoint;", "Mixed", "[I"];
        let (a, b) = (KlassTable::new(), KlassTable::new());
        for n in names {
            a.load(n, &cp, LayoutSpec::SKYWAY).unwrap();
        }
        for n in names.iter().rev() {
            b.load(n, &cp, LayoutSpec::SKYWAY).unwrap();
        }
        assert_eq!((a.len(), b.len()), (6, 6));
        for k in a.all() {
            assert_eq!(b.by_name(&k.name).unwrap().id, k.id, "{}", k.name);
        }
        let order = |t: &KlassTable| t.all().iter().map(|k| k.name.clone()).collect::<Vec<_>>();
        assert_eq!(order(&a), [OBJECT, "Point", "Point3D", "[LPoint;", "Mixed", "[I"]);
        assert_eq!(order(&b), [OBJECT, "[I", "Mixed", "Point", "[LPoint;", "Point3D"]);
    }

    #[test]
    fn reload_is_idempotent() {
        let cp = cp();
        let t = KlassTable::new();
        let a = t.load("Point3D", &cp, LayoutSpec::SKYWAY).unwrap();
        let b = t.load("Point3D", &cp, LayoutSpec::SKYWAY).unwrap();
        assert_eq!(a, b);
    }
}
