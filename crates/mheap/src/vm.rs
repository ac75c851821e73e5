//! The simulated JVM process: heap + klass table + GC roots.
//!
//! A [`Vm`] owns one managed [`Heap`], one [`KlassTable`], a handle table of
//! GC roots, and a reference to the cluster-shared [`ClassPath`]. All object
//! allocation and field access go through it; collections are triggered
//! automatically when an allocation fails.

use std::sync::{Arc, OnceLock};

use crate::heap::{Gen, Heap, HeapConfig, FILLER_WORD};
use crate::klass::{ClassPath, Klass, KlassId, KlassKind, KlassTable};
use crate::layout::{align8, mark, Addr, LayoutSpec};
use crate::segment::Segment;
use crate::stdlib::{ListClasses, StringClasses};
use crate::{Error, Result};

/// A stable GC root: the handle table is updated when objects move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub u32);

#[derive(Debug, Default)]
pub(crate) struct HandleTable {
    pub(crate) slots: Vec<Option<Addr>>,
    free: Vec<u32>,
}

impl HandleTable {
    fn create(&mut self, addr: Addr) -> Handle {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(addr);
            Handle(i)
        } else {
            self.slots.push(Some(addr));
            Handle((self.slots.len() - 1) as u32)
        }
    }

    fn get(&self, h: Handle) -> Result<Addr> {
        self.slots.get(h.0 as usize).copied().flatten().ok_or(Error::BadHandle(h.0))
    }

    fn drop_handle(&mut self, h: Handle) -> Result<()> {
        let slot = self.slots.get_mut(h.0 as usize).ok_or(Error::BadHandle(h.0))?;
        if slot.take().is_none() {
            return Err(Error::BadHandle(h.0));
        }
        self.free.push(h.0);
        Ok(())
    }
}

/// An object with its class resolved once (see [`Vm::layout_of`]).
pub(crate) struct ObjLayout<I> {
    /// Size in bytes.
    pub(crate) size: u64,
    /// Byte offsets (object-relative) of every reference slot, ascending.
    pub(crate) slots: I,
}

/// GC and allocation statistics of one VM.
#[derive(Debug, Default, Clone, Copy)]
pub struct VmStats {
    /// Completed minor (young) collections.
    pub minor_gcs: u64,
    /// Completed full collections.
    pub full_gcs: u64,
    /// Objects allocated (excluding GC copies).
    pub objects_allocated: u64,
    /// Bytes allocated (excluding GC copies).
    pub bytes_allocated: u64,
    /// Bytes promoted from young to old.
    pub bytes_promoted: u64,
    /// Nanoseconds spent inside collections (the paper's Fig. 3 note: "the
    /// garbage collection cost is less than 2% and thus not shown").
    pub gc_ns: u64,
    /// Live words full collections marked, summed over collections.
    pub full_gc_live_words: u64,
    /// Words full collections moved, summed over collections.
    pub full_gc_words_moved: u64,
}

/// A simulated JVM process.
pub struct Vm {
    /// Human-readable node name (e.g. `"worker-2"`).
    pub name: String,
    pub(crate) heap: Heap,
    pub(crate) klasses: KlassTable,
    classpath: Arc<ClassPath>,
    pub(crate) handles: HandleTable,
    pub(crate) temp_roots: Vec<Addr>,
    /// Statistics (public for reporting).
    pub stats: VmStats,
    /// Where GC metrics and pause spans are reported.
    pub(crate) metrics: Arc<obs::Registry>,
    /// Trace context of the transfer that last touched this heap, so GC
    /// pauses can be attributed to the task that caused the allocation
    /// (the Yak/Broom diagnostic). Left in place after a transfer
    /// finishes: a later pause is still that transfer's garbage.
    pub(crate) trace_ctx: obs::TraceCtxCell,
    /// The core library's string classes, resolved on first use.
    pub(crate) strings: OnceLock<StringClasses>,
    /// The core library's list classes, resolved on first use.
    pub(crate) lists: OnceLock<ListClasses>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("name", &self.name)
            .field("used", &self.heap.used())
            .field("capacity", &self.heap.capacity())
            .field("klasses", &self.klasses.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Vm {
    /// Boots a VM with the given heap configuration and classpath.
    ///
    /// # Errors
    /// Propagates arena/config errors from [`Heap::new`].
    pub fn new(
        name: impl Into<String>,
        config: &HeapConfig,
        classpath: Arc<ClassPath>,
    ) -> Result<Self> {
        Ok(Vm {
            name: name.into(),
            heap: Heap::new(config)?,
            klasses: KlassTable::new(),
            classpath,
            handles: HandleTable::default(),
            temp_roots: Vec::new(),
            stats: VmStats::default(),
            metrics: Arc::clone(obs::global()),
            trace_ctx: obs::TraceCtxCell::default(),
            strings: OnceLock::new(),
            lists: OnceLock::new(),
        })
    }

    /// Reports GC metrics into `registry` instead of the process-wide
    /// default (scoped observation, e.g. in tests).
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<obs::Registry>) -> Self {
        self.metrics = registry;
        self
    }

    /// Attributes subsequent GC pauses to `ctx` (the transfer currently
    /// allocating into this heap). See [`Vm::trace_ctx`].
    pub fn set_trace_ctx(&self, ctx: obs::TraceCtx) {
        self.trace_ctx.set(ctx);
    }

    /// The trace context GC pauses are currently attributed to.
    pub fn trace_ctx(&self) -> obs::TraceCtx {
        self.trace_ctx.get()
    }

    /// The heap (read access for Skyway and serializers).
    #[inline]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access (Skyway receiver, card dirtying).
    #[inline]
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The klass table.
    #[inline]
    pub fn klasses(&self) -> &KlassTable {
        &self.klasses
    }

    /// The shared classpath.
    #[inline]
    pub fn classpath(&self) -> &Arc<ClassPath> {
        &self.classpath
    }

    /// The object format of this VM.
    #[inline]
    pub fn spec(&self) -> LayoutSpec {
        self.heap.spec()
    }

    /// Loads a class (and its supers) by name, returning its klass id.
    ///
    /// # Errors
    /// [`Error::ClassNotFound`] when the classpath lacks a definition.
    pub fn load_class(&self, name: &str) -> Result<KlassId> {
        self.klasses.load(name, &self.classpath, self.heap.spec())
    }

    /// Resolves the klass of an object: one indexed load of its klass word
    /// in this VM's table.
    ///
    /// A klass word means the same class in every VM on this classpath, so
    /// owned objects and attached segment residents resolve alike. A word
    /// this VM has no klass for yet names a class another VM on the
    /// classpath loaded first; it is loaded here by number, once
    /// ([`Vm::load_numbered`]).
    ///
    /// The klass is borrowed from the table, where it lives as long as this
    /// VM does; a caller that must keep it across a `&mut Vm` call clones
    /// the `Arc` explicitly.
    ///
    /// # Errors
    /// [`Error::BadAddress`] for null/invalid addresses; as
    /// [`Vm::load_numbered`] for a word this VM has not loaded.
    #[inline]
    pub fn klass_of(&self, obj: Addr) -> Result<&Arc<Klass>> {
        if obj.is_null() {
            return Err(Error::BadAddress(0));
        }
        let id = KlassId(self.heap.arena().load_word(obj.0 + self.spec().klass_off())? as u32);
        self.klasses.get(id).or_else(|_| self.load_numbered(id))
    }

    /// Loads the class the classpath numbered `id` — exactly the definition
    /// the number was issued for: the first time this VM meets a class some
    /// other VM on the classpath loaded.
    ///
    /// # Errors
    /// [`Error::UnknownKlass`] for a number the classpath never issued;
    /// [`Error::LayoutMismatch`] if this VM loaded the class name from
    /// another definition.
    #[cold]
    pub fn load_numbered(&self, id: KlassId) -> Result<&Arc<Klass>> {
        self.klasses.get(self.klasses.load_numbered(id, &self.classpath, self.spec())?)
    }

    /// Attaches a sealed segment to this VM's heap: maps its memory
    /// read-only into the heap's address space. Metadata-only — nothing is
    /// cloned, no cards are dirtied; after this call every address in the
    /// segment resolves through ordinary heap reads and [`Heap::gen_of`]
    /// reports [`Gen::Segment`].
    ///
    /// # Errors
    /// [`Error::SegmentFormatMismatch`] if the segment was sealed in a
    /// different object format than this heap's (its walkers would
    /// mis-parse every header); [`Error::SegmentClassPathMismatch`] if it
    /// was sealed on another classpath (its klass words number that
    /// classpath's classes); [`Error::SegmentAlreadyAttached`] if a segment
    /// with the same base is already attached.
    pub fn attach_segment(&mut self, seg: Arc<Segment>) -> Result<()> {
        let (base, sealed, attacher) = (seg.base(), seg.spec(), self.spec());
        if sealed != attacher {
            return Err(Error::SegmentFormatMismatch { base, sealed, attacher });
        }
        if !Arc::ptr_eq(seg.classpath(), &self.classpath) {
            return Err(Error::SegmentClassPathMismatch(base));
        }
        self.heap.attach_segment(seg)
    }

    // ----- handles ------------------------------------------------------

    /// Registers `addr` as a GC root and returns a stable handle.
    ///
    /// ```
    /// use mheap::{ClassPath, HeapConfig, Vm};
    /// use mheap::stdlib::define_core_classes;
    /// # fn main() -> mheap::Result<()> {
    /// let cp = ClassPath::new();
    /// define_core_classes(&cp);
    /// let mut vm = Vm::new("doc", &HeapConfig::small(), cp)?;
    /// let s = vm.new_string("rooted")?;
    /// let h = vm.handle(s);
    /// vm.full_gc()?; // the object may move…
    /// let s = vm.resolve(h)?; // …the handle follows it
    /// assert_eq!(vm.read_string(s)?, "rooted");
    /// # Ok(())
    /// # }
    /// ```
    pub fn handle(&mut self, addr: Addr) -> Handle {
        self.handles.create(addr)
    }

    /// Current address behind a handle (objects move during GC).
    ///
    /// # Errors
    /// [`Error::BadHandle`] for stale handles.
    pub fn resolve(&self, h: Handle) -> Result<Addr> {
        self.handles.get(h)
    }

    /// Releases a handle (the object becomes collectible unless otherwise
    /// reachable).
    ///
    /// # Errors
    /// [`Error::BadHandle`] for stale handles.
    pub fn release(&mut self, h: Handle) -> Result<()> {
        self.handles.drop_handle(h)
    }

    /// Pushes a temporary GC root (updated on GC). Pair with
    /// [`Vm::pop_temp_root`]; use [`Vm::temp_root`] to re-read after
    /// allocations.
    pub fn push_temp_root(&mut self, addr: Addr) -> usize {
        self.temp_roots.push(addr);
        self.temp_roots.len() - 1
    }

    /// Reads back a temporary root (it may have moved).
    ///
    /// # Panics
    /// Panics if `idx` is not a live temp-root index (programming error).
    pub fn temp_root(&self, idx: usize) -> Addr {
        self.temp_roots[idx]
    }

    /// Pops the most recent temporary root, returning its current address.
    ///
    /// # Panics
    /// Panics if the temp-root stack is empty (programming error).
    pub fn pop_temp_root(&mut self) -> Addr {
        self.temp_roots.pop().expect("temp root stack underflow") // tidy:allow(panic, documented programming-error panic)
    }

    // ----- allocation -----------------------------------------------------

    /// The object at `obj` with its class resolved once: its size and its
    /// reference slots. [`Vm::obj_size`] and [`Vm::ref_slots`] are its two
    /// views; a walker that needs both calls this.
    ///
    /// # Errors
    /// [`Error::BadAddress`] / [`Error::UnknownKlass`] for invalid objects.
    pub(crate) fn layout_of(&self, obj: Addr) -> Result<ObjLayout<impl Iterator<Item = u64> + '_>> {
        let k = self.klass_of(obj)?;
        let base = self.spec().array_header();
        let len = if k.is_array() { self.array_len(obj)? } else { 0 };
        let array = align8(base + len * u64::from(k.elem_size));
        let size = if k.is_array() { array } else { k.instance_size };
        let elems = if k.kind == KlassKind::RefArray { len } else { 0 };
        let slots = k.ref_offsets.iter().copied().chain((base..base + elems * 8).step_by(8));
        Ok(ObjLayout { size, slots })
    }

    /// Size in bytes of the object at `obj`.
    ///
    /// # Errors
    /// [`Error::BadAddress`] / [`Error::UnknownKlass`] for invalid objects.
    pub fn obj_size(&self, obj: Addr) -> Result<u64> {
        Ok(self.layout_of(obj)?.size)
    }

    /// Allocates an instance of `klass` with zeroed fields.
    ///
    /// Runs minor/full collections as needed.
    ///
    /// ```
    /// use mheap::{ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};
    /// # fn main() -> mheap::Result<()> {
    /// let cp = ClassPath::new();
    /// cp.define(KlassDef::new("P", None, vec![("x", FieldType::Prim(PrimType::Int))]));
    /// let mut vm = Vm::new("doc", &HeapConfig::small(), cp)?;
    /// let k = vm.load_class("P")?;
    /// let p = vm.alloc_instance(k)?;
    /// vm.set_int(p, "x", 7)?;
    /// assert_eq!(vm.get_int(p, "x")?, 7);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// A klass id this VM has not loaded yet names a class another VM on
    /// the classpath loaded first: it is loaded here by number, as
    /// [`Vm::klass_of`] does.
    ///
    /// # Errors
    /// [`Error::OutOfMemory`] when even a full GC cannot free enough space;
    /// as [`Vm::load_numbered`] for a klass id this VM has not loaded.
    pub fn alloc_instance(&mut self, klass: KlassId) -> Result<Addr> {
        let k = self.klasses.get(klass).or_else(|_| self.load_numbered(klass))?;
        if k.is_array() {
            return Err(Error::NotAnInstanceKlass(k.name.clone()));
        }
        let size = k.instance_size;
        let addr = self.alloc_raw(size)?;
        self.heap.arena().store_word(addr.0 + self.spec().klass_off(), u64::from(klass.0))?;
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size;
        Ok(addr)
    }

    /// Allocates an array of `len` elements with zeroed contents.
    ///
    /// Loads `klass` by number if this VM has not loaded it yet, as
    /// [`Vm::alloc_instance`] does.
    ///
    /// # Errors
    /// [`Error::OutOfMemory`]; [`Error::NotAnArray`] if `klass` is an
    /// instance klass.
    pub fn alloc_array(&mut self, klass: KlassId, len: u64) -> Result<Addr> {
        let k = self.klasses.get(klass).or_else(|_| self.load_numbered(klass))?;
        if !k.is_array() {
            return Err(Error::NotAnArray(k.name.clone()));
        }
        let size = align8(self.spec().array_header() + len * u64::from(k.elem_size));
        let addr = self.alloc_raw(size)?;
        let spec = self.spec();
        self.heap.arena().store_word(addr.0 + spec.klass_off(), u64::from(klass.0))?;
        match spec.array_len_size {
            8 => self.heap.arena().store_word(addr.0 + spec.array_len_off(), len)?,
            4 => self.heap.arena().store_u32(addr.0 + spec.array_len_off(), len as u32)?,
            n => return Err(Error::BadConfig(format!("array_len_size {n}"))),
        }
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size;
        Ok(addr)
    }

    /// True when the old generation could absorb a worst-case promotion of
    /// everything live in the young generation — the precondition that makes
    /// a minor collection infallible.
    pub(crate) fn minor_gc_is_safe(&self) -> bool {
        let young_used = self.heap.eden.used() + self.heap.from_space().used();
        self.heap.old.free() >= young_used
    }

    fn alloc_raw(&mut self, size: u64) -> Result<Addr> {
        // Large objects go straight to the old generation.
        let large = size > self.heap.eden.size() / 4;
        if !large {
            if let Some(a) = self.heap.bump_young(size) {
                return Ok(a);
            }
            // A minor GC can promote at most the live young bytes; when the
            // old generation cannot guarantee that, collect it first so the
            // minor pass cannot fail halfway through evacuation.
            if self.minor_gc_is_safe() {
                self.minor_gc()?;
            } else {
                self.full_gc()?;
            }
            if let Some(a) = self.heap.bump_young(size) {
                return Ok(a);
            }
        }
        if let Some(a) = self.heap.bump_old(size) {
            return Ok(a);
        }
        self.full_gc()?;
        if let Some(a) = self.heap.bump_old(size) {
            return Ok(a);
        }
        Err(Error::OutOfMemory { requested: size, capacity: self.heap.capacity() })
    }

    // ----- object access ---------------------------------------------------

    /// Length of the array at `obj`.
    ///
    /// # Errors
    /// [`Error::NotAnArray`] for instances; address errors otherwise.
    pub fn array_len(&self, obj: Addr) -> Result<u64> {
        let spec = self.spec();
        match spec.array_len_size {
            8 => self.heap.arena().load_word(obj.0 + spec.array_len_off()),
            4 => Ok(u64::from(self.heap.arena().load_u32(obj.0 + spec.array_len_off())?)),
            n => Err(Error::BadConfig(format!("array_len_size {n}"))),
        }
    }

    fn elem_off(&self, obj: Addr, k: &Klass, idx: u64) -> Result<u64> {
        if !k.is_array() {
            return Err(Error::NotAnArray(k.name.clone()));
        }
        let len = self.array_len(obj)?;
        if idx >= len {
            return Err(Error::IndexOutOfBounds { index: idx, len });
        }
        Ok(obj.0 + self.spec().array_header() + idx * u64::from(k.elem_size))
    }

    /// Reads a primitive field as raw 64-bit payload (sign-extended for
    /// signed types by the typed wrappers in [`crate::object`]).
    ///
    /// # Errors
    /// Address errors; [`Error::NoSuchField`] via the named variants.
    pub fn read_prim_raw(&self, obj: Addr, offset: u64, size: u8) -> Result<u64> {
        let a = self.heap.arena();
        match size {
            1 => Ok(u64::from(a.load_u8(obj.0 + offset)?)),
            2 => Ok(u64::from(a.load_u16(obj.0 + offset)?)),
            4 => Ok(u64::from(a.load_u32(obj.0 + offset)?)),
            8 => a.load_word(obj.0 + offset),
            n => Err(Error::BadConfig(format!("field size {n}"))),
        }
    }

    /// Writes a primitive field from raw 64-bit payload (truncating).
    ///
    /// # Errors
    /// Address errors.
    pub fn write_prim_raw(&mut self, obj: Addr, offset: u64, size: u8, val: u64) -> Result<()> {
        let a = self.heap.arena();
        match size {
            1 => a.store_u8(obj.0 + offset, val as u8),
            2 => a.store_u16(obj.0 + offset, val as u16),
            4 => a.store_u32(obj.0 + offset, val as u32),
            8 => a.store_word(obj.0 + offset, val),
            n => Err(Error::BadConfig(format!("field size {n}"))),
        }
    }

    /// Reads a reference slot at `offset` within `obj`.
    ///
    /// # Errors
    /// Address errors.
    pub fn read_ref_at(&self, obj: Addr, offset: u64) -> Result<Addr> {
        Ok(Addr(self.heap.arena().load_word(obj.0 + offset)?))
    }

    /// Writes a reference slot with the generational write barrier (dirties
    /// the card when an old-generation object gains a pointer).
    ///
    /// # Errors
    /// Address errors.
    pub fn write_ref_at(&mut self, obj: Addr, offset: u64, val: Addr) -> Result<()> {
        self.heap.arena().store_word(obj.0 + offset, val.0)?;
        if self.heap.in_old(obj) {
            self.heap.dirty_card(obj);
        }
        Ok(())
    }

    /// Reads a primitive array element (raw bits).
    ///
    /// # Errors
    /// [`Error::IndexOutOfBounds`], address errors.
    pub fn array_get_raw(&self, obj: Addr, idx: u64) -> Result<u64> {
        let k = self.klass_of(obj)?;
        let off = self.elem_off(obj, k, idx)?;
        self.read_prim_raw(Addr(0), off, k.elem_size)
    }

    /// Writes a primitive array element (raw bits, truncating).
    ///
    /// # Errors
    /// [`Error::IndexOutOfBounds`], address errors.
    pub fn array_set_raw(&mut self, obj: Addr, idx: u64, val: u64) -> Result<()> {
        let k = self.klass_of(obj)?;
        let (off, size) = (self.elem_off(obj, k, idx)?, k.elem_size);
        self.write_prim_raw(Addr(0), off, size, val)
    }

    /// Reads a reference array element.
    ///
    /// # Errors
    /// [`Error::IndexOutOfBounds`], [`Error::NotAnArray`], address errors.
    pub fn array_get_ref(&self, obj: Addr, idx: u64) -> Result<Addr> {
        let k = self.klass_of(obj)?;
        if k.kind != KlassKind::RefArray {
            return Err(Error::NotAnArray(k.name.clone()));
        }
        let off = self.elem_off(obj, k, idx)?;
        Ok(Addr(self.heap.arena().load_word(off)?))
    }

    /// Writes a reference array element (with write barrier).
    ///
    /// # Errors
    /// [`Error::IndexOutOfBounds`], [`Error::NotAnArray`], address errors.
    pub fn array_set_ref(&mut self, obj: Addr, idx: u64, val: Addr) -> Result<()> {
        let k = self.klass_of(obj)?;
        if k.kind != KlassKind::RefArray {
            return Err(Error::NotAnArray(k.name.clone()));
        }
        let off = self.elem_off(obj, k, idx)?;
        self.heap.arena().store_word(off, val.0)?;
        if self.heap.in_old(obj) {
            self.heap.dirty_card(obj);
        }
        Ok(())
    }

    /// The identity hashcode, materializing (and caching in the mark word)
    /// on first use — the cache Skyway preserves across transfers.
    ///
    /// # Errors
    /// Address errors.
    pub fn identity_hash(&mut self, obj: Addr) -> Result<u32> {
        let moff = obj.0 + self.spec().mark_off();
        let m = self.heap.arena().load_word(moff)?;
        let h = mark::hash_of(m);
        if h != 0 {
            return Ok(h);
        }
        let h = self.heap.next_hash();
        self.heap.arena().store_word(moff, mark::with_hash(m, h))?;
        Ok(h)
    }

    /// Reads the cached identity hashcode without materializing (0 = none).
    ///
    /// # Errors
    /// Address errors.
    pub fn cached_hash(&self, obj: Addr) -> Result<u32> {
        let m = self.heap.arena().load_word(obj.0 + self.spec().mark_off())?;
        Ok(mark::hash_of(m))
    }

    // ----- ref-slot iteration (used by GC and Skyway) ---------------------

    /// Byte offsets (object-relative) of every reference slot in `obj`,
    /// ascending: the klass's reference map for an instance, the element
    /// range for a reference array. Borrows the klass; allocates nothing.
    ///
    /// # Errors
    /// Address errors.
    pub fn ref_slots(&self, obj: Addr) -> Result<impl Iterator<Item = u64> + '_> {
        Ok(self.layout_of(obj)?.slots)
    }

    // ----- space walking ---------------------------------------------------

    /// Walks objects in `[start, end)` in address order, skipping filler
    /// words, invoking `f(addr, size)` — until the range ends (`Ok(None)`)
    /// or an object's class or size cannot be resolved: `Ok(Some((at, why)))`
    /// says where parsing stopped. [`Vm::walk_range`] turns that into an
    /// error; the verifier records it as a fault and moves on.
    ///
    /// # Errors
    /// Arena access failures and the first error from `f`.
    pub(crate) fn walk_parsed(
        &self,
        start: u64,
        end: u64,
        mut f: impl FnMut(&Vm, Addr, u64) -> Result<()>,
    ) -> Result<Option<(u64, Error)>> {
        let mut at = start;
        while at < end {
            let w = self.heap.arena().load_word(at)?;
            if w == FILLER_WORD {
                at += 8;
                continue;
            }
            let addr = Addr(at);
            let size = match self.obj_size(addr) {
                Ok(size) => size,
                Err(why) => return Ok(Some((at, why))),
            };
            f(self, addr, size)?;
            at += size;
        }
        Ok(None)
    }

    /// Walks objects in `[start, end)` in address order, skipping filler
    /// words, invoking `f(addr, size)`.
    ///
    /// # Errors
    /// Propagates the first error from `f` or from object parsing.
    pub fn walk_range(
        &self,
        start: u64,
        end: u64,
        f: impl FnMut(&Vm, Addr, u64) -> Result<()>,
    ) -> Result<()> {
        self.walk_parsed(start, end, f)?.map_or(Ok(()), |(_, why)| Err(why))
    }

    /// Walks every live-allocated region (eden, from-survivor, old).
    ///
    /// # Errors
    /// Propagates errors from `f`.
    pub fn walk_heap(&self, mut f: impl FnMut(&Vm, Addr, u64) -> Result<()>) -> Result<()> {
        let (eden, from, _, old) = self.heap.spaces();
        self.walk_range(eden.start, eden.top, &mut f)?;
        self.walk_range(from.start, from.top, &mut f)?;
        self.walk_range(old.start, old.top, &mut f)
    }

    /// Generation of an object (convenience re-export).
    ///
    /// # Errors
    /// [`Error::BadAddress`].
    pub fn gen_of(&self, obj: Addr) -> Result<Gen> {
        self.heap.gen_of(obj)
    }
}
