//! `mheap` — a simulated managed heap (the JVM substrate of the Skyway
//! reproduction).
//!
//! Skyway (ASPLOS 2018) is a JVM modification: it transfers object graphs
//! between managed heaps *without changing object formats*. Reproducing it
//! in Rust therefore starts by building the managed heap itself. This crate
//! provides:
//!
//! * a byte-addressable, fixed-capacity [`heap::Heap`] split into
//!   HotSpot-style generations (eden, two survivors, old);
//! * object layout per the paper's Figure 6 — `mark | klass | baddr |
//!   [array length] | payload` — in [`layout`], including the Skyway
//!   `baddr` word used for reference relativization;
//! * class metadata ("klass" meta-objects) with computed field offsets in
//!   [`klass`], plus a shared [`klass::ClassPath`] for on-demand loading;
//! * a generational collector with a card table in [`gc`];
//! * typed object accessors in [`object`] (resolved [`FieldHandle`]s for
//!   compiled access, by-name accessors for reflection) and an in-heap core
//!   library (strings, lists, an identity-hash map) in [`stdlib`];
//! * the [`vm::Vm`] facade tying one simulated JVM process together.
//!
//! # Example
//!
//! ```
//! use mheap::{ClassPath, HeapConfig, Vm};
//! use mheap::stdlib::define_core_classes;
//!
//! # fn main() -> mheap::Result<()> {
//! let classpath = ClassPath::new();
//! define_core_classes(&classpath);
//! let mut vm = Vm::new("worker-0", &HeapConfig::small(), classpath)?;
//! let s = vm.new_string("hello heap")?;
//! assert_eq!(vm.read_string(s)?, "hello heap");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod gc;
pub mod heap;
pub mod klass;
pub mod layout;
pub mod mem;
pub mod object;
pub mod segment;
pub mod stdlib;
pub mod verify;
pub mod vm;

pub use heap::{Gen, Heap, HeapConfig, Space, CARD_SIZE, FILLER_WORD};
pub use klass::{
    ClassPath, Field, FieldType, Klass, KlassDef, KlassId, KlassKind, KlassSlots, KlassTable,
    PrimType,
};
pub use layout::{Addr, LayoutSpec};
pub use object::{FieldHandle, Value};
pub use segment::{Segment, SegmentBuilder, SEGMENT_BASE};
pub use verify::{ClassStat, HeapFault};
pub use vm::{Handle, Vm, VmStats};

/// Errors produced by the managed-heap substrate.
#[derive(Debug)]
pub enum Error {
    /// The backing arena could not be allocated.
    ArenaAlloc(usize),
    /// An access fell outside the arena.
    OutOfBounds {
        /// Offending offset.
        off: u64,
        /// Access size in bytes.
        size: usize,
    },
    /// An access was not aligned to its size.
    Misaligned {
        /// Offending offset.
        off: u64,
        /// Required alignment.
        align: usize,
    },
    /// This object format has no Skyway `baddr` header word.
    NoBaddr,
    /// Heap configuration was out of range.
    BadConfig(String),
    /// An address was null or outside every space.
    BadAddress(u64),
    /// A klass id was never issued.
    UnknownKlass(u32),
    /// The classpath has no definition for this name.
    ClassNotFound(String),
    /// A class number names a definition of a class this VM already loaded
    /// from another definition, under another number. It carries numbers
    /// only: one more owned field in this enum grows its drop glue past what
    /// the compiler inlines, and every hot `Result` here then pays a call.
    LayoutMismatch {
        /// The number met.
        numbered: u32,
        /// The number this VM loaded the class under.
        loaded: u32,
    },
    /// A class declared (or inherited) two fields with the same name.
    DuplicateField {
        /// Class name.
        class: String,
        /// Field name.
        field: String,
    },
    /// Field lookup by name failed.
    NoSuchField {
        /// Class name.
        class: String,
        /// Field name.
        field: String,
    },
    /// Field access used the wrong type (prim vs ref, or wrong prim).
    FieldTypeMismatch {
        /// Class name.
        class: String,
        /// Field name.
        field: String,
    },
    /// An array operation was applied to a non-array object.
    NotAnArray(String),
    /// `alloc_instance` was called with an array klass.
    NotAnInstanceKlass(String),
    /// Array index out of range.
    IndexOutOfBounds {
        /// Requested index.
        index: u64,
        /// Array length.
        len: u64,
    },
    /// A handle was stale or never issued.
    BadHandle(u32),
    /// A [`FieldHandle`] met an object of another class: the object's klass
    /// word is not the handle's klass id. Numbers only, as in
    /// [`Error::LayoutMismatch`].
    HandleMismatch {
        /// The object accessed.
        obj: u64,
        /// The klass id the handle was resolved for.
        expected: u32,
        /// The object's klass word.
        found: u64,
    },
    /// A [`FieldHandle`] resolved on a VM of another classpath: its klass
    /// id numbers that classpath's classes.
    HandleClassPathMismatch {
        /// The object accessed.
        obj: u64,
    },
    /// A [`FieldHandle`] resolved on a VM of another object format: its
    /// offset assumes that format's header.
    HandleFormatMismatch {
        /// The object accessed.
        obj: u64,
        /// Format of the VM the handle was resolved on.
        resolved: LayoutSpec,
        /// Format of the accessing VM.
        used: LayoutSpec,
    },
    /// The old generation could not fit an input-buffer chunk.
    OldGenFull {
        /// Requested bytes.
        requested: u64,
    },
    /// A minor collection could not promote into the old generation.
    PromotionFailed {
        /// Size of the object being promoted.
        requested: u64,
    },
    /// The global segment base region is exhausted (bases are never
    /// recycled); claiming another would wrap into live address space.
    SegmentSpaceExhausted {
        /// Span of base-region bytes the claim needed.
        requested: u64,
    },
    /// Allocation failed even after a full collection.
    OutOfMemory {
        /// Requested bytes.
        requested: u64,
        /// Heap capacity.
        capacity: u64,
    },
    /// A store targeted read-only attached-segment memory.
    SegmentReadOnly {
        /// Offending offset (in the attacher's global address space).
        off: u64,
    },
    /// No segment with this base is attached to (or known by) the heap.
    UnknownSegment(u64),
    /// A segment with this base is already attached to the heap.
    SegmentAlreadyAttached(u64),
    /// A segment sealed in one object format was offered to a heap of
    /// another; every walker of the attacher would mis-parse it.
    SegmentFormatMismatch {
        /// Base of the offered segment.
        base: u64,
        /// Format the segment was sealed in.
        sealed: LayoutSpec,
        /// Format of the attaching heap.
        attacher: LayoutSpec,
    },
    /// A segment sealed by a VM on one classpath was offered to a VM on
    /// another; its klass words number the sealing classpath's classes.
    SegmentClassPathMismatch(u64),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ArenaAlloc(n) => write!(f, "failed to allocate {n}-byte arena"),
            Error::OutOfBounds { off, size } => {
                write!(f, "access of {size} bytes at offset {off:#x} is out of bounds")
            }
            Error::Misaligned { off, align } => {
                write!(f, "offset {off:#x} is not aligned to {align}")
            }
            Error::NoBaddr => write!(f, "object format has no baddr header word"),
            Error::BadConfig(s) => write!(f, "invalid heap configuration: {s}"),
            Error::BadAddress(a) => write!(f, "invalid object address {a:#x}"),
            Error::UnknownKlass(id) => write!(f, "unknown klass id {id}"),
            Error::ClassNotFound(n) => write!(f, "class not found on classpath: {n}"),
            Error::LayoutMismatch { numbered, loaded } => {
                write!(f, "class number {numbered} names another layout of class {loaded} here")
            }
            Error::DuplicateField { class, field } => {
                write!(f, "duplicate field {field} in class {class}")
            }
            Error::NoSuchField { class, field } => {
                write!(f, "no field {field} in class {class}")
            }
            Error::FieldTypeMismatch { class, field } => {
                write!(f, "field type mismatch accessing {class}.{field}")
            }
            Error::NotAnArray(n) => write!(f, "object of class {n} is not an array"),
            Error::NotAnInstanceKlass(n) => write!(f, "klass {n} is not an instance klass"),
            Error::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            Error::BadHandle(h) => write!(f, "stale or unknown handle {h}"),
            Error::HandleMismatch { obj, expected, found } => {
                write!(
                    f,
                    "object {obj:#x} has klass word {found}, the field handle's is {expected}"
                )
            }
            Error::HandleClassPathMismatch { obj } => {
                write!(f, "field handle used on object {obj:#x} was resolved on another classpath")
            }
            Error::HandleFormatMismatch { obj, resolved, used } => {
                write!(
                    f,
                    "field handle used on object {obj:#x} was resolved for {resolved:?} but the \
                     heap is {used:?}"
                )
            }
            Error::OldGenFull { requested } => {
                write!(f, "old generation cannot fit {requested} bytes")
            }
            Error::PromotionFailed { requested } => {
                write!(f, "promotion of {requested} bytes failed; full GC required")
            }
            Error::SegmentSpaceExhausted { requested } => {
                write!(f, "segment base region exhausted: cannot claim {requested} more bytes")
            }
            Error::OutOfMemory { requested, capacity } => {
                write!(f, "out of memory: requested {requested} bytes of {capacity}-byte heap")
            }
            Error::SegmentReadOnly { off } => {
                write!(f, "write into read-only sealed segment memory at {off:#x}")
            }
            Error::UnknownSegment(base) => {
                write!(f, "no attached segment with base {base:#x}")
            }
            Error::SegmentAlreadyAttached(base) => {
                write!(f, "segment {base:#x} is already attached")
            }
            Error::SegmentFormatMismatch { base, sealed, attacher } => {
                write!(
                    f,
                    "segment {base:#x} was sealed as {sealed:?} but the attaching heap is \
                     {attacher:?}"
                )
            }
            Error::SegmentClassPathMismatch(base) => {
                write!(f, "segment {base:#x} was sealed on another classpath")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
