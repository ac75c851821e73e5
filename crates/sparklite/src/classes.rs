//! Record classes the Spark-like workloads shuffle, plus GC-safe
//! constructors and readers.
//!
//! Workload records are real managed-heap object graphs — that is the whole
//! point: the serializers (and Skyway) operate on objects with headers,
//! references, and padding, not on Rust structs.

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, FieldHandle, FieldType, KlassDef, KlassId, PrimType, Vm};

use crate::{Error, Result};

/// A directed edge record.
pub const EDGE: &str = "graph.Edge";
/// An adjacency record: a node and its neighbor array.
pub const ADJ: &str = "graph.Adj";
/// A rank record (PageRank state).
pub const RANK: &str = "graph.Rank";
/// A contribution message (PageRank shuffle payload).
pub const CONTRIB: &str = "graph.Contrib";
/// A label record / message (ConnectedComponents).
pub const LABEL: &str = "graph.Label";
/// A triangle query message: "is `b` adjacent to `a`?".
pub const QUERY: &str = "graph.Query";
/// A word-count record: word string + count.
pub const WORD_COUNT: &str = "wc.WordCount";
/// A closure descriptor (what closure serialization ships).
pub const CLOSURE: &str = "spark.Closure";

/// Registers all engine/workload classes (plus the core library) on a
/// classpath. Idempotent.
pub fn define_spark_classes(cp: &Arc<ClassPath>) {
    define_core_classes(cp);
    cp.define_all([
        KlassDef::new(
            EDGE,
            None,
            vec![
                ("src", FieldType::Prim(PrimType::Long)),
                ("dst", FieldType::Prim(PrimType::Long)),
            ],
        ),
        KlassDef::new(
            ADJ,
            None,
            vec![("node", FieldType::Prim(PrimType::Long)), ("neighbors", FieldType::Ref)],
        ),
        KlassDef::new(
            RANK,
            None,
            vec![
                ("node", FieldType::Prim(PrimType::Long)),
                ("rank", FieldType::Prim(PrimType::Double)),
            ],
        ),
        KlassDef::new(
            CONTRIB,
            None,
            vec![
                ("node", FieldType::Prim(PrimType::Long)),
                ("value", FieldType::Prim(PrimType::Double)),
            ],
        ),
        KlassDef::new(
            LABEL,
            None,
            vec![
                ("node", FieldType::Prim(PrimType::Long)),
                ("label", FieldType::Prim(PrimType::Long)),
            ],
        ),
        KlassDef::new(
            QUERY,
            None,
            vec![("a", FieldType::Prim(PrimType::Long)), ("b", FieldType::Prim(PrimType::Long))],
        ),
        KlassDef::new(
            WORD_COUNT,
            None,
            vec![("word", FieldType::Ref), ("count", FieldType::Prim(PrimType::Int))],
        ),
        KlassDef::new(
            CLOSURE,
            None,
            vec![
                ("name", FieldType::Ref),
                ("stage", FieldType::Prim(PrimType::Int)),
                ("captured", FieldType::Ref),
            ],
        ),
    ]);
}

/// All class names a Spark-like job can shuffle, for serializer
/// registries (the "MyRegistrator" burden of §2.1, automated here).
pub fn spark_class_names() -> Vec<&'static str> {
    vec![
        EDGE,
        ADJ,
        RANK,
        CONTRIB,
        LABEL,
        QUERY,
        WORD_COUNT,
        CLOSURE,
        mheap::stdlib::STRING,
        mheap::stdlib::INTEGER,
        mheap::stdlib::LONG,
        mheap::stdlib::DOUBLE,
        mheap::stdlib::PAIR,
        mheap::stdlib::ARRAY_LIST,
        mheap::stdlib::HASH_MAP,
        mheap::stdlib::HASH_NODE,
        "[C",
        "[I",
        "[J",
        "[Ljava.lang.Object;",
    ]
}

/// A record class of two fields, resolved once: its klass id and a handle
/// per field.
#[derive(Debug, Clone, Copy)]
struct Record {
    klass: KlassId,
    a: FieldHandle,
    b: FieldHandle,
}

impl Record {
    fn resolve(vm: &Vm, class: &str, a: &str, b: &str) -> Result<Self> {
        Record::of(vm, vm.load_class(class).map_err(Error::Heap)?, a, b)
    }

    fn of(vm: &Vm, klass: KlassId, a: &str, b: &str) -> Result<Self> {
        let field = |name| vm.field_handle(klass, name).map_err(Error::Heap);
        Ok(Record { klass, a: field(a)?, b: field(b)? })
    }

    fn new_longs(self, vm: &mut Vm, a: i64, b: i64) -> Result<Addr> {
        let r = vm.alloc_instance(self.klass).map_err(Error::Heap)?;
        vm.set_long_field(r, self.a, a).map_err(Error::Heap)?;
        vm.set_long_field(r, self.b, b).map_err(Error::Heap)?;
        Ok(r)
    }

    fn read_longs(self, vm: &Vm, r: Addr) -> Result<(i64, i64)> {
        let a = vm.long_field(r, self.a).map_err(Error::Heap)?;
        Ok((a, vm.long_field(r, self.b).map_err(Error::Heap)?))
    }

    fn new_long_double(self, vm: &mut Vm, a: i64, b: f64) -> Result<Addr> {
        let r = vm.alloc_instance(self.klass).map_err(Error::Heap)?;
        vm.set_long_field(r, self.a, a).map_err(Error::Heap)?;
        vm.set_double_field(r, self.b, b).map_err(Error::Heap)?;
        Ok(r)
    }

    fn read_long_double(self, vm: &Vm, r: Addr) -> Result<(i64, f64)> {
        let a = vm.long_field(r, self.a).map_err(Error::Heap)?;
        Ok((a, vm.double_field(r, self.b).map_err(Error::Heap)?))
    }
}

/// Every workload record class with its fields resolved once — the
/// compiled access path of a job. Klass ids agree across the VMs of a
/// classpath and field offsets across the VMs of an object format, so one
/// resolution, on any VM of a cluster (whose VMs share both), serves every
/// worker: a job resolves this once and captures it in its closures.
///
/// The free [`new_edge`] and [`read_edge`] resolve the edge class per
/// call; they remain only for the standalone transfer rig in `skybench`,
/// which builds its edges outside any job.
#[derive(Debug, Clone, Copy)]
pub struct SparkClasses {
    edge: Record,
    adj: Record,
    rank: Record,
    contrib: Record,
    label: Record,
    query: Record,
    word_count: Record,
    long_array: KlassId,
}

impl SparkClasses {
    /// Resolves every record class and field on `vm`.
    ///
    /// # Errors
    /// Class-loading / field errors (the classes come from
    /// [`define_spark_classes`]).
    pub fn resolve(vm: &Vm) -> Result<Self> {
        Ok(SparkClasses {
            edge: Record::resolve(vm, EDGE, "src", "dst")?,
            adj: Record::resolve(vm, ADJ, "node", "neighbors")?,
            rank: Record::resolve(vm, RANK, "node", "rank")?,
            contrib: Record::resolve(vm, CONTRIB, "node", "value")?,
            label: Record::resolve(vm, LABEL, "node", "label")?,
            query: Record::resolve(vm, QUERY, "a", "b")?,
            word_count: Record::resolve(vm, WORD_COUNT, "word", "count")?,
            long_array: vm.load_class("[J").map_err(Error::Heap)?,
        })
    }

    /// Allocates an edge record.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_edge(&self, vm: &mut Vm, src: i64, dst: i64) -> Result<Addr> {
        self.edge.new_longs(vm, src, dst)
    }

    /// Reads an edge record.
    ///
    /// # Errors
    /// Field errors.
    pub fn read_edge(&self, vm: &Vm, e: Addr) -> Result<(i64, i64)> {
        self.edge.read_longs(vm, e)
    }

    /// Allocates an adjacency record with a long[] of neighbors.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_adj(&self, vm: &mut Vm, node: i64, neighbors: &[i64]) -> Result<Addr> {
        let arr = vm.new_long_array(self.long_array, neighbors).map_err(Error::Heap)?;
        let t = vm.push_temp_root(arr);
        let r = vm.alloc_instance(self.adj.klass).map_err(Error::Heap)?;
        let arr = vm.temp_root(t);
        vm.pop_temp_root();
        vm.set_long_field(r, self.adj.a, node).map_err(Error::Heap)?;
        vm.set_ref_field(r, self.adj.b, arr).map_err(Error::Heap)?;
        Ok(r)
    }

    /// Reads an adjacency record.
    ///
    /// # Errors
    /// Field errors.
    pub fn read_adj(&self, vm: &Vm, r: Addr) -> Result<(i64, Vec<i64>)> {
        let node = vm.long_field(r, self.adj.a).map_err(Error::Heap)?;
        let arr = vm.ref_field(r, self.adj.b).map_err(Error::Heap)?;
        Ok((node, vm.read_long_array(arr, self.long_array).map_err(Error::Heap)?))
    }

    /// Allocates a rank record.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_rank(&self, vm: &mut Vm, node: i64, rank: f64) -> Result<Addr> {
        self.rank.new_long_double(vm, node, rank)
    }

    /// Reads a rank record.
    ///
    /// # Errors
    /// Field errors.
    pub fn read_rank(&self, vm: &Vm, r: Addr) -> Result<(i64, f64)> {
        self.rank.read_long_double(vm, r)
    }

    /// Allocates a contribution message.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_contrib(&self, vm: &mut Vm, node: i64, value: f64) -> Result<Addr> {
        self.contrib.new_long_double(vm, node, value)
    }

    /// Reads a contribution message.
    ///
    /// # Errors
    /// Field errors.
    pub fn read_contrib(&self, vm: &Vm, r: Addr) -> Result<(i64, f64)> {
        self.contrib.read_long_double(vm, r)
    }

    /// Allocates a label record/message.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_label(&self, vm: &mut Vm, node: i64, label: i64) -> Result<Addr> {
        self.label.new_longs(vm, node, label)
    }

    /// Reads a label record.
    ///
    /// # Errors
    /// Field errors.
    pub fn read_label(&self, vm: &Vm, r: Addr) -> Result<(i64, i64)> {
        self.label.read_longs(vm, r)
    }

    /// Allocates a triangle query message.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_query(&self, vm: &mut Vm, a: i64, b: i64) -> Result<Addr> {
        self.query.new_longs(vm, a, b)
    }

    /// Reads a triangle query message.
    ///
    /// # Errors
    /// Field errors.
    pub fn read_query(&self, vm: &Vm, r: Addr) -> Result<(i64, i64)> {
        self.query.read_longs(vm, r)
    }

    /// Allocates a word-count record (GC-safe: the string is temp-rooted
    /// while the record is allocated).
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_word_count(&self, vm: &mut Vm, word: &str, count: i32) -> Result<Addr> {
        let s = vm.new_string(word).map_err(Error::Heap)?;
        let t = vm.push_temp_root(s);
        let r = vm.alloc_instance(self.word_count.klass).map_err(Error::Heap)?;
        let s = vm.temp_root(t);
        vm.pop_temp_root();
        vm.set_ref_field(r, self.word_count.a, s).map_err(Error::Heap)?;
        vm.set_int_field(r, self.word_count.b, count).map_err(Error::Heap)?;
        Ok(r)
    }

    /// Reads a word-count record.
    ///
    /// # Errors
    /// Field errors.
    pub fn read_word_count(&self, vm: &Vm, r: Addr) -> Result<(String, i32)> {
        let s = vm.ref_field(r, self.word_count.a).map_err(Error::Heap)?;
        let word = vm.read_string(s).map_err(Error::Heap)?;
        Ok((word, vm.int_field(r, self.word_count.b).map_err(Error::Heap)?))
    }
}

/// Allocates an edge record, resolving the edge class per call (see
/// [`SparkClasses`]; a job uses [`SparkClasses::new_edge`]).
///
/// # Errors
/// Allocation errors.
pub fn new_edge(vm: &mut Vm, src: i64, dst: i64) -> Result<Addr> {
    Record::resolve(vm, EDGE, "src", "dst")?.new_longs(vm, src, dst)
}

/// Reads an edge record, resolving the fields on the record's own class
/// per call (see [`SparkClasses`]; a job uses [`SparkClasses::read_edge`]).
///
/// # Errors
/// Field errors.
pub fn read_edge(vm: &Vm, e: Addr) -> Result<(i64, i64)> {
    let class = vm.klass_of(e).map_err(Error::Heap)?.id;
    Record::of(vm, class, "src", "dst")?.read_longs(vm, e)
}

/// Allocates a closure descriptor (what closure serialization ships from
/// the driver to the workers, §2.1).
///
/// # Errors
/// Allocation errors.
pub fn new_closure(vm: &mut Vm, name: &str, stage: i32, captured: &str) -> Result<Addr> {
    let k = vm.load_class(CLOSURE).map_err(Error::Heap)?;
    let field = |vm: &Vm, f| vm.field_handle(k, f).map_err(Error::Heap);
    let (name_f, stage_f, captured_f) =
        (field(vm, "name")?, field(vm, "stage")?, field(vm, "captured")?);
    let n = vm.new_string(name).map_err(Error::Heap)?;
    let tn = vm.push_temp_root(n);
    let c = vm.new_string(captured).map_err(Error::Heap)?;
    let tc = vm.push_temp_root(c);
    let r = vm.alloc_instance(k).map_err(Error::Heap)?;
    let c = vm.temp_root(tc);
    let n = vm.temp_root(tn);
    vm.pop_temp_root();
    vm.pop_temp_root();
    vm.set_ref_field(r, name_f, n).map_err(Error::Heap)?;
    vm.set_ref_field(r, captured_f, c).map_err(Error::Heap)?;
    vm.set_int_field(r, stage_f, stage).map_err(Error::Heap)?;
    Ok(r)
}

/// Stable 64-bit hash for shuffle partitioning (FNV-1a).
pub fn hash64(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Stable 64-bit hash of a string (FNV-1a).
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
