//! TPC-H-schema row classes as managed-heap objects, with GC-safe
//! constructors and readers.
//!
//! Flink reads input into typed tuples ("rows in a relational database",
//! §5.3); here each table gets a row class whose column types are known at
//! plan time — exactly the property Flink's built-in per-field serializers
//! exploit.

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{Addr, ClassPath, FieldType, KlassDef, PrimType, Vm};

use crate::{Error, Result};

/// Lineitem row class.
pub const LINEITEM: &str = "tpch.Lineitem";
/// Orders row class.
pub const ORDERS: &str = "tpch.Orders";
/// Customer row class.
pub const CUSTOMER: &str = "tpch.Customer";
/// Supplier row class.
pub const SUPPLIER: &str = "tpch.Supplier";
/// Part row class.
pub const PART: &str = "tpch.Part";
/// Partsupp row class.
pub const PARTSUPP: &str = "tpch.Partsupp";
/// Nation row class.
pub const NATION: &str = "tpch.Nation";
/// Region row class.
pub const REGION: &str = "tpch.Region";
/// Generic result row: group key string + up to three numeric columns.
pub const RESULT_ROW: &str = "tpch.ResultRow";

/// Registers the TPC-H row classes (plus the core library) on a classpath.
pub fn define_tpch_classes(cp: &Arc<ClassPath>) {
    define_core_classes(cp);
    let l = FieldType::Prim(PrimType::Long);
    let d = FieldType::Prim(PrimType::Double);
    let i = FieldType::Prim(PrimType::Int);
    let c = FieldType::Prim(PrimType::Char);
    let r = FieldType::Ref;
    cp.define_all([
        KlassDef::new(
            LINEITEM,
            None,
            vec![
                ("orderkey", l),
                ("partkey", l),
                ("suppkey", l),
                ("quantity", d),
                ("extendedprice", d),
                ("discount", d),
                ("tax", d),
                ("returnflag", c),
                ("linestatus", c),
                ("shipdate", i),
                ("commitdate", i),
                ("receiptdate", i),
                ("shipmode", r),
            ],
        ),
        KlassDef::new(
            ORDERS,
            None,
            vec![
                ("orderkey", l),
                ("custkey", l),
                ("orderdate", i),
                ("totalprice", d),
                ("shippriority", i),
                ("orderpriority", r),
            ],
        ),
        KlassDef::new(
            CUSTOMER,
            None,
            vec![("custkey", l), ("nationkey", l), ("acctbal", d), ("name", r), ("mktsegment", r)],
        ),
        KlassDef::new(
            SUPPLIER,
            None,
            vec![("suppkey", l), ("nationkey", l), ("acctbal", d), ("name", r)],
        ),
        KlassDef::new(
            PART,
            None,
            vec![("partkey", l), ("retailprice", d), ("size", i), ("name", r)],
        ),
        KlassDef::new(
            PARTSUPP,
            None,
            vec![("partkey", l), ("suppkey", l), ("supplycost", d), ("availqty", i)],
        ),
        KlassDef::new(NATION, None, vec![("nationkey", l), ("regionkey", l), ("name", r)]),
        KlassDef::new(REGION, None, vec![("regionkey", l), ("name", r)]),
        KlassDef::new(
            RESULT_ROW,
            None,
            vec![("key", r), ("v1", d), ("v2", d), ("v3", d), ("tag", l)],
        ),
    ]);
}

/// All row classes plus their field types' support classes, for serializer
/// registries.
pub fn tpch_class_names() -> Vec<&'static str> {
    vec![
        LINEITEM,
        ORDERS,
        CUSTOMER,
        SUPPLIER,
        PART,
        PARTSUPP,
        NATION,
        REGION,
        RESULT_ROW,
        mheap::stdlib::STRING,
        "[C",
        "[Ljava.lang.Object;",
        mheap::stdlib::ARRAY_LIST,
    ]
}

/// A lineitem as Rust values (generation intermediate / reader output).
#[derive(Debug, Clone, PartialEq)]
pub struct LineitemVal {
    /// Order key.
    pub orderkey: i64,
    /// Part key.
    pub partkey: i64,
    /// Supplier key.
    pub suppkey: i64,
    /// Quantity ordered.
    pub quantity: f64,
    /// Extended price.
    pub extendedprice: f64,
    /// Discount fraction.
    pub discount: f64,
    /// Tax fraction.
    pub tax: f64,
    /// Return flag (`'R'`, `'A'`, `'N'`).
    pub returnflag: char,
    /// Line status (`'O'`, `'F'`).
    pub linestatus: char,
    /// Ship date (days since epoch).
    pub shipdate: i32,
    /// Commit date.
    pub commitdate: i32,
    /// Receipt date.
    pub receiptdate: i32,
    /// Ship mode string.
    pub shipmode: String,
}

/// Builds a lineitem row in the heap.
///
/// # Errors
/// Allocation errors.
pub fn new_lineitem(vm: &mut Vm, v: &LineitemVal) -> Result<Addr> {
    let s = vm.new_string(&v.shipmode).map_err(Error::Heap)?;
    let t = vm.push_temp_root(s);
    let k = vm.load_class(LINEITEM).map_err(Error::Heap)?;
    let row = vm.alloc_instance(k).map_err(Error::Heap)?;
    let s = vm.temp_root(t);
    vm.pop_temp_root();
    vm.set_long(row, "orderkey", v.orderkey).map_err(Error::Heap)?;
    vm.set_long(row, "partkey", v.partkey).map_err(Error::Heap)?;
    vm.set_long(row, "suppkey", v.suppkey).map_err(Error::Heap)?;
    vm.set_double(row, "quantity", v.quantity).map_err(Error::Heap)?;
    vm.set_double(row, "extendedprice", v.extendedprice).map_err(Error::Heap)?;
    vm.set_double(row, "discount", v.discount).map_err(Error::Heap)?;
    vm.set_double(row, "tax", v.tax).map_err(Error::Heap)?;
    vm.set_prim(row, "returnflag", mheap::Value::Char(v.returnflag as u16)).map_err(Error::Heap)?;
    vm.set_prim(row, "linestatus", mheap::Value::Char(v.linestatus as u16)).map_err(Error::Heap)?;
    vm.set_int(row, "shipdate", v.shipdate).map_err(Error::Heap)?;
    vm.set_int(row, "commitdate", v.commitdate).map_err(Error::Heap)?;
    vm.set_int(row, "receiptdate", v.receiptdate).map_err(Error::Heap)?;
    vm.set_ref(row, "shipmode", s).map_err(Error::Heap)?;
    Ok(row)
}

fn get_char(vm: &Vm, row: Addr, f: &str) -> Result<char> {
    match vm.get_prim(row, f).map_err(Error::Heap)? {
        mheap::Value::Char(c) => Ok(char::from_u32(u32::from(c)).unwrap_or('?')),
        _ => Ok('?'),
    }
}

/// Reads a lineitem row.
///
/// # Errors
/// Field errors.
pub fn read_lineitem(vm: &Vm, row: Addr) -> Result<LineitemVal> {
    let shipmode_ref = vm.get_ref(row, "shipmode").map_err(Error::Heap)?;
    Ok(LineitemVal {
        orderkey: vm.get_long(row, "orderkey").map_err(Error::Heap)?,
        partkey: vm.get_long(row, "partkey").map_err(Error::Heap)?,
        suppkey: vm.get_long(row, "suppkey").map_err(Error::Heap)?,
        quantity: vm.get_double(row, "quantity").map_err(Error::Heap)?,
        extendedprice: vm.get_double(row, "extendedprice").map_err(Error::Heap)?,
        discount: vm.get_double(row, "discount").map_err(Error::Heap)?,
        tax: vm.get_double(row, "tax").map_err(Error::Heap)?,
        returnflag: get_char(vm, row, "returnflag")?,
        linestatus: get_char(vm, row, "linestatus")?,
        shipdate: vm.get_int(row, "shipdate").map_err(Error::Heap)?,
        commitdate: vm.get_int(row, "commitdate").map_err(Error::Heap)?,
        receiptdate: vm.get_int(row, "receiptdate").map_err(Error::Heap)?,
        shipmode: if shipmode_ref.is_null() {
            String::new()
        } else {
            vm.read_string(shipmode_ref).map_err(Error::Heap)?
        },
    })
}

/// An orders row as Rust values.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdersVal {
    /// Order key.
    pub orderkey: i64,
    /// Customer key.
    pub custkey: i64,
    /// Order date (days since epoch).
    pub orderdate: i32,
    /// Total price.
    pub totalprice: f64,
    /// Shipping priority.
    pub shippriority: i32,
    /// Order priority string.
    pub orderpriority: String,
}

/// Builds an orders row.
///
/// # Errors
/// Allocation errors.
pub fn new_orders(vm: &mut Vm, v: &OrdersVal) -> Result<Addr> {
    let s = vm.new_string(&v.orderpriority).map_err(Error::Heap)?;
    let t = vm.push_temp_root(s);
    let k = vm.load_class(ORDERS).map_err(Error::Heap)?;
    let row = vm.alloc_instance(k).map_err(Error::Heap)?;
    let s = vm.temp_root(t);
    vm.pop_temp_root();
    vm.set_long(row, "orderkey", v.orderkey).map_err(Error::Heap)?;
    vm.set_long(row, "custkey", v.custkey).map_err(Error::Heap)?;
    vm.set_int(row, "orderdate", v.orderdate).map_err(Error::Heap)?;
    vm.set_double(row, "totalprice", v.totalprice).map_err(Error::Heap)?;
    vm.set_int(row, "shippriority", v.shippriority).map_err(Error::Heap)?;
    vm.set_ref(row, "orderpriority", s).map_err(Error::Heap)?;
    Ok(row)
}

/// Reads an orders row.
///
/// # Errors
/// Field errors.
pub fn read_orders(vm: &Vm, row: Addr) -> Result<OrdersVal> {
    let p = vm.get_ref(row, "orderpriority").map_err(Error::Heap)?;
    Ok(OrdersVal {
        orderkey: vm.get_long(row, "orderkey").map_err(Error::Heap)?,
        custkey: vm.get_long(row, "custkey").map_err(Error::Heap)?,
        orderdate: vm.get_int(row, "orderdate").map_err(Error::Heap)?,
        totalprice: vm.get_double(row, "totalprice").map_err(Error::Heap)?,
        shippriority: vm.get_int(row, "shippriority").map_err(Error::Heap)?,
        orderpriority: if p.is_null() {
            String::new()
        } else {
            vm.read_string(p).map_err(Error::Heap)?
        },
    })
}

/// A customer row as Rust values.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomerVal {
    /// Customer key.
    pub custkey: i64,
    /// Nation key.
    pub nationkey: i64,
    /// Account balance.
    pub acctbal: f64,
    /// Customer name.
    pub name: String,
    /// Market segment.
    pub mktsegment: String,
}

/// Builds a customer row.
///
/// # Errors
/// Allocation errors.
pub fn new_customer(vm: &mut Vm, v: &CustomerVal) -> Result<Addr> {
    let n = vm.new_string(&v.name).map_err(Error::Heap)?;
    let tn = vm.push_temp_root(n);
    let m = vm.new_string(&v.mktsegment).map_err(Error::Heap)?;
    let tm = vm.push_temp_root(m);
    let k = vm.load_class(CUSTOMER).map_err(Error::Heap)?;
    let row = vm.alloc_instance(k).map_err(Error::Heap)?;
    let m = vm.temp_root(tm);
    let n = vm.temp_root(tn);
    vm.pop_temp_root();
    vm.pop_temp_root();
    vm.set_long(row, "custkey", v.custkey).map_err(Error::Heap)?;
    vm.set_long(row, "nationkey", v.nationkey).map_err(Error::Heap)?;
    vm.set_double(row, "acctbal", v.acctbal).map_err(Error::Heap)?;
    vm.set_ref(row, "name", n).map_err(Error::Heap)?;
    vm.set_ref(row, "mktsegment", m).map_err(Error::Heap)?;
    Ok(row)
}

/// Reads a customer row.
///
/// # Errors
/// Field errors.
pub fn read_customer(vm: &Vm, row: Addr) -> Result<CustomerVal> {
    let n = vm.get_ref(row, "name").map_err(Error::Heap)?;
    let m = vm.get_ref(row, "mktsegment").map_err(Error::Heap)?;
    Ok(CustomerVal {
        custkey: vm.get_long(row, "custkey").map_err(Error::Heap)?,
        nationkey: vm.get_long(row, "nationkey").map_err(Error::Heap)?,
        acctbal: vm.get_double(row, "acctbal").map_err(Error::Heap)?,
        name: if n.is_null() { String::new() } else { vm.read_string(n).map_err(Error::Heap)? },
        mktsegment: if m.is_null() {
            String::new()
        } else {
            vm.read_string(m).map_err(Error::Heap)?
        },
    })
}

/// A supplier row as Rust values.
#[derive(Debug, Clone, PartialEq)]
pub struct SupplierVal {
    /// Supplier key.
    pub suppkey: i64,
    /// Nation key.
    pub nationkey: i64,
    /// Account balance.
    pub acctbal: f64,
    /// Supplier name.
    pub name: String,
}

/// A partsupp row as Rust values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartsuppVal {
    /// Part key.
    pub partkey: i64,
    /// Supplier key.
    pub suppkey: i64,
    /// Supply cost.
    pub supplycost: f64,
    /// Available quantity.
    pub availqty: i32,
}

/// Builds a partsupp row.
///
/// # Errors
/// Allocation errors.
pub fn new_partsupp(vm: &mut Vm, v: &PartsuppVal) -> Result<Addr> {
    let k = vm.load_class(PARTSUPP).map_err(Error::Heap)?;
    let row = vm.alloc_instance(k).map_err(Error::Heap)?;
    vm.set_long(row, "partkey", v.partkey).map_err(Error::Heap)?;
    vm.set_long(row, "suppkey", v.suppkey).map_err(Error::Heap)?;
    vm.set_double(row, "supplycost", v.supplycost).map_err(Error::Heap)?;
    vm.set_int(row, "availqty", v.availqty).map_err(Error::Heap)?;
    Ok(row)
}

/// Reads a partsupp row.
///
/// # Errors
/// Field errors.
pub fn read_partsupp(vm: &Vm, row: Addr) -> Result<PartsuppVal> {
    Ok(PartsuppVal {
        partkey: vm.get_long(row, "partkey").map_err(Error::Heap)?,
        suppkey: vm.get_long(row, "suppkey").map_err(Error::Heap)?,
        supplycost: vm.get_double(row, "supplycost").map_err(Error::Heap)?,
        availqty: vm.get_int(row, "availqty").map_err(Error::Heap)?,
    })
}

/// A generic result row as Rust values (group key + three numbers + tag).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultVal {
    /// Group key.
    pub key: String,
    /// First aggregate.
    pub v1: f64,
    /// Second aggregate.
    pub v2: f64,
    /// Third aggregate.
    pub v3: f64,
    /// Integer tag (counts, keys…).
    pub tag: i64,
}

/// Builds a result row.
///
/// # Errors
/// Allocation errors.
pub fn new_result(vm: &mut Vm, v: &ResultVal) -> Result<Addr> {
    let s = vm.new_string(&v.key).map_err(Error::Heap)?;
    let t = vm.push_temp_root(s);
    let k = vm.load_class(RESULT_ROW).map_err(Error::Heap)?;
    let row = vm.alloc_instance(k).map_err(Error::Heap)?;
    let s = vm.temp_root(t);
    vm.pop_temp_root();
    vm.set_ref(row, "key", s).map_err(Error::Heap)?;
    vm.set_double(row, "v1", v.v1).map_err(Error::Heap)?;
    vm.set_double(row, "v2", v.v2).map_err(Error::Heap)?;
    vm.set_double(row, "v3", v.v3).map_err(Error::Heap)?;
    vm.set_long(row, "tag", v.tag).map_err(Error::Heap)?;
    Ok(row)
}

/// Reads a result row.
///
/// # Errors
/// Field errors.
pub fn read_result(vm: &Vm, row: Addr) -> Result<ResultVal> {
    let s = vm.get_ref(row, "key").map_err(Error::Heap)?;
    Ok(ResultVal {
        key: if s.is_null() { String::new() } else { vm.read_string(s).map_err(Error::Heap)? },
        v1: vm.get_double(row, "v1").map_err(Error::Heap)?,
        v2: vm.get_double(row, "v2").map_err(Error::Heap)?,
        v3: vm.get_double(row, "v3").map_err(Error::Heap)?,
        tag: vm.get_long(row, "tag").map_err(Error::Heap)?,
    })
}
