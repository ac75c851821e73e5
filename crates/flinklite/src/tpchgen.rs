//! A scaled-down TPC-H-schema data generator.
//!
//! The paper uses the TPC-H `dbgen` tool to produce a 100 GB input (§5.3).
//! This generator produces the same eight-table schema with the standard
//! row-count *ratios* (per unit of scale: customers : orders : lineitems ≈
//! 150 : 1500 : 6000, parts 200, suppliers 10, partsupp 800), deterministic
//! for a given seed, so the queries exercise the same operator mix at a
//! laptop-friendly size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tables::{CustomerVal, LineitemVal, OrdersVal, PartsuppVal, SupplierVal};

/// Days-since-epoch bounds of order dates (8 "years" of 360 days).
pub const DATE_MIN: i32 = 0;
/// One synthetic year in days.
pub const YEAR_DAYS: i32 = 360;
/// Upper bound (exclusive) on order dates.
pub const DATE_MAX: i32 = 8 * YEAR_DAYS;

/// Ship modes, as in TPC-H.
pub const SHIP_MODES: [&str; 7] = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"];
/// Order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// Market segments.
pub const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];

/// A nation row (generated deterministically, not random).
#[derive(Debug, Clone, PartialEq)]
pub struct NationVal {
    /// Nation key.
    pub nationkey: i64,
    /// Region key.
    pub regionkey: i64,
    /// Nation name.
    pub name: String,
}

/// The generated database.
#[derive(Debug, Clone)]
pub struct TpchData {
    /// Lineitem rows.
    pub lineitem: Vec<LineitemVal>,
    /// Orders rows.
    pub orders: Vec<OrdersVal>,
    /// Customer rows.
    pub customer: Vec<CustomerVal>,
    /// Supplier rows.
    pub supplier: Vec<SupplierVal>,
    /// Partsupp rows.
    pub partsupp: Vec<PartsuppVal>,
    /// Nations (25, each mapped to one of 5 regions).
    pub nation: Vec<NationVal>,
    /// Number of parts (part rows are implied: key 0..n_parts).
    pub n_parts: i64,
}

impl TpchData {
    /// Total row count across the generated tables.
    pub fn total_rows(&self) -> usize {
        self.lineitem.len()
            + self.orders.len()
            + self.customer.len()
            + self.supplier.len()
            + self.partsupp.len()
            + self.nation.len()
    }
}

/// Generates a database with roughly `scale_units` "customers-worth" of
/// data (TPC-H ratios preserved). `scale_units = 150` ≈ one thousandth of
/// SF-0.001... pick what your benchmark budget affords.
pub fn generate(scale_units: usize, seed: u64) -> TpchData {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_customers = scale_units.max(10);
    let n_orders = n_customers * 10;
    let n_parts = (n_customers * 4 / 3).max(8) as i64;
    let n_suppliers = (n_customers / 15).max(4) as i64;

    let nation: Vec<NationVal> = (0..25)
        .map(|i| NationVal { nationkey: i, regionkey: i % 5, name: format!("NATION_{i:02}") })
        .collect();

    let customer: Vec<CustomerVal> = (0..n_customers as i64)
        .map(|custkey| CustomerVal {
            custkey,
            nationkey: rng.gen_range(0..25),
            acctbal: rng.gen_range(-999.99..9999.99),
            name: format!("Customer#{custkey:09}"),
            mktsegment: SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_owned(),
        })
        .collect();

    let supplier: Vec<SupplierVal> = (0..n_suppliers)
        .map(|suppkey| SupplierVal {
            suppkey,
            nationkey: rng.gen_range(0..25),
            acctbal: rng.gen_range(-999.99..9999.99),
            name: format!("Supplier#{suppkey:09}"),
        })
        .collect();

    // Each part is supplied by 4 suppliers.
    let mut partsupp = Vec::with_capacity(n_parts as usize * 4);
    for partkey in 0..n_parts {
        for s in 0..4 {
            partsupp.push(PartsuppVal {
                partkey,
                suppkey: (partkey + s * 7 + 1) % n_suppliers,
                supplycost: rng.gen_range(1.0..1000.0),
                availqty: rng.gen_range(1..9999),
            });
        }
    }

    let mut orders = Vec::with_capacity(n_orders);
    let mut lineitem = Vec::new();
    for orderkey in 0..n_orders as i64 {
        let orderdate = rng.gen_range(DATE_MIN..DATE_MAX - 60);
        let n_lines = rng.gen_range(1..=7);
        let mut total = 0.0;
        for _ in 0..n_lines {
            let quantity = f64::from(rng.gen_range(1..=50));
            let extendedprice = quantity * rng.gen_range(900.0..11000.0) / 10.0;
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            total += extendedprice;
            lineitem.push(LineitemVal {
                orderkey,
                partkey: rng.gen_range(0..n_parts),
                suppkey: rng.gen_range(0..n_suppliers),
                quantity,
                extendedprice,
                discount: f64::from(rng.gen_range(0..=10)) / 100.0,
                tax: f64::from(rng.gen_range(0..=8)) / 100.0,
                returnflag: if receiptdate <= orderdate + 90 {
                    if rng.gen_bool(0.5) {
                        'R'
                    } else {
                        'A'
                    }
                } else {
                    'N'
                },
                linestatus: if shipdate > DATE_MAX - 180 { 'O' } else { 'F' },
                shipdate,
                commitdate,
                receiptdate,
                shipmode: SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())].to_owned(),
            });
        }
        orders.push(OrdersVal {
            orderkey,
            custkey: rng.gen_range(0..n_customers as i64),
            orderdate,
            totalprice: total,
            shippriority: 0,
            orderpriority: PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_owned(),
        });
    }

    TpchData { lineitem, orders, customer, supplier, partsupp, nation, n_parts }
}

/// Round-robin partitions a table's rows across `n` workers.
pub fn partition<T: Clone>(rows: &[T], n: usize) -> Vec<Vec<T>> {
    let mut parts = vec![Vec::with_capacity(rows.len() / n + 1); n];
    for (i, r) in rows.iter().enumerate() {
        parts[i % n].push(r.clone());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_roughly_tpch() {
        let db = generate(150, 1);
        assert_eq!(db.customer.len(), 150);
        assert_eq!(db.orders.len(), 1500);
        // ~4 lineitems per order.
        let ratio = db.lineitem.len() as f64 / db.orders.len() as f64;
        assert!((2.0..6.0).contains(&ratio), "lineitems/order = {ratio}");
        assert_eq!(db.nation.len(), 25);
        assert_eq!(db.partsupp.len(), db.n_parts as usize * 4);
    }

    #[test]
    fn deterministic() {
        let a = generate(50, 9);
        let b = generate(50, 9);
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.orders, b.orders);
    }

    #[test]
    fn dates_in_range() {
        let db = generate(60, 2);
        for o in &db.orders {
            assert!((DATE_MIN..DATE_MAX).contains(&o.orderdate));
        }
        for l in &db.lineitem {
            assert!(l.shipdate > DATE_MIN);
            assert!(l.receiptdate > l.shipdate);
        }
    }

    #[test]
    fn partitioning_is_total() {
        let db = generate(40, 3);
        let parts = partition(&db.orders, 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), db.orders.len());
    }
}
