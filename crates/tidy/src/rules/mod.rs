//! One module per rule family. Per-file rules take a single
//! [`crate::SourceFile`]; cross-file rules (`dead-metric`,
//! `fault-coverage`, `lock-order`, `unreached-pub`) take the whole set,
//! since their evidence spans the tree.

pub mod addr_cast;
pub mod addr_provenance;
pub mod atomics_order;
pub mod by_name_field;
pub mod checked_arith;
pub mod fault_coverage;
pub mod lock_order;
pub mod metrics;
pub mod panic;
pub mod unreached_pub;
pub mod unsafe_safety;
