//! `sparklite` — a Spark-like distributed dataflow engine over simulated
//! managed heaps, the apparatus of the paper's §5.2 evaluation.
//!
//! The engine runs a driver plus N workers (each an [`mheap::Vm`]),
//! eagerly-evaluated partitioned datasets of heap-object records, and a
//! sort-based shuffle whose serializer is pluggable:
//! [`engine::SerializerKind::Java`], [`engine::SerializerKind::Kryo`], or
//! [`engine::SerializerKind::Skyway`]. Each stage runs one task per worker
//! heap, side by side, and charges each node its own CPU time (see
//! [`engine`]). The four workloads of Figure 8(a) live in [`workloads`];
//! the synthetic Table 1 graphs in [`graphgen`].

#![warn(missing_docs)]

pub mod classes;
pub mod engine;
pub mod graphgen;
pub mod workloads;

pub use engine::{Dataset, Partition, SerializerKind, SparkCluster, SparkConfig};
pub use graphgen::{generate, Graph, GraphKind};

/// Errors produced by the engine.
#[derive(Debug)]
pub enum Error {
    /// Managed-heap error.
    Heap(mheap::Error),
    /// Serializer error.
    Serde(serlab::Error),
    /// Skyway error.
    Skyway(skyway::Error),
    /// Cluster-fabric error.
    Net(simnet::Error),
    /// Datasets/seeds had the wrong number of partitions.
    BadPartitioning {
        /// Expected partition count (or node id).
        expected: usize,
        /// Actual.
        got: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Heap(e) => write!(f, "heap error: {e}"),
            Error::Serde(e) => write!(f, "serializer error: {e}"),
            Error::Skyway(e) => write!(f, "skyway error: {e}"),
            Error::Net(e) => write!(f, "cluster error: {e}"),
            Error::BadPartitioning { expected, got } => {
                write!(f, "bad partitioning: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Heap(e) => Some(e),
            Error::Serde(e) => Some(e),
            Error::Skyway(e) => Some(e),
            Error::Net(e) => Some(e),
            Error::BadPartitioning { .. } => None,
        }
    }
}

impl From<mheap::Error> for Error {
    fn from(e: mheap::Error) -> Self {
        Error::Heap(e)
    }
}

impl From<serlab::Error> for Error {
    fn from(e: serlab::Error) -> Self {
        Error::Serde(e)
    }
}

impl From<skyway::Error> for Error {
    fn from(e: skyway::Error) -> Self {
        Error::Skyway(e)
    }
}

impl From<simnet::Error> for Error {
    fn from(e: simnet::Error) -> Self {
        Error::Net(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
