//! `simnet` — simulated cluster fabric and cost model for the Skyway
//! reproduction.
//!
//! The paper's evaluation (§5) runs on a physical cluster; this crate stands
//! in for the cluster: per-node cost [`profile::Profile`]s split into the
//! paper's five run-time components, a message-passing network with a
//! bandwidth/latency model, and per-node simulated SSDs.
//!
//! # Example
//!
//! ```
//! use simnet::{Cluster, NodeId, SimConfig};
//!
//! # fn main() -> simnet::Result<()> {
//! let mut cluster = Cluster::new(3, SimConfig::default());
//! cluster.net_send(NodeId(0), NodeId(1), vec![1, 2, 3])?;
//! let bytes = cluster.net_recv(NodeId(1), NodeId(0))?;
//! assert_eq!(bytes, vec![1, 2, 3]);
//! assert_eq!(cluster.profile(NodeId(1)).bytes_remote, 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod link;
pub mod profile;

pub use cluster::{Cluster, NodeId, SimConfig};
pub use link::{LinkClock, LinkXmit};
pub use profile::{BreakdownRow, Category, Profile};

/// Errors produced by the cluster fabric.
#[derive(Debug)]
pub enum Error {
    /// A node id outside the cluster was used.
    UnknownNode(usize),
    /// A spill file was not found on a node's disk.
    NoSuchFile {
        /// Node id.
        node: usize,
        /// File name.
        name: String,
    },
    /// `net_recv` found no queued payload on the link.
    NothingToReceive {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownNode(n) => write!(f, "unknown node id {n}"),
            Error::NoSuchFile { node, name } => {
                write!(f, "no file named {name} on node {node}")
            }
            Error::NothingToReceive { src, dst } => {
                write!(f, "nothing queued from node {src} to node {dst}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
