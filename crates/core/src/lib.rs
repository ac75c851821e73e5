//! `skyway` — the paper's contribution: connecting managed heaps so object
//! graphs move between (simulated) JVM processes *without* serialization.
//!
//! Reproduction of *Skyway: Connecting Managed Heaps in Distributed Big
//! Data Systems* (Nguyen et al., ASPLOS 2018) on top of the [`mheap`]
//! managed-heap substrate:
//!
//! * [`registry`] — the type registry's traffic (§4.1, Algorithm 1): a
//!   driver registry plus per-worker views over the classpath's class
//!   numbers, so one integer identifies a class cluster-wide;
//! * [`sender`] — the GC-like traversal (§4.2, Algorithm 2): clone objects
//!   into per-destination output buffers — already in the *receiver's*
//!   object format, the one place formats are adjusted (§3.1) — sanitize
//!   headers, relativize references through the `baddr` word, stream
//!   chunks, settle objects shared between sending threads via CAS;
//! * [`buffer`] — the output buffer, which ends every chunk with its stream
//!   offset and checksum, and the one container its chunks travel in:
//!   `SKYW | version 2 | spec flags | chunk_count | (len | bytes)*`, written
//!   by [`buffer::frame_chunks`] and read by [`buffer::parse_frames`];
//! * [`receiver`] — chunks checked against their trailers, input buffers
//!   allocated in the old generation and written once, one linear
//!   absolutization pass, on-demand class loading (§4.3; no card is
//!   dirtied);
//! * [`pipeline`] — the transfer engine: N sender lanes (the sending
//!   threads of §4.2) streaming chunks to N absorbers, overlapped;
//! * [`stream`] — the rest of the developer-facing API (§3.3):
//!   `shuffle_start` and `register_update` hooks (`writeObject` is
//!   [`GraphSender::write_root`], `readObject` [`GraphReceiver::finish`]);
//! * [`serializer`] — the [`serlab::Serializer`] adapter that lets Skyway
//!   drop into the same shuffle pipelines as Kryo and the Java serializer.
//!
//! # Example: heap-to-heap transfer
//!
//! ```
//! use std::sync::Arc;
//! use mheap::{ClassPath, HeapConfig, Vm};
//! use mheap::stdlib::define_core_classes;
//! use simnet::NodeId;
//! use skyway::{GraphReceiver, GraphSender, SendConfig, ShuffleController, TypeDirectory};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cp = ClassPath::new();
//! define_core_classes(&cp);
//! let mut sender_vm = Vm::new("w0", &HeapConfig::small(), Arc::clone(&cp))?;
//! let mut receiver_vm = Vm::new("w1", &HeapConfig::small(), cp)?;
//!
//! let dir = TypeDirectory::new(2, NodeId(0));
//! dir.bootstrap_driver(&sender_vm)?;
//! dir.worker_startup(NodeId(1))?;
//!
//! // Build a string on the sender and ship its object graph.
//! let s = sender_vm.new_string("over the skyway")?;
//! let controller = ShuffleController::new();
//! let mut out = GraphSender::new(&sender_vm, &dir, NodeId(0), controller.sid(),
//!     controller.next_stream(), SendConfig::for_vm(&sender_vm))?;
//! out.write_root(s)?;
//! let stream = out.finish();
//!
//! let mut input = GraphReceiver::new(&mut receiver_vm, &dir, NodeId(1));
//! for chunk in &stream.chunks {
//!     input.push_chunk(chunk)?;
//! }
//! let (roots, _) = input.finish(None)?;
//! assert_eq!(receiver_vm.read_string(roots[0])?, "over the skyway");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod pipeline;
pub mod receiver;
pub mod registry;
pub mod sender;
pub mod serializer;
pub mod stream;

pub use buffer::ChunkPool;
pub use pipeline::{
    sequential_transfer, PipelineConfig, PipelineEngine, PipelineReport, TransferMode,
};
pub use receiver::{GraphReceiver, ReceiveStats};
pub use registry::{RegistryStats, TypeDirectory};
pub use sender::{
    GraphSender, ParallelConfig, SegmentImage, SendConfig, SendStats, StreamOut, Tracking,
};
pub use serializer::SkywaySerializer;
pub use stream::{scrub_baddrs, ShuffleController, UpdateRegistry};

/// Errors produced by Skyway.
#[derive(Debug)]
pub enum Error {
    /// Underlying heap error.
    Heap(mheap::Error),
    /// A node id outside the cluster.
    UnknownNode(usize),
    /// A VM on another classpath than the one the type directory serves
    /// (the first it met): class numbers mean nothing across classpaths.
    ClassPathMismatch(usize),
    /// `baddr`-based tracking requested on a heap format without the word.
    NeedsBaddr,
    /// A logical buffer address referred to already-flushed data.
    BufferUnderflow {
        /// Offending logical address.
        logical: u64,
        /// Bytes already flushed.
        flushed: u64,
    },
    /// Objects must be placed into the buffer in logical order.
    OutOfOrderPlacement {
        /// Requested logical address.
        logical: u64,
        /// Expected next position.
        expected: u64,
    },
    /// A framed transfer blob was malformed.
    BadFrame(String),
    /// A framed transfer blob of a frame version this build does not read.
    FrameVersion(u8),
    /// The bytes of the chunk due at this stream offset do not match its
    /// trailer's checksum.
    ChunkChecksum(u64),
    /// A chunk arrived out of stream order: duplicated, reordered or lost.
    ChunkOutOfOrder {
        /// The stream offset the receiver expected.
        expected: u64,
        /// The offset the chunk's trailer carries.
        found: u64,
    },
    /// A relativized reference pointed outside every received chunk.
    DanglingRelativeAddr(u64),
    /// Sender and receiver object formats disagree.
    SpecMismatch {
        /// Format tagged in the stream.
        wire: String,
        /// Format of the local heap.
        local: String,
    },
    /// `writeObject(null)` is not a transfer.
    NullRoot,
    /// Internal: an update hook index went stale.
    NoSuchHook(usize),
    /// A block of this many stream ids no longer fits below the top of the
    /// current shuffle phase's id range.
    StreamIdsExhausted(u16),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Heap(e) => write!(f, "heap error: {e}"),
            Error::UnknownNode(n) => write!(f, "unknown node id {n}"),
            Error::ClassPathMismatch(n) => {
                write!(f, "node {n} is on another classpath than the type directory serves")
            }
            Error::NeedsBaddr => {
                write!(f, "baddr tracking requires an object format with the baddr word")
            }
            Error::BufferUnderflow { logical, flushed } => {
                write!(f, "logical address {logical} already flushed ({flushed} bytes out)")
            }
            Error::OutOfOrderPlacement { logical, expected } => {
                write!(f, "placement at {logical} out of order (expected {expected})")
            }
            Error::BadFrame(s) => write!(f, "bad transfer frame: {s}"),
            Error::FrameVersion(v) => write!(f, "unsupported frame version {v}"),
            Error::ChunkChecksum(at) => write!(f, "chunk at stream offset {at} fails its checksum"),
            Error::ChunkOutOfOrder { expected, found } => {
                write!(f, "chunk for stream offset {found} arrived where {expected} was due")
            }
            Error::DanglingRelativeAddr(a) => {
                write!(f, "relative address {a} outside every received chunk")
            }
            Error::SpecMismatch { wire, local } => {
                write!(f, "object format mismatch: stream {wire} vs local {local}")
            }
            Error::NullRoot => write!(f, "cannot transfer a null root"),
            Error::NoSuchHook(i) => write!(f, "no update hook at index {i}"),
            Error::StreamIdsExhausted(n) => {
                write!(f, "no block of {n} stream ids left in this shuffle phase")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mheap::Error> for Error {
    fn from(e: mheap::Error) -> Self {
        Error::Heap(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
