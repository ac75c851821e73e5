//! The [`serlab::Serializer`] adapter: lets Skyway plug into the same
//! shuffle pipelines and benchmarks as every baseline library (paper §3.3 —
//! "directly compatible with the standard Java serializer").
//!
//! One adapter instance belongs to one node: it serializes outgoing data
//! from that node's VM and deserializes incoming data into it. Byte blobs
//! are framed chunk streams (see [`crate::buffer::frame_chunks`]), so they
//! travel through files, sockets, or the simulated network unchanged.

use std::sync::Arc;

use mheap::{Addr, LayoutSpec, Vm};
use simnet::{NodeId, Profile};

use crate::buffer::{frame_chunks, parse_frames};
use crate::receiver::GraphReceiver;
use crate::registry::TypeDirectory;
use crate::sender::{GraphSender, SendConfig, SendStats, Tracking};
use crate::stream::ShuffleController;
use crate::{Error, Result};

/// Every flag bit a frame header may set (see [`spec_flags`]).
const SPEC_FLAGS: u8 = 0b11;

/// The frame-header flag bits naming an object format.
fn spec_flags(spec: LayoutSpec) -> u8 {
    (u8::from(spec.with_baddr)) | (u8::from(spec.array_len_size == 4) << 1)
}

fn flags_spec(flags: u8) -> LayoutSpec {
    LayoutSpec { with_baddr: flags & 1 != 0, array_len_size: if flags & 2 != 0 { 4 } else { 8 } }
}

/// Rejects a stream whose header declares another object format than the
/// receiving heap's, or sets a flag bit this receiver does not know — the
/// stream's bytes would be absorbed as something they are not.
///
/// # Errors
/// [`Error::BadFrame`] for an unknown flag bit, [`Error::SpecMismatch`].
fn check_wire_spec(flags: u8, vm: &Vm) -> Result<()> {
    if flags & !SPEC_FLAGS != 0 {
        return Err(Error::BadFrame(format!("unknown frame flags {flags:#b}")));
    }
    let wire = flags_spec(flags);
    if wire != vm.spec() {
        return Err(Error::SpecMismatch {
            wire: format!("{wire:?}"),
            local: format!("{:?}", vm.spec()),
        });
    }
    Ok(())
}

/// Skyway as a pluggable serializer for one cluster node.
#[derive(Debug)]
pub struct SkywaySerializer {
    dir: Arc<TypeDirectory>,
    node: NodeId,
    controller: Arc<ShuffleController>,
    chunk_limit: usize,
    receiver_spec: LayoutSpec,
    tracking: Tracking,
    last_send_stats: parking_lot::Mutex<SendStats>,
}

impl SkywaySerializer {
    /// Creates the adapter for `node`. `receiver_spec` is the object format
    /// of the nodes this one sends to (same as the local format in
    /// homogeneous clusters).
    pub fn new(
        dir: Arc<TypeDirectory>,
        node: NodeId,
        controller: Arc<ShuffleController>,
        receiver_spec: LayoutSpec,
    ) -> Self {
        SkywaySerializer {
            dir,
            node,
            controller,
            chunk_limit: crate::buffer::DEFAULT_CHUNK,
            receiver_spec,
            tracking: Tracking::Baddr,
            last_send_stats: parking_lot::Mutex::new(SendStats::default()),
        }
    }

    /// Overrides the chunk size, builder-style.
    pub fn with_chunk_limit(mut self, chunk_limit: usize) -> Self {
        self.chunk_limit = chunk_limit.max(64);
        self
    }

    /// Selects the visited-tracking mode, builder-style (the ablation
    /// switch).
    pub fn with_tracking(mut self, tracking: Tracking) -> Self {
        self.tracking = tracking;
        self
    }

    /// Byte-composition statistics of the most recent `serialize` call
    /// (the §5.2 extra-bytes analysis).
    pub fn last_send_stats(&self) -> SendStats {
        *self.last_send_stats.lock()
    }

    /// The shuffle controller (engines call `start_phase` through it).
    pub fn controller(&self) -> &Arc<ShuffleController> {
        &self.controller
    }
}

impl serlab::Serializer for SkywaySerializer {
    fn name(&self) -> &str {
        "skyway"
    }

    fn serialize(
        &self,
        vm: &mut Vm,
        roots: &[Addr],
        profile: &mut Profile,
    ) -> serlab::Result<Vec<u8>> {
        let mut run = || -> Result<Vec<u8>> {
            let mut sender = GraphSender::new(
                vm,
                &self.dir,
                self.node,
                self.controller.sid(),
                self.controller.next_stream(),
                SendConfig {
                    chunk_limit: self.chunk_limit,
                    receiver_spec: self.receiver_spec,
                    tracking: self.tracking,
                },
            )?;
            for &root in roots {
                sender.write_root(root)?;
            }
            let out = sender.finish();
            profile.objects_transferred += out.stats.objects;
            // Note what is conspicuously absent: no per-object S/D function
            // invocations are counted, because none happen.
            *self.last_send_stats.lock() = out.stats;
            Ok(frame_chunks(&out.chunks, spec_flags(self.receiver_spec)))
        };
        run().map_err(to_serlab)
    }

    fn deserialize(
        &self,
        vm: &mut Vm,
        bytes: &[u8],
        _profile: &mut Profile,
    ) -> serlab::Result<Vec<Addr>> {
        let mut run = || -> Result<Vec<Addr>> {
            let (flags, chunks) = parse_frames(bytes)?;
            check_wire_spec(flags, vm)?;
            let mut rx = GraphReceiver::new(vm, &self.dir, self.node);
            chunks.into_iter().try_for_each(|c| rx.push_chunk(c))?;
            Ok(rx.finish(None)?.0)
        };
        run().map_err(to_serlab)
    }

    fn preserves_sharing(&self) -> bool {
        true
    }
}

fn to_serlab(e: Error) -> serlab::Error {
    match e {
        Error::Heap(h) => serlab::Error::Heap(h),
        other => serlab::Error::Malformed(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_flags_roundtrip() {
        for spec in [LayoutSpec::SKYWAY, LayoutSpec::STOCK, LayoutSpec::COMPACT] {
            assert_eq!(flags_spec(spec_flags(spec)), spec);
        }
    }
}
