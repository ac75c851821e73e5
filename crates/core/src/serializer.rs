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
use crate::registry::TypeDirectory;
use crate::sender::{
    send_roots_parallel, GraphSender, ParallelConfig, SendConfig, SendStats, Tracking,
};
use crate::stream::{ShuffleController, UpdateRegistry};
use crate::{Error, Result};

const FLAG_COMPRESSED: u8 = 0b100;

/// The frame-header flag bits naming an object format.
pub(crate) fn spec_flags(spec: LayoutSpec) -> u8 {
    (u8::from(spec.with_baddr)) | (u8::from(spec.array_len_size == 4) << 1)
}

fn flags_spec(flags: u8) -> LayoutSpec {
    LayoutSpec { with_baddr: flags & 1 != 0, array_len_size: if flags & 2 != 0 { 4 } else { 8 } }
}

/// Rejects a stream whose header declares another object format than the
/// receiving heap's.
///
/// # Errors
/// [`Error::SpecMismatch`].
pub(crate) fn check_wire_spec(flags: u8, vm: &Vm) -> Result<()> {
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
    hooks: Option<Arc<UpdateRegistry>>,
    compressed_wire: bool,
    parallel_streams: usize,
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
            hooks: None,
            compressed_wire: false,
            parallel_streams: 1,
            last_send_stats: parking_lot::Mutex::new(SendStats::default()),
        }
    }

    /// Enables the compressed wire format (the paper's future-work
    /// extension): objects travel without the `baddr` header word and with
    /// 4-byte array lengths; the receiver expands them back to the local
    /// format before absolutization. Smaller streams, slower receive — see
    /// the `ablations` harness for the measured trade-off.
    pub fn with_wire_compression(mut self, on: bool) -> Self {
        self.compressed_wire = on;
        self
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

    /// Installs post-transfer update hooks, builder-style.
    pub fn with_hooks(mut self, hooks: Arc<UpdateRegistry>) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Sends with `n` work-stealing parallel workers (§4.2 "Support for
    /// Threads"): roots start as contiguous per-worker blocks, idle
    /// workers steal from victims, shared objects are claimed via CAS on
    /// `baddr` and duplicated per stream — the same semantics as the
    /// existing serializers.
    pub fn with_parallel_streams(mut self, n: usize) -> Self {
        self.parallel_streams = n.max(1);
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

    /// Receives one framed single-stream blob into `vm`.
    fn receive_blob(&self, vm: &mut Vm, blob: &[u8]) -> Result<Vec<Addr>> {
        let (flags, chunks) = parse_frames(blob)?;
        check_wire_spec(flags, vm)?;
        // Compressed wire: expand to the local format first, then receive
        // the expanded stream normally — as one chunk, which trivially
        // keeps objects from spanning a chunk boundary.
        let expanded = if flags & FLAG_COMPRESSED != 0 {
            let local_spec = vm.spec();
            Some(crate::compress::expand_stream(vm, &self.dir, self.node, &chunks, local_spec)?)
        } else {
            None
        };
        let mut rx = crate::receiver::GraphReceiver::new(vm, &self.dir, self.node);
        match &expanded {
            Some(stream) => rx.push_chunk(stream)?,
            None => chunks.into_iter().try_for_each(|c| rx.push_chunk(c))?,
        }
        let (roots, _stats) = rx.finish(self.hooks.as_deref())?;
        Ok(roots)
    }

    fn send_config(&self) -> SendConfig {
        SendConfig {
            chunk_limit: self.chunk_limit,
            receiver_spec: if self.compressed_wire {
                crate::compress::WIRE_SPEC
            } else {
                self.receiver_spec
            },
            tracking: self.tracking,
        }
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
        let flags = if self.compressed_wire {
            spec_flags(self.receiver_spec) | FLAG_COMPRESSED
        } else {
            spec_flags(self.receiver_spec)
        };
        if self.parallel_streams > 1 {
            let mut run = || -> Result<Vec<u8>> {
                let par = ParallelConfig::with_workers(self.parallel_streams);
                let stream_base = self.controller.next_stream_block(par.workers as u16);
                let send = send_roots_parallel(
                    vm,
                    &self.dir,
                    self.node,
                    self.controller.sid(),
                    stream_base,
                    roots,
                    &par,
                    self.send_config(),
                )?;
                let mut merged = SendStats::default();
                let mut out = Vec::new();
                out.extend_from_slice(b"MSKY");
                out.extend_from_slice(&(send.streams.len() as u16).to_le_bytes());
                for (st, order) in send.streams.iter().zip(&send.root_order) {
                    profile.objects_transferred += st.stats.objects;
                    merged.merge(&st.stats);
                    // Root-index table: which original roots this stream
                    // carries, in emission order — work stealing makes the
                    // assignment dynamic, so the wire must say.
                    out.extend_from_slice(&(order.len() as u32).to_le_bytes());
                    for &ix in order {
                        out.extend_from_slice(&ix.to_le_bytes());
                    }
                    let blob = frame_chunks(&st.chunks, flags);
                    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                    out.extend_from_slice(&blob);
                }
                *self.last_send_stats.lock() = merged;
                Ok(out)
            };
            return run().map_err(to_serlab);
        }
        let mut run = || -> Result<Vec<u8>> {
            let mut sender = GraphSender::new(
                vm,
                &self.dir,
                self.node,
                self.controller.sid(),
                self.controller.next_stream(),
                self.send_config(),
            )?;
            for &root in roots {
                sender.write_root(root)?;
            }
            let out = sender.finish();
            profile.objects_transferred += out.stats.objects;
            // Note what is conspicuously absent: no per-object S/D function
            // invocations are counted, because none happen.
            *self.last_send_stats.lock() = out.stats;
            Ok(frame_chunks(&out.chunks, flags))
        };
        run().map_err(to_serlab)
    }

    fn deserialize(
        &self,
        vm: &mut Vm,
        bytes: &[u8],
        _profile: &mut Profile,
    ) -> serlab::Result<Vec<Addr>> {
        if bytes.starts_with(b"MSKY") {
            // Multi-stream container: each stream is an independent input
            // buffer set carrying its own root-index table; roots land
            // back at their original positions regardless of which worker
            // stream the work-stealing traversal assigned them to.
            let mut run = || -> Result<Vec<Addr>> {
                if bytes.len() < 6 {
                    return Err(Error::BadFrame("truncated MSKY container".into()));
                }
                let mut hdr = [0u8; 2];
                hdr.copy_from_slice(&bytes[4..6]);
                let n = u16::from_le_bytes(hdr) as usize;
                let mut pos = 6usize;
                let read_u32 = |pos: &mut usize| -> Result<usize> {
                    let b = bytes
                        .get(*pos..*pos + 4)
                        .ok_or_else(|| Error::BadFrame("truncated MSKY stream header".into()))?;
                    let mut w = [0u8; 4];
                    w.copy_from_slice(b);
                    *pos += 4;
                    Ok(u32::from_le_bytes(w) as usize)
                };
                // Pass 1: parse every table and blob boundary before any
                // heap mutation, so corrupt containers error out with
                // nothing absorbed.
                let mut sections: Vec<(Vec<usize>, &[u8])> = Vec::with_capacity(n);
                for _ in 0..n {
                    let count = read_u32(&mut pos)?;
                    if count > bytes.len() / 4 {
                        return Err(Error::BadFrame("MSKY root table longer than body".into()));
                    }
                    let mut order = Vec::with_capacity(count);
                    for _ in 0..count {
                        order.push(read_u32(&mut pos)?);
                    }
                    let len = read_u32(&mut pos)?;
                    let blob = bytes
                        .get(pos..pos + len)
                        .ok_or_else(|| Error::BadFrame("truncated MSKY stream body".into()))?;
                    pos += len;
                    sections.push((order, blob));
                }
                let total: usize = sections.iter().map(|(o, _)| o.len()).sum();
                if sections.iter().flat_map(|(o, _)| o).any(|&ix| ix >= total) {
                    return Err(Error::BadFrame("MSKY root index out of range".into()));
                }
                let mut slots: Vec<Option<Addr>> = vec![None; total];
                for (order, blob) in sections {
                    let roots = self.receive_blob(vm, blob)?;
                    if roots.len() != order.len() {
                        return Err(Error::BadFrame(format!(
                            "MSKY stream carried {} roots but its table lists {}",
                            roots.len(),
                            order.len()
                        )));
                    }
                    for (ix, addr) in order.into_iter().zip(roots) {
                        if slots[ix].replace(addr).is_some() {
                            return Err(Error::BadFrame(format!("duplicate MSKY root index {ix}")));
                        }
                    }
                }
                slots
                    .into_iter()
                    .map(|s| s.ok_or_else(|| Error::BadFrame("MSKY root index gap".into())))
                    .collect()
            };
            return run().map_err(to_serlab);
        }
        self.receive_blob(vm, bytes).map_err(to_serlab)
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
