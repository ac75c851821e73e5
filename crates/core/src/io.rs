//! Carrier streams (paper §3.3): `SkywayFileOutputStream` /
//! `SkywayFileInputStream` and `SkywaySocketOutputStream` /
//! `SkywaySocketInputStream` — "one can easily program with Skyway in the
//! same way as programming with the Java serializer".
//!
//! These wrap the format-level [`crate::stream`] classes with a carrier:
//! the simulated per-node disk (shuffle spill files) or the simulated
//! network (socket-style links). Chunks are streamed to the carrier as the
//! output buffer flushes, so transfer overlaps with traversal just as §3.2
//! describes.

use mheap::layout::Addr;
use mheap::Vm;
use simnet::{Cluster, NodeId};

use crate::buffer::{frame_chunks_traced, parse_frames_traced};
use crate::registry::TypeDirectory;
use crate::sender::{GraphSender, SendConfig, SendStats};
use crate::serializer::{check_wire_spec, spec_flags};
use crate::stream::{ShuffleController, UpdateRegistry};
use crate::{Error, Result};

/// Writes object graphs into a named file on a node's simulated disk.
///
/// The counterpart of `SkywayFileOutputStream`: construct, call
/// [`SkywayFileOutputStream::write_object`] for every root, then
/// [`SkywayFileOutputStream::close`] to commit the file (charging write-I/O
/// on the owning node).
pub struct SkywayFileOutputStream<'a> {
    sender: GraphSender<'a>,
    node: NodeId,
    name: String,
}

impl<'a> std::fmt::Debug for SkywayFileOutputStream<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkywayFileOutputStream")
            .field("node", &self.node)
            .field("name", &self.name)
            .finish()
    }
}

impl<'a> SkywayFileOutputStream<'a> {
    /// Opens a file stream on `node`'s disk.
    ///
    /// # Errors
    /// [`Error::NeedsBaddr`] as for any sender.
    pub fn create(
        vm: &'a Vm,
        dir: &'a TypeDirectory,
        node: NodeId,
        controller: &ShuffleController,
        cfg: SendConfig,
        name: impl Into<String>,
    ) -> Result<Self> {
        let sender =
            GraphSender::new(vm, dir, node, controller.sid(), controller.next_stream(), cfg)?;
        Ok(SkywayFileOutputStream { sender, node, name: name.into() })
    }

    /// Attaches a transfer trace context, propagated in the file's frame
    /// header so the reading node stitches into the same trace.
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.sender = self.sender.with_trace(ctx);
        self
    }

    /// Transfers one object graph (drop-in `writeObject`).
    ///
    /// # Errors
    /// Heap/registry errors.
    pub fn write_object(&mut self, root: Addr) -> Result<()> {
        self.sender.write_root(root)
    }

    /// Commits the file to the node's disk, charging write-I/O time, and
    /// returns the send statistics.
    ///
    /// # Errors
    /// Cluster errors.
    pub fn close(self, cluster: &mut Cluster) -> Result<SendStats> {
        let spec_byte = spec_flags(self.sender.receiver_spec());
        let ctx = self.sender.trace_ctx();
        let registry = std::sync::Arc::clone(self.sender.registry());
        let node_name = self.sender.node_name().to_owned();
        let out = self.sender.finish();
        let blob = frame_chunks_traced(&out.chunks, spec_byte, ctx);
        let mut span =
            registry.tracer().start(obs::names::TRACE_SENDER_CHUNK_SEND, ctx, &node_name);
        span.annotate("bytes", blob.len() as u64);
        span.annotate("chunks", out.chunks.len() as u64);
        cluster.disk_write(self.node, self.name, blob).map_err(Error::Cluster)?;
        drop(span);
        Ok(out.stats)
    }
}

/// Reads object graphs from a named file on a node's simulated disk —
/// the counterpart of `SkywayFileInputStream`.
#[derive(Debug)]
pub struct SkywayFileInputStream;

impl SkywayFileInputStream {
    /// Reads and absolutizes a Skyway file, charging read-I/O time, and
    /// returns the root objects (callers must root them before further
    /// allocation).
    ///
    /// # Errors
    /// Missing-file, corrupt-stream, and heap errors.
    pub fn open_and_read(
        vm: &mut Vm,
        dir: &TypeDirectory,
        node: NodeId,
        cluster: &mut Cluster,
        name: &str,
        hooks: Option<&UpdateRegistry>,
    ) -> Result<Vec<Addr>> {
        let blob = cluster.disk_read(node, name).map_err(Error::Cluster)?;
        read_blob(vm, dir, node, &blob, hooks)
    }
}

/// Sends object graphs over a simulated socket link, streaming each chunk
/// as it flushes — the counterpart of `SkywaySocketOutputStream`.
pub struct SkywaySocketOutputStream<'a> {
    sender: GraphSender<'a>,
    src: NodeId,
    dst: NodeId,
}

impl<'a> std::fmt::Debug for SkywaySocketOutputStream<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkywaySocketOutputStream")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .finish()
    }
}

impl<'a> SkywaySocketOutputStream<'a> {
    /// Connects a socket stream from `src` to `dst`.
    ///
    /// # Errors
    /// [`Error::NeedsBaddr`] as for any sender.
    pub fn connect(
        vm: &'a Vm,
        dir: &'a TypeDirectory,
        src: NodeId,
        dst: NodeId,
        controller: &ShuffleController,
        cfg: SendConfig,
    ) -> Result<Self> {
        let sender =
            GraphSender::new(vm, dir, src, controller.sid(), controller.next_stream(), cfg)?;
        Ok(SkywaySocketOutputStream { sender, src, dst })
    }

    /// Attaches a transfer trace context, carried as a traced-chunk message
    /// prefix so the receiving node stitches into the same trace.
    #[must_use]
    pub fn with_trace(mut self, ctx: obs::TraceCtx) -> Self {
        self.sender = self.sender.with_trace(ctx);
        self
    }

    /// Transfers one object graph, streaming any chunks that flushed while
    /// traversing (transfer overlaps computation, §3.2).
    ///
    /// # Errors
    /// Heap/registry/cluster errors.
    pub fn write_object(&mut self, root: Addr, cluster: &mut Cluster) -> Result<()> {
        self.sender.write_root(root)?;
        let chunks = self.sender.take_ready_chunks();
        let (ctx, registry) = (self.sender.trace_ctx(), self.sender.registry());
        send_chunks(&chunks, ctx, registry, self.sender.node_name(), self.src, self.dst, cluster)
    }

    /// Flushes the tail and sends the end-of-stream marker.
    ///
    /// # Errors
    /// Cluster errors.
    pub fn close(self, cluster: &mut Cluster) -> Result<SendStats> {
        let (src, dst, ctx) = (self.src, self.dst, self.sender.trace_ctx());
        let registry = std::sync::Arc::clone(self.sender.registry());
        let node_name = self.sender.node_name().to_owned();
        let out = self.sender.finish();
        send_chunks(&out.chunks, ctx, &registry, &node_name, src, dst, cluster)?;
        cluster.net_send(src, dst, vec![0u8]).map_err(Error::Cluster)?; // EOS
        Ok(out.stats)
    }
}

/// Sends `chunks` from `src` to `dst`, each under its own chunk-send span.
fn send_chunks(
    chunks: &[Vec<u8>],
    ctx: obs::TraceCtx,
    registry: &obs::Registry,
    node_name: &str,
    src: NodeId,
    dst: NodeId,
    cluster: &mut Cluster,
) -> Result<()> {
    for chunk in chunks {
        let mut span = registry.tracer().start(obs::names::TRACE_SENDER_CHUNK_SEND, ctx, node_name);
        span.annotate("bytes", chunk.len() as u64);
        cluster.net_send(src, dst, frame_chunk_msg(chunk, ctx)).map_err(Error::Cluster)?;
    }
    Ok(())
}

/// Socket message framing: type 1 carries a bare chunk; type 2 prefixes the
/// chunk with the 16-byte transfer trace context (trace id, parent span id,
/// both little-endian) so the receiver can re-attach it.
fn frame_chunk_msg(chunk: &[u8], ctx: obs::TraceCtx) -> Vec<u8> {
    if ctx.is_none() {
        let mut m = Vec::with_capacity(chunk.len() + 1);
        m.push(1u8); // CHUNK
        m.extend_from_slice(chunk);
        return m;
    }
    let mut m = Vec::with_capacity(chunk.len() + 17);
    m.push(2u8); // TRACED CHUNK
    m.extend_from_slice(&ctx.trace_id.to_le_bytes());
    m.extend_from_slice(&ctx.parent.to_le_bytes());
    m.extend_from_slice(chunk);
    m
}

/// Receives a socket stream — the counterpart of `SkywaySocketInputStream`.
#[derive(Debug)]
pub struct SkywaySocketInputStream;

impl SkywaySocketInputStream {
    /// Drains queued messages from `src` until the end-of-stream marker,
    /// placing each chunk into an input buffer as it arrives, then
    /// absolutizes. Returns the roots.
    ///
    /// # Errors
    /// Transport, corrupt-stream, and heap errors.
    pub fn read_all(
        vm: &mut Vm,
        dir: &TypeDirectory,
        node: NodeId,
        src: NodeId,
        cluster: &mut Cluster,
        hooks: Option<&UpdateRegistry>,
    ) -> Result<Vec<Addr>> {
        let mut rx = crate::receiver::GraphReceiver::new(vm, dir, node);
        loop {
            let msg = cluster.net_recv(node, src).map_err(Error::Cluster)?;
            match msg.first() {
                Some(1) => rx.push_chunk(&msg[1..])?,
                Some(2) => {
                    if msg.len() < 17 {
                        return Err(Error::BadFrame("truncated traced socket message".into()));
                    }
                    let mut id = [0u8; 8];
                    id.copy_from_slice(&msg[1..9]);
                    let mut parent = [0u8; 8];
                    parent.copy_from_slice(&msg[9..17]);
                    rx.attach_trace(obs::TraceCtx {
                        trace_id: u64::from_le_bytes(id),
                        parent: u64::from_le_bytes(parent),
                    });
                    rx.push_chunk(&msg[17..])?;
                }
                Some(0) => break,
                _ => return Err(Error::BadFrame("bad socket message".into())),
            }
        }
        let (roots, _) = rx.finish(hooks)?;
        Ok(roots)
    }
}

/// Shared blob-reading path (file carrier).
fn read_blob(
    vm: &mut Vm,
    dir: &TypeDirectory,
    node: NodeId,
    blob: &[u8],
    hooks: Option<&UpdateRegistry>,
) -> Result<Vec<Addr>> {
    let (flags, ctx, chunks) = parse_frames_traced(blob)?;
    check_wire_spec(flags, vm)?;
    let mut rx = crate::receiver::GraphReceiver::new(vm, dir, node);
    rx.attach_trace(ctx);
    for c in chunks {
        rx.push_chunk(c)?;
    }
    let (roots, _) = rx.finish(hooks)?;
    Ok(roots)
}
