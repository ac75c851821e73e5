//! Quickstart: move an object graph between two simulated managed heaps
//! with Skyway — no serialization functions anywhere.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use mheap::stdlib::define_core_classes;
use mheap::{ClassPath, FieldType, HeapConfig, KlassDef, PrimType, Vm};
use simnet::NodeId;
use skyway::{PipelineConfig, PipelineEngine, ShuffleController, TypeDirectory};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A shared "classpath" of class definitions, as a cluster would have.
    let classpath = ClassPath::new();
    define_core_classes(&classpath);
    classpath.define(KlassDef::new(
        "demo.Order",
        None,
        vec![
            ("id", FieldType::Prim(PrimType::Long)),
            ("amount", FieldType::Prim(PrimType::Double)),
            ("customer", FieldType::Ref),
        ],
    ));

    // Two "JVM processes".
    let mut sender = Vm::new("worker-0", &HeapConfig::default(), Arc::clone(&classpath))?;
    let mut receiver = Vm::new("worker-1", &HeapConfig::default(), classpath)?;

    // Global class numbering (paper §4.1): the driver owns the registry;
    // workers pull views.
    let dir = TypeDirectory::new(2, NodeId(0));
    dir.bootstrap_driver(&sender)?;
    dir.worker_startup(NodeId(1))?;

    // Build an object graph on the sender: an order pointing at a customer
    // name string.
    let order_klass = sender.load_class("demo.Order")?;
    let order = sender.alloc_instance(order_klass)?;
    let oh = sender.handle(order);
    let name = sender.new_string("Ada Lovelace")?;
    let order = sender.resolve(oh)?;
    sender.set_long(order, "id", 4711)?;
    sender.set_double(order, "amount", 1234.56)?;
    sender.set_ref(order, "customer", name)?;
    // Materialize the identity hashcode — Skyway will preserve it.
    let hash_before = sender.identity_hash(order)?;

    // Send and receive in one call. The sender's GC-like traversal clones
    // the graph into output buffers, relativizing references (paper §4.2,
    // Algorithm 2); chunks land in the receiver's old generation, where one
    // linear scan absolutizes types and pointers (§4.3). The controller
    // holds the shuffle phase (`start_phase` is §3.3's `shuffleStart`); the
    // stream id names this sender's output buffer within the phase.
    let controller = ShuffleController::new();
    let engine = PipelineEngine::new(PipelineConfig::default());
    let order = sender.resolve(oh)?;
    let (roots, report) = engine.transfer(
        &sender,
        &mut receiver,
        &dir,
        NodeId(0),
        NodeId(1),
        controller.sid(),
        controller.next_stream(),
        &[order],
        None,
    )?;
    let got = roots[0];
    println!(
        "sent {} objects as {} bytes in {} chunk(s) ({:?}) — zero S/D function calls",
        report.send_stats.objects,
        report.send_stats.total_bytes,
        report.chunk_bytes.len(),
        report.mode
    );
    println!("received {} objects", report.recv_stats.objects);

    // The graph is immediately usable — and the hashcode survived.
    assert_eq!(receiver.get_long(got, "id")?, 4711);
    assert_eq!(receiver.get_double(got, "amount")?, 1234.56);
    let customer = receiver.get_ref(got, "customer")?;
    assert_eq!(receiver.read_string(customer)?, "Ada Lovelace");
    assert_eq!(receiver.identity_hash(got)?, hash_before);
    println!(
        "order #{} for {} ({}), identity hash {} preserved",
        receiver.get_long(got, "id")?,
        receiver.read_string(customer)?,
        receiver.get_double(got, "amount")?,
        hash_before
    );
    Ok(())
}
