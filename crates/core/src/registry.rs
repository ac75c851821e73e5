//! Global class numbering (paper §4.1, Algorithm 1).
//!
//! The driver JVM owns the complete type registry mapping every class name
//! to a cluster-unique integer id (`tID`). Each worker holds a *registry
//! view* — a subset it pulls from the driver:
//!
//! * at startup it issues one `REQUEST_VIEW` and receives the whole current
//!   registry in a batch (most classes a worker will need are already
//!   registered, so batching beats per-class round trips);
//! * when it loads a class missing from its view it issues a `LOOKUP` with
//!   the class-name string; the driver returns (or creates) the id;
//! * the id is written into the klass meta-object (`WRITETID`), so the hot
//!   send path reads it with one load.
//!
//! Message and string-byte counters are kept so the registry-traffic
//! ablation can compare this protocol against per-class lookups and against
//! the Java serializer's string-per-object regime.

use std::collections::HashMap;

use mheap::{Klass, Vm};
use parking_lot::Mutex;
use simnet::NodeId;

use crate::{Error, Result};

/// Traffic statistics of the type-registration protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct RegistryStats {
    /// `REQUEST_VIEW` batch pulls served.
    pub view_pulls: u64,
    /// Individual `LOOKUP` round trips served.
    pub lookups: u64,
    /// Total protocol messages (requests + responses).
    pub messages: u64,
    /// Class-name string bytes that crossed the (simulated) wire.
    pub string_bytes: u64,
}

#[derive(Debug, Default)]
struct DriverRegistry {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl DriverRegistry {
    fn lookup_or_create(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }
}

#[derive(Debug, Default, Clone)]
struct RegistryView {
    by_name: HashMap<String, u32>,
    by_id: HashMap<u32, String>,
}

impl RegistryView {
    fn insert(&mut self, name: &str, id: u32) {
        self.by_name.insert(name.to_owned(), id);
        self.by_id.insert(id, name.to_owned());
    }
}

/// The cluster-wide type directory: driver registry + per-node views.
///
/// One instance is shared (via `Arc`) by every node of a simulated cluster;
/// the per-node state is what each JVM would hold locally, and every access
/// that would cross the network updates [`RegistryStats`].
#[derive(Debug)]
pub struct TypeDirectory {
    driver: NodeId,
    registry: Mutex<DriverRegistry>,
    views: Vec<Mutex<RegistryView>>,
    stats: Mutex<RegistryStats>,
}

impl TypeDirectory {
    /// Creates the directory for an `n`-node cluster with the given driver
    /// node (the paper lets the user pick the driver through an API call).
    pub fn new(n_nodes: usize, driver: NodeId) -> Self {
        TypeDirectory {
            driver,
            registry: Mutex::new(DriverRegistry::default()),
            views: (0..n_nodes).map(|_| Mutex::new(RegistryView::default())).collect(),
            stats: Mutex::new(RegistryStats::default()),
        }
    }

    /// The driver node.
    pub fn driver(&self) -> NodeId {
        self.driver
    }

    /// Protocol traffic so far.
    pub fn stats(&self) -> RegistryStats {
        *self.stats.lock()
    }

    /// Number of globally registered types.
    pub fn len(&self) -> usize {
        self.registry.lock().names.len()
    }

    /// True if no type is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn view(&self, node: NodeId) -> Result<&Mutex<RegistryView>> {
        self.views.get(node.0).ok_or(Error::UnknownNode(node.0))
    }

    /// Driver part 1 (Algorithm 1, lines 3–8): after JVM startup, register
    /// every class already loaded in the driver VM and stamp their `tID`s.
    ///
    /// # Errors
    /// [`Error::UnknownNode`] if the directory was built without the driver.
    pub fn bootstrap_driver(&self, vm: &Vm) -> Result<()> {
        let mut reg = self.registry.lock();
        let mut view = self.view(self.driver)?.lock();
        for k in vm.klasses().all() {
            let id = reg.lookup_or_create(&k.name);
            k.set_tid(id);
            view.insert(&k.name, id);
        }
        Ok(())
    }

    /// Worker part 1 (lines 22–24): pull the full registry in one
    /// `REQUEST_VIEW` batch at startup.
    ///
    /// # Errors
    /// [`Error::UnknownNode`].
    pub fn worker_startup(&self, node: NodeId) -> Result<()> {
        let reg = self.registry.lock();
        let mut view = self.view(node)?.lock();
        let mut bytes = 0u64;
        for (i, name) in reg.names.iter().enumerate() {
            view.insert(name, i as u32);
            bytes += name.len() as u64 + 4;
        }
        let mut st = self.stats.lock();
        st.view_pulls += 1;
        st.messages += 2;
        st.string_bytes += bytes;
        Ok(())
    }

    /// Worker part 2 (lines 26–35): obtain the `tID` for a loaded klass,
    /// consulting the local view first and falling back to a `LOOKUP` round
    /// trip, then write the id into the klass meta-object.
    ///
    /// # Errors
    /// [`Error::UnknownNode`].
    pub fn tid_for(&self, node: NodeId, klass: &Klass) -> Result<u32> {
        if let Some(tid) = klass.tid() {
            return Ok(tid);
        }
        {
            let view = self.view(node)?.lock();
            if let Some(&id) = view.by_name.get(&klass.name) {
                klass.set_tid(id);
                return Ok(id);
            }
        }
        // LOOKUP round trip: class-name string to the driver, id back.
        // Every guard below is scoped to a single statement or block so the
        // locks are taken strictly one at a time: holding the view while
        // locking the registry here inverted `worker_startup`'s
        // registry-then-view order (a deadlock window under concurrent
        // startup + lookup), and holding stats across the driver-view
        // insert inverted view-then-stats the same way. The race this
        // opens — another thread interleaving between the registry lookup
        // and the view insert — is benign: `lookup_or_create` is
        // idempotent and re-inserting the same (name, id) is a no-op.
        let id = self.registry.lock().lookup_or_create(&klass.name);
        self.view(node)?.lock().insert(&klass.name, id);
        klass.set_tid(id);
        {
            let mut st = self.stats.lock();
            st.lookups += 1;
            st.messages += 2;
            st.string_bytes += klass.name.len() as u64;
        }
        // The driver's own view stays complete.
        if node != self.driver {
            self.view(self.driver)?.lock().insert(&klass.name, id);
        }
        Ok(id)
    }

    /// Receiver-side reverse mapping: class name behind a `tID`. Consults
    /// the local view, then the driver ("the type registry knows the full
    /// class name", §4.1).
    ///
    /// # Errors
    /// [`Error::UnknownNode`]; [`Error::UnknownTypeId`] if no node ever
    /// registered the id.
    pub fn name_for_tid(&self, node: NodeId, tid: u32) -> Result<String> {
        {
            let view = self.view(node)?.lock();
            if let Some(name) = view.by_id.get(&tid) {
                return Ok(name.clone());
            }
        }
        let reg = self.registry.lock();
        let name = reg.names.get(tid as usize).cloned().ok_or(Error::UnknownTypeId(tid))?;
        drop(reg);
        self.view(node)?.lock().insert(&name, tid);
        let mut st = self.stats.lock();
        st.lookups += 1;
        st.messages += 2;
        st.string_bytes += name.len() as u64;
        Ok(name)
    }

    /// [`TypeDirectory::name_for_tid`] wrapped in a
    /// `trace.registry.class_load` span — the receiver's on-demand class
    /// resolution is a protocol round trip worth seeing on a transfer's
    /// timeline. Inert (plain lookup) when `ctx` is absent or tracing is
    /// off.
    ///
    /// # Errors
    /// Same as [`TypeDirectory::name_for_tid`].
    pub fn name_for_tid_traced(
        &self,
        node: NodeId,
        tid: u32,
        tracer: &obs::Tracer,
        ctx: obs::TraceCtx,
        node_name: &str,
    ) -> Result<String> {
        let mut span = tracer.start(obs::names::TRACE_REGISTRY_CLASS_LOAD, ctx, node_name);
        span.annotate("tid", u64::from(tid));
        self.name_for_tid(node, tid)
    }

    /// Registers every class currently loaded in a worker VM (bulk variant
    /// of the class-load hook, useful right after booting a workload).
    ///
    /// # Errors
    /// [`Error::UnknownNode`].
    pub fn register_loaded(&self, node: NodeId, vm: &Vm) -> Result<()> {
        for k in vm.klasses().all() {
            self.tid_for(node, &k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::stdlib::define_core_classes;
    use mheap::{ClassPath, HeapConfig};

    fn vm(name: &str) -> Vm {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        Vm::new(name, &HeapConfig::small(), cp).unwrap()
    }

    #[test]
    fn driver_bootstrap_assigns_stable_ids() {
        let driver_vm = vm("driver");
        driver_vm.load_class("java.lang.String").unwrap();
        driver_vm.load_class("java.lang.Integer").unwrap();
        let dir = TypeDirectory::new(3, NodeId(0));
        dir.bootstrap_driver(&driver_vm).unwrap();
        let s = driver_vm.klasses().by_name("java.lang.String").unwrap();
        assert!(s.tid().is_some());
        assert_eq!(dir.len(), driver_vm.klasses().len());
    }

    #[test]
    fn view_pull_then_local_hits_cost_no_lookups() {
        let driver_vm = vm("driver");
        driver_vm.load_class("java.lang.String").unwrap();
        let dir = TypeDirectory::new(2, NodeId(0));
        dir.bootstrap_driver(&driver_vm).unwrap();

        let worker_vm = vm("worker");
        dir.worker_startup(NodeId(1)).unwrap();
        worker_vm.load_class("java.lang.String").unwrap();
        let k = worker_vm.klasses().by_name("java.lang.String").unwrap();
        let tid = dir.tid_for(NodeId(1), k).unwrap();

        // Same id as the driver's.
        let dk = driver_vm.klasses().by_name("java.lang.String").unwrap();
        assert_eq!(Some(tid), dk.tid());
        // No individual lookup was needed.
        assert_eq!(dir.stats().lookups, 0);
        assert_eq!(dir.stats().view_pulls, 1);
    }

    #[test]
    fn unseen_class_costs_one_lookup_and_registers_globally() {
        let dir = TypeDirectory::new(2, NodeId(0));
        let worker_vm = vm("worker");
        dir.worker_startup(NodeId(1)).unwrap();
        worker_vm.load_class("util.Pair").unwrap();
        let k = worker_vm.klasses().by_name("util.Pair").unwrap();
        let tid = dir.tid_for(NodeId(1), k).unwrap();
        assert_eq!(dir.stats().lookups, 1);
        // A second worker finds it without defining it.
        assert_eq!(dir.name_for_tid(NodeId(0), tid).unwrap(), "util.Pair");
    }

    #[test]
    fn same_class_same_id_across_nodes() {
        let dir = TypeDirectory::new(3, NodeId(0));
        let a = vm("a");
        let b = vm("b");
        a.load_class("util.Pair").unwrap();
        b.load_class("util.Pair").unwrap();
        let ka = a.klasses().by_name("util.Pair").unwrap();
        let kb = b.klasses().by_name("util.Pair").unwrap();
        let ta = dir.tid_for(NodeId(1), ka).unwrap();
        let tb = dir.tid_for(NodeId(2), kb).unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn cached_tid_short_circuits() {
        let dir = TypeDirectory::new(1, NodeId(0));
        let a = vm("a");
        a.load_class("util.Pair").unwrap();
        let k = a.klasses().by_name("util.Pair").unwrap();
        let t1 = dir.tid_for(NodeId(0), k).unwrap();
        let msgs = dir.stats().messages;
        let t2 = dir.tid_for(NodeId(0), k).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(dir.stats().messages, msgs, "cached tid must cost no messages");
    }

    #[test]
    fn unknown_tid_is_an_error() {
        let dir = TypeDirectory::new(1, NodeId(0));
        assert!(matches!(dir.name_for_tid(NodeId(0), 999), Err(Error::UnknownTypeId(999))));
    }

    #[test]
    fn unknown_node_is_an_error() {
        let dir = TypeDirectory::new(1, NodeId(0));
        assert!(matches!(dir.worker_startup(NodeId(5)), Err(Error::UnknownNode(5))));
    }

    #[test]
    fn concurrent_tid_lookups_agree() {
        // Parallel sender threads resolve tids concurrently; all threads
        // must observe one consistent id per class.
        let dir = std::sync::Arc::new(TypeDirectory::new(1, NodeId(0)));
        let a = vm("a");
        a.load_class("util.Pair").unwrap();
        a.load_class("java.lang.String").unwrap();
        let pair = a.klasses().by_name("util.Pair").unwrap();
        let string = a.klasses().by_name("java.lang.String").unwrap();
        let ids: Vec<(u32, u32)> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let dir = std::sync::Arc::clone(&dir);
                    let pair = std::sync::Arc::clone(pair);
                    let string = std::sync::Arc::clone(string);
                    s.spawn(move || {
                        (
                            dir.tid_for(NodeId(0), &pair).unwrap(),
                            dir.tid_for(NodeId(0), &string).unwrap(),
                        )
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(ids[0].0, ids[0].1);
    }

    #[test]
    fn strings_cross_wire_once_per_class_not_per_object() {
        // The paper's claim: Skyway sends a type string at most once per
        // class per machine. 1000 tid_for calls → string bytes bounded by
        // one name.
        let dir = TypeDirectory::new(2, NodeId(0));
        let a = vm("a");
        a.load_class("util.Pair").unwrap();
        let k = a.klasses().by_name("util.Pair").unwrap();
        for _ in 0..1000 {
            dir.tid_for(NodeId(1), k).unwrap();
        }
        assert_eq!(dir.stats().string_bytes, "util.Pair".len() as u64);
    }
}
