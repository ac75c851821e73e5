//! The type registry's traffic (paper §4.1, Algorithm 1).
//!
//! A class's global number is its klass id: the [`ClassPath`] every VM of
//! the cluster shares issues one number per class definition, and the klass
//! meta-object carries it, so the hot send path reads it with one load. What
//! the paper's registry protocol costs is modelled here over those numbers.
//! The driver JVM holds the complete registry; each worker holds a
//! *registry view* — a subset it pulls from the driver:
//!
//! * at startup it issues one `REQUEST_VIEW` and receives the whole current
//!   registry in a batch (most classes a worker will need are already
//!   registered, so batching beats per-class round trips);
//! * when it sends or receives a class missing from its view it issues a
//!   `LOOKUP` with the class-name string.
//!
//! Message and string-byte counters are kept so the registry-traffic
//! ablation can compare this protocol against per-class lookups and against
//! the Java serializer's string-per-object regime.
//!
//! A class number means something on one classpath only, so the directory
//! serves the first classpath it meets; a sender or receiver on another one
//! gets [`Error::ClassPathMismatch`] before any byte moves.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, OnceLock};

use mheap::{ClassPath, Klass, Vm};
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

/// The cluster-wide type directory: driver registry + per-node views.
///
/// One instance is shared (via `Arc`) by every node of a simulated cluster;
/// the per-node state is what each JVM would hold locally, and every access
/// that would cross the network updates [`RegistryStats`].
#[derive(Debug)]
pub struct TypeDirectory {
    driver: NodeId,
    /// The classpath whose numbers this directory serves.
    classpath: OnceLock<Arc<ClassPath>>,
    /// Class number → name length, for every class the driver knows.
    registry: Mutex<BTreeMap<u32, u64>>,
    views: Vec<Mutex<HashSet<u32>>>,
    stats: Mutex<RegistryStats>,
}

impl TypeDirectory {
    /// Creates the directory for an `n`-node cluster with the given driver
    /// node (the paper lets the user pick the driver through an API call).
    pub fn new(n_nodes: usize, driver: NodeId) -> Self {
        TypeDirectory {
            driver,
            classpath: OnceLock::new(),
            registry: Mutex::new(BTreeMap::new()),
            views: (0..n_nodes).map(|_| Mutex::new(HashSet::new())).collect(),
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
        self.registry.lock().len()
    }

    /// True if no type is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn view(&self, node: NodeId) -> Result<&Mutex<HashSet<u32>>> {
        self.views.get(node.0).ok_or(Error::UnknownNode(node.0))
    }

    /// Checks that `vm` on `node` is on the classpath this directory serves,
    /// binding the directory to it if it serves none yet.
    ///
    /// # Errors
    /// [`Error::ClassPathMismatch`].
    pub(crate) fn serve(&self, node: NodeId, vm: &Vm) -> Result<()> {
        let served = self.classpath.get_or_init(|| Arc::clone(vm.classpath()));
        if Arc::ptr_eq(served, vm.classpath()) {
            return Ok(());
        }
        Err(Error::ClassPathMismatch(node.0))
    }

    /// Driver part 1 (Algorithm 1, lines 3–8): after JVM startup, register
    /// every class already loaded in the driver VM.
    ///
    /// # Errors
    /// [`Error::UnknownNode`] if the directory was built without the driver;
    /// [`Error::ClassPathMismatch`].
    pub fn bootstrap_driver(&self, vm: &Vm) -> Result<()> {
        self.serve(self.driver, vm)?;
        let mut reg = self.registry.lock();
        let mut view = self.view(self.driver)?.lock();
        for k in vm.klasses().all() {
            reg.insert(k.id.0, k.name.len() as u64);
            view.insert(k.id.0);
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
        view.extend(reg.keys());
        let bytes: u64 = reg.values().map(|len| len + 4).sum();
        let mut st = self.stats.lock();
        st.view_pulls += 1;
        st.messages += 2;
        st.string_bytes += bytes;
        Ok(())
    }

    /// Worker part 2 (lines 26–35): the global number of a klass — its klass
    /// id — after consulting the local view, which costs a `LOOKUP` round
    /// trip (the class-name string to the driver) if the class is missing.
    ///
    /// # Errors
    /// [`Error::UnknownNode`].
    pub fn tid_for(&self, node: NodeId, klass: &Klass) -> Result<u32> {
        let id = klass.id.0;
        if self.view(node)?.lock().contains(&id) {
            return Ok(id);
        }
        // Every guard below is scoped to one statement, so the locks are
        // taken strictly one at a time (`worker_startup` takes registry, then
        // view). Two threads racing here may both count the round trip; the
        // inserts are idempotent.
        self.registry.lock().insert(id, klass.name.len() as u64);
        self.view(node)?.lock().insert(id);
        // The driver's own view stays complete.
        self.view(self.driver)?.lock().insert(id);
        let mut st = self.stats.lock();
        st.lookups += 1;
        st.messages += 2;
        st.string_bytes += klass.name.len() as u64;
        Ok(id)
    }

    /// Registers every class currently loaded in a worker VM (bulk variant
    /// of the class-load hook, useful right after booting a workload).
    ///
    /// # Errors
    /// [`Error::UnknownNode`]; [`Error::ClassPathMismatch`].
    pub fn register_loaded(&self, node: NodeId, vm: &Vm) -> Result<()> {
        self.serve(node, vm)?;
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
    use mheap::HeapConfig;

    fn classpath() -> Arc<ClassPath> {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        cp
    }

    fn vm(cp: &Arc<ClassPath>, name: &str) -> Vm {
        Vm::new(name, &HeapConfig::small(), Arc::clone(cp)).unwrap()
    }

    #[test]
    fn driver_bootstrap_assigns_stable_ids() {
        let driver_vm = vm(&classpath(), "driver");
        driver_vm.load_class("java.lang.String").unwrap();
        driver_vm.load_class("java.lang.Integer").unwrap();
        let dir = TypeDirectory::new(3, NodeId(0));
        dir.bootstrap_driver(&driver_vm).unwrap();
        let s = driver_vm.klasses().by_name("java.lang.String").unwrap();
        assert_eq!(dir.tid_for(NodeId(0), s).unwrap(), s.id.0);
        assert_eq!(dir.stats().messages, 0, "the driver's view holds what it registered");
        assert_eq!(dir.len(), driver_vm.klasses().len());
    }

    #[test]
    fn view_pull_then_local_hits_cost_no_lookups() {
        let cp = classpath();
        let driver_vm = vm(&cp, "driver");
        driver_vm.load_class("java.lang.String").unwrap();
        let dir = TypeDirectory::new(2, NodeId(0));
        dir.bootstrap_driver(&driver_vm).unwrap();

        let worker_vm = vm(&cp, "worker");
        dir.worker_startup(NodeId(1)).unwrap();
        worker_vm.load_class("java.lang.String").unwrap();
        let k = worker_vm.klasses().by_name("java.lang.String").unwrap();
        let tid = dir.tid_for(NodeId(1), k).unwrap();

        // Same id as the driver's.
        let dk = driver_vm.klasses().by_name("java.lang.String").unwrap();
        assert_eq!(tid, dk.id.0);
        // No individual lookup was needed.
        assert_eq!(dir.stats().lookups, 0);
        assert_eq!(dir.stats().view_pulls, 1);
    }

    #[test]
    fn unseen_class_costs_one_lookup_and_registers_globally() {
        let dir = TypeDirectory::new(2, NodeId(0));
        let worker_vm = vm(&classpath(), "worker");
        dir.worker_startup(NodeId(1)).unwrap();
        worker_vm.load_class("util.Pair").unwrap();
        let k = worker_vm.klasses().by_name("util.Pair").unwrap();
        dir.tid_for(NodeId(1), k).unwrap();
        assert_eq!(dir.stats().lookups, 1);
        // The driver's view has it now, without a round trip of its own.
        dir.tid_for(NodeId(0), k).unwrap();
        assert_eq!(dir.stats().lookups, 1);
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn same_class_same_id_across_nodes() {
        let dir = TypeDirectory::new(3, NodeId(0));
        let cp = classpath();
        let a = vm(&cp, "a");
        let b = vm(&cp, "b");
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
        let a = vm(&classpath(), "a");
        a.load_class("util.Pair").unwrap();
        let k = a.klasses().by_name("util.Pair").unwrap();
        let t1 = dir.tid_for(NodeId(0), k).unwrap();
        let msgs = dir.stats().messages;
        let t2 = dir.tid_for(NodeId(0), k).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(dir.stats().messages, msgs, "cached tid must cost no messages");
    }

    #[test]
    fn unknown_node_is_an_error() {
        let dir = TypeDirectory::new(1, NodeId(0));
        assert!(matches!(dir.worker_startup(NodeId(5)), Err(Error::UnknownNode(5))));
    }

    /// Class numbers mean something on one classpath only: the directory
    /// serves the first it meets and refuses a VM on another.
    #[test]
    fn a_directory_serves_one_classpath() {
        let dir = TypeDirectory::new(2, NodeId(0));
        dir.bootstrap_driver(&vm(&classpath(), "driver")).unwrap();
        let stranger = vm(&classpath(), "stranger");
        assert!(matches!(
            dir.register_loaded(NodeId(1), &stranger),
            Err(Error::ClassPathMismatch(1))
        ));
        assert!(matches!(dir.bootstrap_driver(&stranger), Err(Error::ClassPathMismatch(0))));
    }

    #[test]
    fn concurrent_tid_lookups_agree() {
        // Parallel sender threads resolve tids concurrently; all threads
        // must observe one consistent id per class.
        let dir = std::sync::Arc::new(TypeDirectory::new(1, NodeId(0)));
        let a = vm(&classpath(), "a");
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
        let a = vm(&classpath(), "a");
        a.load_class("util.Pair").unwrap();
        let k = a.klasses().by_name("util.Pair").unwrap();
        for _ in 0..1000 {
            dir.tid_for(NodeId(1), k).unwrap();
        }
        assert_eq!(dir.stats().string_bytes, "util.Pair".len() as u64);
    }
}
