//! The Spark-like engine: a driver plus worker VMs, eager partitioned
//! datasets, and the sort-based shuffle pipeline whose S/D stage is
//! pluggable (Java serializer / Kryo / Skyway) — the apparatus of the
//! paper's §5.2 evaluation.
//!
//! The shuffle follows Spark's structure: each source partition's records
//! are bucketed by key hash, sorted, serialized per destination, spilled to
//! the (simulated) local disk, fetched by the destination (locally or over
//! the simulated network), and deserialized into the destination heap. Every
//! stage charges the matching cost category of the per-node
//! [`simnet::Profile`], which is how Figure 3/8 breakdowns are produced.
//!
//! As in a Spark cluster, where every executor is its own JVM, the workers
//! run a stage side by side: building a partition, a transformation, the
//! map side of the spill shuffle (bucket, sort, serialize), the reduce side
//! (deserialize, adopt) and the serialize half of `collect` run one task per
//! worker heap, on up to as many threads as the host has cores. Everything
//! the fabric sees — spill files, fetches, network messages, ledger merges —
//! happens on the calling thread in node order, so file names, stream ids,
//! byte counts and results do not depend on how many threads ran. CPU
//! categories hold each node's own thread CPU time, so a node's ledger is
//! not billed for a sibling's timeslice, and the per-node sums of a stage
//! can exceed its wall. The pipelined route's cross-node transfers hold two
//! heaps each and run one after another.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use mheap::{Addr, ClassPath, Handle, HeapConfig, LayoutSpec, Vm};
use serlab::{
    deserialize_profiled, serialize_profiled, JavaSerializer, KryoRegistry, KryoSerializer,
    Serializer,
};
use simnet::{Category, Cluster, NodeId, Profile, SimConfig};
use skyway::{scrub_baddrs, ShuffleController, SkywaySerializer, TypeDirectory};

use crate::classes::{define_spark_classes, new_closure, spark_class_names, SparkClasses};
use crate::{Error, Result};

/// Which data serializer the engine shuffles with (the x-axis of Fig. 8a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerializerKind {
    /// The Java serializer analogue.
    Java,
    /// Kryo with manual registration.
    Kryo,
    /// Skyway (this paper).
    Skyway,
}

impl SerializerKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SerializerKind::Java => "java",
            SerializerKind::Kryo => "kryo",
            SerializerKind::Skyway => "skyway",
        }
    }

    /// All kinds in the paper's presentation order.
    pub const ALL: [SerializerKind; 3] =
        [SerializerKind::Java, SerializerKind::Kryo, SerializerKind::Skyway];
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SparkConfig {
    /// Number of worker nodes (the driver is an extra node 0).
    pub n_workers: usize,
    /// The shuffle serializer.
    pub serializer: SerializerKind,
    /// Per-VM heap capacity in bytes.
    pub heap_bytes: usize,
    /// Network/disk cost model.
    pub sim: SimConfig,
    /// Object format of every VM's heap (STOCK drops the `baddr` word —
    /// the baseline of the §5.2 memory-overhead experiment; Skyway as a
    /// serializer then requires the default SKYWAY format).
    pub spec: LayoutSpec,
    /// Pipelined Skyway shuffle: cross-node transfers overlap traversal,
    /// transfer, and absolutization at chunk granularity instead of the
    /// serialize → spill → fetch → deserialize barrier. Only applies when
    /// `serializer` is [`SerializerKind::Skyway`]; same-node transfers
    /// keep the spill path (one VM cannot host both ends concurrently).
    pub pipeline: bool,
    /// Worker threads for the pipelined shuffle's parallel transfer mode
    /// (sender lanes with fixed strided root shares + concurrent
    /// absorbers). `< 2` keeps the single-stream pipelined path; the
    /// engine's adaptive policy still falls back per transfer when a
    /// partition has too few roots.
    pub pipeline_workers: usize,
}

impl Default for SparkConfig {
    fn default() -> Self {
        SparkConfig {
            n_workers: 3,
            serializer: SerializerKind::Kryo,
            heap_bytes: 64 << 20,
            sim: SimConfig::default(),
            spec: LayoutSpec::SKYWAY,
            pipeline: false,
            pipeline_workers: 1,
        }
    }
}

/// One partition: a rooted record list on one worker.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// Owning node.
    pub node: NodeId,
    /// Handle to the in-heap `ArrayList` of records.
    pub list: Handle,
}

/// A distributed dataset: one partition per worker.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Partitions in worker order.
    pub partitions: Vec<Partition>,
}

/// The Spark-like cluster: driver (node 0) + workers (nodes 1..=W).
pub struct SparkCluster {
    /// The simulated fabric (profiles, disks, network).
    pub cluster: Cluster,
    vms: Vec<Vm>,
    serializers: Vec<Arc<dyn Serializer>>,
    controllers: Vec<Arc<ShuffleController>>,
    dir: Arc<TypeDirectory>,
    kryo_registry: Arc<KryoRegistry>,
    kind_label: String,
    skyway_phases: bool,
    shuffle_seq: u64,
    classpath: Arc<ClassPath>,
    /// Present iff the pipelined Skyway shuffle is enabled; lives for the
    /// cluster's lifetime so its chunk pool carries backings across
    /// shuffles (steady-state transfers allocate nothing).
    pipeline_engine: Option<skyway::PipelineEngine>,
    /// Most threads a stage's per-node tasks run on: the host's available
    /// parallelism.
    task_threads: usize,
}

impl std::fmt::Debug for SparkCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparkCluster")
            .field("workers", &(self.vms.len() - 1))
            .field("serializer", &self.kind_label)
            .finish()
    }
}

/// A per-node serializer factory: `(node, type directory, shuffle
/// controller) → (serializer, skyway-style phase management applies)`.
pub type SerializerFactory<'a> =
    &'a dyn Fn(NodeId, &Arc<TypeDirectory>, &Arc<ShuffleController>) -> (Arc<dyn Serializer>, bool);

impl SparkCluster {
    /// Boots a cluster: driver VM + worker VMs, shared classpath, type
    /// directory (Skyway) or class registry (Kryo), per-node serializers.
    ///
    /// # Errors
    /// Heap allocation errors.
    pub fn new(cfg: &SparkConfig) -> Result<Self> {
        let classpath = ClassPath::new();
        define_spark_classes(&classpath);
        Self::boot(cfg, classpath, None)
    }

    /// Boots a cluster with a *custom* per-node serializer factory (how the
    /// Flink-like engine reuses this substrate with its built-in row
    /// serializers). The factory receives the node id, the shared type
    /// directory, and that node's shuffle controller, and returns the
    /// serializer plus whether Skyway-style phase management applies.
    ///
    /// # Errors
    /// Heap allocation errors.
    pub fn new_custom(
        cfg: &SparkConfig,
        classpath: Arc<ClassPath>,
        factory: SerializerFactory<'_>,
        label: &str,
    ) -> Result<Self> {
        define_spark_classes(&classpath);
        Self::boot(cfg, classpath, Some((factory, label)))
    }

    fn boot(
        cfg: &SparkConfig,
        classpath: Arc<ClassPath>,
        custom: Option<(SerializerFactory<'_>, &str)>,
    ) -> Result<Self> {
        let n_nodes = cfg.n_workers + 1;
        let mut vms = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            let name = if i == 0 { "driver".to_owned() } else { format!("worker-{i}") };
            let hc =
                HeapConfig { capacity: cfg.heap_bytes, spec: cfg.spec, ..HeapConfig::default() };
            let vm = Vm::new(name, &hc, Arc::clone(&classpath)).map_err(Error::Heap)?;
            // Pre-load every workload class, as a warmed-up JVM would have.
            for c in spark_class_names() {
                vm.load_class(c).map_err(Error::Heap)?;
            }
            vms.push(vm);
        }

        let dir = Arc::new(TypeDirectory::new(n_nodes, NodeId(0)));
        dir.bootstrap_driver(&vms[0]).map_err(Error::Skyway)?;
        for (i, vm) in vms.iter().enumerate().skip(1) {
            dir.worker_startup(NodeId(i)).map_err(Error::Skyway)?;
            dir.register_loaded(NodeId(i), vm).map_err(Error::Skyway)?;
        }

        // Kryo registration: the consistent-order class list (automated
        // here; in real Spark a developer hand-writes this, §2.1).
        let kreg = KryoRegistry::new();
        kreg.register_all(spark_class_names()).map_err(Error::Serde)?;
        kreg.register("java.lang.Object").map_err(Error::Serde)?;
        let kreg = Arc::new(kreg);

        let mut serializers: Vec<Arc<dyn Serializer>> = Vec::with_capacity(n_nodes);
        let mut controllers = Vec::with_capacity(n_nodes);
        let mut skyway_phases = custom.is_none() && cfg.serializer == SerializerKind::Skyway;
        let kind_label =
            custom.map(|(_, l)| l.to_owned()).unwrap_or_else(|| cfg.serializer.label().to_owned());
        for i in 0..n_nodes {
            let controller = Arc::new(ShuffleController::new());
            let s: Arc<dyn Serializer> = match custom {
                Some((factory, _)) => {
                    let (s, phases) = factory(NodeId(i), &dir, &controller);
                    skyway_phases |= phases;
                    s
                }
                None => match cfg.serializer {
                    SerializerKind::Java => Arc::new(JavaSerializer::new()),
                    SerializerKind::Kryo => Arc::new(KryoSerializer::manual(Arc::clone(&kreg))),
                    SerializerKind::Skyway => Arc::new(SkywaySerializer::new(
                        Arc::clone(&dir),
                        NodeId(i),
                        Arc::clone(&controller),
                        LayoutSpec::SKYWAY,
                    )),
                },
            };
            serializers.push(s);
            controllers.push(controller);
        }

        let pipeline_engine =
            if cfg.pipeline && custom.is_none() && cfg.serializer == SerializerKind::Skyway {
                Some(skyway::PipelineEngine::new(skyway::PipelineConfig {
                    sim: cfg.sim,
                    parallel: (cfg.pipeline_workers >= 2).then(|| skyway::ParallelConfig {
                        workers: cfg.pipeline_workers,
                        ..skyway::ParallelConfig::default()
                    }),
                    ..skyway::PipelineConfig::default()
                }))
            } else {
                None
            };

        Ok(SparkCluster {
            cluster: Cluster::new(n_nodes, cfg.sim),
            vms,
            serializers,
            controllers,
            dir,
            kryo_registry: kreg,
            kind_label,
            skyway_phases,
            shuffle_seq: 0,
            classpath,
            pipeline_engine,
            task_threads: std::thread::available_parallelism().map_or(1, usize::from),
        })
    }

    /// Two distinct VMs at once: the sender end shared, the receiver end
    /// exclusive — the borrow split the pipelined shuffle needs.
    ///
    /// # Panics
    /// Panics when `src == dst` (the pipelined path never pairs a VM with
    /// itself; same-node transfers take the spill path).
    fn vm_pair(vms: &mut [Vm], src: usize, dst: usize) -> (&Vm, &mut Vm) {
        assert_ne!(src, dst, "a VM cannot be both ends of a pipelined transfer");
        if src < dst {
            let (a, b) = vms.split_at_mut(dst);
            (&a[src], &mut b[0])
        } else {
            let (a, b) = vms.split_at_mut(src);
            (&b[0], &mut a[dst])
        }
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.vms.len() - 1
    }

    /// Worker node ids (1..=W).
    pub fn worker_nodes(&self) -> Vec<NodeId> {
        (1..self.vms.len()).map(NodeId).collect()
    }

    /// The shared classpath.
    pub fn classpath(&self) -> &Arc<ClassPath> {
        &self.classpath
    }

    /// The Skyway type directory (registry-traffic statistics).
    pub fn type_directory(&self) -> &Arc<TypeDirectory> {
        &self.dir
    }

    /// Registers additional workload classes with the Kryo registry (the
    /// `conf.registerKryoClasses` step of §2.1). Harmless under the other
    /// serializers — Skyway numbers classes automatically and the Java
    /// serializer writes names. Already-registered classes are ignored.
    pub fn register_classes<'a>(&self, names: impl IntoIterator<Item = &'a str>) {
        for n in names {
            let _ = self.kryo_registry.register(n);
        }
    }

    /// A worker/driver VM.
    ///
    /// # Panics
    /// Panics on out-of-range nodes (engine-internal ids are always valid).
    pub fn vm(&self, node: NodeId) -> &Vm {
        &self.vms[node.0]
    }

    /// Mutable VM access.
    ///
    /// # Panics
    /// Panics on out-of-range nodes.
    pub fn vm_mut(&mut self, node: NodeId) -> &mut Vm {
        &mut self.vms[node.0]
    }

    /// The workload record classes with their fields resolved, on the
    /// driver: every VM of the cluster shares its classpath and object
    /// format, so the handles serve every worker.
    ///
    /// # Errors
    /// Class-loading / field errors.
    pub fn classes(&self) -> Result<SparkClasses> {
        SparkClasses::resolve(&self.vms[0])
    }

    /// Aggregated cost profile across all nodes.
    pub fn aggregate_profile(&self) -> Profile {
        self.cluster.aggregate()
    }

    /// Ships a closure descriptor from the driver to every worker using
    /// the *Java serializer* (the paper keeps closure serialization on the
    /// Java serializer; only data serialization is swapped).
    ///
    /// # Errors
    /// Serialization errors.
    pub fn ship_closure(&mut self, name: &str, stage: i32, captured: &str) -> Result<()> {
        let java = JavaSerializer::new();
        let driver = &mut self.vms[0];
        let c = new_closure(driver, name, stage, captured)?;
        let h = driver.handle(c);
        let root = driver.resolve(h).map_err(Error::Heap)?;
        let mut p = Profile::new();
        let bytes = java.serialize(driver, &[root], &mut p).map_err(Error::Serde)?;
        driver.release(h).map_err(Error::Heap)?;
        self.cluster.profile_mut(NodeId(0)).merge(&p);
        for w in self.worker_nodes() {
            self.cluster.net_send(NodeId(0), w, bytes.clone()).map_err(Error::Net)?;
            let blob = self.cluster.net_recv(w, NodeId(0)).map_err(Error::Net)?;
            let vm = &mut self.vms[w.0];
            let mut p = Profile::new();
            let roots = java.deserialize(vm, &blob, &mut p).map_err(Error::Serde)?;
            // Workers drop the closure after "running" it.
            let _ = roots;
            self.cluster.profile_mut(w).merge(&p);
        }
        Ok(())
    }

    /// Creates a dataset by building records on each worker from Rust-side
    /// seeds. `seeds[i]` goes to worker `i+1`.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn create_dataset<T: Send>(
        &mut self,
        seeds: Vec<Vec<T>>,
        build: impl Fn(&mut Vm, &T) -> Result<Addr> + Sync,
    ) -> Result<Dataset> {
        if seeds.len() != self.n_workers() {
            return Err(Error::BadPartitioning { expected: self.n_workers(), got: seeds.len() });
        }
        let jobs = seeds.into_iter().enumerate().map(|(i, part)| (NodeId(i + 1), part)).collect();
        let built = self.on_each_node(jobs, |node, vm, _, part| {
            let list = build_list(vm, &part, &build)?;
            Ok((Partition { node, list }, 0))
        });
        self.finish_stage(built)
    }

    /// Total number of records in a dataset.
    ///
    /// # Errors
    /// Heap errors.
    pub fn count(&self, ds: &Dataset) -> Result<u64> {
        let mut total = 0;
        for p in &ds.partitions {
            let vm = &self.vms[p.node.0];
            let list = vm.resolve(p.list).map_err(Error::Heap)?;
            total += vm.list_len(list).map_err(Error::Heap)?;
        }
        Ok(total)
    }

    /// Releases a dataset's partitions (lets the GC reclaim them — the
    /// moral equivalent of Skyway's `free_buffer`).
    ///
    /// # Errors
    /// Stale-handle errors.
    pub fn release(&mut self, ds: Dataset) -> Result<()> {
        for p in ds.partitions {
            self.vms[p.node.0].release(p.list).map_err(Error::Heap)?;
        }
        Ok(())
    }

    /// Partition-local transformation: `extract` reads a partition's
    /// records into Rust values (read-only heap access: no allocation can
    /// move objects under it), `build` materializes new records. Every
    /// worker's partition runs as its own task; each node is charged its
    /// task's CPU time as Computation.
    ///
    /// # Errors
    /// Heap errors from either closure.
    pub fn transform<T>(
        &mut self,
        ds: &Dataset,
        extract: impl Fn(&Vm, &[Addr]) -> Result<Vec<T>> + Sync,
        build: impl Fn(&mut Vm, &T) -> Result<Addr> + Sync,
    ) -> Result<Dataset> {
        let jobs = ds.partitions.iter().map(|p| (p.node, p.list)).collect();
        let built = self.on_each_node(jobs, |node, vm, _, list| {
            let t0 = obs::thread_cpu_ns();
            let records = list_records(vm, list)?;
            let values = extract(vm, &records)?;
            let list = build_list(vm, &values, &build)?;
            Ok((Partition { node, list }, obs::thread_cpu_ns().saturating_sub(t0)))
        });
        self.finish_stage(built)
    }

    /// Co-partitioned two-dataset transformation (the join/zip of PageRank
    /// and ConnectedComponents iterations).
    ///
    /// # Errors
    /// [`Error::BadPartitioning`] when the datasets have different
    /// partition owners.
    pub fn zip_transform<T>(
        &mut self,
        a: &Dataset,
        b: &Dataset,
        extract: impl Fn(&Vm, &[Addr], &[Addr]) -> Result<Vec<T>> + Sync,
        build: impl Fn(&mut Vm, &T) -> Result<Addr> + Sync,
    ) -> Result<Dataset> {
        if a.partitions.len() != b.partitions.len() {
            return Err(Error::BadPartitioning {
                expected: a.partitions.len(),
                got: b.partitions.len(),
            });
        }
        let mut jobs = Vec::with_capacity(a.partitions.len());
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            if pa.node != pb.node {
                return Err(Error::BadPartitioning { expected: pa.node.0, got: pb.node.0 });
            }
            jobs.push((pa.node, (pa.list, pb.list)));
        }
        let built = self.on_each_node(jobs, |node, vm, _, (la, lb)| {
            let t0 = obs::thread_cpu_ns();
            let ra = list_records(vm, la)?;
            let rb = list_records(vm, lb)?;
            let values = extract(vm, &ra, &rb)?;
            let list = build_list(vm, &values, &build)?;
            Ok((Partition { node, list }, obs::thread_cpu_ns().saturating_sub(t0)))
        });
        self.finish_stage(built)
    }

    /// The sort-based shuffle: redistributes records across workers by key
    /// hash. Consumes (releases) the input dataset, like a Spark stage
    /// boundary.
    ///
    /// # Errors
    /// Serialization/transport/heap errors.
    pub fn shuffle(
        &mut self,
        ds: Dataset,
        key: impl Fn(&Vm, Addr) -> Result<u64> + Sync,
    ) -> Result<Dataset> {
        self.shuffle_seq += 1;
        let seq = self.shuffle_seq;
        let w = self.n_workers();

        // One stage root span per shuffle: every cross-node transfer of
        // this stage opens its `trace.transfer` root under this context,
        // so a whole stage reads as one tree in the exported trace. Inert
        // (and free) while tracing is disabled.
        let tracer = obs::global().tracer();
        let mut stage_span = if tracer.enabled() {
            Some(tracer.start(obs::names::TRACE_STAGE, tracer.new_trace(), "driver"))
        } else {
            None
        };
        if let Some(s) = stage_span.as_mut() {
            s.annotate("shuffle_seq", seq);
        }
        let stage_ctx = stage_span.as_ref().map_or(obs::TraceCtx::NONE, obs::ActiveSpan::ctx);

        // shuffleStart (§3.3): new phase on every node's controller; scrub
        // baddr words when the one-byte sID wraps.
        if self.skyway_phases {
            for i in 0..self.vms.len() {
                if self.controllers[i].start_phase() {
                    scrub_baddrs(&mut self.vms[i]).map_err(Error::Skyway)?;
                }
            }
        }

        // Pipelined mode adopts records during the map-side sweep, so the
        // destination lists must exist up front (the spill path creates
        // them on the reduce side, where it first needs them).
        let dst_lists: Option<Vec<Handle>> = if self.pipeline_engine.is_some() {
            let mut lists = Vec::with_capacity(w);
            for dst in self.worker_nodes() {
                let list = self.vms[dst.0].new_list(16).map_err(Error::Heap)?;
                lists.push(self.vms[dst.0].handle(list));
            }
            Some(lists)
        } else {
            None
        };

        // Map side: bucket, sort, serialize, spill. A failed map task
        // leaves no shuffle file behind: the spill route writes nothing
        // until every node's task has succeeded.
        let mapped = match &dst_lists {
            Some(lists) => self.pipelined_map_side(&ds, &key, seq, stage_ctx, lists),
            None => self.spill_map_side(&ds, &key, seq),
        };
        let released = self.release(ds);
        if let Err(e) = mapped.and(released) {
            for (i, &lh) in dst_lists.iter().flatten().enumerate() {
                let _ = self.vms[i + 1].release(lh);
            }
            return Err(e);
        }

        // Reduce side: every blob is fetched (local or remote) here, in
        // (destination, source) order; each destination then deserializes
        // and adopts its blobs as its own task. In pipelined mode the
        // cross-node data already arrived during the map sweep; only
        // same-node spills remain.
        let mut jobs = Vec::with_capacity(w);
        for dst in self.worker_nodes() {
            let mut blobs = Vec::with_capacity(w);
            for src in self.worker_nodes() {
                if self.pipeline_engine.is_some() && src != dst {
                    continue;
                }
                let name = shuffle_file(seq, src, dst);
                let blob = if src == dst {
                    self.cluster.disk_take(src, &name).map_err(Error::Net)?
                } else {
                    let blob = self.cluster.disk_take_serve(src, &name).map_err(Error::Net)?;
                    self.cluster.net_send(src, dst, blob).map_err(Error::Net)?;
                    self.cluster.net_recv(dst, src).map_err(Error::Net)?
                };
                blobs.push(blob);
            }
            let list = dst_lists.as_ref().map(|lists| lists[dst.0 - 1]);
            jobs.push((dst, (list, blobs)));
        }
        let received = self.on_each_node(jobs, |node, vm, serializer, (list, blobs)| {
            let list = match list {
                Some(lh) => lh,
                None => {
                    let list = vm.new_list(16).map_err(Error::Heap)?;
                    vm.handle(list)
                }
            };
            let mut profiles = Vec::with_capacity(blobs.len());
            for blob in &blobs {
                let mut prof = Profile::new();
                let adopted = deserialize_profiled(serializer, vm, blob, &mut prof)
                    .map_err(Error::Serde)
                    .and_then(|roots| adopt_roots(vm, &roots, list));
                if let Err(e) = adopted {
                    let _ = vm.release(list);
                    return Err(e);
                }
                profiles.push(prof);
            }
            Ok((Partition { node, list }, profiles))
        });
        let received = self.all_or_release(received, |(p, _)| *p)?;
        let mut partitions = Vec::with_capacity(w);
        for (p, profiles) in received {
            for prof in profiles {
                self.merge_sd(p.node, prof);
            }
            partitions.push(p);
        }
        Ok(Dataset { partitions })
    }

    /// The spill route's map side: every source partition buckets, sorts
    /// and serializes one blob per destination as its own task; the blobs
    /// are spilled here, in node order, once every task has succeeded.
    fn spill_map_side(
        &mut self,
        ds: &Dataset,
        key: &(impl Fn(&Vm, Addr) -> Result<u64> + Sync),
        seq: u64,
    ) -> Result<()> {
        let w = self.n_workers();
        let jobs = ds.partitions.iter().map(|p| (p.node, p.list)).collect();
        let mapped = self.on_each_node(jobs, |node, vm, serializer, list| {
            let (buckets, compute_ns) = bucket_records(vm, list, key, w)?;
            let mut blobs = Vec::with_capacity(w);
            for roots in &buckets {
                let mut prof = Profile::new();
                let blob =
                    serialize_profiled(serializer, vm, roots, &mut prof).map_err(Error::Serde)?;
                blobs.push((blob, prof));
            }
            Ok((node, compute_ns, blobs))
        });
        for (node, compute_ns, blobs) in mapped.into_iter().collect::<Result<Vec<_>>>()? {
            self.cluster.profile_mut(node).add_ns(Category::Compute, compute_ns);
            for (dst_idx, (blob, prof)) in blobs.into_iter().enumerate() {
                self.merge_sd(node, prof);
                self.cluster
                    .disk_write(node, shuffle_file(seq, node, NodeId(dst_idx + 1)), blob)
                    .map_err(Error::Net)?;
            }
        }
        Ok(())
    }

    /// The pipelined route's map side, one source partition after another:
    /// each cross-node transfer holds two VMs at once, so no two sources
    /// run side by side. Same-node buckets still take the spill path.
    fn pipelined_map_side(
        &mut self,
        ds: &Dataset,
        key: &impl Fn(&Vm, Addr) -> Result<u64>,
        seq: u64,
        stage_ctx: obs::TraceCtx,
        dst_lists: &[Handle],
    ) -> Result<()> {
        let w = self.n_workers();
        for p in &ds.partitions {
            let node = p.node;
            let (buckets, compute_ns) = bucket_records(&self.vms[node.0], p.list, key, w)?;
            self.cluster.profile_mut(node).add_ns(Category::Compute, compute_ns);
            for (dst_idx, roots) in buckets.iter().enumerate() {
                let dst = NodeId(dst_idx + 1);
                if let Some(engine) = self.pipeline_engine.as_ref().filter(|_| dst != node) {
                    // Heap-to-heap, chunk-granularity: no intermediate
                    // blob, no spill; simulated cost charged from the
                    // overlap-aware stream schedule.
                    let sid = self.controllers[node.0].sid();
                    // Lane `t` sends as `stream + t`: reserve them all.
                    let lanes = engine.config().parallel.map_or(1, |p| p.workers);
                    let stream = self.controllers[node.0].next_stream_block(lanes as u16)?;
                    let ctx = self.controllers[node.0].begin_transfer(stage_ctx);
                    let (s_vm, d_vm) = Self::vm_pair(&mut self.vms, node.0, dst.0);
                    let (got, report) = engine
                        .transfer_with_trace(
                            s_vm, d_vm, &self.dir, node, dst, sid, stream, roots, None, ctx,
                        )
                        .map_err(Error::Skyway)?;
                    adopt_roots(d_vm, &got, dst_lists[dst_idx])?;
                    report.charge(&mut self.cluster, node, dst).map_err(Error::Net)?;
                    continue;
                }
                let serializer = self.serializers[node.0].as_ref();
                let mut prof = Profile::new();
                let blob = serialize_profiled(serializer, &mut self.vms[node.0], roots, &mut prof)
                    .map_err(Error::Serde)?;
                self.merge_sd(node, prof);
                self.cluster
                    .disk_write(node, shuffle_file(seq, node, dst), blob)
                    .map_err(Error::Net)?;
            }
        }
        Ok(())
    }

    /// The `collect` action: brings every record to the driver and extracts
    /// Rust values from them there. Each worker serializes its partition as
    /// its own task; the driver deserializes and extracts one partition
    /// after another.
    ///
    /// # Errors
    /// Serialization/transport/heap errors.
    pub fn collect<T>(
        &mut self,
        ds: &Dataset,
        extract: impl Fn(&Vm, &[Addr]) -> Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        let jobs = ds.partitions.iter().map(|p| (p.node, p.list)).collect();
        let serialized = self.on_each_node(jobs, |node, vm, serializer, list| {
            let roots = list_records(vm, list)?;
            let mut prof = Profile::new();
            let blob =
                serialize_profiled(serializer, vm, &roots, &mut prof).map_err(Error::Serde)?;
            Ok((node, blob, prof))
        });
        let mut out = Vec::new();
        for (node, blob, prof) in serialized.into_iter().collect::<Result<Vec<_>>>()? {
            self.merge_sd(node, prof);
            self.cluster.net_send(node, NodeId(0), blob).map_err(Error::Net)?;
            let blob = self.cluster.net_recv(NodeId(0), node).map_err(Error::Net)?;
            let serializer = Arc::clone(&self.serializers[0]);
            let mut prof = Profile::new();
            let roots = {
                let driver = &mut self.vms[0];
                deserialize_profiled(serializer.as_ref(), driver, &blob, &mut prof)
                    .map_err(Error::Serde)?
            };
            self.merge_sd(NodeId(0), prof);
            let driver = &mut self.vms[0];
            let list = driver.new_list(roots.len() as u64 + 4).map_err(Error::Heap)?;
            let lh = driver.handle(list);
            adopt_roots(driver, &roots, lh)?;
            let records = list_records(driver, lh)?;
            out.extend(extract(driver, &records)?);
            driver.release(lh).map_err(Error::Heap)?;
        }
        Ok(out)
    }

    /// Runs `task` once per job, each call getting its node's VM and
    /// serializer, and returns the results in job order. Up to
    /// `task_threads` threads (the calling one included) pull jobs from a
    /// shared index, so disjoint worker heaps are worked on side by side;
    /// with one thread, or one job, every task runs inline. A task's panic
    /// resumes on the calling thread once every thread has stopped.
    ///
    /// A job naming a node twice, or a node that does not exist, fails the
    /// whole call with [`Error::BadPartitioning`] before any task runs.
    fn on_each_node<I: Send, R: Send>(
        &mut self,
        jobs: Vec<(NodeId, I)>,
        task: impl Fn(NodeId, &mut Vm, &dyn Serializer, I) -> Result<R> + Sync,
    ) -> Vec<Result<R>> {
        let threads = self.task_threads.min(jobs.len());
        let mut vms: Vec<Option<&mut Vm>> = self.vms.iter_mut().map(Some).collect();
        let mut slots = Vec::with_capacity(jobs.len());
        for (node, input) in jobs {
            let Some(vm) = vms.get_mut(node.0).and_then(Option::take) else {
                return vec![Err(Error::BadPartitioning { expected: vms.len() - 1, got: node.0 })];
            };
            let serializer = self.serializers[node.0].as_ref();
            slots.push(Mutex::new(Some((node, vm, serializer, input))));
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { return done };
                // A slot's guard only ever covers `take`, which leaves the
                // slot valid even if it were interrupted.
                let job = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                if let Some((node, vm, serializer, input)) = job {
                    done.push((i, task(node, vm, serializer, input)));
                }
            }
        };
        let mut done = if threads <= 1 {
            work()
        } else {
            std::thread::scope(|s| {
                let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
                let mut done = work();
                for h in helpers {
                    match h.join() {
                        Ok(d) => done.extend(d),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
                done
            })
        };
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Every task's value in job order or, when any task failed, the first
    /// error — after releasing the lists the other tasks built.
    fn all_or_release<R>(
        &mut self,
        results: Vec<Result<R>>,
        partition: impl Fn(&R) -> Partition,
    ) -> Result<Vec<R>> {
        let mut first_err = None;
        let mut values = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(v) => values.push(v),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let Some(e) = first_err else { return Ok(values) };
        for p in values.iter().map(partition) {
            let _ = self.vms[p.node.0].release(p.list);
        }
        Err(e)
    }

    /// Assembles a stage's dataset in node order, charging each node its
    /// task's CPU time as Computation.
    fn finish_stage(&mut self, built: Vec<Result<(Partition, u64)>>) -> Result<Dataset> {
        let built = self.all_or_release(built, |(p, _)| *p)?;
        let mut partitions = Vec::with_capacity(built.len());
        for (p, compute_ns) in built {
            self.cluster.profile_mut(p.node).add_ns(Category::Compute, compute_ns);
            partitions.push(p);
        }
        Ok(Dataset { partitions })
    }

    /// Merges an S/D profile into a node's ledger, applying the JVM-vs-Rust
    /// CPU calibration ([`SimConfig::sd_cpu_scale`]) to the measured Ser and
    /// Deser times of *every* serializer equally.
    fn merge_sd(&mut self, node: NodeId, mut prof: Profile) {
        let scale = self.cluster.config().sd_cpu_scale;
        prof.scale_ns(Category::Ser, scale);
        prof.scale_ns(Category::Deser, scale);
        self.cluster.profile_mut(node).merge(&prof);
    }
}

fn shuffle_file(seq: u64, src: NodeId, dst: NodeId) -> String {
    format!("shuffle_{seq}_{}_{}.sort.result", src.0, dst.0)
}

/// The records of the list `list` roots.
fn list_records(vm: &Vm, list: Handle) -> Result<Vec<Addr>> {
    let list = vm.resolve(list).map_err(Error::Heap)?;
    vm.list_elements(list).map_err(Error::Heap)
}

/// Allocates a rooted list holding one record built per value; on error
/// the partial list is released.
fn build_list<T>(
    vm: &mut Vm,
    values: &[T],
    build: &impl Fn(&mut Vm, &T) -> Result<Addr>,
) -> Result<Handle> {
    let list = vm.new_list(values.len() as u64 + 4).map_err(Error::Heap)?;
    let lh = vm.handle(list);
    let filled = values.iter().try_for_each(|v| {
        let rec = build(vm, v)?;
        let list = vm.resolve(lh).map_err(Error::Heap)?;
        vm.list_push(list, rec).map_err(Error::Heap)
    });
    match filled {
        Ok(()) => Ok(lh),
        Err(e) => {
            let _ = vm.release(lh);
            Err(e)
        }
    }
}

/// Buckets a partition's records by key hash, Tungsten-sorts each bucket
/// by key, and returns each destination's roots with the thread CPU time
/// spent.
fn bucket_records(
    vm: &Vm,
    list: Handle,
    key: &impl Fn(&Vm, Addr) -> Result<u64>,
    w: usize,
) -> Result<(Vec<Vec<Addr>>, u64)> {
    let t0 = obs::thread_cpu_ns();
    let mut buckets: Vec<Vec<(u64, Addr)>> = vec![Vec::new(); w];
    for r in list_records(vm, list)? {
        // The key closure returns an already-hashed key; using it directly
        // keeps shuffle output co-partitioned with datasets built from
        // `partition_edges` (hash % workers).
        let h = key(vm, r)?;
        buckets[(h % w as u64) as usize].push((h, r));
    }
    let roots = buckets
        .into_iter()
        .map(|mut b| {
            b.sort_unstable_by_key(|(h, _)| *h);
            b.into_iter().map(|(_, r)| r).collect()
        })
        .collect();
    Ok((roots, obs::thread_cpu_ns().saturating_sub(t0)))
}

/// Appends freshly deserialized objects to a list; `list_extend` keeps them
/// rooted across a GC triggered by the list growth itself.
fn adopt_roots(vm: &mut Vm, roots: &[Addr], list: Handle) -> Result<()> {
    let l = vm.resolve(list).map_err(Error::Heap)?;
    vm.list_extend(l, roots).map_err(Error::Heap)
}

// The thread bound is private to the engine, so the tests that pin it live
// here rather than under `tests/`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::hash_str;
    use crate::graphgen::{generate, GraphKind};
    use crate::workloads::{run_pagerank, run_wordcount};

    fn cluster(serializer: SerializerKind, pipeline: bool, task_threads: usize) -> SparkCluster {
        let mut sc = SparkCluster::new(&SparkConfig {
            n_workers: 3,
            serializer,
            heap_bytes: 32 << 20,
            pipeline,
            ..SparkConfig::default()
        })
        .unwrap();
        sc.task_threads = task_threads;
        sc
    }

    fn lines() -> Vec<Vec<String>> {
        let words = ["heap", "skyway", "shuffle", "klass", "spark", "graph", "object"];
        (0..3)
            .map(|p| {
                (0..40)
                    .map(|i| (0..6).map(|j| words[(p * 5 + i * 3 + j) % 7]).collect::<Vec<_>>())
                    .map(|ws| ws.join(" "))
                    .collect()
            })
            .collect()
    }

    fn assert_heaps_clean(sc: &SparkCluster) {
        for node in 0..=sc.n_workers() {
            let faults = sc.vm(NodeId(node)).verify_heap().unwrap();
            assert!(faults.is_empty(), "node {node}: {faults:?}");
        }
    }

    /// Everything a run leaves that must not depend on how many threads ran
    /// its stages: per-node byte, object and invocation counters, and the
    /// type directory's protocol traffic.
    fn counters(sc: &SparkCluster) -> Vec<[u64; 6]> {
        let mut out: Vec<[u64; 6]> = (0..=sc.n_workers())
            .map(|n| {
                let p = sc.cluster.profile(NodeId(n));
                [
                    p.bytes_spilled,
                    p.bytes_local,
                    p.bytes_remote,
                    p.objects_transferred,
                    p.ser_invocations,
                    p.deser_invocations,
                ]
            })
            .collect();
        let st = sc.type_directory().stats();
        out.push([st.view_pulls, st.lookups, st.messages, st.string_bytes, 0, 0]);
        out
    }

    #[test]
    fn stages_agree_at_every_thread_bound() {
        let graph = generate(GraphKind::LiveJournal, 400_000, 11);
        let routes = SerializerKind::ALL
            .map(|k| (k, false))
            .into_iter()
            .chain([(SerializerKind::Skyway, true)]);
        for (kind, pipeline) in routes {
            let runs: Vec<_> = [1, 3]
                .into_iter()
                .map(|threads| {
                    let mut sc = cluster(kind, pipeline, threads);
                    let words = run_wordcount(&mut sc, lines()).unwrap();
                    let ranks = run_pagerank(&mut sc, &graph, 3, 10).unwrap();
                    assert_heaps_clean(&sc);
                    (words, ranks, counters(&sc))
                })
                .collect();
            assert!(!runs[0].0.is_empty() && !runs[0].1.is_empty());
            assert_eq!(runs[0], runs[1], "{} (pipeline {pipeline})", kind.label());
        }
    }

    #[test]
    fn a_failing_task_returns_its_error_and_leaves_clean_heaps() {
        for kind in SerializerKind::ALL {
            for threads in [1, 3] {
                let mut sc = cluster(kind, false, threads);
                let mut seeds = lines();
                seeds[1].push("poison".to_owned());
                let ds = sc.create_dataset(seeds, |vm, s| Ok(vm.new_string(s)?)).unwrap();

                // A build closure that fails on worker 2 only.
                let built = sc.transform(
                    &ds,
                    |vm, records| records.iter().map(|&r| Ok(vm.read_string(r)?)).collect(),
                    |vm, s: &String| {
                        if s == "poison" {
                            return Err(Error::BadPartitioning { expected: 0, got: 2 });
                        }
                        Ok(vm.new_string(s)?)
                    },
                );
                assert!(matches!(built, Err(Error::BadPartitioning { got: 2, .. })));
                assert_heaps_clean(&sc);

                // A key closure that fails on worker 2 only: no shuffle
                // file is spilled anywhere.
                let shuffled = sc.shuffle(ds, |vm, r| {
                    let s = vm.read_string(r)?;
                    if s == "poison" {
                        return Err(Error::BadPartitioning { expected: 0, got: 2 });
                    }
                    Ok(hash_str(&s))
                });
                assert!(matches!(shuffled, Err(Error::BadPartitioning { got: 2, .. })));
                for src in 1..=3 {
                    for dst in 1..=3 {
                        let name = shuffle_file(1, NodeId(src), NodeId(dst));
                        assert!(sc.cluster.disk_take(NodeId(src), &name).is_err());
                    }
                }
                assert_heaps_clean(&sc);

                // The cluster still runs jobs, and their heaps collect clean.
                assert!(!run_wordcount(&mut sc, lines()).unwrap().is_empty());
                for node in 0..=3 {
                    sc.vm_mut(NodeId(node)).full_gc().unwrap();
                }
                assert_heaps_clean(&sc);
            }
        }
    }

    #[test]
    fn a_partition_naming_a_node_twice_is_refused() {
        let mut sc = cluster(SerializerKind::Kryo, false, 3);
        let ds = sc.create_dataset(lines(), |vm, s| Ok(vm.new_string(s)?)).unwrap();
        let twice = Dataset { partitions: vec![ds.partitions[0], ds.partitions[0]] };
        let r = sc.transform(&twice, |_, records| Ok(records.to_vec()), |_, &r| Ok(r));
        assert!(matches!(r, Err(Error::BadPartitioning { got: 1, .. })));
    }
}
