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

use std::sync::Arc;

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
    /// (work-stealing senders + concurrent absorbers). `< 2` keeps the
    /// single-stream pipelined path; the engine's adaptive policy still
    /// falls back per transfer when a partition has too few roots.
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
                    parallel: (cfg.pipeline_workers >= 2)
                        .then(|| skyway::ParallelConfig::with_workers(cfg.pipeline_workers)),
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
    pub fn create_dataset<T>(
        &mut self,
        seeds: Vec<Vec<T>>,
        build: impl Fn(&mut Vm, &T) -> Result<Addr>,
    ) -> Result<Dataset> {
        if seeds.len() != self.n_workers() {
            return Err(Error::BadPartitioning { expected: self.n_workers(), got: seeds.len() });
        }
        let mut partitions = Vec::with_capacity(seeds.len());
        for (i, part) in seeds.into_iter().enumerate() {
            let node = NodeId(i + 1);
            let vm = &mut self.vms[node.0];
            let list = vm.new_list(part.len() as u64 + 4).map_err(Error::Heap)?;
            let lh = vm.handle(list);
            for t in &part {
                let rec = build(vm, t)?;
                let list = vm.resolve(lh).map_err(Error::Heap)?;
                vm.list_push(list, rec).map_err(Error::Heap)?;
            }
            partitions.push(Partition { node, list: lh });
        }
        Ok(Dataset { partitions })
    }

    fn partition_records(vm: &Vm, p: &Partition) -> Result<Vec<Addr>> {
        let list = vm.resolve(p.list).map_err(Error::Heap)?;
        vm.list_elements(list).map_err(Error::Heap)
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
    /// move objects under it), `build` materializes new records. Charged as
    /// Computation.
    ///
    /// # Errors
    /// Heap errors from either closure.
    pub fn transform<T>(
        &mut self,
        ds: &Dataset,
        extract: impl Fn(&Vm, &[Addr]) -> Result<Vec<T>>,
        build: impl Fn(&mut Vm, &T) -> Result<Addr>,
    ) -> Result<Dataset> {
        let mut partitions = Vec::with_capacity(ds.partitions.len());
        for p in &ds.partitions {
            let t0 = std::time::Instant::now();
            let vm = &mut self.vms[p.node.0];
            let records = Self::partition_records(vm, p)?;
            let values = extract(vm, &records)?;
            let list = vm.new_list(values.len() as u64 + 4).map_err(Error::Heap)?;
            let lh = vm.handle(list);
            for v in &values {
                let rec = build(vm, v)?;
                let list = vm.resolve(lh).map_err(Error::Heap)?;
                vm.list_push(list, rec).map_err(Error::Heap)?;
            }
            partitions.push(Partition { node: p.node, list: lh });
            self.cluster
                .profile_mut(p.node)
                .add_ns(Category::Compute, t0.elapsed().as_nanos() as u64);
        }
        Ok(Dataset { partitions })
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
        extract: impl Fn(&Vm, &[Addr], &[Addr]) -> Result<Vec<T>>,
        build: impl Fn(&mut Vm, &T) -> Result<Addr>,
    ) -> Result<Dataset> {
        if a.partitions.len() != b.partitions.len() {
            return Err(Error::BadPartitioning {
                expected: a.partitions.len(),
                got: b.partitions.len(),
            });
        }
        let mut partitions = Vec::with_capacity(a.partitions.len());
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            if pa.node != pb.node {
                return Err(Error::BadPartitioning { expected: pa.node.0, got: pb.node.0 });
            }
            let t0 = std::time::Instant::now();
            let vm = &mut self.vms[pa.node.0];
            let ra = Self::partition_records(vm, pa)?;
            let rb = Self::partition_records(vm, pb)?;
            let values = extract(vm, &ra, &rb)?;
            let list = vm.new_list(values.len() as u64 + 4).map_err(Error::Heap)?;
            let lh = vm.handle(list);
            for v in &values {
                let rec = build(vm, v)?;
                let list = vm.resolve(lh).map_err(Error::Heap)?;
                vm.list_push(list, rec).map_err(Error::Heap)?;
            }
            partitions.push(Partition { node: pa.node, list: lh });
            self.cluster
                .profile_mut(pa.node)
                .add_ns(Category::Compute, t0.elapsed().as_nanos() as u64);
        }
        Ok(Dataset { partitions })
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
        key: impl Fn(&Vm, Addr) -> Result<u64>,
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

        // Map side: bucket, sort, serialize, spill.
        for p in &ds.partitions {
            let node = p.node;
            let t0 = std::time::Instant::now();
            let mut buckets: Vec<Vec<(u64, Addr)>> = vec![Vec::new(); w];
            {
                let vm = &mut self.vms[node.0];
                let records = Self::partition_records(vm, p)?;
                for r in records {
                    // The key closure returns an already-hashed key; using
                    // it directly keeps shuffle output co-partitioned with
                    // datasets built from `partition_edges` (hash % workers).
                    let h = key(vm, r)?;
                    buckets[(h % w as u64) as usize].push((h, r));
                }
            }
            // Tungsten-style sort within each bucket.
            for b in &mut buckets {
                b.sort_unstable_by_key(|(h, _)| *h);
            }
            self.cluster
                .profile_mut(node)
                .add_ns(Category::Compute, t0.elapsed().as_nanos() as u64);

            for (dst_idx, bucket) in buckets.iter().enumerate() {
                let dst = NodeId(dst_idx + 1);
                let roots: Vec<Addr> = bucket.iter().map(|(_, r)| *r).collect();
                if dst != node {
                    if let Some(engine) = &self.pipeline_engine {
                        // Heap-to-heap, chunk-granularity: no intermediate
                        // blob, no spill; simulated cost charged from the
                        // overlap-aware stream schedule.
                        let sid = self.controllers[node.0].sid();
                        // Lane `t` sends as `stream + t`: reserve them all.
                        let lanes = engine.config().parallel.map_or(1, |p| p.workers);
                        let stream = self.controllers[node.0].next_stream_block(lanes as u16);
                        let ctx = self.controllers[node.0].begin_transfer(stage_ctx);
                        let (s_vm, d_vm) = Self::vm_pair(&mut self.vms, node.0, dst.0);
                        let (got, report) = engine
                            .transfer_with_trace(
                                s_vm, d_vm, &self.dir, node, dst, sid, stream, &roots, None, ctx,
                            )
                            .map_err(Error::Skyway)?;
                        let lh = dst_lists.as_ref().expect("pipelined mode has lists")[dst_idx];
                        adopt_roots(d_vm, &got, lh)?;
                        report.charge(&mut self.cluster, node, dst).map_err(Error::Net)?;
                        continue;
                    }
                }
                let serializer = Arc::clone(&self.serializers[node.0]);
                let mut prof = Profile::new();
                let vm = &mut self.vms[node.0];
                let blob = serialize_profiled(serializer.as_ref(), vm, &roots, &mut prof)
                    .map_err(Error::Serde)?;
                self.merge_sd(node, prof);
                self.cluster
                    .disk_write(node, shuffle_file(seq, node, dst), blob)
                    .map_err(Error::Net)?;
            }
        }
        self.release(ds)?;

        // Reduce side: fetch (local or remote), deserialize, adopt. In
        // pipelined mode the cross-node data already arrived during the map
        // sweep; only same-node spills remain.
        let mut partitions = Vec::with_capacity(w);
        for dst in self.worker_nodes() {
            let vm_idx = dst.0;
            let lh = match &dst_lists {
                Some(lists) => lists[vm_idx - 1],
                None => {
                    let list = self.vms[vm_idx].new_list(16).map_err(Error::Heap)?;
                    self.vms[vm_idx].handle(list)
                }
            };
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
                let serializer = Arc::clone(&self.serializers[vm_idx]);
                let mut prof = Profile::new();
                {
                    let vm = &mut self.vms[vm_idx];
                    let roots = deserialize_profiled(serializer.as_ref(), vm, &blob, &mut prof)
                        .map_err(Error::Serde)?;
                    adopt_roots(vm, &roots, lh)?;
                }
                self.merge_sd(dst, prof);
            }
            partitions.push(Partition { node: dst, list: lh });
        }
        Ok(Dataset { partitions })
    }

    /// The `collect` action: brings every record to the driver and extracts
    /// Rust values from them there.
    ///
    /// # Errors
    /// Serialization/transport/heap errors.
    pub fn collect<T>(
        &mut self,
        ds: &Dataset,
        extract: impl Fn(&Vm, &[Addr]) -> Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        for p in &ds.partitions {
            let node = p.node;
            let serializer = Arc::clone(&self.serializers[node.0]);
            let mut prof = Profile::new();
            let blob = {
                let vm = &mut self.vms[node.0];
                let roots = Self::partition_records(vm, p)?;
                serialize_profiled(serializer.as_ref(), vm, &roots, &mut prof)
                    .map_err(Error::Serde)?
            };
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
            let tmp = Partition { node: NodeId(0), list: lh };
            let records = Self::partition_records(driver, &tmp)?;
            out.extend(extract(driver, &records)?);
            driver.release(lh).map_err(Error::Heap)?;
        }
        Ok(out)
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

/// Appends freshly deserialized objects to a list; `list_extend` keeps them
/// rooted across a GC triggered by the list growth itself.
fn adopt_roots(vm: &mut Vm, roots: &[Addr], list: Handle) -> Result<()> {
    let l = vm.resolve(list).map_err(Error::Heap)?;
    vm.list_extend(l, roots).map_err(Error::Heap)
}
