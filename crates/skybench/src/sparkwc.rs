//! `spark-wc`: `sparklite` WordCount jobs on one booted cluster — the
//! application path (SkywaySerializer, framing, spill/fetch), where the
//! transfer engine does little.

use std::time::Instant;

use simnet::{Category, NodeId, Profile, SimConfig};
use sparklite::workloads::run_wordcount;
use sparklite::{SerializerKind, SparkCluster, SparkConfig};

use crate::inputs::{self, Size};
use crate::transfer::{Window, HEAP_BYTES};
use crate::Res;

const WORKERS: usize = 3;

/// Per-job layer figures from `aggregate_profile()` and `VmStats` deltas.
#[derive(Debug, Default)]
pub(crate) struct JobLedger {
    pub compute_ns: Vec<f64>,
    pub ser_ns: Vec<f64>,
    pub deser_ns: Vec<f64>,
    pub write_io_ns: Vec<f64>,
    pub read_io_ns: Vec<f64>,
    /// Collector time inside the job, all VMs (`VmStats::gc_ns`).
    pub gc_ns: Vec<f64>,
    /// Shuffled bytes and objects of the most recent job (seed-determined).
    pub shuffle_bytes: u64,
    pub objects: u64,
}

pub(crate) struct WcRig {
    pub sc: SparkCluster,
    lines: Vec<Vec<String>>,
    expected: Vec<(String, i32)>,
    pub boot_ms: f64,
}

fn shuffled_bytes(p: &Profile) -> u64 {
    p.bytes_local + p.bytes_remote
}

impl WcRig {
    /// Set-up: cluster boot, input lines and the plain-Rust reference.
    pub fn build(seed: u64, size: Size, serializer: SerializerKind) -> Res<WcRig> {
        let t0 = Instant::now();
        let sc = SparkCluster::new(&SparkConfig {
            n_workers: WORKERS,
            serializer,
            heap_bytes: HEAP_BYTES,
            // Unscaled, so the `Profile` S/D nanoseconds are measured ones.
            sim: SimConfig { sd_cpu_scale: 1.0, ..SimConfig::default() },
            ..SparkConfig::default()
        })?;
        let boot_ms = t0.elapsed().as_secs_f64() * 1e3;
        let lines = inputs::wordcount_lines(&inputs::edges(seed, size.wordcount_scale()), WORKERS);
        let expected = inputs::reference_counts(&lines);
        Ok(WcRig { sc, lines, expected, boot_ms })
    }

    fn vms(&self) -> impl Iterator<Item = NodeId> {
        (0..=WORKERS).map(NodeId)
    }

    fn gc_ns(&self) -> u64 {
        self.vms().map(|n| self.sc.vm(n).stats.gc_ns).sum()
    }

    /// Untimed: collect every VM past half its heap, as the transfer rigs
    /// do (received input buffers are only ever freed by a full GC).
    fn reclaim(&mut self, w: &mut Window) -> Res<()> {
        for n in self.vms() {
            let vm = self.sc.vm_mut(n);
            if vm.heap().used() * 2 > vm.heap().capacity() {
                let t = Instant::now();
                vm.full_gc()?;
                w.full_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
        Ok(())
    }

    fn try_job(&mut self, w: &mut Window, l: &mut JobLedger) -> Res<bool> {
        self.reclaim(w)?;
        let lines = self.lines.clone();
        let before = self.sc.aggregate_profile();
        let gc_before = self.gc_ns();
        let t0 = Instant::now();
        let counts = run_wordcount(&mut self.sc, lines)?;
        let ns = t0.elapsed().as_nanos() as u64;
        let after = self.sc.aggregate_profile();
        let delta = |c: Category| (after.ns(c) - before.ns(c)) as f64;
        l.compute_ns.push(delta(Category::Compute));
        l.ser_ns.push(delta(Category::Ser));
        l.deser_ns.push(delta(Category::Deser));
        l.write_io_ns.push(delta(Category::WriteIo));
        l.read_io_ns.push(delta(Category::ReadIo));
        l.gc_ns.push((self.gc_ns() - gc_before) as f64);
        l.shuffle_bytes = shuffled_bytes(&after) - shuffled_bytes(&before);
        l.objects = after.objects_transferred - before.objects_transferred;
        w.ops.push((ns, l.objects));
        w.wire_bytes += l.shuffle_bytes;
        w.objects += l.objects;
        Ok(counts == self.expected)
    }

    /// One job, counted into the window's oracle.
    pub fn job(&mut self, w: &mut Window, l: &mut JobLedger) {
        w.attempted += 1;
        match self.try_job(w, l) {
            Ok(true) => {}
            Ok(false) => {
                w.failed += 1;
                eprintln!("skybench: spark-wc: word counts differ from the reference");
            }
            Err(e) => {
                w.failed += 1;
                eprintln!("skybench: spark-wc: job failed: {e}");
            }
        }
    }

    /// `verify_heap` on every VM of the cluster; returns the wall in ms.
    pub fn verify(&self, w: &mut Window) -> Res<f64> {
        let t = Instant::now();
        for n in self.vms() {
            let vm = self.sc.vm(n);
            let faults = vm.verify_heap()?;
            if !faults.is_empty() {
                w.failed += 1;
                eprintln!(
                    "skybench: {}: {} heap faults, first: {}",
                    vm.name,
                    faults.len(),
                    faults[0]
                );
            }
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    /// Largest heap high-water mark among the cluster's VMs, in MiB.
    pub fn peak_used_mb(&self) -> f64 {
        self.vms().map(|n| self.sc.vm(n).heap().peak_used()).max().unwrap_or(0) as f64
            / (1 << 20) as f64
    }

    /// Summed `VmStats` of the cluster: (minor GCs, full GCs, promoted).
    pub fn gc_counts(&self) -> (u64, u64, u64) {
        self.vms().fold((0, 0, 0), |acc, n| {
            let s = self.sc.vm(n).stats;
            (acc.0 + s.minor_gcs, acc.1 + s.full_gcs, acc.2 + s.bytes_promoted)
        })
    }
}
