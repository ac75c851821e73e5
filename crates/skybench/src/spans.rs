//! Bench-side spans for the staged pass: one record (name, start, end,
//! parent, transfer id) around each call into a layer's public function,
//! kept in a preallocated buffer and written out as Chrome trace JSON
//! when the run ends. Spans inside the program are a later issue.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name (`core.sender.write_roots`, …).
    pub name: &'static str,
    /// Nanoseconds since the log's anchor.
    pub start_ns: u64,
    /// Nanoseconds since the log's anchor; 0 while open.
    pub end_ns: u64,
    /// Index + 1 of the enclosing span; 0 for a top-level span.
    pub parent: u32,
    /// The staged transfer this span belongs to.
    pub transfer: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The root span every staged transfer opens; its duration is the staged
/// total and its self time is the harness's own unattributed gap.
pub const ROOT: &str = "bench.transfer";

/// Preallocated span buffer. With `on == false` child spans are skipped
/// (only roots are kept), which is the spans-off side of
/// `bench.span_overhead_pct`.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<u32>,
    anchor: Instant,
    on: bool,
    cap: usize,
}

impl SpanLog {
    /// A log with room for `cap` spans; it never grows past that.
    pub fn new(cap: usize, on: bool) -> Self {
        SpanLog {
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(8),
            anchor: Instant::now(),
            on,
            cap,
        }
    }

    /// True once fewer than `need` slots remain: the staged pass stops
    /// rather than reallocating mid-measurement.
    pub fn nearly_full(&self, need: usize) -> bool {
        self.spans.len() + need > self.cap
    }

    fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Opens the root span of staged transfer `transfer`.
    pub fn open_root(&mut self, transfer: u32) {
        let start_ns = self.now();
        self.spans.push(Span { name: ROOT, start_ns, end_ns: 0, parent: 0, transfer });
        self.open.push(self.spans.len() as u32);
    }

    /// Closes the current root and returns its duration in nanoseconds.
    pub fn close_root(&mut self) -> u64 {
        let end = self.now();
        let idx = self.open.pop().expect("close_root without open_root") as usize - 1;
        self.spans[idx].end_ns = end;
        self.spans[idx].dur()
    }

    /// Runs `f` inside a span named `name`, child of whatever is open.
    pub fn timed<R>(&mut self, name: &'static str, transfer: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns, parent, transfer });
        r
    }

    /// All recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, the nanoseconds its direct children cover.
    fn child_cover(&self) -> Vec<u64> {
        let mut cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                cover[s.parent as usize - 1] += s.dur();
            }
        }
        cover
    }

    /// Self time per span name, summed per transfer: a span's duration
    /// minus what its direct children cover. Returns, per name, one value
    /// (nanoseconds) for every transfer that recorded the name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let child_cover = self.child_cover();
        let mut per: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *per.entry((s.name, s.transfer)).or_default() += s.dur().saturating_sub(child_cover[i]);
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per {
            out.entry(name).or_default().push(ns as f64);
        }
        out
    }

    /// Per transfer: Σ self time of the layer spans inside the root ÷ the
    /// root's duration (the part of the staged total the layers explain).
    pub fn layer_sum_ratios(&self) -> Vec<f64> {
        let child_cover = self.child_cover();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == ROOT && s.dur() > 0)
            .map(|(i, s)| child_cover[i] as f64 / s.dur() as f64)
            .collect()
    }

    /// Chrome trace JSON (loads in Perfetto / `chrome://tracing`) of the
    /// spans of the first `max_transfers` staged transfers.
    pub fn chrome_trace_json(&self, max_transfers: u32) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.transfer >= max_transfers {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"skybench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"span\":{},\"parent\":{},\"transfer\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
                i + 1,
                s.parent,
                s.transfer
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(16, true);
        log.open_root(0);
        log.timed("a", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        log.timed("b", 0, || std::thread::sleep(std::time::Duration::from_millis(1)));
        let total = log.close_root();
        let by = log.self_ns_by_name();
        let a = by["a"][0];
        let b = by["b"][0];
        let root_self = by[ROOT][0];
        assert!(a >= 2e6 && b >= 1e6);
        assert!((a + b + root_self - total as f64).abs() < 1.0);
        let ratio = log.layer_sum_ratios()[0];
        assert!(ratio > 0.5 && ratio <= 1.0);
        let json = log.chrome_trace_json(1);
        assert!(serde_json::parse_value(&json).is_ok());
    }

    #[test]
    fn spans_off_keeps_only_roots() {
        let mut log = SpanLog::new(4, false);
        log.open_root(7);
        assert_eq!(log.timed("a", 7, || 5), 5);
        log.close_root();
        assert_eq!(log.spans().len(), 1);
        assert!(log.nearly_full(4));
    }
}
