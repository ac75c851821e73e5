//! Order statistics over the samples of one window.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between the
/// two nearest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Consecutive blocks of `ops`: block *i* is `bounds[i]..bounds[i + 1]`.
fn blocks<'a, T>(ops: &'a [T], bounds: &'a [usize]) -> impl Iterator<Item = &'a [T]> {
    bounds.windows(2).filter_map(|b| ops.get(b[0]..b[1])).filter(|b| !b.is_empty())
}

/// The sustained operation time: `ops` holds each operation's `(timed
/// nanoseconds, objects delivered)`; take the median time of every block
/// and return the upper quartile of those block medians.
///
/// Why not the plain median: the reference host runs in two discrete
/// speed states about 1.27x apart (a few seconds of burst speed after
/// idle, then the sustained one; `README.md` has the trace). A median
/// over the window flips between them when a burst covers half a window.
/// Block medians remove the jitter inside a state, and their upper
/// quartile reads the sustained state as long as it held for a quarter of
/// the window, while a quarter of disturbed blocks cannot move it.
pub fn sustained_op_ns(ops: &[(u64, u64)], bounds: &[usize]) -> f64 {
    let medians: Vec<f64> = blocks(ops, bounds)
        .map(|b| median(&b.iter().map(|o| o.0 as f64).collect::<Vec<_>>()))
        .collect();
    quantile(&medians, 0.75)
}

/// The sustained throughput, the mirror image of [`sustained_op_ns`]: a
/// block's throughput is its objects over its timed wall; return the
/// lower quartile of the block throughputs.
pub fn sustained_rate(ops: &[(u64, u64)], bounds: &[usize]) -> f64 {
    let rates: Vec<f64> = blocks(ops, bounds)
        .filter_map(|b| {
            let ns: u64 = b.iter().map(|o| o.0).sum();
            let objs: u64 = b.iter().map(|o| o.1).sum();
            (ns > 0).then(|| objs as f64 / (ns as f64 / 1e9))
        })
        .collect();
    quantile(&rates, 0.25)
}

/// Boundaries splitting `n` operations into (at most) ten equal blocks.
pub fn ten_blocks(n: usize) -> Vec<usize> {
    let blocks = n.clamp(1, 10);
    (0..=blocks).map(|b| n * b / blocks).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sustained_figures_read_the_slower_state() {
        // Ten one-op blocks: four in a burst state (100 ns), six sustained (127 ns).
        let ops: Vec<(u64, u64)> =
            (0..10).map(|i| (if i < 4 { 100 } else { 127 }, 1_000)).collect();
        let bounds = ten_blocks(ops.len());
        assert_eq!(sustained_op_ns(&ops, &bounds), 127.0);
        assert_eq!(sustained_rate(&ops, &bounds), 1_000.0 / 127e-9);
        // Whole blocks only: ops outside the boundaries are left out.
        assert_eq!(sustained_op_ns(&ops, &[0, 4]), 100.0);
        assert_eq!(ten_blocks(25).len(), 11);
        assert_eq!(*ten_blocks(25).last().unwrap(), 25);
        assert_eq!(ten_blocks(3), vec![0, 1, 2, 3]);
    }
}
