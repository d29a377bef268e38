//! Exact latency quantiles.
//!
//! The crate's log2 histograms ([`observe`](crate::observe())) are the
//! right tool for always-on aggregation, but their bucket resolution is a
//! factor of two — far too coarse to back a p99 latency claim. A caller
//! that needs quantiles keeps the raw values and asks [`nearest_rank`]
//! for them: exact nearest-rank quantiles over the full population.

/// The nearest-rank quantiles of `values`, one per entry of `qs` (each
/// clamped to `[0, 1]`; `0.5` = median, `1.0` = maximum): the smallest
/// value whose cumulative frequency reaches `q`, i.e. rank `⌈q·n⌉`
/// clamped to `[1, n]`. One sort serves every rank. Empty when `values`
/// is.
pub fn nearest_rank(values: &[u64], qs: &[f64]) -> Vec<u64> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    qs.iter()
        .map(|q| {
            let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
            sorted[rank - 1]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_has_no_quantiles() {
        assert!(nearest_rank(&[], &[0.5, 1.0]).is_empty());
    }

    #[test]
    fn exact_nearest_rank_below_capacity() {
        // 1..=10 shuffled: nearest-rank quantiles have closed forms
        let values = [7u64, 2, 9, 4, 1, 10, 3, 8, 5, 6];
        let q = |q| nearest_rank(&values, &[q])[0];
        assert_eq!(q(0.0), 1, "q=0 is the minimum");
        assert_eq!(q(0.5), 5, "nearest-rank median of 1..=10");
        assert_eq!(q(0.9), 9);
        assert_eq!(q(0.99), 10);
        assert_eq!(q(1.0), 10);
        assert_eq!(q(-1.0), 1, "q clamps to [0, 1]");
        assert_eq!(q(2.0), 10);
    }

    #[test]
    fn quantiles_batch_agrees_with_single_calls() {
        let values: Vec<u64> = (0..50u64).map(|v| v * 3).collect();
        let qs = [0.5, 0.99, 1.0];
        let batch = nearest_rank(&values, &qs);
        let single: Vec<u64> = qs.iter().map(|&q| nearest_rank(&values, &[q])[0]).collect();
        assert_eq!(batch, single);
    }
}
