//! The benchmark's arithmetic: medians, the tail-percentile rule, geomeans,
//! oracle verdicts and span self time. Kept free of compiler types so the
//! unit tests below pin every formula the report prints.

/// Median of `values` (mean of the middle two for an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of strictly positive `values`; `0.0` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Achieved II over the static minimum II.
pub fn ii_ratio(ii: usize, mii: usize) -> f64 {
    ii as f64 / mii.max(1) as f64
}

/// Samples a tail estimate must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A latency tail: the highest percentile that still has [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `value` in sorted order.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of `samples` with at least [`TAIL_BEYOND`]
/// samples beyond it, or `None` when there are too few samples for one.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let index = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
    })
}

/// What one oracle said about one mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The oracle ran and agreed.
    Pass,
    /// The oracle ran and disagreed (or could not run on a mapping it
    /// should accept).
    Fail(String),
    /// The oracle does not apply; the reason is printed. A skip is never
    /// a pass, and never a failure either.
    Skip(&'static str),
}

impl Verdict {
    /// Short form for the per-kernel rows.
    pub fn label(&self) -> &str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail(_) => "FAIL",
            Verdict::Skip(reason) => reason,
        }
    }

    /// Whether the verdict is a failure.
    pub fn failed(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }
}

/// Whether a compile counts as successful: it mapped and no applicable
/// oracle failed. Skipped oracles do not apply.
pub fn compile_ok(mapped: bool, verdicts: &[Verdict]) -> bool {
    mapped && !verdicts.iter().any(Verdict::failed)
}

/// Successful compiles over compiles attempted (`0.0` when none were).
pub fn ok_ratio(ok: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        ok as f64 / attempted as f64
    }
}

/// Self time of each span in `spans` (`(start, end)` on one clock): its
/// duration minus the durations of its direct children. A span's parent
/// is the innermost earlier span whose interval contains it; spans from
/// one thread either nest or are disjoint, which is all this relies on.
pub fn self_times(spans: &[(u64, u64)]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // outer spans first on equal starts, so a parent precedes its children
    order.sort_by_key(|&i| (spans[i].0, std::cmp::Reverse(spans[i].1)));
    let mut self_ns: Vec<u64> = spans.iter().map(|&(s, e)| e.saturating_sub(s)).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        let (start, end) = spans[i];
        while let Some(&top) = stack.last() {
            if spans[top].0 <= start && end <= spans[top].1 {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            self_ns[parent] = self_ns[parent].saturating_sub(end.saturating_sub(start));
        }
        stack.push(i);
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.5, 2.0]) - 3.0f64.cbrt()).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn ii_ratio_is_ii_over_mii() {
        assert_eq!(ii_ratio(3, 3), 1.0);
        assert_eq!(ii_ratio(6, 4), 1.5);
        assert_eq!(ii_ratio(2, 0), 2.0, "a zero MII never divides by zero");
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave none for a tail");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples give the minimum a tail");
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
        // 100 samples 1..=100: the 90th percentile is the last with ten beyond
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).expect("enough samples");
        assert_eq!((t.value, t.beyond, t.samples), (90.0, 10, 100));
        assert!((t.percentile - 90.0).abs() < 1e-12);
        // twelve samples: the tail sits at the second-smallest
        let twelve: Vec<f64> = (0..12).map(f64::from).collect();
        let t = tail(&twelve).expect("enough samples");
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 * 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn ok_ratio_counts_skips_as_not_applicable() {
        let routed = [Verdict::Pass, Verdict::Pass, Verdict::Pass];
        let routeless = [
            Verdict::Pass,
            Verdict::Skip("no_routes"),
            Verdict::Skip("no_routes"),
        ];
        let diverged = [Verdict::Pass, Verdict::Pass, Verdict::Fail("token".into())];
        assert!(compile_ok(true, &routed));
        assert!(compile_ok(true, &routeless), "a skip is not a failure");
        assert!(!compile_ok(true, &diverged));
        assert!(!compile_ok(false, &[]), "an unmapped compile never counts");
        let oks = [
            compile_ok(true, &routed),
            compile_ok(true, &routeless),
            compile_ok(true, &diverged),
            compile_ok(false, &[]),
        ];
        let ok = oks.iter().filter(|&&b| b).count();
        assert_eq!(ok_ratio(ok, oks.len()), 0.5);
        assert_eq!(ok_ratio(0, 0), 0.0);
        assert_eq!(Verdict::Skip("no_routes").label(), "no_routes");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // compile [0,100] > map [10,90] > {route [20,50], anneal [50,70]},
        // and a sibling preflight [0,10] sharing compile's start
        let spans = [(0, 100), (10, 90), (20, 50), (50, 70), (0, 10)];
        assert_eq!(self_times(&spans), vec![10, 30, 30, 20, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn self_time_of_disjoint_roots_and_instant_events() {
        // two sequential roots, the second with a zero-width event inside
        let spans = [(0, 5), (5, 9), (7, 7)];
        assert_eq!(self_times(&spans), vec![5, 4, 0]);
        // identical intervals: the first listed becomes the parent
        assert_eq!(self_times(&[(3, 8), (3, 8)]), vec![0, 5]);
    }
}
