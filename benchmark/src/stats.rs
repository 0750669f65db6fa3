//! Percentiles over raw samples. Nothing is bucketed: every timing the
//! benchmark reports is an order statistic of the values it measured.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (0..=1) of `samples` by nearest rank; NaN when empty,
/// which the correctness gate turns into a failed run.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    v[((v.len() - 1) as f64 * p).round() as usize]
}

pub fn p50(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p90/p99/p99.9 that still has at least ten samples beyond
/// it, as `(label, value)`; falls back to the median.
pub fn tail(samples: &[f64]) -> (&'static str, f64) {
    let n = samples.len() as f64;
    for (label, p) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        if n * (1.0 - p) >= 10.0 {
            return (label, quantile(samples, p));
        }
    }
    ("p50", p50(samples))
}

/// Stationarity: relative gap between the medians of the first and the
/// last third of a time-ordered sample sequence.
pub fn drift_frac(in_time_order: &[f64]) -> f64 {
    let third = in_time_order.len() / 3;
    if third == 0 {
        return f64::NAN;
    }
    let first = p50(&in_time_order[..third]);
    let last = p50(&in_time_order[in_time_order.len() - third..]);
    (last - first).abs() / first
}

/// Means of adjacent pairs. A sliding-window stream alternates an insert
/// and a delete, whose costs differ; the median of that two-peaked mix sits
/// between the peaks and jumps with the slightest shift. The median over
/// window steps (one insert and one delete each) does not.
pub fn pair_means(samples: &[f64]) -> Vec<f64> {
    samples.chunks_exact(2).map(|p| (p[0] + p[1]) / 2.0).collect()
}
