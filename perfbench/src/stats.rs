//! Exact order statistics over raw samples: no histogram buckets, so a
//! reported percentile is always one of the measured values.

/// How many samples a percentile needs beyond it before it is reported;
/// below that the tail value is a single outlier, not a percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`: the
/// value at rank `ceil(p/100 · n)` of the sorted samples. Refused when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = samples.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    if n == 0 || n - rank.max(1) < TAIL_SAMPLES {
        return Err(format!(
            "p{p} needs at least {TAIL_SAMPLES} samples beyond it; {n} samples give {}",
            n.saturating_sub(rank.max(1))
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// The median of a small set of repeats (the mean of the middle two for
/// an even count). `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` for an empty set.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}
