//! Order statistics over timing samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    s
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail of a sample: p99 once there are at least 1 000 samples (so
/// at least ten lie beyond it); below that, the highest percentile with
/// ten samples beyond it, the eleventh-largest sample; with ten or fewer
/// samples, the maximum.
pub fn tail(samples: &[f64]) -> f64 {
    match samples.len() {
        0 => 0.0,
        n if n >= 1_000 => percentile(samples, 99.0),
        n if n > 10 => sorted(samples)[n - 11],
        n => sorted(samples)[n - 1],
    }
}

/// Nearest-rank `p`-th percentile (0–100); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), 990.0);
        let many: Vec<f64> = (1..=3000).map(f64::from).collect();
        assert_eq!(tail(&many), 2970.0);
        assert_eq!(tail(&s[..100]), 90.0);
        assert_eq!(percentile(&s, 99.0), 990.0);
        assert_eq!(tail(&[3.0, 1.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
