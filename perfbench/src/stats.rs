//! Order statistics over timing samples.

/// Nearest-rank quantile of samples (`q` in `[0, 1]`); `NaN` when there
/// are none, so a missing sample can never read as zero.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of samples (`NaN` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Calls `f` `n` times and returns the median wall time of one call in
/// microseconds. `f` returns a value so the optimiser cannot drop the work.
pub fn median_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = std::time::Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
