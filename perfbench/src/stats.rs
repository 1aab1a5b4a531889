//! Order statistics over latency samples.

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Split `samples` (in arrival order) into consecutive slices of `len`
/// (the last partial slice is dropped when there is a full one) and
/// return the median over slices of `f(slice)`. A host stall inflates
/// the slices it lands in, not the median across them.
pub fn slice_median(samples: &[f64], len: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let mut per: Vec<f64> = samples.chunks_exact(len.max(1)).map(&f).collect();
    if per.is_empty() {
        per.push(f(samples));
    }
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn slice_median_ignores_a_stalled_slice() {
        let mut v = vec![1.0; 40];
        v[5] = 1000.0;
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        assert_eq!(slice_median(&v, 10, mean), 1.0);
        assert_eq!(slice_median(&v[..5], 10, mean), 1.0);
    }
}
