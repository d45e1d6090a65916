//! Order statistics and the output fingerprint.

/// Median of `values` (mean of the middle two for an even count), as
/// Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile of `values` by the "exclusive"
/// method, matching Python's `statistics.quantiles(values, n=4)`. A
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    // Python clamps j to 1..ld-1, so delta may leave 0..n and the
    // outer quartiles extrapolate past the data, as they do there.
    let (n, m) = (4_i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *q = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// 64-bit FNV-1a, the fingerprint the repository's determinism tests use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&[1.0, 2.0, 3.0, 4.0]) - 2.5 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
