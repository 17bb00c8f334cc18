//! Order statistics over small samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance rule of the
//! benchmark contract computes its spreads with.

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&v);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1,
            median,
            q3,
            max: v[v.len() - 1],
        })
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// `(q1, median, q3)` of an ascending slice. One value is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).unwrap().spread(), 0.0);
    }
}
