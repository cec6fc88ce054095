//! Order statistics over a handful of timed repetitions.

use crate::json::Value;

/// Median, extremes and sample count of one metric's repetitions.
///
/// With at most a few dozen repetitions per run no percentile above the
/// median has ten samples beyond it, so none is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Some(Summary {
            median,
            min,
            max,
            n: sorted.len(),
        })
    }

    /// The summary of `f` applied to every sample. For a decreasing `f`
    /// (seconds → operations per second) the extremes swap.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.min), f(self.max));
        Summary {
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
            n: self.n,
        }
    }

    pub fn to_value(self) -> Value {
        Value::obj([
            ("median", Value::Num(self.median)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("n", Value::Num(self.n as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let odd = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((odd.median, odd.min, odd.max, odd.n), (3.0, 1.0, 5.0, 3));
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(
            (even.median, even.min, even.max, even.n),
            (2.5, 1.0, 4.0, 4)
        );
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.median, one.min, one.max, one.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn empty_input_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn map_through_a_decreasing_function_swaps_extremes() {
        let seconds = Summary::of(&[1.0, 2.0, 4.0]).unwrap();
        let rate = seconds.map(|s| 8.0 / s);
        assert_eq!(
            (rate.median, rate.min, rate.max, rate.n),
            (4.0, 2.0, 8.0, 3)
        );
    }
}
