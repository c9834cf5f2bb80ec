//! Empirical categorical distributions and CDFs.
//!
//! The bias figures (7, 13, 14) plot `P(profession | gender)` estimated
//! from samples; Figure 9 plots the CDF of edit positions. These small
//! containers keep that bookkeeping out of the experiment code.

use std::collections::BTreeMap;

/// An empirical distribution over string-labelled categories.
///
/// # Example
///
/// ```
/// use relm_stats::EmpiricalDist;
///
/// let mut dist = EmpiricalDist::new();
/// dist.observe("art");
/// dist.observe("art");
/// dist.observe("science");
/// assert!((dist.probability("art") - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmpiricalDist {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl EmpiricalDist {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `category`.
    pub fn observe(&mut self, category: &str) {
        *self.counts.entry(category.to_owned()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Record `n` observations of `category`.
    #[cfg(test)]
    fn observe_n(&mut self, category: &str, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(category.to_owned()).or_insert(0) += n;
        self.total += n;
    }

    /// Raw count for `category` (0 if never seen).
    pub fn count(&self, category: &str) -> u64 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Empirical probability of `category`; 0.0 when the distribution is
    /// empty.
    pub fn probability(&self, category: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(category) as f64 / self.total as f64
    }

    /// Iterate `(category, count)` in lexicographic category order (so
    /// reports are deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Counts for `categories`, in the given order — one row of a
    /// contingency table for [`crate::chi2_independence`].
    pub fn counts_for(&self, categories: &[&str]) -> Vec<f64> {
        categories.iter().map(|c| self.count(c) as f64).collect()
    }
}

/// An empirical CDF over `f64` samples.
///
/// # Example
///
/// ```
/// use relm_stats::Cdf;
///
/// let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert!((cdf.at(2.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (order irrelevant; NaN values are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(samples.iter().all(|v| !v.is_nan()), "NaN sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`; 0.0 for an empty CDF.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Evaluate the CDF at each of `points` (for plotting a curve).
    pub fn curve(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.at(x))).collect()
    }

    /// Largest absolute difference against another CDF over both sample
    /// sets (two-sample Kolmogorov–Smirnov statistic). Used to compare
    /// normalized vs unnormalized edit-position distributions (Fig 9).
    pub fn ks_distance(&self, other: &Cdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(&other.sorted) {
            d = d.max((self.at(x) - other.at(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_probabilities() {
        let mut d = EmpiricalDist::new();
        d.observe_n("art", 3);
        d.observe("science");
        assert_eq!(d.total(), 4);
        assert_eq!(d.count("art"), 3);
        assert!((d.probability("art") - 0.75).abs() < 1e-12);
        assert_eq!(d.probability("missing"), 0.0);
    }

    #[test]
    fn counts_for_builds_contingency_row() {
        let mut d = EmpiricalDist::new();
        d.observe_n("a", 2);
        d.observe_n("c", 5);
        assert_eq!(d.counts_for(&["a", "b", "c"]), vec![2.0, 0.0, 5.0]);
    }

    #[test]
    fn iter_is_sorted() {
        let mut d = EmpiricalDist::new();
        d.observe("zebra");
        d.observe("apple");
        let keys: Vec<&str> = d.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["apple", "zebra"]);
    }

    #[test]
    fn cdf_values() {
        let cdf = Cdf::from_samples(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(1.0), 0.25);
        assert_eq!(cdf.at(4.0), 1.0);
        assert_eq!(cdf.at(100.0), 1.0);
    }

    #[test]
    fn ks_distance_of_identical_is_zero() {
        let a = Cdf::from_samples(&[1.0, 2.0, 3.0]);
        let b = Cdf::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_detects_shift() {
        // Front-loaded vs uniform — the Fig 9 comparison in miniature.
        let front = Cdf::from_samples(&[0.0, 0.0, 0.0, 1.0]);
        let uniform = Cdf::from_samples(&[0.0, 1.0, 2.0, 3.0]);
        assert!(front.ks_distance(&uniform) > 0.4);
    }

    #[test]
    fn curve_evaluates_points() {
        let cdf = Cdf::from_samples(&[1.0, 2.0]);
        let c = cdf.curve(&[0.0, 1.5, 3.0]);
        assert_eq!(c, vec![(0.0, 0.0), (1.5, 0.5), (3.0, 1.0)]);
    }
}
