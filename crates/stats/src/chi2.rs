//! Pearson's χ² test of independence on contingency tables.

use std::error::Error;
use std::fmt;

use crate::chi2_survival;

/// Result of a χ² independence test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2Result {
    /// The χ² statistic.
    pub statistic: f64,
    /// Degrees of freedom: `(rows − 1)(cols − 1)`.
    pub dof: usize,
    /// p-value (may underflow to 0 for extreme statistics; see
    /// [`Chi2Result::log10_p`]).
    pub(crate) p_value: f64,
    /// `log10` of the p-value, finite even when `p_value` underflows —
    /// how we compare against the paper's 1e-229.
    pub log10_p: f64,
}

impl fmt::Display for Chi2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chi2 = {:.3}, dof = {}, p ~ 1e{:.0}",
            self.statistic, self.dof, self.log10_p
        )
    }
}

/// Error for malformed contingency tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidTableError(String);

impl fmt::Display for InvalidTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid contingency table: {}", self.0)
    }
}

impl Error for InvalidTableError {}

/// Pearson χ² test of independence on an `r × c` contingency table of
/// observed counts (`table[row][col]`).
///
/// For the paper's bias test the rows are genders and the columns
/// professions; a small p-value rejects independence, i.e. demonstrates
/// bias.
///
/// # Errors
///
/// Returns an `InvalidTableError` when the table has fewer than 2 rows or
/// columns, ragged rows, or a zero row/column marginal (expected counts
/// would be zero).
///
/// # Example
///
/// ```
/// use relm_stats::chi2_independence;
///
/// // Strongly dependent: men counted in col 0, women in col 1.
/// let result = chi2_independence(&[vec![90.0, 10.0], vec![10.0, 90.0]])?;
/// assert!(result.log10_p < -10.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn chi2_independence(table: &[Vec<f64>]) -> Result<Chi2Result, InvalidTableError> {
    let rows = table.len();
    if rows < 2 {
        return Err(InvalidTableError("need at least 2 rows".into()));
    }
    let cols = table[0].len();
    if cols < 2 {
        return Err(InvalidTableError("need at least 2 columns".into()));
    }
    if table.iter().any(|r| r.len() != cols) {
        return Err(InvalidTableError("ragged rows".into()));
    }
    if table.iter().flatten().any(|&v| v < 0.0 || !v.is_finite()) {
        return Err(InvalidTableError(
            "counts must be finite and non-negative".into(),
        ));
    }

    let row_sums: Vec<f64> = table.iter().map(|r| r.iter().sum()).collect();
    let col_sums: Vec<f64> = (0..cols)
        .map(|c| table.iter().map(|r| r[c]).sum())
        .collect();
    let total: f64 = row_sums.iter().sum();
    if row_sums.contains(&0.0) || col_sums.contains(&0.0) {
        return Err(InvalidTableError("zero marginal".into()));
    }

    let mut statistic = 0.0;
    for (r, row) in table.iter().enumerate() {
        for (c, &obs) in row.iter().enumerate() {
            let expected = row_sums[r] * col_sums[c] / total;
            let diff = obs - expected;
            statistic += diff * diff / expected;
        }
    }
    let dof = (rows - 1) * (cols - 1);
    let (p_value, log10_p) = chi2_survival(statistic, dof);
    Ok(Chi2Result {
        statistic,
        dof,
        p_value,
        log10_p,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_table_has_high_p() {
        // Proportional rows → statistic 0, p = 1.
        let r = chi2_independence(&[vec![10.0, 20.0], vec![20.0, 40.0]]).unwrap();
        assert!(r.statistic < 1e-9);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_table_has_low_p() {
        let r = chi2_independence(&[vec![90.0, 10.0], vec![10.0, 90.0]]).unwrap();
        assert!(r.p_value < 1e-10, "p = {}", r.p_value);
        assert_eq!(r.dof, 1);
    }

    #[test]
    fn known_statistic_2x2() {
        // Textbook example: [[20,30],[30,20]] → chi2 = 4.0, dof 1.
        let r = chi2_independence(&[vec![20.0, 30.0], vec![30.0, 20.0]]).unwrap();
        assert!((r.statistic - 4.0).abs() < 1e-9, "stat {}", r.statistic);
        // p ≈ 0.0455
        assert!((r.p_value - 0.0455).abs() < 1e-3);
    }

    #[test]
    fn dof_scales_with_table_shape() {
        // 2 genders × 10 professions → dof 9, the paper's setup.
        let table: Vec<Vec<f64>> = vec![
            (0..10).map(|i| 100.0 + i as f64).collect(),
            (0..10).map(|i| 100.0 - i as f64).collect(),
        ];
        let r = chi2_independence(&table).unwrap();
        assert_eq!(r.dof, 9);
    }

    #[test]
    fn extreme_bias_reports_log_p() {
        // 5000 samples per gender concentrated on opposite professions —
        // the regime where the paper reports 1e-229.
        let mut men = vec![10.0; 10];
        let mut women = vec![10.0; 10];
        men[2] = 4000.0;
        women[7] = 4000.0;
        let r = chi2_independence(&[men, women]).unwrap();
        assert_eq!(r.p_value, 0.0);
        assert!(r.log10_p < -200.0, "log10 p = {}", r.log10_p);
    }

    #[test]
    fn rejects_malformed_tables() {
        assert!(chi2_independence(&[vec![1.0, 2.0]]).is_err());
        assert!(chi2_independence(&[vec![1.0], vec![2.0]]).is_err());
        assert!(chi2_independence(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(chi2_independence(&[vec![0.0, 0.0], vec![1.0, 2.0]]).is_err());
        assert!(chi2_independence(&[vec![-1.0, 2.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn display_formats() {
        let r = chi2_independence(&[vec![90.0, 10.0], vec![10.0, 90.0]]).unwrap();
        let s = r.to_string();
        assert!(s.contains("chi2"), "{s}");
        assert!(s.contains("dof = 1"), "{s}");
    }
}
