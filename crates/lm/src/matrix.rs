//! Minimal dense linear algebra for the neural LM substrate.
//!
//! Only the pieces the feed-forward model needs: row-major matrices,
//! matrix–vector products, rank-1 gradient updates, and a seeded uniform
//! initializer. No unsafe, no SIMD intrinsics — the models are small
//! enough that portable code is plenty.

use rand::rngs::SmallRng;
use rand::Rng;

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    #[cfg(test)]
    fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Uniform(-scale, scale) initialization from a seeded RNG.
    pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut SmallRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = A·x` for `x.len() == cols`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *out = acc;
        }
        y
    }

    /// `y = Aᵀ·x` for `x.len() == rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0f32; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (out, &a) in y.iter_mut().zip(row) {
                *out += a * xr;
            }
        }
        y
    }

    /// Rank-1 SGD update `A -= lr · u vᵀ`.
    pub fn rank1_update(&mut self, lr: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "rank1 rows mismatch");
        assert_eq!(v.len(), self.cols, "rank1 cols mismatch");
        for (r, &ur) in u.iter().enumerate() {
            if ur == 0.0 {
                continue;
            }
            let step = lr * ur;
            for (a, &vc) in self.row_mut(r).iter_mut().zip(v) {
                *a -= step * vc;
            }
        }
    }
}

/// In-place numerically-stable log-softmax.
pub(crate) fn log_softmax(logits: &[f32]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let lse = max
        + logits
            .iter()
            .map(|&l| ((l as f64) - max).exp())
            .sum::<f64>()
            .ln();
    logits.iter().map(|&l| l as f64 - lse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_known_values() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn rank1_update_changes_expected_cells() {
        let mut m = Matrix::zeros(2, 2);
        m.rank1_update(0.5, &[1.0, 0.0], &[2.0, 4.0]);
        assert_eq!(m.row(0), &[-1.0, -2.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn log_softmax_normalizes() {
        let lp = log_softmax(&[1.0, 2.0, 3.0]);
        let sum: f64 = lp.iter().map(|l| l.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(lp[2] > lp[1] && lp[1] > lp[0]);
    }

    #[test]
    fn uniform_init_is_seeded() {
        let a = Matrix::uniform(3, 3, 0.1, &mut SmallRng::seed_from_u64(1));
        let b = Matrix::uniform(3, 3, 0.1, &mut SmallRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        Matrix::zeros(2, 3).matvec(&[1.0]);
    }
}
