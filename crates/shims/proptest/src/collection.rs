//! Collection strategies, mirroring `proptest::collection`.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::strategy::Strategy;

/// A strategy producing `Vec`s of `element` with length drawn from
/// `size` (half-open, like `proptest::collection::vec`).
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// Output of [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
        let len = if self.size.start >= self.size.end {
            self.size.start
        } else {
            rng.gen_range(self.size.clone())
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vec_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(5);
        let s = vec(0u32..3, 1..4);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 3));
        }
    }
}
