//! Portable vectorized finish pass for the n-gram forward kernel.
//!
//! [`crate::NGramLm::next_log_probs`] spends its time in two places: a
//! sparse accumulation over the observed continuations of each matching
//! context (O(touched tokens)) and a dense finish loop that adds the
//! uniform floor and takes the log of **every** vocabulary slot (O(V)).
//! On realistic vocabularies almost every slot is untouched — its
//! accumulated mass is exactly `0.0` — yet the scalar finish pays a full
//! `ln` per slot.
//!
//! [`finish_log_probs`] runs that finish as a chunked, fixed-width
//! kernel over [`LANE_WIDTH`]-slot lanes, with no `unsafe`:
//!
//! * the `any_touched` reduction over a lane is a stride-8 compare the
//!   autovectorizer lifts to a SIMD compare + movemask — plain slice
//!   iteration over a fixed-width chunk is exactly the shape LLVM
//!   vectorizes, and bounds checks vanish because the chunk length is a
//!   compile-time constant;
//! * an all-zero lane is filled with the precomputed `ln(floor)`
//!   (a memset-like splat), skipping eight `ln` calls;
//! * a mixed lane falls back to per-slot finishing, where untouched
//!   slots still reuse the precomputed `ln(floor)`.
//!
//! **Bit-identity proof.** Every contribution the accumulation adds is
//! `w · c / total` with `w > 0`, `c > 0`, `total > 0`, so a slot is
//! untouched **iff** its value is exactly `+0.0`. IEEE-754 guarantees
//! `0.0 + floor == floor` exactly (for every `floor`, including `0.0`),
//! hence `(0.0 + floor).ln()` and the precomputed `floor.ln()` are the
//! same bit pattern, and touched slots evaluate the identical expression
//! `(*p + floor).ln()` as the per-slot loop `p ← ln(p + floor)`. The
//! kernel is therefore byte-identical to that loop, which survives as a
//! test-only reference: this module's tests compare the two slot by
//! slot on `f64::to_bits` over fixed and random rows, and `ngram.rs`'s
//! over whole model rows.

/// Fixed lane width of the vectorized finish pass: eight `f64`s, one
/// AVX-512 register or two AVX2 registers, and small enough that mixed
/// lanes stay rare on sparse rows.
const LANE_WIDTH: usize = 8;

/// Finish an accumulated probability row in place: `p ← ln(p + floor)`
/// for every slot, lane by lane (see the module docs).
pub(crate) fn finish_log_probs(probs: &mut [f64], floor: f64) {
    let ln_floor = floor.ln();
    let mut lanes = probs.chunks_exact_mut(LANE_WIDTH);
    for lane in lanes.by_ref() {
        // Stride-8 reduction: a fixed-width compare the autovectorizer
        // turns into one SIMD test per lane.
        let mut any_touched = false;
        for p in lane.iter() {
            any_touched |= *p != 0.0;
        }
        if any_touched {
            for p in lane.iter_mut() {
                *p = if *p == 0.0 {
                    ln_floor
                } else {
                    (*p + floor).ln()
                };
            }
        } else {
            lane.fill(ln_floor);
        }
    }
    for p in lanes.into_remainder() {
        *p = if *p == 0.0 {
            ln_floor
        } else {
            (*p + floor).ln()
        };
    }
}

/// The per-slot finish [`finish_log_probs`] is proven against: one
/// `(*p + floor).ln()` per vocabulary slot.
#[cfg(test)]
pub(crate) fn finish_log_probs_scalar(probs: &mut [f64], floor: f64) {
    for p in probs.iter_mut() {
        *p = (*p + floor).ln();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_bit_identical(scalar: &[f64], vectorized: &[f64]) {
        assert_eq!(scalar.len(), vectorized.len());
        for (i, (s, v)) in scalar.iter().zip(vectorized).enumerate() {
            assert_eq!(s.to_bits(), v.to_bits(), "slot {i}: {s} vs {v}");
        }
    }

    fn check(row: &[f64], floor: f64) {
        let mut scalar = row.to_vec();
        let mut vectorized = row.to_vec();
        finish_log_probs_scalar(&mut scalar, floor);
        finish_log_probs(&mut vectorized, floor);
        assert_bit_identical(&scalar, &vectorized);
    }

    #[test]
    fn kernels_agree_on_sparse_rows() {
        // Mostly-zero row with touched slots scattered across lane
        // positions, lane boundaries, and the remainder tail.
        let mut row = vec![0.0f64; 103];
        for (i, slot) in row.iter_mut().enumerate() {
            if i % 17 == 3 {
                *slot = 0.001 * (i as f64 + 1.0);
            }
        }
        check(&row, 0.01 / 103.0);
    }

    #[test]
    fn kernels_agree_on_dense_and_empty_rows() {
        let dense: Vec<f64> = (0..64).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        check(&dense, 1e-4);
        check(&vec![0.0f64; 64], 1e-4);
        check(&[], 1e-4);
    }

    #[test]
    fn kernels_agree_when_floor_is_zero() {
        // floor = 0: untouched slots must be -inf in both kernels.
        let mut row = vec![0.0f64; 24];
        row[5] = 0.25;
        let mut scalar = row.clone();
        let mut vectorized = row;
        finish_log_probs_scalar(&mut scalar, 0.0);
        finish_log_probs(&mut vectorized, 0.0);
        assert!(scalar[0].is_infinite() && scalar[0] < 0.0);
        assert_bit_identical(&scalar, &vectorized);
    }

    #[test]
    fn kernels_agree_on_short_rows_below_one_lane() {
        check(&[0.0, 0.5, 0.0], 0.125);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random rows — sparse to dense, any length including short of
        /// one lane, floors down to exactly zero — finish bit for bit as
        /// the per-slot loop does.
        #[test]
        fn proptest_finish_matches_the_scalar_reference(
            slots in proptest::collection::vec((0usize..4, 0.0f64..1.0), 0..70),
            density in 0usize..5,
            floor_choice in 0usize..3,
        ) {
            // A slot is touched when its draw falls under the density, so
            // density 0 leaves the row all zero and 4 touches every slot.
            let row: Vec<f64> = slots
                .iter()
                .map(|&(draw, p)| if draw < density { p.max(f64::MIN_POSITIVE) } else { 0.0 })
                .collect();
            let floor = [0.0, 1e-4, 0.01 / (row.len() as f64 + 1.0)][floor_choice];
            let mut scalar = row.clone();
            let mut vectorized = row;
            finish_log_probs_scalar(&mut scalar, floor);
            finish_log_probs(&mut vectorized, floor);
            for (s, v) in scalar.iter().zip(&vectorized) {
                prop_assert_eq!(s.to_bits(), v.to_bits());
            }
        }
    }
}
