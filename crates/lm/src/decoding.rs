//! Decoding/decision rules (§2.4 of the paper).
//!
//! A language model only becomes a *language* once a decision rule says
//! which strings are in it. The paper's rule is `p(x) > 0` under the
//! decoding scheme: top-k keeps the k most likely next tokens, top-p
//! keeps the smallest nucleus whose mass exceeds `p`, and temperature
//! rescales the distribution before either cutoff. ReLM applies the same
//! rule during graph traversal, which is what makes its pruning
//! *transitive*: a token cut at step `i` eliminates every string sharing
//! that prefix.
//!
//! The rule is applied through a membership view, [`Allowed`]: a
//! traversal step asks about the few tokens on its automaton edges, so
//! [`DecodingPolicy::filter`] finds only *where the cut falls* and
//! [`Allowed::get`] answers each question in O(1) from the row itself.
//! Under the strict total order of a row's entries — descending
//! log-probability by `total_cmp`, then ascending token id — every
//! cutoff keeps a prefix, so the kept set is described exactly by its
//! last member. [`DecodingPolicy::allowed`] is the same set written out
//! in that order, for callers that enumerate it.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::TokenId;

/// The strict total order of a row's entries: most probable first, ties
/// to the lower token id. No two entries of one row compare equal, which
/// is what makes an unstable selection under it deterministic.
fn rank(a: &(TokenId, f64), b: &(TokenId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Sampling stride of [`top_k_cut`]: every 8th entry.
const SAMPLE_STRIDE: usize = 8;

/// How many places past `k / SAMPLE_STRIDE` the threshold sits in the
/// sample, so that the entries at or above it outnumber `k` on all but
/// skewed rows.
const SAMPLE_SLACK: usize = 2;

/// An integer image of `f64` under `total_cmp`: `a.total_cmp(&b)` is
/// `order_key(a).cmp(&order_key(b))`. The finite values map onto one
/// run, [`FINITE_KEYS`]; infinities and NaNs fall outside it.
const fn order_key(lp: f64) -> u64 {
    let bits = lp.to_bits();
    // All ones for a negative sign (every bit flips), the sign bit alone
    // otherwise.
    bits ^ ((((bits as i64) >> 63) as u64) >> 1 | 1 << 63)
}

/// The keys of the finite values, from `-f64::MAX` to `f64::MAX`.
const FINITE_KEYS: (u64, u64) = (order_key(-f64::MAX), order_key(f64::MAX));

/// Top-k alone: the last kept entry of `scaled`.
///
/// The [`rank`] order becomes one integer, `order_key << 64 | !id`,
/// larger first, so the k-th entry is a selection over `u128`s, and
/// only over the entries that can be among the first k: a sample of
/// every 8th entry puts a threshold a few places below where the k-th
/// should fall, and the finite entries above the threshold's value,
/// plus the first k (lowest ids) at it, are the candidates. A
/// threshold with fewer than k entries at or above it (a skewed
/// sample) falls back to every finite entry. Exact either way: an
/// entry below the threshold ranks after k candidates.
fn top_k_cut(scaled: &[f64], k: usize) -> Cut {
    // One read of the row for the finite count and the sample: a lane's
    // count is a fixed-width loop the autovectorizer lifts.
    let mut finite = 0;
    let mut sample = Vec::with_capacity(scaled.len() / SAMPLE_STRIDE + 1);
    let mut read_lane = |lane: &[f64]| {
        finite += lane.iter().filter(|lp| lp.is_finite()).count();
        let key = order_key(lane[0]);
        if (FINITE_KEYS.0..=FINITE_KEYS.1).contains(&key) {
            sample.push(key);
        }
    };
    let mut lanes = scaled.chunks_exact(SAMPLE_STRIDE);
    lanes.by_ref().for_each(&mut read_lane);
    if !lanes.remainder().is_empty() {
        read_lane(lanes.remainder());
    }
    if k >= finite {
        return Cut::Nowhere;
    }
    if k == 0 {
        return Cut::Everything;
    }
    let place = k / SAMPLE_STRIDE + SAMPLE_SLACK;
    let (threshold, expected) = if place < sample.len() {
        let threshold = *sample.select_nth_unstable_by(place, |a, b| b.cmp(a)).1;
        (threshold, (place + 1) * SAMPLE_STRIDE)
    } else {
        (FINITE_KEYS.0, finite)
    };
    let mut candidates = candidates_from(scaled, threshold, k, 2 * expected);
    if candidates.len() < k {
        candidates = candidates_from(scaled, FINITE_KEYS.0, k, finite);
    }
    let last = *candidates.select_nth_unstable_by(k - 1, |a, b| b.cmp(a)).1;
    let token = !(last as u64) as TokenId;
    Cut::After(token, scaled[token as usize])
}

/// The finite entries of `scaled` above `threshold` and the first `k` at
/// it, as `order_key << 64 | !id` keys, in a buffer sized for
/// `capacity` of them.
fn candidates_from(scaled: &[f64], threshold: u64, k: usize, capacity: usize) -> Vec<u128> {
    let mut out = Vec::with_capacity(capacity);
    let mut at_threshold = 0;
    for (id, &lp) in scaled.iter().enumerate() {
        let key = order_key(lp);
        if key < threshold || key > FINITE_KEYS.1 {
            continue;
        }
        if key == threshold {
            if at_threshold == k {
                continue;
            }
            at_threshold += 1;
        }
        out.push(u128::from(key) << 64 | u128::from(!(id as u64)));
    }
    out
}

/// Where a policy's cutoffs fall in a row's [`rank`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    /// No cutoff bites: every finite entry is kept.
    Nowhere,
    /// The last kept entry; everything ranked after it is cut.
    After(TokenId, f64),
    /// Nothing is kept (`top_k(0)`, or a nucleus over no finite entry).
    Everything,
}

/// The tokens a [`DecodingPolicy`] keeps for one next-token row, as a
/// membership view: built by [`DecodingPolicy::filter`], asked with
/// [`Allowed::get`]. At temperature 1 it borrows the row it was built
/// from.
#[derive(Debug, Clone)]
pub struct Allowed<'a> {
    scaled: Cow<'a, [f64]>,
    cut: Cut,
}

impl Allowed<'_> {
    /// The temperature-scaled log probability of `token` if it survives
    /// the policy, `None` if it is cut, impossible (non-finite) or out
    /// of the row's range.
    pub fn get(&self, token: TokenId) -> Option<f64> {
        let lp = *self.scaled.get(token as usize)?;
        if !lp.is_finite() {
            return None;
        }
        match self.cut {
            Cut::Nowhere => Some(lp),
            Cut::After(last, last_lp) => {
                (rank(&(token, lp), &(last, last_lp)) != Ordering::Greater).then_some(lp)
            }
            Cut::Everything => None,
        }
    }
}

/// A decoding policy: temperature scaling followed by top-k and/or top-p
/// filtering.
///
/// `DecodingPolicy::default()` is unfiltered (vanilla) decoding at
/// temperature 1.0 — the setting whose language is "nearly all possible
/// strings" (§2.4).
///
/// # Example
///
/// ```
/// use relm_lm::DecodingPolicy;
///
/// let policy = DecodingPolicy::top_k(40); // the paper's extraction setting
/// let log_probs = vec![(0.5f64).ln(), (0.3f64).ln(), (0.2f64).ln()];
/// let allowed = policy.filter(&log_probs);
/// assert_eq!(allowed.get(2), Some(log_probs[2])); // k=40 keeps all three
/// assert_eq!(DecodingPolicy::top_k(2).filter(&log_probs).get(2), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodingPolicy {
    /// Keep only the `k` most likely tokens, if set.
    pub top_k: Option<usize>,
    /// Keep the smallest set of tokens whose cumulative probability
    /// reaches `p`, if set.
    pub top_p: Option<f64>,
    /// Softmax temperature; applied before the cutoffs. Must be positive.
    temperature: f64,
}

impl Default for DecodingPolicy {
    fn default() -> Self {
        DecodingPolicy {
            top_k: None,
            top_p: None,
            temperature: 1.0,
        }
    }
}

impl DecodingPolicy {
    /// Unfiltered (vanilla) decoding.
    pub fn unfiltered() -> Self {
        Self::default()
    }

    /// Top-k decoding at temperature 1, as in the paper's memorization and
    /// toxicity experiments (`k = 40`) and language understanding
    /// (`k = 1000`).
    pub fn top_k(k: usize) -> Self {
        DecodingPolicy {
            top_k: Some(k),
            ..Self::default()
        }
    }

    /// Top-p (nucleus) decoding at temperature 1.
    pub fn top_p(p: f64) -> Self {
        DecodingPolicy {
            top_p: Some(p),
            ..Self::default()
        }
    }

    /// Greedy decoding (top-k with k = 1).
    pub fn greedy() -> Self {
        Self::top_k(1)
    }

    /// Set the temperature, keeping the cutoffs.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0`.
    #[must_use]
    pub fn with_temperature(mut self, temperature: f64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        self.temperature = temperature;
        self
    }

    /// Apply temperature scaling to `log_probs`, renormalizing.
    /// Returns the input unchanged when temperature is 1.
    pub fn scaled_log_probs(&self, log_probs: &[f64]) -> Vec<f64> {
        self.scaled(log_probs).into_owned()
    }

    /// [`Self::scaled_log_probs`] without the copy at temperature 1.
    fn scaled<'a>(&self, log_probs: &'a [f64]) -> Cow<'a, [f64]> {
        if (self.temperature - 1.0).abs() < f64::EPSILON {
            return Cow::Borrowed(log_probs);
        }
        let scaled: Vec<f64> = log_probs.iter().map(|lp| lp / self.temperature).collect();
        let m = scaled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = m + scaled.iter().map(|x| (x - m).exp()).sum::<f64>().ln();
        Cow::Owned(scaled.iter().map(|x| x - lse).collect())
    }

    /// The set of tokens *permitted* by this policy for the given
    /// next-token distribution, as a membership view over their
    /// (temperature-scaled) log probabilities. This is the decision rule
    /// `p(x) > 0` of §2.4: a token the view returns may extend a string
    /// of the model's language.
    ///
    /// Costs nothing beyond the temperature pass when no cutoff can bite
    /// (`top_k` unset or at least the row's length). Top-k alone is one
    /// read of the row plus a selection among the few entries a sample
    /// says can make the cut, with no copy of the row. Top-p sorts every
    /// finite entry — the nucleus is a running sum in rank order, and
    /// the sum's bits depend on that order.
    pub fn filter<'a>(&self, log_probs: &'a [f64]) -> Allowed<'a> {
        let scaled = self.scaled(log_probs);
        let cut = self.cut(&scaled);
        Allowed { scaled, cut }
    }

    /// Where this policy's cutoffs fall in `scaled` — the one place the
    /// cut rule lives.
    fn cut(&self, scaled: &[f64]) -> Cut {
        // A top-k no shorter than the row cannot bite: skip even the
        // count of finite entries.
        let top_k = self.top_k.filter(|&k| k < scaled.len());
        let Some(p) = self.top_p else {
            return top_k.map_or(Cut::Nowhere, |k| top_k_cut(scaled, k));
        };
        let mut entries: Vec<(TokenId, f64)> = scaled
            .iter()
            .enumerate()
            .filter(|(_, lp)| lp.is_finite())
            .map(|(t, &lp)| (t as TokenId, lp))
            .collect();
        if let Some(k) = top_k.filter(|&k| k < entries.len()) {
            if k > 0 {
                entries.select_nth_unstable_by(k - 1, rank);
            }
            entries.truncate(k);
        }
        entries.sort_unstable_by(rank);
        let mut mass = 0.0;
        let mut keep = 0;
        for (_, lp) in &entries {
            keep += 1;
            mass += lp.exp();
            if mass >= p {
                break;
            }
        }
        entries.truncate(keep);
        match entries.last() {
            Some(&(token, lp)) => Cut::After(token, lp),
            None => Cut::Everything,
        }
    }

    /// The tokens [`Self::filter`] keeps, with their (temperature-scaled)
    /// log probabilities, written out in rank order: descending
    /// probability, ties broken by token id. For callers that enumerate
    /// the permitted set (ancestral sampling); a traversal that asks
    /// about a few tokens uses the view.
    pub fn allowed(&self, log_probs: &[f64]) -> Vec<(TokenId, f64)> {
        let view = self.filter(log_probs);
        let mut entries: Vec<(TokenId, f64)> = (0..log_probs.len() as TokenId)
            .filter_map(|t| view.get(t).map(|lp| (t, lp)))
            .collect();
        entries.sort_unstable_by(rank);
        entries
    }

    /// Whether `token` survives the policy given the distribution.
    pub fn permits(&self, log_probs: &[f64], token: TokenId) -> bool {
        self.filter(log_probs).get(token).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(probs: &[f64]) -> Vec<f64> {
        probs.iter().map(|p| p.ln()).collect()
    }

    #[test]
    fn unfiltered_keeps_everything_finite() {
        let lp = dist(&[0.5, 0.3, 0.2]);
        let allowed = DecodingPolicy::unfiltered().allowed(&lp);
        assert_eq!(allowed.len(), 3);
        // Sorted descending.
        assert_eq!(allowed[0].0, 0);
        assert_eq!(allowed[2].0, 2);
    }

    #[test]
    fn top_k_truncates() {
        let lp = dist(&[0.4, 0.3, 0.2, 0.1]);
        let allowed = DecodingPolicy::top_k(2).allowed(&lp);
        assert_eq!(
            allowed.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn greedy_keeps_argmax_only() {
        let lp = dist(&[0.1, 0.7, 0.2]);
        let allowed = DecodingPolicy::greedy().allowed(&lp);
        assert_eq!(allowed.len(), 1);
        assert_eq!(allowed[0].0, 1);
    }

    #[test]
    fn top_p_keeps_nucleus() {
        let lp = dist(&[0.5, 0.3, 0.15, 0.05]);
        let allowed = DecodingPolicy::top_p(0.7).allowed(&lp);
        // 0.5 < 0.7, 0.5+0.3 = 0.8 >= 0.7 → keep two.
        assert_eq!(allowed.len(), 2);
    }

    #[test]
    fn temperature_flattens_distribution() {
        let lp = dist(&[0.9, 0.1]);
        let hot = DecodingPolicy::unfiltered()
            .with_temperature(10.0)
            .scaled_log_probs(&lp);
        let gap_cold = lp[0] - lp[1];
        let gap_hot = hot[0] - hot[1];
        assert!(gap_hot < gap_cold);
        // Still normalized.
        let sum: f64 = hot.iter().map(|x| x.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permits_transitively_defines_language() {
        let lp = dist(&[0.4, 0.3, 0.2, 0.1]);
        let policy = DecodingPolicy::top_k(2);
        assert!(policy.permits(&lp, 0));
        assert!(policy.permits(&lp, 1));
        assert!(!policy.permits(&lp, 2));
        assert!(!policy.permits(&lp, 3));
    }

    #[test]
    fn top_k_tie_broken_by_token_id() {
        let lp = dist(&[0.25, 0.25, 0.25, 0.25]);
        let allowed = DecodingPolicy::top_k(2).allowed(&lp);
        assert_eq!(
            allowed.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn non_positive_temperature_rejected() {
        let _ = DecodingPolicy::unfiltered().with_temperature(0.0);
    }

    #[test]
    fn neg_infinity_tokens_never_allowed() {
        let mut lp = dist(&[0.6, 0.4]);
        lp.push(f64::NEG_INFINITY);
        let allowed = DecodingPolicy::unfiltered().allowed(&lp);
        assert_eq!(allowed.len(), 2);
    }
}
