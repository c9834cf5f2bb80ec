//! Match results returned by the executor.

use relm_bpe::TokenId;

/// One matching tuple from a ReLM query — a token sequence in
/// `L_r ∩ L_m`, its decoded text, and its score under the model.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// The full token sequence (prefix + body).
    pub tokens: Vec<TokenId>,
    /// Number of leading tokens that belong to the prefix.
    pub prefix_len: usize,
    /// The decoded string.
    pub text: String,
    /// Total natural-log probability of the sequence under the model
    /// (prefix tokens included — the §3.3 heuristic scores prefixes by
    /// their original costs).
    pub log_prob: f64,
    /// Whether `tokens` is the canonical encoding of `text`.
    pub canonical: bool,
}

impl MatchResult {
    /// The body (non-prefix) portion of the token sequence.
    #[cfg(test)]
    fn body_tokens(&self) -> &[TokenId] {
        &self.tokens[self.prefix_len..]
    }

    /// Probability (not log) of the sequence; may underflow to 0 for very
    /// long strings — prefer [`Self::log_prob`] for comparisons.
    pub fn probability(&self) -> f64 {
        self.log_prob.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_tokens_strip_prefix() {
        let m = MatchResult {
            tokens: vec![1, 2, 3, 4],
            prefix_len: 2,
            text: "ab".into(),
            log_prob: -1.0,
            canonical: true,
        };
        assert_eq!(m.body_tokens(), &[3, 4]);
        assert!((m.probability() - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn zero_prefix_is_whole_sequence() {
        let m = MatchResult {
            tokens: vec![7],
            prefix_len: 0,
            text: "x".into(),
            log_prob: 0.0,
            canonical: false,
        };
        assert_eq!(m.body_tokens(), &[7]);
    }
}
