//! Interpolated back-off n-gram language model over BPE tokens.
//!
//! This is the workspace's GPT-2 substitute (see the crate docs and
//! `DESIGN.md`). The model is a Jelinek–Mercer interpolation of maximum-
//! likelihood estimates at every order `0..=order-1`, with a uniform
//! floor so every token has non-zero probability (matching the paper's
//! observation that "most strings will have non-zero probability" under
//! unfiltered decoding, §2.4):
//!
//! ```text
//! p(t | ctx) = w_flr · 1/V  +  Σ_k w_k · count(ctx_k, t) / count(ctx_k)
//! ```
//!
//! where `ctx_k` is the last `k` tokens of the context and weights decay
//! geometrically from the highest matching order. High-count training
//! sequences (repeated URLs, templated sentences) get sharply peaked
//! continuations — the memorization behaviour §4.1/§4.3 measures.

use std::collections::HashMap;
use std::sync::Arc;

use relm_bpe::{BpeTokenizer, TokenId};

use crate::simd::finish_log_probs;
use crate::LanguageModel;

/// Configuration for [`NGramLm`].
///
/// The two presets mirror the paper's model pair: GPT-2 (117M) → a
/// low-order model with flatter smoothing; GPT-2 XL (1.5B) → a higher-
/// order model that interpolates more aggressively toward its longest
/// matching context (more "capacity" ⇒ more memorization, sharper
/// distributions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NGramConfig {
    /// Maximum n-gram order (context length + 1). Must be ≥ 1.
    // lint: allow(dead_pub, "tests/edge_cases.rs builds NGramConfig by struct update, which needs every field public")
    pub order: usize,
    /// Interpolation weight kept by the highest matching order; the
    /// remainder backs off geometrically. In `(0, 1)`.
    // lint: allow(dead_pub, "tests/edge_cases.rs builds NGramConfig by struct update, which needs every field public")
    pub backoff: f64,
    /// Probability mass reserved for the uniform floor. In `(0, 1)`.
    // lint: allow(dead_pub, "tests/edge_cases.rs builds NGramConfig by struct update, which needs every field public")
    pub uniform_floor: f64,
    /// Maximum sequence length the model accepts.
    pub max_sequence_len: usize,
}

impl NGramConfig {
    /// Preset mirroring GPT-2 (117M): trigram, heavier smoothing.
    pub fn small() -> Self {
        NGramConfig {
            order: 3,
            backoff: 0.75,
            uniform_floor: 0.05,
            max_sequence_len: 128,
        }
    }

    /// Preset mirroring GPT-2 XL (1.5B): 5-gram, sharper distributions.
    pub fn xl() -> Self {
        NGramConfig {
            order: 5,
            backoff: 0.9,
            uniform_floor: 0.01,
            max_sequence_len: 128,
        }
    }

    fn validate(self) -> Self {
        assert!(self.order >= 1, "order must be >= 1");
        assert!(
            self.backoff > 0.0 && self.backoff < 1.0,
            "backoff must be in (0, 1)"
        );
        assert!(
            self.uniform_floor > 0.0 && self.uniform_floor < 1.0,
            "uniform_floor must be in (0, 1)"
        );
        assert!(self.max_sequence_len >= 2, "max_sequence_len must be >= 2");
        self
    }
}

/// Count table for one n-gram order: context → (continuation → count,
/// total).
#[derive(Debug, Clone, Default)]
struct OrderCounts {
    table: HashMap<Vec<TokenId>, ContextCounts>,
}

#[derive(Debug, Clone, Default)]
struct ContextCounts {
    continuations: HashMap<TokenId, u64>,
    total: u64,
}

/// The interpolated back-off n-gram model. See the module docs.
///
/// Cloning is cheap: the count tables sit behind an `Arc`.
#[derive(Debug, Clone)]
pub struct NGramLm {
    config: NGramConfig,
    vocab_size: usize,
    eos: TokenId,
    /// `orders[k]` holds counts for contexts of length `k`
    /// (`orders[0]` is the unigram table with the empty context).
    /// Shared so a clone costs a pointer copy.
    orders: Arc<Vec<OrderCounts>>,
}

impl NGramLm {
    /// Train on `documents`, each tokenized with `tokenizer` and
    /// terminated with EOS. The EOS token also begins each document's
    /// context so unconditional generation is well-defined.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`NGramConfig`] field docs).
    pub fn train(tokenizer: &BpeTokenizer, documents: &[&str], config: NGramConfig) -> Self {
        let config = config.validate();
        let eos = tokenizer.eos();
        let mut orders: Vec<OrderCounts> =
            (0..config.order).map(|_| OrderCounts::default()).collect();
        for doc in documents {
            let mut tokens = vec![eos];
            tokens.extend(tokenizer.encode(doc));
            tokens.push(eos);
            for i in 1..tokens.len() {
                let next = tokens[i];
                for k in 0..config.order {
                    if i < k {
                        continue;
                    }
                    let ctx = tokens[i - k..i].to_vec();
                    let entry = orders[k].table.entry(ctx).or_default();
                    *entry.continuations.entry(next).or_insert(0) += 1;
                    entry.total += 1;
                }
            }
        }
        NGramLm {
            config,
            vocab_size: tokenizer.vocab_size(),
            eos,
            orders: Arc::new(orders),
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &NGramConfig {
        &self.config
    }

    /// Natural-log probability of `next` given `context` without
    /// materializing the full distribution: a one-token reference the
    /// tests hold the full row to.
    #[cfg(test)]
    fn log_prob_of(&self, context: &[TokenId], next: TokenId) -> f64 {
        self.prob_of(context, next).ln()
    }

    #[cfg(test)]
    fn prob_of(&self, context: &[TokenId], next: TokenId) -> f64 {
        let v = self.vocab_size as f64;
        let mut p = self.config.uniform_floor / v;
        let mut remaining = 1.0 - self.config.uniform_floor;
        // Interpolate from the longest matching context down.
        let max_k = (self.config.order - 1).min(context.len());
        for k in (0..=max_k).rev() {
            let ctx = &context[context.len() - k..];
            if let Some(counts) = self.orders[k].table.get(ctx) {
                if counts.total > 0 {
                    let w = if k == 0 {
                        remaining
                    } else {
                        remaining * self.config.backoff
                    };
                    let c = counts.continuations.get(&next).copied().unwrap_or(0) as f64;
                    p += w * c / counts.total as f64;
                    remaining -= w;
                    if remaining <= 0.0 {
                        break;
                    }
                }
            }
        }
        // Any remaining mass (unseen contexts at all orders) goes uniform.
        p + remaining.max(0.0) / v
    }

    /// The forward pass up to its finish: the interpolated mass every
    /// order puts on each token (exactly `0.0` where none does) and the
    /// uniform floor every slot receives on top of it.
    fn accumulate(&self, context: &[TokenId]) -> (Vec<f64>, f64) {
        let mut probs = vec![0.0f64; self.vocab_size];
        let floor = self.interpolate(context, |counts, w, total| {
            for (&t, &c) in &counts.continuations {
                probs[t as usize] += w * c as f64 / total;
            }
        });
        (probs, floor)
    }

    /// Walk the matching orders from the longest context down, handing
    /// `visit` each one's counts, weight and total, and return the
    /// uniform floor per slot. [`Self::accumulate`] and the one-entry
    /// [`LanguageModel::next_log_prob`] both add through this walk, so
    /// a token's sum is the same additions in the same order.
    fn interpolate(
        &self,
        context: &[TokenId],
        mut visit: impl FnMut(&ContextCounts, f64, f64),
    ) -> f64 {
        let v = self.vocab_size as f64;
        let mut uniform_mass = self.config.uniform_floor;
        let mut remaining = 1.0 - self.config.uniform_floor;
        let max_k = (self.config.order - 1).min(context.len());
        for k in (0..=max_k).rev() {
            let ctx = &context[context.len() - k..];
            if let Some(counts) = self.orders[k].table.get(ctx) {
                if counts.total > 0 {
                    let w = if k == 0 {
                        remaining
                    } else {
                        remaining * self.config.backoff
                    };
                    visit(counts, w, counts.total as f64);
                    remaining -= w;
                    if remaining <= 0.0 {
                        break;
                    }
                }
            }
        }
        uniform_mass += remaining.max(0.0);
        uniform_mass / v
    }
}

impl LanguageModel for NGramLm {
    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn eos(&self) -> TokenId {
        self.eos
    }

    fn max_sequence_len(&self) -> usize {
        self.config.max_sequence_len
    }

    fn next_log_probs(&self, context: &[TokenId]) -> Vec<f64> {
        let (mut probs, floor) = self.accumulate(context);
        finish_log_probs(&mut probs, floor);
        probs
    }

    /// The row's entry for `token` in O(order) lookups: the same
    /// additions the forward pass makes into that slot, finished by the
    /// row's rule (`ln(floor)` where nothing was added, else
    /// `ln(p + floor)`), so the bits are the row's.
    fn next_log_prob(&self, context: &[TokenId], token: TokenId) -> Option<f64> {
        let mut p = 0.0f64;
        let floor = self.interpolate(context, |counts, w, total| {
            if let Some(&c) = counts.continuations.get(&token) {
                p += w * c as f64 / total;
            }
        });
        Some(if p == 0.0 {
            floor.ln()
        } else {
            (p + floor).ln()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn corpus_lm(order_cfg: NGramConfig) -> (BpeTokenizer, NGramLm) {
        let corpus = "the cat sat on the mat. the dog sat on the log. \
                      the cat ran to the mat. the dog ran to the log.";
        let tok = BpeTokenizer::train(corpus, 60);
        let docs: Vec<&str> = corpus.split(". ").collect();
        let lm = NGramLm::train(&tok, &docs, order_cfg);
        (tok, lm)
    }

    fn logsumexp(v: &[f64]) -> f64 {
        let m = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        m + v.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
    }

    #[test]
    fn distribution_sums_to_one() {
        let (tok, lm) = corpus_lm(NGramConfig::xl());
        for ctx_text in ["the cat", "the", "", "zzz unseen"] {
            let ctx = tok.encode(ctx_text);
            let lp = lm.next_log_probs(&ctx);
            assert_eq!(lp.len(), lm.vocab_size());
            let lse = logsumexp(&lp);
            assert!(lse.abs() < 1e-9, "logsumexp {lse} for {ctx_text:?}");
        }
    }

    #[test]
    fn every_token_has_positive_probability() {
        let (tok, lm) = corpus_lm(NGramConfig::small());
        let lp = lm.next_log_probs(&tok.encode("the cat"));
        assert!(lp.iter().all(|&p| p.is_finite()));
    }

    #[test]
    fn trained_continuations_beat_uniform() {
        let (tok, lm) = corpus_lm(NGramConfig::xl());
        // After "the cat", " sat" or " ran" should far outweigh " log".
        let ctx = tok.encode("the cat");
        let lp = lm.next_log_probs(&ctx);
        let sat = tok.encode(" sat");
        let log_tok = tok.encode(" log");
        assert!(
            lp[sat[0] as usize] > lp[log_tok[0] as usize] + 1.0,
            "seen continuation should dominate"
        );
    }

    #[test]
    fn log_prob_of_matches_full_distribution() {
        let (tok, lm) = corpus_lm(NGramConfig::xl());
        let ctx = tok.encode("the dog");
        let lp = lm.next_log_probs(&ctx);
        for t in [0u32, 5, 100, lm.eos()] {
            let single = lm.log_prob_of(&ctx, t);
            assert!(
                (single - lp[t as usize]).abs() < 1e-12,
                "token {t}: {single} vs {}",
                lp[t as usize]
            );
        }
    }

    #[test]
    fn xl_sharper_than_small_on_memorized_text() {
        let corpus = "https://www.example.com/page ".repeat(20);
        let tok = BpeTokenizer::train(&corpus, 80);
        let doc_refs: Vec<&str> = corpus.split_whitespace().collect();
        let small = NGramLm::train(&tok, &doc_refs, NGramConfig::small());
        let xl = NGramLm::train(&tok, &doc_refs, NGramConfig::xl());
        let tokens = tok.encode("https://www.example.com/page");
        let lp_small = crate::sequence_log_prob(&small, &tokens, 0);
        let lp_xl = crate::sequence_log_prob(&xl, &tokens, 0);
        assert!(
            lp_xl > lp_small,
            "xl ({lp_xl}) should memorize harder than small ({lp_small})"
        );
    }

    #[test]
    fn unconditional_context_is_eos_rooted() {
        let (_tok, lm) = corpus_lm(NGramConfig::xl());
        // Empty context should still be a valid distribution (backs off to
        // unigram + floor).
        let lp = lm.next_log_probs(&[]);
        let lse = super::tests::logsumexp(&lp);
        assert!(lse.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn zero_order_rejected() {
        let tok = BpeTokenizer::train("a", 0);
        let cfg = NGramConfig {
            order: 0,
            ..NGramConfig::small()
        };
        let _ = NGramLm::train(&tok, &["a"], cfg);
    }

    /// The model's row against the same forward pass finished by the
    /// per-slot reference loop, bit for bit.
    fn assert_row_matches_scalar_finish(lm: &NGramLm, ctx: &[TokenId]) {
        let (mut reference, floor) = lm.accumulate(ctx);
        crate::simd::finish_log_probs_scalar(&mut reference, floor);
        let row = lm.next_log_probs(ctx);
        assert_eq!(row.len(), reference.len());
        for (i, (a, b)) in row.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx:?} slot {i}");
        }
    }

    #[test]
    fn scalar_and_vectorized_kernels_are_bit_identical() {
        let (tok, lm) = corpus_lm(NGramConfig::xl());
        for ctx_text in ["the cat", "the", "", "zzz unseen", "the dog ran"] {
            assert_row_matches_scalar_finish(&lm, &tok.encode(ctx_text));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whole rows of both presets, for runs of training text and for
        /// random token strings, finish bit for bit as the per-slot
        /// reference does.
        #[test]
        fn proptest_rows_match_the_scalar_finish(
            picks in proptest::collection::vec(0usize..1_000, 0..7),
            from_training in 0usize..2,
            xl in 0usize..2,
        ) {
            let (tok, lm) = corpus_lm(if xl == 1 { NGramConfig::xl() } else { NGramConfig::small() });
            let ctx: Vec<TokenId> = if from_training == 1 {
                // A run of training text, so the high orders match.
                let seen = tok.encode("the cat sat on the mat. the dog ran to the log");
                let start = picks.first().map_or(0, |&pick| pick % seen.len());
                seen[start..].iter().copied().take(picks.len()).collect()
            } else {
                picks.iter().map(|&pick| (pick % lm.vocab_size()) as TokenId).collect()
            };
            assert_row_matches_scalar_finish(&lm, &ctx);
        }

        /// One-entry scoring against the row, for every token: both
        /// presets, contexts empty, past the order, from training text
        /// or of ids no document contains.
        #[test]
        fn proptest_one_entry_matches_the_row(
            picks in proptest::collection::vec(0usize..1_000, 0..9),
            source in 0usize..3,
            xl in 0usize..2,
            uneven in 0usize..2,
        ) {
            let cfg = if xl == 1 { NGramConfig::xl() } else { NGramConfig::small() };
            let (tok, lm) = if uneven == 1 {
                // Odd context totals: over a power-of-two total,
                // `w * (c / total)` rounds as `w * c / total` does.
                let corpus = "the cat sat on the mat. the cat sat. the dog ran. \
                              the cat ran to the log. the dog sat on the mat";
                let tok = BpeTokenizer::train(corpus, 60);
                let docs: Vec<&str> = corpus.split(". ").collect();
                let lm = NGramLm::train(&tok, &docs, cfg);
                (tok, lm)
            } else {
                corpus_lm(cfg)
            };
            let ctx: Vec<TokenId> = match source {
                0 => {
                    let seen = tok.encode("the cat sat on the mat. the dog ran to the log");
                    let start = picks.first().map_or(0, |&pick| pick % seen.len());
                    seen[start..].iter().copied().take(picks.len()).collect()
                }
                1 => picks.iter().map(|&pick| (pick % lm.vocab_size()) as TokenId).collect(),
                // Control bytes, which the corpus never spells.
                _ => {
                    prop_assert_eq!(tok.token_bytes(3), [3]);
                    picks.iter().map(|&pick| (pick % 4) as TokenId).collect()
                }
            };
            assert_one_entry_matches_the_row(&lm, &ctx);
        }
    }

    /// `next_log_prob(ctx, t)` is `next_log_probs(ctx)[t]` bit for bit
    /// for every token, and within 1e-12 of the independent one-token
    /// reference [`NGramLm::log_prob_of`].
    fn assert_one_entry_matches_the_row(lm: &NGramLm, ctx: &[TokenId]) {
        let row = lm.next_log_probs(ctx);
        for (t, &entry) in row.iter().enumerate() {
            let t = t as TokenId;
            let one = lm.next_log_prob(ctx, t).expect("n-gram answers one entry");
            assert_eq!(one.to_bits(), entry.to_bits(), "{ctx:?} token {t}");
            let reference = lm.log_prob_of(ctx, t);
            assert!(
                (one - reference).abs() < 1e-12,
                "{ctx:?} token {t}: {one} vs {reference}"
            );
        }
    }

    #[test]
    fn determinism() {
        let (tok, lm) = corpus_lm(NGramConfig::xl());
        let ctx = tok.encode("the");
        assert_eq!(lm.next_log_probs(&ctx), lm.next_log_probs(&ctx));
    }
}
