//! Model evaluation metrics: perplexity and next-token accuracy.
//!
//! The paper sizes its models by parameter count; our substrates are
//! sized by held-out quality instead, and the tests below use these
//! metrics to check that the "XL" configuration really is the stronger
//! model (DESIGN.md substitution table). Compiled for tests only.

use relm_bpe::BpeTokenizer;

use crate::LanguageModel;

/// Perplexity of `model` on `documents`: `exp` of the mean negative log
/// likelihood per token (EOS transitions included, matching training).
///
/// Returns `f64::NAN` for an empty evaluation set.
pub fn perplexity<M: LanguageModel>(
    model: &M,
    tokenizer: &BpeTokenizer,
    documents: &[&str],
) -> f64 {
    // Clamp the window: the trait does not promise `max_sequence_len()
    // >= 1`, and `0 - 1` underflows (debug panic / release wrap to a
    // full-length window).
    let window = model.max_sequence_len().max(1);
    let mut total = 0.0f64;
    let mut count = 0usize;
    for doc in documents {
        let mut tokens = vec![model.eos()];
        tokens.extend(tokenizer.encode(doc));
        tokens.push(model.eos());
        for i in 1..tokens.len() {
            let start = i.saturating_sub(window - 1);
            let lp = model.next_log_probs(&tokens[start..i]);
            total -= lp[tokens[i] as usize];
            count += 1;
        }
    }
    if count == 0 {
        f64::NAN
    } else {
        (total / count as f64).exp()
    }
}

/// Fraction of next-token predictions where the reference token falls in
/// the model's top-`k` (a scale-free quality measure used to compare the
/// "small" and "xl" substrates).
pub fn top_k_accuracy<M: LanguageModel>(
    model: &M,
    tokenizer: &BpeTokenizer,
    documents: &[&str],
    k: usize,
) -> f64 {
    let window = model.max_sequence_len().max(1); // see `perplexity`
    let mut hits = 0usize;
    let mut count = 0usize;
    for doc in documents {
        let mut tokens = vec![model.eos()];
        tokens.extend(tokenizer.encode(doc));
        tokens.push(model.eos());
        for i in 1..tokens.len() {
            let start = i.saturating_sub(window - 1);
            let lp = model.next_log_probs(&tokens[start..i]);
            let target_lp = lp[tokens[i] as usize];
            let better = lp.iter().filter(|&&p| p > target_lp).count();
            if better < k {
                hits += 1;
            }
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        hits as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NGramConfig, NGramLm};

    fn fixture() -> (BpeTokenizer, Vec<&'static str>) {
        let docs = vec![
            "the cat sat on the mat",
            "the dog sat on the log",
            "the cow ate the grass",
        ];
        let tok = BpeTokenizer::train(
            "the cat sat on the mat. the dog sat on the log. the cow ate the grass",
            60,
        );
        (tok, docs)
    }

    #[test]
    fn perplexity_lower_on_training_data_than_garbage() {
        let (tok, docs) = fixture();
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        let on_train = perplexity(&lm, &tok, &docs);
        let on_garbage = perplexity(&lm, &tok, &["zq xv jk wp mn bt"]);
        assert!(on_train < on_garbage, "{on_train} vs {on_garbage}");
    }

    #[test]
    fn xl_beats_small_on_training_data() {
        let (tok, docs) = fixture();
        let small = NGramLm::train(&tok, &docs, NGramConfig::small());
        let xl = NGramLm::train(&tok, &docs, NGramConfig::xl());
        assert!(perplexity(&xl, &tok, &docs) < perplexity(&small, &tok, &docs));
    }

    #[test]
    fn top_k_accuracy_monotone_in_k() {
        let (tok, docs) = fixture();
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        let a1 = top_k_accuracy(&lm, &tok, &docs, 1);
        let a10 = top_k_accuracy(&lm, &tok, &docs, 10);
        let a100 = top_k_accuracy(&lm, &tok, &docs, 100);
        assert!(a1 <= a10 && a10 <= a100);
        assert!(
            a100 > 0.9,
            "top-100 on training data should be high: {a100}"
        );
    }

    /// Wraps a model, overriding the reported context window — the
    /// trait does not promise `max_sequence_len() >= 1`, so the eval
    /// window arithmetic must not underflow on a degenerate report.
    struct ClampedWindow<'a> {
        inner: &'a NGramLm,
        window: usize,
    }

    impl crate::LanguageModel for ClampedWindow<'_> {
        fn vocab_size(&self) -> usize {
            self.inner.vocab_size()
        }
        fn eos(&self) -> relm_bpe::TokenId {
            self.inner.eos()
        }
        fn max_sequence_len(&self) -> usize {
            self.window
        }
        fn next_log_probs(&self, context: &[relm_bpe::TokenId]) -> Vec<f64> {
            self.inner.next_log_probs(context)
        }
    }

    #[test]
    fn zero_and_one_length_context_windows_do_not_underflow() {
        let (tok, docs) = fixture();
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        // Regression: `i.saturating_sub(max_sequence_len() - 1)` panicked
        // in debug (wrapped in release) when a model reported a window
        // of 0. Both degenerate windows must clamp to context-free
        // scoring instead.
        for window in [0usize, 1] {
            let model = ClampedWindow { inner: &lm, window };
            let ppl = perplexity(&model, &tok, &docs);
            assert!(ppl.is_finite() && ppl > 1.0, "window {window}: {ppl}");
            let acc = top_k_accuracy(&model, &tok, &docs, 5);
            assert!((0.0..=1.0).contains(&acc), "window {window}: {acc}");
        }
        // A zero window behaves exactly like the minimal window of one
        // (empty context on every step), not like some wrapped huge one.
        let z = perplexity(
            &ClampedWindow {
                inner: &lm,
                window: 0,
            },
            &tok,
            &docs,
        );
        let one = perplexity(
            &ClampedWindow {
                inner: &lm,
                window: 1,
            },
            &tok,
            &docs,
        );
        assert_eq!(z.to_bits(), one.to_bits());
    }

    #[test]
    fn empty_eval_set_is_nan_or_zero() {
        let (tok, docs) = fixture();
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        assert!(perplexity(&lm, &tok, &[]).is_nan());
        assert_eq!(top_k_accuracy(&lm, &tok, &[], 5), 0.0);
    }
}
