//! Ancestral sampling and batched scoring.
//!
//! [`sample_sequence`] is the paper's *baseline*: the Hugging Face
//! `run_generation.py`-style loop that samples token-by-token under a
//! decoding policy until EOS or a stop length (§4.1's random-sampling
//! comparison). [`score_batch`] is the CPU analogue of batched GPU
//! inference.

use rand::Rng;

use crate::{DecodingPolicy, LanguageModel, TokenId};

/// Sample a continuation of `prefix` under `policy`, stopping after
/// `max_new_tokens` or at EOS (EOS, when drawn, is included).
///
/// Returns only the newly generated tokens (not the prefix).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use relm_bpe::BpeTokenizer;
/// use relm_lm::{sample_sequence, DecodingPolicy, NGramConfig, NGramLm};
///
/// let tok = BpeTokenizer::train("the cat sat. the dog sat.", 30);
/// let lm = NGramLm::train(&tok, &["the cat sat", "the dog sat"], NGramConfig::xl());
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let generated = sample_sequence(&lm, DecodingPolicy::top_k(40), &tok.encode("the"), 8, &mut rng);
/// assert!(generated.len() <= 8 + 1);
/// ```
pub fn sample_sequence<M: LanguageModel, R: Rng>(
    model: &M,
    policy: DecodingPolicy,
    prefix: &[TokenId],
    max_new_tokens: usize,
    rng: &mut R,
) -> Vec<TokenId> {
    let mut context = prefix.to_vec();
    let mut generated = Vec::new();
    for _ in 0..max_new_tokens {
        let log_probs = model.next_log_probs(&context);
        let allowed = policy.allowed(&log_probs);
        if allowed.is_empty() {
            break;
        }
        // Renormalize over the allowed set and draw.
        let total: f64 = allowed.iter().map(|&(_, lp)| lp.exp()).sum();
        let mut u = rng.gen::<f64>() * total;
        let mut chosen = allowed[allowed.len() - 1].0;
        for &(t, lp) in &allowed {
            u -= lp.exp();
            if u <= 0.0 {
                chosen = t;
                break;
            }
        }
        generated.push(chosen);
        context.push(chosen);
        if chosen == model.eos() {
            break;
        }
        if context.len() >= model.max_sequence_len() {
            break;
        }
    }
    generated
}

/// Total log probability of `tokens[prefix_len..]` under the model, given
/// `tokens[..prefix_len]` as an uncosted prefix — the additive cost
/// function of the paper's shortest-path traversal.
pub fn sequence_log_prob<M: LanguageModel>(
    model: &M,
    tokens: &[TokenId],
    prefix_len: usize,
) -> f64 {
    let mut total = 0.0;
    for i in prefix_len..tokens.len() {
        let lp = model.next_log_probs(&tokens[..i]);
        total += lp[tokens[i] as usize];
    }
    total
}

/// Score a batch of contexts (one next-token distribution per context),
/// standing in for batched accelerator inference. Results keep input
/// order.
///
/// This is a convenience wrapper over
/// [`LanguageModel::next_log_probs_batch`], which scores on the calling
/// thread; prefer scoring through a [`crate::ScoringEngine`], which
/// adds deduplication, memoization and the persistent-pool fan-out of
/// [`crate::pool::pooled_scores`] on top.
pub fn score_batch<M: LanguageModel>(model: &M, contexts: &[Vec<TokenId>]) -> Vec<Vec<f64>> {
    let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
    model.next_log_probs_batch(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NGramConfig, NGramLm};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use relm_bpe::BpeTokenizer;

    fn fixture() -> (BpeTokenizer, NGramLm) {
        let corpus = "the cat sat on the mat. the dog sat on the log.";
        let tok = BpeTokenizer::train(corpus, 40);
        let lm = NGramLm::train(
            &tok,
            &["the cat sat on the mat.", "the dog sat on the log."],
            NGramConfig::xl(),
        );
        (tok, lm)
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let (tok, lm) = fixture();
        let prefix = tok.encode("the");
        let a = sample_sequence(
            &lm,
            DecodingPolicy::top_k(5),
            &prefix,
            10,
            &mut SmallRng::seed_from_u64(42),
        );
        let b = sample_sequence(
            &lm,
            DecodingPolicy::top_k(5),
            &prefix,
            10,
            &mut SmallRng::seed_from_u64(42),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_respects_stop_length() {
        let (tok, lm) = fixture();
        let prefix = tok.encode("the");
        for n in [1usize, 2, 4, 8] {
            let g = sample_sequence(
                &lm,
                DecodingPolicy::unfiltered(),
                &prefix,
                n,
                &mut SmallRng::seed_from_u64(1),
            );
            assert!(g.len() <= n, "stop length {n} produced {}", g.len());
        }
    }

    #[test]
    fn greedy_sampling_is_argmax_chain() {
        let (tok, lm) = fixture();
        let prefix = tok.encode("the cat");
        let a = sample_sequence(
            &lm,
            DecodingPolicy::greedy(),
            &prefix,
            5,
            &mut SmallRng::seed_from_u64(1),
        );
        let b = sample_sequence(
            &lm,
            DecodingPolicy::greedy(),
            &prefix,
            5,
            &mut SmallRng::seed_from_u64(999),
        );
        assert_eq!(a, b, "greedy must be seed-independent");
    }

    #[test]
    fn sequence_log_prob_additivity() {
        let (tok, lm) = fixture();
        let tokens = tok.encode("the cat sat");
        let full = sequence_log_prob(&lm, &tokens, 0);
        // Splitting the score at any point must add up.
        let head = sequence_log_prob(&lm, &tokens[..2.min(tokens.len())], 0);
        let tail = sequence_log_prob(&lm, &tokens, 2.min(tokens.len()));
        assert!((full - (head + tail)).abs() < 1e-12);
    }

    #[test]
    fn prefix_incurs_no_cost() {
        let (tok, lm) = fixture();
        let tokens = tok.encode("the cat sat");
        let with_prefix = sequence_log_prob(&lm, &tokens, tokens.len());
        assert_eq!(with_prefix, 0.0);
    }

    #[test]
    fn score_batch_matches_serial() {
        let (tok, lm) = fixture();
        let contexts: Vec<Vec<TokenId>> = ["the", "the cat", "", "the dog sat"]
            .iter()
            .map(|s| tok.encode(s))
            .collect();
        let batched = score_batch(&lm, &contexts);
        for (ctx, out) in contexts.iter().zip(&batched) {
            assert_eq!(out, &lm.next_log_probs(ctx));
        }
    }

    #[test]
    fn score_batch_empty_input() {
        let (_tok, lm) = fixture();
        assert!(score_batch(&lm, &[]).is_empty());
    }
}
