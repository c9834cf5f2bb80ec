//! Property tests for the language-model substrate: distributions must
//! normalize, decoding policies must implement their set semantics, and
//! sampling must respect both.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use relm_bpe::BpeTokenizer;
use relm_lm::{DecodingPolicy, LanguageModel, NGramConfig, NGramLm, TokenId};

fn fixture() -> (BpeTokenizer, NGramLm) {
    let docs = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "a bird flew over the wall",
    ];
    let corpus = docs.join(". ");
    let tok = BpeTokenizer::train(&corpus, 80);
    let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
    (tok, lm)
}

/// The decision rule as it was written before the membership view:
/// scale, sort every finite entry (descending by `total_cmp`, ties to the
/// lower id), truncate to `k`, truncate to the nucleus. The view and
/// `allowed()` are checked against this, entry for entry.
fn reference_allowed(policy: &DecodingPolicy, log_probs: &[f64]) -> Vec<(TokenId, f64)> {
    let scaled = policy.scaled_log_probs(log_probs);
    let mut entries: Vec<(TokenId, f64)> = scaled
        .iter()
        .enumerate()
        .filter(|(_, lp)| lp.is_finite())
        .map(|(t, &lp)| (t as TokenId, lp))
        .collect();
    entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if let Some(k) = policy.top_k {
        entries.truncate(k);
    }
    if let Some(p) = policy.top_p {
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
    }
    entries
}

/// `filter(row).get(t)` agrees with the reference for every token id of
/// the row and a few past its end, bit for bit, and `allowed()` returns
/// the reference's exact sequence.
fn assert_view_matches_reference(policy: &DecodingPolicy, row: &[f64]) {
    let reference = reference_allowed(policy, row);
    let view = policy.filter(row);
    for t in 0..row.len() as TokenId + 3 {
        let expected = reference.iter().find(|&&(id, _)| id == t).map(|e| e.1);
        assert_eq!(
            view.get(t).map(f64::to_bits),
            expected.map(f64::to_bits),
            "token {t} of {row:?} under {policy:?}"
        );
        assert_eq!(policy.permits(row, t), expected.is_some());
    }
    let enumerated: Vec<(TokenId, u64)> = policy
        .allowed(row)
        .into_iter()
        .map(|(t, lp)| (t, lp.to_bits()))
        .collect();
    let expected: Vec<(TokenId, u64)> = reference
        .into_iter()
        .map(|(t, lp)| (t, lp.to_bits()))
        .collect();
    assert_eq!(enumerated, expected, "{row:?} under {policy:?}");
}

fn policy_of(top_k: Option<usize>, top_p: Option<f64>, temperature: f64) -> DecodingPolicy {
    let mut policy = DecodingPolicy::unfiltered().with_temperature(temperature);
    policy.top_k = top_k;
    policy.top_p = top_p;
    policy
}

#[test]
fn view_breaks_a_tie_at_the_cut_toward_the_lower_id() {
    // Ids 1, 2 and 4 tie for second place; k = 3 keeps 0, 1 and 2.
    let row = [-0.5, -1.0, -1.0, -3.0, -1.0];
    let view = DecodingPolicy::top_k(3).filter(&row);
    assert_eq!(view.get(1), Some(-1.0));
    assert_eq!(view.get(2), Some(-1.0));
    assert_eq!(view.get(4), None);
    for k in 0..=6 {
        assert_view_matches_reference(&DecodingPolicy::top_k(k), &row);
    }
}

#[test]
fn view_of_degenerate_rows_and_cutoffs() {
    let impossible = [f64::NEG_INFINITY; 5];
    let row = [
        -1.0,
        f64::NAN,
        -0.25,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
    ];
    for top_k in [None, Some(0), Some(1), Some(5), Some(6), Some(100)] {
        for top_p in [None, Some(0.3), Some(1.0)] {
            for temperature in [0.5, 1.0, 2.0] {
                let policy = policy_of(top_k, top_p, temperature);
                assert_view_matches_reference(&policy, &impossible);
                assert_view_matches_reference(&policy, &row);
                assert_view_matches_reference(&policy, &[]);
            }
        }
    }
    // k = 0 keeps nothing; k >= V keeps every finite entry; an id past
    // the row is never allowed.
    assert_eq!(DecodingPolicy::top_k(0).filter(&row).get(2), None);
    let wide = DecodingPolicy::top_k(row.len()).filter(&row);
    assert_eq!(wide.get(0), Some(-1.0));
    assert_eq!(wide.get(1), None, "NaN");
    assert_eq!(wide.get(3), None, "+inf");
    assert_eq!(wide.get(row.len() as TokenId), None);
    assert_eq!(wide.get(TokenId::MAX), None);
}

#[test]
fn view_of_a_gpt2_sized_row_keeps_the_reference_top_40() {
    // 50,257 entries from a small value pool, so the 40th place is
    // deep inside a run of ties.
    let mut state = 0x9e3779b97f4a7c15u64;
    let row: Vec<f64> = (0..50_257)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            -((state % 97) as f64) / 8.0 - 0.125
        })
        .collect();
    let policy = DecodingPolicy::top_k(40);
    let reference = reference_allowed(&policy, &row);
    assert_eq!(reference.len(), 40);
    let view = policy.filter(&row);
    let kept: Vec<(TokenId, f64)> = (0..row.len() as TokenId)
        .filter_map(|t| view.get(t).map(|lp| (t, lp)))
        .collect();
    let mut expected = reference.clone();
    expected.sort_by_key(|&(t, _)| t);
    assert_eq!(kept, expected);
    assert_eq!(policy.allowed(&row), reference);
}

fn logsumexp(v: &[f64]) -> f64 {
    let m = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    m + v.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The membership view is the sort-based rule, for every token id:
    /// rows drawn from a small value pool (ties at the cut are the common
    /// case) with `-inf`, `+inf` and NaN mixed in, every combination of
    /// cutoffs, `k` up to past the row's end.
    #[test]
    fn view_matches_the_sort_based_reference(
        picks in proptest::collection::vec(0usize..9, 1..65),
        k in 0usize..67,
        use_k in 0u8..2,
        p in 0.001f64..1.0,
        use_p in 0u8..2,
        exact_p in 0u8..8,
        t in 0usize..3,
    ) {
        const POOL: [f64; 9] = [
            -0.25, -0.5, -0.5, -1.0, -2.0, -6.0,
            f64::NEG_INFINITY, f64::INFINITY, f64::NAN,
        ];
        let row: Vec<f64> = picks.iter().map(|&i| POOL[i]).collect();
        let k = k.min(row.len() + 2);
        // p = 1 exactly now and then: the range above is half-open.
        let p = if exact_p == 0 { 1.0 } else { p };
        let policy = policy_of(
            (use_k == 1).then_some(k),
            (use_p == 1).then_some(p),
            [0.5, 1.0, 2.0][t],
        );
        assert_view_matches_reference(&policy, &row);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every context — including garbage token sequences — yields a
    /// proper distribution.
    #[test]
    fn distribution_normalizes_for_any_context(raw in proptest::collection::vec(0u32..300, 0..10)) {
        let (_tok, lm) = fixture();
        let ctx: Vec<TokenId> = raw
            .into_iter()
            .map(|t| t % lm.vocab_size() as u32)
            .collect();
        let lp = lm.next_log_probs(&ctx);
        prop_assert_eq!(lp.len(), lm.vocab_size());
        prop_assert!(logsumexp(&lp).abs() < 1e-8);
        prop_assert!(lp.iter().all(|p| p.is_finite()));
    }

    /// top-k returns at most k tokens, sorted by probability, and they
    /// are exactly the k most probable ones.
    #[test]
    fn top_k_is_the_top_k(k in 1usize..20, ctx_text in "[a-z ]{0,12}") {
        let (tok, lm) = fixture();
        let lp = lm.next_log_probs(&tok.encode(&ctx_text));
        let allowed = DecodingPolicy::top_k(k).allowed(&lp);
        prop_assert!(allowed.len() <= k);
        // Sorted descending.
        for w in allowed.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        // kth-best threshold: no excluded token is strictly better than
        // an included one.
        if let Some(&(_, worst_included)) = allowed.last() {
            let included: std::collections::HashSet<TokenId> =
                allowed.iter().map(|&(t, _)| t).collect();
            for (t, &p) in lp.iter().enumerate() {
                if !included.contains(&(t as TokenId)) {
                    prop_assert!(p <= worst_included + 1e-12);
                }
            }
        }
    }

    /// top-p keeps the smallest nucleus reaching the target mass.
    #[test]
    fn top_p_nucleus_mass(p in 0.05f64..0.95, ctx_text in "[a-z ]{0,12}") {
        let (tok, lm) = fixture();
        let lp = lm.next_log_probs(&tok.encode(&ctx_text));
        let allowed = DecodingPolicy::top_p(p).allowed(&lp);
        let mass: f64 = allowed.iter().map(|&(_, l)| l.exp()).sum();
        prop_assert!(mass >= p - 1e-9, "mass {mass} < target {p}");
        // Minimality: dropping the least-probable member must dip below p.
        if allowed.len() > 1 {
            let without_last: f64 = allowed[..allowed.len() - 1]
                .iter()
                .map(|&(_, l)| l.exp())
                .sum();
            prop_assert!(without_last < p + 1e-9);
        }
    }

    /// Temperature scaling preserves normalization and ranking.
    #[test]
    fn temperature_preserves_ranking(t in 0.2f64..5.0, ctx_text in "[a-z ]{0,12}") {
        let (tok, lm) = fixture();
        let lp = lm.next_log_probs(&tok.encode(&ctx_text));
        let scaled = DecodingPolicy::unfiltered()
            .with_temperature(t)
            .scaled_log_probs(&lp);
        prop_assert!(logsumexp(&scaled).abs() < 1e-8);
        // Ranking among a few probed pairs is preserved.
        for (a, b) in [(0usize, 1usize), (2, 3), (10, 20)] {
            if a < lp.len() && b < lp.len() {
                prop_assert_eq!(
                    lp[a] > lp[b],
                    scaled[a] > scaled[b],
                    "ranking flipped at temperature {}", t
                );
            }
        }
    }

    /// Greedy sampling equals the argmax chain regardless of seed.
    #[test]
    fn greedy_is_seed_invariant(seed1 in 0u64..1000, seed2 in 0u64..1000) {
        use rand::SeedableRng;
        let (tok, lm) = fixture();
        let prefix = tok.encode("the");
        let a = relm_lm::sample_sequence(
            &lm, DecodingPolicy::greedy(), &prefix, 6,
            &mut rand::rngs::SmallRng::seed_from_u64(seed1));
        let b = relm_lm::sample_sequence(
            &lm, DecodingPolicy::greedy(), &prefix, 6,
            &mut rand::rngs::SmallRng::seed_from_u64(seed2));
        prop_assert_eq!(a, b);
    }

    /// Sampled tokens always come from the policy's allowed set.
    #[test]
    fn samples_respect_policy(seed in 0u64..500, k in 1usize..10) {
        use rand::SeedableRng;
        let (tok, lm) = fixture();
        let prefix = tok.encode("the");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let policy = DecodingPolicy::top_k(k);
        let generated = relm_lm::sample_sequence(&lm, policy, &prefix, 8, &mut rng);
        // Re-walk the chain and verify each choice was permitted.
        let mut ctx = prefix.clone();
        for &t in &generated {
            let lp = lm.next_log_probs(&ctx);
            prop_assert!(policy.permits(&lp, t), "token {t} escaped top-{k}");
            ctx.push(t);
        }
    }
}
