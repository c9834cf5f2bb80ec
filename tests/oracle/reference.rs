//! A brute-force reference for the three executors on tiny finite
//! languages, built from public API only and sharing no code with the
//! executors or the token compiler.
//!
//! Given the texts of a finite language (and the literal prefix every
//! text starts with, if the query has one), the reference enumerates
//! every token sequence the executors may emit, keeps the ones the
//! decoding policy permits, and scores each with the bare model one
//! context at a time:
//!
//! * **encodings** — the prefix and the body are tokenized separately,
//!   as the executors' prefix and body machines are compiled separately:
//!   canonical tokenization is [`BpeTokenizer::encode`] of each part;
//!   all encodings are every way to spell each part as a sequence of
//!   vocabulary words;
//! * **policy** — body tokens must be permitted by
//!   [`DecodingPolicy::permits`] in their context; prefix tokens skip
//!   the policy (conditioning context is in the language by definition)
//!   and need only a finite log-probability;
//! * **score** — the executors' recurrence: `cost -= lp` for every token
//!   from the EOS root, reported as `-cost`, so a score is comparable
//!   with an emitted `log_prob` bit for bit;
//! * **cap** — a path of `n` tokens may extend iff `n < max_tokens` and
//!   `n + 1 < max_sequence_len`, so a match has at most `max_tokens`
//!   tokens;
//! * **EOS** — under `require_eos` a match must be able to extend, the
//!   row after its last token must keep EOS under the policy, and the
//!   score pays EOS's log-probability too;
//! * **deferred filter** — a text the filter names is dropped.
//!
//! Used by `tests/oracle.rs` and `tests/scoring_engine.rs`.

#![allow(dead_code)]

use std::collections::BTreeSet;

use relm::{
    BpeTokenizer, DecodingPolicy, LanguageModel, MatchResult, TokenId, TokenizationStrategy,
};

/// One admissible match: its token sequence and the bits of its
/// log-probability.
pub type Scored = (Vec<TokenId>, u64);

/// The query flags the reference enumerates under.
#[derive(Debug, Clone)]
pub struct Rules {
    pub tokenization: TokenizationStrategy,
    pub policy: DecodingPolicy,
    /// Matches end in EOS.
    pub require_eos: bool,
    /// The token budget, prefix tokens included (`None`: the model's
    /// sequence length alone bounds a match).
    pub max_tokens: Option<usize>,
    /// A text a deferred filter drops.
    pub dropped: Option<String>,
}

impl Rules {
    pub fn new(tokenization: TokenizationStrategy, policy: DecodingPolicy) -> Self {
        Rules {
            tokenization,
            policy,
            require_eos: false,
            max_tokens: None,
            dropped: None,
        }
    }
}

/// Every match an executor may emit for the language `texts` — each of
/// which starts with `prefix` when one is given — under `tokenization`
/// and `policy`, scored with `model`.
pub fn reference<M: LanguageModel>(
    model: &M,
    tokenizer: &BpeTokenizer,
    texts: &[String],
    prefix: Option<&str>,
    tokenization: TokenizationStrategy,
    policy: DecodingPolicy,
) -> BTreeSet<Scored> {
    reference_with(
        model,
        tokenizer,
        texts,
        prefix,
        &Rules::new(tokenization, policy),
    )
}

/// [`reference`] under every flag of `rules`.
pub fn reference_with<M: LanguageModel>(
    model: &M,
    tokenizer: &BpeTokenizer,
    texts: &[String],
    prefix: Option<&str>,
    rules: &Rules,
) -> BTreeSet<Scored> {
    let prefix = prefix.unwrap_or("");
    let heads = encodings(tokenizer, prefix, rules.tokenization);
    let mut out = BTreeSet::new();
    for text in texts {
        if rules.dropped.as_ref() == Some(text) {
            continue;
        }
        let body = text
            .strip_prefix(prefix)
            .expect("every text starts with the prefix");
        let tails = encodings(tokenizer, body, rules.tokenization);
        for head in &heads {
            for tail in &tails {
                let tokens: Vec<TokenId> = head.iter().chain(tail).copied().collect();
                if let Some(log_prob) = score(model, &tokens, head.len(), rules) {
                    out.insert((tokens, log_prob.to_bits()));
                }
            }
        }
    }
    out
}

/// The token sequences spelling `text` under `tokenization`.
fn encodings(
    tokenizer: &BpeTokenizer,
    text: &str,
    tokenization: TokenizationStrategy,
) -> Vec<Vec<TokenId>> {
    match tokenization {
        TokenizationStrategy::Canonical => vec![tokenizer.encode(text)],
        TokenizationStrategy::All => segmentations(tokenizer, text.as_bytes()),
    }
}

/// Every way to write `bytes` as a sequence of vocabulary words (EOS
/// excluded), by a right-to-left table: `tails[i]` holds the
/// segmentations of `bytes[i..]`.
fn segmentations(tokenizer: &BpeTokenizer, bytes: &[u8]) -> Vec<Vec<TokenId>> {
    let mut tails: Vec<Vec<Vec<TokenId>>> = vec![Vec::new(); bytes.len() + 1];
    tails[bytes.len()].push(Vec::new());
    for start in (0..bytes.len()).rev() {
        let mut here = Vec::new();
        for (id, word) in tokenizer.iter_vocab() {
            if word.is_empty() || !bytes[start..].starts_with(word) {
                continue;
            }
            for rest in &tails[start + word.len()] {
                let mut seq = Vec::with_capacity(rest.len() + 1);
                seq.push(id);
                seq.extend_from_slice(rest);
                here.push(seq);
            }
        }
        tails[start] = here;
    }
    tails.swap_remove(0)
}

/// The log-probability of `tokens` (the first `prefix_len` of them the
/// prefix), or `None` when a body token is outside the policy, a prefix
/// token is impossible, the sequence is over the cap, or a required EOS
/// cannot follow it.
fn score<M: LanguageModel>(
    model: &M,
    tokens: &[TokenId],
    prefix_len: usize,
    rules: &Rules,
) -> Option<f64> {
    let max_tokens = rules.max_tokens.unwrap_or(usize::MAX);
    let may_extend = |n: usize| n < max_tokens && n + 1 < model.max_sequence_len();
    let n = tokens.len();
    if (n > 0 && !may_extend(n - 1)) || (rules.require_eos && !may_extend(n)) {
        return None;
    }
    let mut context = vec![model.eos()];
    let mut cost = 0.0f64;
    for (i, &token) in tokens.iter().enumerate() {
        let row = model.next_log_probs(&context);
        let lp = if i < prefix_len {
            Some(row[token as usize]).filter(|lp| lp.is_finite())
        } else {
            rules
                .policy
                .permits(&row, token)
                .then(|| rules.policy.scaled_log_probs(&row)[token as usize])
        };
        cost -= lp?;
        context.push(token);
    }
    if rules.require_eos {
        let row = model.next_log_probs(&context);
        if !rules.policy.permits(&row, model.eos()) {
            return None;
        }
        cost -= rules.policy.scaled_log_probs(&row)[model.eos() as usize];
    }
    Some(-cost)
}

fn scored(m: &MatchResult) -> Scored {
    (m.tokens.clone(), m.log_prob.to_bits())
}

/// `results` are exactly `reference` — every admissible match once, with
/// identical score bits — emitted in non-increasing `log_prob`. Ties may
/// come out in any order: the set comparison does not see it.
pub fn check_exact(
    label: &str,
    results: &[MatchResult],
    reference: &BTreeSet<Scored>,
) -> Result<(), String> {
    if let Some(pair) = results
        .windows(2)
        .find(|pair| pair[0].log_prob < pair[1].log_prob)
    {
        return Err(format!(
            "{label}: {:?} ({}) emitted before the more probable {:?} ({})",
            pair[0].text, pair[0].log_prob, pair[1].text, pair[1].log_prob
        ));
    }
    let mut emitted: Vec<Scored> = results.iter().map(scored).collect();
    emitted.sort();
    let expected: Vec<Scored> = reference.iter().cloned().collect();
    if emitted != expected {
        return Err(format!(
            "{label}: emitted {} matches, the reference has {}\n  emitted:   {emitted:?}\n  \
             reference: {expected:?}",
            emitted.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Every match in `results` is in `reference`, score bits included.
pub fn check_members(
    label: &str,
    results: &[MatchResult],
    reference: &BTreeSet<Scored>,
) -> Result<(), String> {
    match results.iter().find(|m| !reference.contains(&scored(m))) {
        Some(m) => Err(format!(
            "{label}: {:?} {:?} ({:#x}) is not an admissible match; reference: {reference:?}",
            m.text,
            m.tokens,
            m.log_prob.to_bits()
        )),
        None => Ok(()),
    }
}
