//! The ReLM graph compiler (§3.2): character automaton → LLM (token)
//! automaton.
//!
//! The *Natural Language Automaton* produced by the regex front end is
//! defined over bytes; the model consumes BPE tokens. Two lowering modes
//! exist, matching Figure 3 of the paper:
//!
//! * [`compile_full`] — the **full set of encodings** (Figure 3a):
//!   Algorithms 1–2 of Appendix B. For every multi-byte vocabulary item,
//!   depth-first match its bytes from every automaton state; where the
//!   walk completes, add a "shortcut" edge labelled with the token. Any
//!   accepting token path decodes to a string of the source language,
//!   and *every* tokenization of every string is represented. Runs in
//!   `O(V · k · m_max)` for `V` states, `k` vocabulary items of maximum
//!   byte length `m_max`.
//! * [`compile_canonical`] — **canonical encodings only** (Figure 3b):
//!   for finite languages, enumerate the strings, encode each with the
//!   tokenizer, and build the trie-shaped automaton of those encodings
//!   (the paper's "adequate for small sets" option). Infinite or
//!   oversized languages fall back to the full automaton plus a runtime
//!   canonicity check in the executor (the paper's "dynamic traversal
//!   with backtracking" option) — see [`CompiledAutomaton::needs_canonical_check`].
//!
//! Because the source automaton is deterministic over bytes, each state
//! has at most one walk spelling a given token, so the token automaton
//! is deterministic too and is returned as a [`Dfa`] over token ids.

use std::collections::HashMap;

use relm_automata::{Dfa, Parallelism, Symbol};
use relm_bpe::{BpeTokenizer, TokenId};

/// Limits for the enumeration-based canonical construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalLimits {
    /// Maximum string length (bytes) to enumerate.
    pub max_len: usize,
    /// Maximum number of strings to enumerate.
    max_strings: usize,
}

impl Default for CanonicalLimits {
    fn default() -> Self {
        CanonicalLimits {
            max_len: 160,
            max_strings: 2048,
        }
    }
}

/// A token-space automaton plus the execution flags the compiler decided
/// on.
#[derive(Debug, Clone)]
pub struct CompiledAutomaton {
    /// The LLM automaton over token ids.
    pub automaton: Dfa,
    /// Whether the executor must verify canonicity of emitted token
    /// sequences at runtime (set when a canonical query fell back to the
    /// full construction).
    pub needs_canonical_check: bool,
}

/// Compile the full (ambiguous) encoding automaton — Appendix B's
/// shortcut-edge algorithm.
///
/// `char_dfa` must be a byte-level DFA (symbols `0..=255`). The result is
/// a DFA over token ids whose accepting paths decode exactly to the
/// strings of `char_dfa`'s language, with every tokenization represented.
pub fn compile_full(char_dfa: &Dfa, tokenizer: &BpeTokenizer) -> Dfa {
    let n = char_dfa.state_count();
    let mut transitions: Vec<(usize, Symbol, usize)> = Vec::new();
    let accepting: Vec<usize> = (0..n).filter(|&s| char_dfa.is_accepting(s)).collect();

    // Single-byte tokens: byte value == token id in our BPE, so the
    // existing character edges already carry the right labels.
    for s in 0..n {
        for (sym, t) in char_dfa.transitions(s) {
            transitions.push((s, sym, t));
        }
    }

    // Multi-byte tokens: DFS-match each vocabulary word from each state
    // (Algorithm 1, "GetConnectingWalks") and add the shortcut edge
    // (Algorithm 2). The DFA walk is unique when it exists.
    let vocab: Vec<(TokenId, &[u8])> = tokenizer
        .iter_vocab()
        .filter(|(_, word)| word.len() > 1)
        .collect();
    for start in 0..n {
        for &(token, word) in &vocab {
            let end = word
                .iter()
                .try_fold(start, |s, &b| char_dfa.step(s, Symbol::from(b)));
            if let Some(end) = end {
                transitions.push((start, token, end));
            }
        }
    }
    Dfa::from_parts(n, char_dfa.start(), &accepting, &transitions)
}

/// [`compile_full`]: compile runs on the calling thread, and `par` is
/// ignored.
pub fn compile_full_with(char_dfa: &Dfa, tokenizer: &BpeTokenizer, _par: Parallelism) -> Dfa {
    compile_full(char_dfa, tokenizer)
}

/// Compile the canonical-encoding automaton.
///
/// Finite languages within `limits` are enumerated and encoded exactly;
/// otherwise the full automaton is returned with
/// [`CompiledAutomaton::needs_canonical_check`] set, and the executor
/// enforces canonicity dynamically.
pub fn compile_canonical(
    char_dfa: &Dfa,
    tokenizer: &BpeTokenizer,
    limits: CanonicalLimits,
) -> CompiledAutomaton {
    // Exact pre-checks (both run in `O(max_len · E)`): the language must
    // be finite, no longer than the enumeration depth, and small enough
    // to enumerate. Only then is enumeration guaranteed cheap and exact.
    let enumerable =
        char_dfa
            .longest_string_len()
            .map_or(char_dfa.is_empty_language(), |longest| {
                longest <= limits.max_len
                    && char_dfa.count_strings(limits.max_len) <= limits.max_strings as u128
            });
    if enumerable {
        // The language's strings are byte strings: each is encoded as
        // it is, UTF-8 or not.
        let encoded: Vec<Vec<TokenId>> = char_dfa
            .enumerate(limits.max_len, limits.max_strings + 1)
            .iter()
            .map(|symbols| {
                let bytes: Vec<u8> = symbols.iter().map(|&s| s as u8).collect();
                tokenizer.encode_bytes(&bytes)
            })
            .collect();
        return CompiledAutomaton {
            automaton: trie_dfa(&encoded),
            needs_canonical_check: false,
        };
    }
    CompiledAutomaton {
        automaton: compile_full(char_dfa, tokenizer),
        needs_canonical_check: true,
    }
}

/// [`compile_canonical`]: compile runs on the calling thread, and `par`
/// is ignored.
pub fn compile_canonical_with(
    char_dfa: &Dfa,
    tokenizer: &BpeTokenizer,
    limits: CanonicalLimits,
    _par: Parallelism,
) -> CompiledAutomaton {
    compile_canonical(char_dfa, tokenizer, limits)
}

/// Build the trie-shaped DFA accepting exactly the given token sequences.
fn trie_dfa(sequences: &[Vec<TokenId>]) -> Dfa {
    let mut transitions: Vec<(usize, Symbol, usize)> = Vec::new();
    let mut accepting: Vec<usize> = Vec::new();
    // Node map: (state, token) -> state.
    let mut next_of: HashMap<(usize, TokenId), usize> = HashMap::new();
    let mut count = 1; // state 0 is the root
    for seq in sequences {
        let mut state = 0;
        for &tok in seq {
            state = *next_of.entry((state, tok)).or_insert_with(|| {
                let id = count;
                count += 1;
                transitions.push((state, tok, id));
                id
            });
        }
        accepting.push(state);
    }
    accepting.sort_unstable();
    accepting.dedup();
    Dfa::from_parts(count, 0, &accepting, &transitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_bpe::BpeTokenizer;

    /// T+h=Th(256), h+e=he(257), Th+e=The(258)
    fn the_tokenizer() -> BpeTokenizer {
        BpeTokenizer::from_merges(&[
            (TokenId::from(b'T'), TokenId::from(b'h')),
            (TokenId::from(b'h'), TokenId::from(b'e')),
            (256, TokenId::from(b'e')),
        ])
    }

    fn char_dfa(pattern: &str) -> Dfa {
        relm_regex::Regex::compile(pattern).unwrap().dfa().clone()
    }

    fn accepts(dfa: &Dfa, tokens: &[TokenId]) -> bool {
        dfa.contains(tokens.iter().copied())
    }

    #[test]
    fn figure_3a_full_automaton_has_four_paths() {
        // The query "The": paths T-h-e, Th-e, T-he, The.
        let tok = the_tokenizer();
        let full = compile_full(&char_dfa("The"), &tok);
        let t = TokenId::from(b'T');
        let h = TokenId::from(b'h');
        let e = TokenId::from(b'e');
        assert!(accepts(&full, &[t, h, e]));
        assert!(accepts(&full, &[256, e])); // Th-e
        assert!(accepts(&full, &[t, 257])); // T-he
        assert!(accepts(&full, &[258])); // The
        assert!(!accepts(&full, &[t, h]));
        assert!(!accepts(&full, &[258, e]));
        // Exactly 4 accepting paths.
        assert_eq!(full.enumerate(8, 100).len(), 4);
    }

    #[test]
    fn full_automaton_paths_decode_to_language() {
        let tok = the_tokenizer();
        let full = compile_full(&char_dfa("The"), &tok);
        for path in full.enumerate(8, 100) {
            let ids: Vec<TokenId> = path.iter().map(|&s| s as TokenId).collect();
            assert_eq!(tok.decode(&ids), "The");
        }
    }

    #[test]
    fn full_automaton_over_alternation() {
        // Figure 2 / 12: The ((cat)|(dog)) with a richer tokenizer.
        let corpus = "The cat and The dog and The cat and The dog";
        let tok = BpeTokenizer::train(corpus, 50);
        let full = compile_full(&char_dfa("The ((cat)|(dog))"), &tok);
        // Canonical encodings of both strings must be accepted.
        assert!(accepts(&full, &tok.encode("The cat")));
        assert!(accepts(&full, &tok.encode("The dog")));
        // Fully spelled-out byte paths too.
        let bytes: Vec<TokenId> = "The cat".bytes().map(TokenId::from).collect();
        assert!(accepts(&full, &bytes));
        // And nothing outside the language.
        assert!(!accepts(&full, &tok.encode("The cow")));
    }

    #[test]
    fn full_matches_tokenizer_encoding_count() {
        let corpus = "banana bandana banana bandana ban band an na";
        let tok = BpeTokenizer::train(corpus, 40);
        let text = "banana";
        let full = compile_full(&char_dfa(text), &tok);
        let automaton_paths = full.enumerate(16, 100_000).len() as u128;
        assert_eq!(automaton_paths, tok.count_encodings(text));
    }

    #[test]
    fn canonical_enumerated_accepts_only_canonical() {
        let tok = the_tokenizer();
        let compiled = compile_canonical(&char_dfa("The"), &tok, CanonicalLimits::default());
        assert!(!compiled.needs_canonical_check);
        let auto = &compiled.automaton;
        assert!(accepts(auto, &[258])); // canonical single token
        let t = TokenId::from(b'T');
        let h = TokenId::from(b'h');
        let e = TokenId::from(b'e');
        assert!(!accepts(auto, &[t, h, e]));
        assert!(!accepts(auto, &[256, e]));
    }

    #[test]
    fn canonical_multiple_choice_is_trie() {
        let corpus = "The cat and The dog and The cat and The dog";
        let tok = BpeTokenizer::train(corpus, 50);
        let compiled = compile_canonical(
            &char_dfa("The ((cat)|(dog))"),
            &tok,
            CanonicalLimits::default(),
        );
        assert!(!compiled.needs_canonical_check);
        assert!(accepts(&compiled.automaton, &tok.encode("The cat")));
        assert!(accepts(&compiled.automaton, &tok.encode("The dog")));
        assert_eq!(compiled.automaton.enumerate(16, 100).len(), 2);
    }

    #[test]
    fn canonical_infinite_language_falls_back() {
        let tok = the_tokenizer();
        let compiled = compile_canonical(&char_dfa("(Th)+e"), &tok, CanonicalLimits::default());
        assert!(compiled.needs_canonical_check);
        // Fallback is the full automaton: canonical sequence accepted.
        assert!(accepts(&compiled.automaton, &tok.encode("The")));
    }

    #[test]
    fn canonical_oversized_finite_language_falls_back() {
        let tok = the_tokenizer();
        // [a-z]{4} has 456,976 strings — over the limit.
        let compiled = compile_canonical(
            &char_dfa("[a-z]{4}"),
            &tok,
            CanonicalLimits {
                max_len: 10,
                max_strings: 100,
            },
        );
        assert!(compiled.needs_canonical_check);
    }

    #[test]
    fn full_preserves_state_count() {
        let tok = the_tokenizer();
        let dfa = char_dfa("The");
        let full = compile_full(&dfa, &tok);
        assert_eq!(full.state_count(), dfa.state_count());
        assert!(full.transition_count() > dfa.transition_count());
    }

    #[test]
    fn empty_language_compiles_to_empty() {
        let tok = the_tokenizer();
        // "x" intersected with "y" is empty.
        let x = char_dfa("x");
        let y = char_dfa("y");
        let empty = x.intersect(&y);
        let full = compile_full(&empty, &tok);
        assert!(full.is_empty_language());
    }

    #[test]
    fn trie_dfa_shares_prefixes() {
        let d = trie_dfa(&[vec![1, 2, 3], vec![1, 2, 4], vec![1, 5]]);
        // Root + {1} + {1,2} + three leaves = 6 states.
        assert_eq!(d.state_count(), 6);
        assert!(d.contains([1, 2, 3]));
        assert!(d.contains([1, 2, 4]));
        assert!(d.contains([1, 5]));
        assert!(!d.contains([1, 2]));
    }

    #[test]
    fn trie_dfa_empty_sequence_accepts_epsilon() {
        let d = trie_dfa(&[vec![]]);
        assert!(d.contains(Vec::<Symbol>::new()));
    }
}
