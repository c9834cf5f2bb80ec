//! The ReLM graph compiler (§3.2): character automaton → LLM (token)
//! automaton.
//!
//! The *Natural Language Automaton* produced by the regex front end is
//! defined over bytes; the model consumes BPE tokens. Two lowering modes
//! exist, matching Figure 3 of the paper:
//!
//! * [`compile_full`] — the **full set of encodings** (Figure 3a):
//!   Algorithms 1–2 of Appendix B. From every automaton state, walk the
//!   tokenizer's vocabulary trie ([`VocabTrie`]) in lockstep with the
//!   automaton, depth first; wherever a walk reaches a token's node, add
//!   a "shortcut" edge labelled with the token. Any accepting token path
//!   decodes to a string of the source language, and *every*
//!   tokenization of every string is represented. A state costs the
//!   trie nodes its walks reach (each a join of the node's children
//!   with the state's edges), not the vocabulary: `O(V · w)` for `V`
//!   states reaching `w` trie nodes each, against the per-word scan's
//!   `O(V · k · m_max)` for `k` tokens of up to `m_max` bytes.
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
use relm_bpe::{BpeTokenizer, TokenId, VocabTrie};

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
    let mut transitions: Vec<(usize, Symbol, usize)> =
        Vec::with_capacity(char_dfa.transition_count());
    let accepting: Vec<usize> = (0..n).filter(|&s| char_dfa.is_accepting(s)).collect();
    let trie = tokenizer.vocab_trie();
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for start in 0..n {
        // Single-byte tokens: byte value == token id in our BPE, so the
        // existing character edges already carry the right labels.
        for (sym, t) in char_dfa.transitions(start) {
            transitions.push((start, sym, t));
        }
        // Multi-byte tokens (Algorithm 1, "GetConnectingWalks"): walk the
        // vocabulary trie in lockstep with the DFA from `start`, and add
        // a shortcut edge (Algorithm 2) for every token a walk spells.
        // The depth-1 nodes are the byte tokens above.
        join(char_dfa, trie, VocabTrie::ROOT, start, |child, end| {
            if !trie.children(child).is_empty() {
                stack.push((child, end));
            }
        });
        while let Some((node, state)) = stack.pop() {
            join(char_dfa, trie, node, state, |child, end| {
                for &token in trie.tokens(child) {
                    transitions.push((start, token, end));
                }
                if !trie.children(child).is_empty() {
                    stack.push((child, end));
                }
            });
        }
    }
    Dfa::from_parts(n, char_dfa.start(), &accepting, &transitions)
}

/// Call `f(child, target)` for every child of `node` whose byte `state`
/// has an edge on: a join of two sorted lists, driven by the shorter
/// one and binary-searching the longer (a state of a literal has one
/// edge, the trie root 256 children).
fn join(dfa: &Dfa, trie: &VocabTrie, node: u32, state: usize, mut f: impl FnMut(u32, usize)) {
    let children = trie.children(node);
    let edges = dfa.transitions(state);
    if edges.len() < children.len() {
        for (sym, target) in edges {
            let Ok(byte) = u8::try_from(sym) else { break };
            if let Ok(i) = children.binary_search_by_key(&byte, |&(b, _)| b) {
                f(children[i].1, target);
            }
        }
    } else {
        for &(byte, child) in children {
            if let Some(target) = dfa.step(state, Symbol::from(byte)) {
                f(child, target);
            }
        }
    }
}

/// [`compile_full`]: compile runs on the calling thread, and `par` is
/// ignored. Called by the `benches/e2e` harness (`audit_cold.rs`).
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
    // One exact pre-check in `O(V + E)`: the language must be finite,
    // no longer than the enumeration depth, and small enough to
    // enumerate. Only then is enumeration guaranteed cheap and exact.
    // The empty language passes (its size is `(0, 0)`).
    let enumerable = char_dfa.finite_size().is_some_and(|(longest, count)| {
        longest <= limits.max_len && count <= limits.max_strings as u128
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
/// is ignored. Called by the `benches/e2e` harness (`audit_cold.rs`).
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

    /// A test-only copy of the shortcut-edge loop `compile_full`
    /// replaced: every multi-byte vocabulary word walked from every
    /// state on its own.
    fn reference_full(char_dfa: &Dfa, tokenizer: &BpeTokenizer) -> Dfa {
        let n = char_dfa.state_count();
        let mut transitions: Vec<(usize, Symbol, usize)> = Vec::new();
        let accepting: Vec<usize> = (0..n).filter(|&s| char_dfa.is_accepting(s)).collect();
        for s in 0..n {
            for (sym, t) in char_dfa.transitions(s) {
                transitions.push((s, sym, t));
            }
        }
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

    /// The bytes the oracle's patterns and merge tables are made of:
    /// letters, a space, and bytes >= 128 (`é` is `c3 a9`).
    const BYTES: [u8; 8] = [b'a', b'b', b't', b'h', b' ', 0xc3, 0xa9, 0x80];

    /// Patterns over [`BYTES`]: literals, classes, repeats, alternation,
    /// `.` (all 256 bytes, so a state with more edges than a trie node
    /// has children) and the literal EOS marker text.
    fn pattern() -> impl Strategy<Value = String> {
        let atom = prop_oneof![
            Just("a".to_string()),
            Just("th".to_string()),
            Just("é".to_string()),
            Just("(a)|(bt)".to_string()),
            Just("[abt]{1,3}".to_string()),
            Just("h?".to_string()),
            Just("(ta)*".to_string()),
            Just("(é )+".to_string()),
            Just(".".to_string()),
            Just(" ".to_string()),
            Just(relm_regex::escape("<|endoftext|>")),
        ];
        proptest::collection::vec(atom, 1..5).prop_map(|parts| parts.concat())
    }

    /// A random merge table over [`BYTES`] and the tokens it has built,
    /// so merged tokens cover bytes >= 128 and one byte string may be
    /// spelled twice.
    fn random_merges(draws: &[usize]) -> BpeTokenizer {
        let mut pool: Vec<TokenId> = BYTES.iter().map(|&b| TokenId::from(b)).collect();
        let mut merges = Vec::new();
        for pair in draws.chunks_exact(2) {
            let merge = (pool[pair[0] % pool.len()], pool[pair[1] % pool.len()]);
            merges.push(merge);
            pool.push(256 + merges.len() as TokenId - 1);
        }
        BpeTokenizer::from_merges(&merges)
    }

    fn trained() -> BpeTokenizer {
        BpeTokenizer::train(
            "the bat hath a tab. th\u{e9} b\u{e9}b\u{e9} <|endoftext|> the hat that bat \
             <|endoftext|> ta ta ta \u{e9}t\u{e9} ab ab",
            80,
        )
    }

    /// The alphabet of the Levenshtein expansions: [`BYTES`] plus `<`.
    fn edit_alphabet() -> Vec<Symbol> {
        BYTES.iter().chain(b"<").map(|&b| Symbol::from(b)).collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 1024 }))]

        /// The lockstep trie walk gives the automaton of the per-word
        /// loop (`==`: states, acceptance, every edge) on random
        /// patterns and their Levenshtein-1 expansions, for a trained
        /// tokenizer and a random merge table; EOS is never an edge,
        /// even where the language spells its bytes.
        #[test]
        fn compile_full_matches_the_per_word_loop(
            pattern in pattern(),
            draws in proptest::collection::vec(0usize..1 << 16, 0..80),
        ) {
            let regex = relm_regex::Regex::compile(&pattern).unwrap();
            let exact = regex.dfa().clone();
            let edits = relm_automata::levenshtein_within(regex.nfa(), 1, &edit_alphabet())
                .determinize()
                .minimize();
            for tok in [trained(), random_merges(&draws)] {
                for dfa in [&exact, &edits] {
                    let full = compile_full(dfa, &tok);
                    prop_assert_eq!(&full, &reference_full(dfa, &tok));
                    let eos = tok.eos();
                    for s in 0..full.state_count() {
                        prop_assert!(full.transitions(s).all(|(sym, _)| sym != eos));
                    }
                }
            }
        }
    }

    #[test]
    fn eos_bytes_in_the_language_are_not_an_edge() {
        let tok = trained();
        let dfa = char_dfa(&relm_regex::escape("<|endoftext|>"));
        let full = compile_full(&dfa, &tok);
        assert_eq!(full, reference_full(&dfa, &tok));
        assert!(!accepts(&full, &[tok.eos()]));
        let spelled: Vec<TokenId> = b"<|endoftext|>".iter().map(|&b| TokenId::from(b)).collect();
        assert!(accepts(&full, &spelled));
    }
}
