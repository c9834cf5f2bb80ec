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
use std::sync::Arc;

use relm_automata::{Dfa, Parallelism, Symbol, WorkerPool};
use relm_bpe::{BpeTokenizer, TokenId};

/// Minimum `states × multi-byte vocabulary entries` before the
/// shortcut-edge scan fans out to a worker pool. The scan costs a few
/// nanoseconds per (state, word) pair, a thread spawn tens of
/// microseconds: below roughly this much work the pool cannot pay for
/// itself, so small compiles stay on the calling thread even under
/// [`Parallelism::Sharded`] (and remain structurally identical — the
/// gate picks who computes, never what).
const PARALLEL_COMPILE_MIN_WORK: usize = 1 << 16;

/// Enumerated string sets smaller than this are tokenizer-encoded on
/// the calling thread (same trade-off as above).
const PARALLEL_ENCODE_MIN_STRINGS: usize = 64;

/// Limits for the enumeration-based canonical construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalLimits {
    /// Maximum string length (bytes) to enumerate.
    pub max_len: usize,
    /// Maximum number of strings to enumerate.
    pub max_strings: usize,
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
    compile_full_with(char_dfa, tokenizer, Parallelism::Serial)
}

/// [`compile_full`] with the vocabulary-matching loop sharded by state
/// range across `par` workers.
///
/// The shortcut-edge scan visits every `(state, vocabulary word)` pair
/// independently — `O(V · k · m_max)` work with no shared writes — so
/// the *character* automaton's state space is partitioned into
/// contiguous near-equal ranges, one per worker, and each worker
/// matches the whole multi-byte vocabulary against its range. Per-shard
/// edge lists are concatenated in shard order, and [`Dfa::from_parts`]
/// sorts each state's transitions by symbol, so the result is
/// **structurally identical** to the serial build for every
/// [`Parallelism`] setting.
pub fn compile_full_with(char_dfa: &Dfa, tokenizer: &BpeTokenizer, par: Parallelism) -> Dfa {
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
    if par.is_parallel() && n.saturating_mul(vocab.len()) >= PARALLEL_COMPILE_MIN_WORK {
        // Contiguous near-equal state ranges, one per pool job (the
        // split a parallel walk-table build uses too). Pool jobs are
        // `'static`, so the automaton and vocabulary are owned once
        // behind `Arc`s and cloned per shard.
        let shards = par.threads().clamp(1, n);
        let chunk = n.div_ceil(shards);
        let dfa = Arc::new(char_dfa.clone());
        let owned_vocab: Arc<Vec<(TokenId, Vec<u8>)>> =
            Arc::new(vocab.iter().map(|&(t, w)| (t, w.to_vec())).collect());
        let pool = WorkerPool::for_parallelism(par);
        let jobs: Vec<_> = (0..shards)
            .map(|s| {
                let range = (s * chunk)..((s + 1) * chunk).min(n);
                let dfa = Arc::clone(&dfa);
                let vocab = Arc::clone(&owned_vocab);
                move || match_words(&dfa, &vocab, range)
            })
            .collect();
        for edges in pool.run(jobs) {
            transitions.extend(edges);
        }
    } else {
        transitions.extend(match_words(char_dfa, &vocab, 0..n));
    }
    Dfa::from_parts(n, char_dfa.start(), &accepting, &transitions)
}

/// DFS-match every multi-byte vocabulary word from every state in
/// `range`, returning the shortcut edges found. Pure; both the serial
/// arm (borrowed words) and the pooled shards (owned words) call it.
fn match_words<W: AsRef<[u8]>>(
    char_dfa: &Dfa,
    vocab: &[(TokenId, W)],
    range: std::ops::Range<usize>,
) -> Vec<(usize, Symbol, usize)> {
    let mut out = Vec::new();
    for start in range {
        for (token, word) in vocab {
            let mut state = start;
            let mut ok = true;
            for &b in word.as_ref() {
                match char_dfa.step(state, Symbol::from(b)) {
                    Some(next) => state = next,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                out.push((start, *token, state));
            }
        }
    }
    out
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
    compile_canonical_with(char_dfa, tokenizer, limits, Parallelism::Serial)
}

/// [`compile_canonical`] with its work sharded across `par` workers:
/// the enumerated strings are tokenizer-encoded in parallel chunks
/// (encoding is pure; chunk results are concatenated in order, so the
/// trie is built over the same sequence list), and the oversized/
/// infinite fallback delegates to [`compile_full_with`]. Structurally
/// identical output for every [`Parallelism`] setting.
pub fn compile_canonical_with(
    char_dfa: &Dfa,
    tokenizer: &BpeTokenizer,
    limits: CanonicalLimits,
    par: Parallelism,
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
        let strings = char_dfa.enumerate(limits.max_len, limits.max_strings + 1);
        let encoded: Vec<Vec<TokenId>> = if par.is_parallel()
            && strings.len() >= PARALLEL_ENCODE_MIN_STRINGS
        {
            // Pool jobs are `'static`: each chunk owns its strings
            // (moved out of the enumeration) and a cheap tokenizer
            // clone. Chunk results concatenate in submission order,
            // so the trie sees the same sequence list as serial.
            let chunk = strings.len().div_ceil(par.threads());
            let pool = WorkerPool::for_parallelism(par);
            let chunks: Vec<Vec<Vec<Symbol>>> = strings.chunks(chunk).map(<[_]>::to_vec).collect();
            let tokenizer = Arc::new(tokenizer.clone());
            let jobs: Vec<_> = chunks
                .into_iter()
                .map(|c| {
                    let tokenizer = Arc::clone(&tokenizer);
                    move || encode_strings(&tokenizer, &c)
                })
                .collect();
            pool.run(jobs).into_iter().flatten().collect()
        } else {
            encode_strings(tokenizer, &strings)
        };
        return CompiledAutomaton {
            automaton: trie_dfa(&encoded),
            needs_canonical_check: false,
        };
    }
    CompiledAutomaton {
        automaton: compile_full_with(char_dfa, tokenizer, par),
        needs_canonical_check: true,
    }
}

/// Tokenizer-encode a chunk of enumerated byte strings. Pure; shared by
/// the serial arm and the pooled chunk jobs.
fn encode_strings(tokenizer: &BpeTokenizer, chunk: &[Vec<Symbol>]) -> Vec<Vec<TokenId>> {
    chunk
        .iter()
        .map(|symbols| {
            let text: Vec<u8> = symbols.iter().map(|&s| s as u8).collect();
            let text = String::from_utf8_lossy(&text).into_owned();
            tokenizer.encode(&text)
        })
        .collect()
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
    fn sharded_compile_is_structurally_identical() {
        // Large enough to clear [`super::PARALLEL_COMPILE_MIN_WORK`].
        let words = crate::test_lexicon(0x9e3779b97f4a7c15, 140, 8);
        let corpus = words.join(" ");
        let tok = BpeTokenizer::train(&corpus, 200);
        let pattern = words
            .iter()
            .map(|w| format!("({w})"))
            .collect::<Vec<_>>()
            .join("|");
        let dfa = char_dfa(&pattern);
        let multibyte = tok.iter_vocab().filter(|(_, w)| w.len() > 1).count();
        assert!(
            dfa.state_count() * multibyte >= super::PARALLEL_COMPILE_MIN_WORK,
            "fixture below the work gate: {} states x {multibyte} words",
            dfa.state_count()
        );
        let serial = compile_full(&dfa, &tok);
        for threads in [2usize, 3, 8] {
            let sharded = compile_full_with(&dfa, &tok, Parallelism::sharded(threads));
            assert_eq!(serial, sharded, "threads={threads}");
        }
    }

    #[test]
    fn sharded_canonical_is_structurally_identical() {
        let corpus = "the cat sat on the mat and the dog sat on the log again and again";
        let tok = BpeTokenizer::train(corpus, 60);
        // A finite language with enough strings to clear the parallel
        // encode threshold (26 * 26 = 676 strings).
        let dfa = char_dfa("[a-z][a-z]");
        let limits = CanonicalLimits {
            max_len: 8,
            max_strings: 1000,
        };
        let serial = compile_canonical(&dfa, &tok, limits);
        assert!(!serial.needs_canonical_check);
        let sharded = compile_canonical_with(&dfa, &tok, limits, Parallelism::sharded(4));
        assert_eq!(serial.automaton, sharded.automaton);
        assert_eq!(serial.needs_canonical_check, sharded.needs_canonical_check);
        // The fallback path shards through compile_full_with.
        let infinite = char_dfa("(ab)+");
        let serial_fb = compile_canonical(&infinite, &tok, CanonicalLimits::default());
        let sharded_fb = compile_canonical_with(
            &infinite,
            &tok,
            CanonicalLimits::default(),
            Parallelism::sharded(4),
        );
        assert!(serial_fb.needs_canonical_check);
        assert_eq!(serial_fb.automaton, sharded_fb.automaton);
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
