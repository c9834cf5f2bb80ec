//! Query preprocessors (§3.4): transformations of the Natural Language
//! Automaton applied before token compilation.
//!
//! The paper names two: **Levenshtein automata**, which expand the query
//! language to everything within a bounded edit distance (models
//! partially memorize, so near-misses matter), and **filters**, which
//! remove strings (stop words, already-seen content). Filters can be
//! *deferred* to runtime when automaton-level subtraction would blow up
//! the graph.

use relm_automata::{ascii_alphabet, levenshtein_within, Dfa, Nfa, Symbol};

/// A preprocessor in a [`crate::SearchQuery`] pipeline.
#[derive(Debug, Clone)]
pub enum Preprocessor {
    /// Expand the language to all strings within an edit distance
    /// (chain several for higher distances, §3.4).
    Levenshtein {
        /// Maximum edit distance.
        distance: usize,
        /// Alphabet that insertions/substitutions draw from.
        alphabet: Vec<Symbol>,
    },
    /// Remove strings matching a language.
    Filter {
        /// Strings to remove.
        language: Dfa,
        /// Whether removal happens at runtime instead of automaton
        /// build time.
        deferred: bool,
    },
}

impl Preprocessor {
    /// Edit-distance expansion over printable ASCII.
    pub fn levenshtein(distance: usize) -> Self {
        Preprocessor::Levenshtein {
            distance,
            alphabet: ascii_alphabet(),
        }
    }

    /// Automaton-level filter removing `language`.
    pub fn filter(language: Dfa) -> Self {
        Preprocessor::Filter {
            language,
            deferred: false,
        }
    }

    /// Runtime filter removing `language` from the result stream instead
    /// of the automaton (for languages whose subtraction would blow up
    /// the graph).
    pub fn deferred_filter(language: Dfa) -> Self {
        Preprocessor::Filter {
            language,
            deferred: true,
        }
    }

    /// Apply to the Natural Language Automaton. Deferred filters return
    /// the input unchanged (they act at execution time).
    pub fn apply(&self, nfa: &Nfa) -> Nfa {
        match self {
            Preprocessor::Levenshtein { distance, alphabet } => {
                levenshtein_within(nfa, *distance, alphabet)
            }
            Preprocessor::Filter {
                language,
                deferred: false,
            } => {
                let dfa = nfa.determinize().minimize();
                let filtered = dfa.difference(language);
                Nfa::from(&filtered)
            }
            Preprocessor::Filter { .. } => nfa.clone(),
        }
    }

    /// The runtime-rejection language of a deferred filter, if this is
    /// one.
    pub fn deferred_language(&self) -> Option<&Dfa> {
        match self {
            Preprocessor::Filter {
                language,
                deferred: true,
            } => Some(language),
            _ => None,
        }
    }

    /// Append this preprocessor's full configuration to `out` — part of
    /// the plan-memo key of [`crate::Relm`]. The encoding is
    /// *exact* (not a hash): two preprocessors encode identically iff
    /// they transform automata identically (Levenshtein: distance +
    /// alphabet; filter: the exact DFA structure + deferral flag), so a
    /// memo hit can never serve the wrong automaton.
    pub(crate) fn encode_into(&self, out: &mut Vec<u64>) {
        match self {
            Preprocessor::Levenshtein { distance, alphabet } => {
                out.push(1);
                out.push(*distance as u64);
                out.push(alphabet.len() as u64);
                out.extend(alphabet.iter().map(|&sym| u64::from(sym)));
            }
            Preprocessor::Filter { language, deferred } => {
                out.push(2);
                out.push(u64::from(*deferred));
                encode_dfa(out, language);
            }
        }
    }
}

/// Append a DFA's full structure (start, accepting set, every transition
/// in iteration order — deterministic for a given machine) to `out`.
/// Each state's transition list is length-prefixed so the flat stream is
/// self-delimiting: without the count, a transition pair of one state
/// could be misread as the accept flag + transition of the next, letting
/// two distinct machines encode identically.
pub(crate) fn encode_dfa(out: &mut Vec<u64>, dfa: &Dfa) {
    out.push(dfa.state_count() as u64);
    out.push(dfa.start() as u64);
    for state in 0..dfa.state_count() {
        out.push(u64::from(dfa.is_accepting(state)));
        let mark = out.len();
        out.push(0); // transition count, patched below
        for (sym, target) in dfa.transitions(state) {
            out.push(u64::from(sym));
            out.push(target as u64);
        }
        out[mark] = ((out.len() - mark - 1) / 2) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_automata::str_symbols;

    fn lang(pattern: &str) -> Nfa {
        relm_regex::compile_ast(&relm_regex::parse(pattern).unwrap())
    }

    #[test]
    fn levenshtein_preprocessor_expands() {
        let pre = Preprocessor::levenshtein(1);
        let out = pre.apply(&lang("cat")).determinize();
        assert!(out.contains(str_symbols("cat")));
        assert!(out.contains(str_symbols("cut")));
        assert!(out.contains(str_symbols("ca")));
        assert!(!out.contains(str_symbols("dog")));
    }

    #[test]
    fn chained_levenshtein_composes_distance() {
        let pre = Preprocessor::levenshtein(1);
        let once = pre.apply(&lang("cat"));
        let twice = pre.apply(&once).determinize();
        assert!(twice.contains(str_symbols("cu"))); // two edits
    }

    #[test]
    fn filter_removes_strings() {
        let stop = lang("(the)|(a)").determinize();
        let pre = Preprocessor::filter(stop);
        let out = pre.apply(&lang("(the)|(a)|(menu)")).determinize();
        assert!(out.contains(str_symbols("menu")));
        assert!(!out.contains(str_symbols("the")));
        assert!(!out.contains(str_symbols("a")));
    }

    #[test]
    fn deferred_filter_is_identity_on_automaton() {
        let stop = lang("the").determinize();
        let pre = Preprocessor::deferred_filter(stop);
        let input = lang("(the)|(menu)");
        let out = pre.apply(&input).determinize();
        assert!(out.contains(str_symbols("the")));
        assert!(pre.deferred_language().is_some());
    }

    #[test]
    fn eager_filter_has_no_deferred_language() {
        let pre = Preprocessor::filter(lang("x").determinize());
        assert!(pre.deferred_language().is_none());
    }

    #[test]
    fn dfa_encoding_is_injective_on_adversarial_pair() {
        // Without per-state transition-count framing these two distinct
        // machines encode to the same flat stream: A's (sym 0 -> s1) +
        // s1's accept flag reads exactly like B's s0 accept flag + no
        // transitions + (sym 1 -> s1).
        let a = Dfa::from_parts(2, 0, &[1], &[(0, 0, 1)]);
        let b = Dfa::from_parts(2, 0, &[], &[(1, 1, 1)]);
        let (mut enc_a, mut enc_b) = (Vec::new(), Vec::new());
        encode_dfa(&mut enc_a, &a);
        encode_dfa(&mut enc_b, &b);
        assert_ne!(enc_a, enc_b, "distinct machines must encode distinctly");
        // Deterministic: the same machine encodes identically.
        let mut enc_a2 = Vec::new();
        encode_dfa(&mut enc_a2, &a);
        assert_eq!(enc_a, enc_a2);
    }

    #[test]
    fn preprocessor_encodings_discriminate_configs() {
        let mut lev1 = Vec::new();
        Preprocessor::levenshtein(1).encode_into(&mut lev1);
        let mut lev2 = Vec::new();
        Preprocessor::levenshtein(2).encode_into(&mut lev2);
        assert_ne!(lev1, lev2);
        let stop = lang("the").determinize();
        let mut eager = Vec::new();
        Preprocessor::filter(stop.clone()).encode_into(&mut eager);
        let mut deferred = Vec::new();
        Preprocessor::deferred_filter(stop).encode_into(&mut deferred);
        assert_ne!(eager, deferred, "deferral flag is part of the identity");
    }
}
