//! Additional language operations: reversal, concatenation, and prefix
//! closure on DFAs.
//!
//! These round out the algebra the preprocessor pipeline can draw on:
//! reversal underlies suffix queries ("strings *ending* in an insult"),
//! concatenation composes independently-built query parts, and the
//! prefix closure describes every partial output the executor may pass
//! through — useful for validating traversal states in tests.

use crate::{Dfa, Nfa, StateId};

/// The reversal of a language: `reverse(L) = { wᴿ | w ∈ L }`.
///
/// Built by reversing every transition of the (trimmed) automaton and
/// swapping start/accepting roles; the result is returned determinized
/// and minimized.
///
/// # Example
///
/// ```
/// use relm_automata::{reverse, Nfa, str_symbols};
///
/// let lang = Nfa::literal(str_symbols("abc")).determinize();
/// let rev = reverse(&lang);
/// assert!(rev.contains(str_symbols("cba")));
/// assert!(!rev.contains(str_symbols("abc")));
/// ```
// lint: allow(dead_pub, "a facade export; check_minimize in crates/automata/tests/property.rs checks minimize against double reversal with it")
pub fn reverse(dfa: &Dfa) -> Dfa {
    let trimmed = dfa.trim();
    if trimmed.is_empty_language() {
        return Dfa::empty();
    }
    let n = trimmed.state_count();
    // Reversed NFA: one fresh start with ε to every accepting state; the
    // old start becomes the sole accepting state.
    let mut nfa = Nfa::empty();
    for _ in 1..n + 1 {
        nfa.add_state();
    }
    // State i of the original maps to i; state n is the fresh start.
    for s in 0..n {
        for (sym, t) in trimmed.transitions(s) {
            nfa.add_transition(t, sym, s); // reversed edge
        }
    }
    let fresh = n;
    for s in 0..n {
        if trimmed.is_accepting(s) {
            nfa.add_epsilon_for_ops(fresh, s);
        }
    }
    nfa.set_accepting(trimmed.start(), true);
    nfa.set_start_for_ops(fresh);
    nfa.determinize().minimize()
}

/// Language concatenation on DFAs: `L₁ · L₂`.
///
/// # Example
///
/// ```
/// use relm_automata::{concat, Nfa, str_symbols};
///
/// let a = Nfa::literal(str_symbols("ab")).determinize();
/// let b = Nfa::literal(str_symbols("cd")).determinize();
/// let ab = concat(&a, &b);
/// assert!(ab.contains(str_symbols("abcd")));
/// assert!(!ab.contains(str_symbols("ab")));
/// ```
pub fn concat(first: &Dfa, second: &Dfa) -> Dfa {
    Nfa::from(first)
        .concat(Nfa::from(second))
        .determinize()
        .minimize()
}

impl Nfa {
    /// Crate-internal ε-edge helper for the ops module.
    pub(crate) fn add_epsilon_for_ops(&mut self, from: StateId, to: StateId) {
        self.states[from].epsilon.push(to);
    }

    /// Crate-internal start re-pointing for the ops module.
    pub(crate) fn set_start_for_ops(&mut self, start: StateId) {
        self.start = start;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::str_symbols;

    fn lit(s: &str) -> Dfa {
        Nfa::literal(str_symbols(s)).determinize()
    }

    #[test]
    fn reverse_of_reverse_is_identity() {
        let lang = lit("cat").union(&lit("dogs"));
        let back = reverse(&reverse(&lang));
        assert!(back.equivalent(&lang.minimize()));
    }

    #[test]
    fn reverse_star_language() {
        let lang = Nfa::literal(str_symbols("ab")).star().determinize();
        let rev = reverse(&lang);
        assert!(rev.contains(str_symbols("")));
        assert!(rev.contains(str_symbols("ba")));
        assert!(rev.contains(str_symbols("baba")));
        assert!(!rev.contains(str_symbols("ab")));
    }

    #[test]
    fn reverse_empty_language() {
        assert!(reverse(&Dfa::empty()).is_empty_language());
    }

    #[test]
    fn reverse_enables_suffix_queries() {
        // "strings ending in nitwit" = reverse(tiwtin · Σ*) — check the
        // building block: reverse of a literal.
        let rev = reverse(&lit("nitwit"));
        assert!(rev.contains(str_symbols("tiwtin")));
    }

    #[test]
    fn concat_matches_nfa_construction() {
        let got = concat(&lit("ab").union(&lit("a")), &lit("c"));
        for (input, expect) in [("abc", true), ("ac", true), ("abcc", false), ("c", false)] {
            assert_eq!(got.contains(str_symbols(input)), expect, "{input:?}");
        }
    }

    #[test]
    fn concat_with_epsilon_is_identity() {
        let lang = lit("xy");
        let eps = Nfa::epsilon().determinize();
        assert!(concat(&lang, &eps).equivalent(&lang));
        assert!(concat(&eps, &lang).equivalent(&lang));
    }
}
