//! Nondeterministic finite automata with ε-transitions.
//!
//! [`Nfa`] is the construction-side representation: the regex compiler
//! builds language fragments with the Thompson combinators ([`Nfa::union`],
//! [`Nfa::concat`], [`Nfa::star`], …) and then lowers to a [`Dfa`] with
//! [`Nfa::determinize`] for the algorithms that need deterministic
//! transitions (minimization, products, the ReLM graph compiler).

use std::collections::{BTreeSet, VecDeque};

use crate::{Dfa, StateId, Symbol};

/// A single NFA state: labelled transitions, ε-transitions, and an
/// accepting flag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NfaState {
    /// `(symbol, target)` pairs; duplicates allowed (nondeterminism).
    pub(crate) transitions: Vec<(Symbol, StateId)>,
    /// ε-transition targets.
    pub(crate) epsilon: Vec<StateId>,
    /// Whether this state accepts.
    pub(crate) accepting: bool,
}

/// A nondeterministic finite automaton with ε-transitions over `u32`
/// symbols.
///
/// Construction follows Thompson's algorithm: each combinator returns a
/// fresh automaton with a single start state; accepting states are tracked
/// per-state. The representation is optimized for *building* languages;
/// lower to [`Dfa`] via [`Nfa::determinize`] before running set operations
/// or traversals.
///
/// # Example
///
/// ```
/// use relm_automata::{Nfa, str_symbols};
///
/// let cat = Nfa::literal(str_symbols("cat"));
/// let dog = Nfa::literal(str_symbols("dog"));
/// let the = Nfa::literal(str_symbols("The "));
/// let query = the.concat(cat.union(dog));
/// assert!(query.contains(str_symbols("The cat")));
/// assert!(!query.contains(str_symbols("The cow")));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Nfa {
    pub(crate) states: Vec<NfaState>,
    pub(crate) start: StateId,
}

impl Nfa {
    /// The automaton accepting the empty language `∅` (no strings at all).
    pub fn empty() -> Self {
        Nfa {
            states: vec![NfaState::default()],
            start: 0,
        }
    }

    /// The automaton accepting exactly the empty string `ε`.
    pub fn epsilon() -> Self {
        let mut nfa = Nfa::empty();
        nfa.states[0].accepting = true;
        nfa
    }

    /// The automaton accepting exactly the single-symbol string `a`.
    pub fn symbol(a: Symbol) -> Self {
        let mut nfa = Nfa {
            states: vec![NfaState::default(), NfaState::default()],
            start: 0,
        };
        nfa.states[0].transitions.push((a, 1));
        nfa.states[1].accepting = true;
        nfa
    }

    /// The automaton accepting any single symbol from `symbols`
    /// (a character class such as `[a-z0-9]`).
    pub fn symbol_class<I: IntoIterator<Item = Symbol>>(symbols: I) -> Self {
        let mut nfa = Nfa {
            states: vec![NfaState::default(), NfaState::default()],
            start: 0,
        };
        for a in symbols {
            nfa.states[0].transitions.push((a, 1));
        }
        nfa.states[1].accepting = true;
        nfa
    }

    /// The automaton accepting exactly the given string of symbols.
    pub fn literal<I: IntoIterator<Item = Symbol>>(symbols: I) -> Self {
        let mut nfa = Nfa {
            states: vec![NfaState::default()],
            start: 0,
        };
        let mut cur = 0;
        for a in symbols {
            let next = nfa.push_state();
            nfa.states[cur].transitions.push((a, next));
            cur = next;
        }
        nfa.states[cur].accepting = true;
        nfa
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `state` is accepting.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.states[state].accepting
    }

    /// Iterate over the labelled transitions of `state` as
    /// `(symbol, target)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn transitions(&self, state: StateId) -> impl Iterator<Item = (Symbol, StateId)> + '_ {
        self.states[state].transitions.iter().copied()
    }

    /// Iterate over the ε-transition targets of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn epsilon_transitions(&self, state: StateId) -> impl Iterator<Item = StateId> + '_ {
        self.states[state].epsilon.iter().copied()
    }

    fn push_state(&mut self) -> StateId {
        self.states.push(NfaState::default());
        self.states.len() - 1
    }

    /// Append the states of `other`, returning `(offset, remapped_start)`
    /// where `offset` is the id shift applied to `other`'s states.
    fn absorb(&mut self, other: Nfa) -> (StateId, StateId) {
        let offset = self.states.len();
        for mut st in other.states {
            for (_, t) in &mut st.transitions {
                *t += offset;
            }
            for t in &mut st.epsilon {
                *t += offset;
            }
            self.states.push(st);
        }
        (offset, other.start + offset)
    }

    /// Language union: accepts any string accepted by `self` or `other`.
    #[must_use]
    pub fn union(mut self, other: Nfa) -> Nfa {
        let (_, other_start) = self.absorb(other);
        let new_start = self.push_state();
        self.states[new_start].epsilon.push(self.start);
        self.states[new_start].epsilon.push(other_start);
        self.start = new_start;
        self
    }

    /// Language concatenation: accepts `xy` for `x ∈ self`, `y ∈ other`.
    #[must_use]
    pub fn concat(mut self, other: Nfa) -> Nfa {
        let (offset, other_start) = self.absorb(other);
        // Previously-accepting states of `self` now ε-step into `other`.
        for id in 0..offset {
            if self.states[id].accepting {
                self.states[id].accepting = false;
                self.states[id].epsilon.push(other_start);
            }
        }
        self
    }

    /// Kleene star: zero or more repetitions.
    #[must_use]
    pub fn star(mut self) -> Nfa {
        let old_start = self.start;
        let new_start = self.push_state();
        self.states[new_start].accepting = true;
        self.states[new_start].epsilon.push(old_start);
        for id in 0..new_start {
            if self.states[id].accepting {
                self.states[id].epsilon.push(new_start);
            }
        }
        self.start = new_start;
        self
    }

    /// One or more repetitions (`a+` ≡ `aa*`).
    #[cfg(test)]
    pub(crate) fn plus(self) -> Nfa {
        let rep = self.clone();
        self.concat(rep.star())
    }

    /// Zero or one occurrence (`a?`).
    #[must_use]
    pub(crate) fn optional(self) -> Nfa {
        self.union(Nfa::epsilon())
    }

    /// Bounded repetition `a{min,max}`; `max = None` means unbounded
    /// (`a{min,}`).
    ///
    /// # Panics
    ///
    /// Panics if `max < min`.
    #[must_use]
    pub fn repeat(self, min: usize, max: Option<usize>) -> Nfa {
        if let Some(max) = max {
            assert!(max >= min, "repeat: max ({max}) < min ({min})");
        }
        let mut result = Nfa::epsilon();
        for _ in 0..min {
            result = result.concat(self.clone());
        }
        match max {
            None => result.concat(self.star()),
            Some(max) => {
                let mut optional_tail = Nfa::epsilon();
                for _ in min..max {
                    optional_tail = self.clone().concat(optional_tail).optional();
                }
                result.concat(optional_tail)
            }
        }
    }

    /// The ε-closure of a set of states: every state reachable through
    /// ε-transitions alone.
    fn epsilon_closure(&self, states: &BTreeSet<StateId>) -> BTreeSet<StateId> {
        let mut closure = states.clone();
        let mut queue: VecDeque<StateId> = states.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &t in &self.states[s].epsilon {
                if closure.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        closure
    }

    /// Membership test via on-the-fly subset simulation. `O(n·m)` for
    /// string length `n` and state count `m`; determinize first if you
    /// plan many queries.
    pub fn contains<I: IntoIterator<Item = Symbol>>(&self, symbols: I) -> bool {
        let mut current = self.epsilon_closure(&BTreeSet::from([self.start]));
        for a in symbols {
            let mut next = BTreeSet::new();
            for &s in &current {
                for &(sym, t) in &self.states[s].transitions {
                    if sym == a {
                        next.insert(t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            current = self.epsilon_closure(&next);
        }
        current.iter().any(|&s| self.states[s].accepting)
    }

    /// Subset construction: lower this NFA into an equivalent [`Dfa`].
    pub fn determinize(&self) -> Dfa {
        Dfa::from_nfa(self)
    }

    /// [`Nfa::determinize`]: compile runs on the calling thread, and
    /// `par` is ignored. Called by the `benches/e2e` harness
    /// (`audit_cold.rs`).
    pub fn determinize_with(&self, _par: crate::Parallelism) -> Dfa {
        self.determinize()
    }

    /// Add a labelled transition. Primarily used by graph-rewriting passes
    /// (e.g. the ReLM shortcut-edge compiler) that extend an existing
    /// automaton in place.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of bounds.
    pub fn add_transition(&mut self, from: StateId, symbol: Symbol, to: StateId) {
        assert!(from < self.states.len(), "`from` state out of bounds");
        assert!(to < self.states.len(), "`to` state out of bounds");
        self.states[from].transitions.push((symbol, to));
    }

    /// Add a fresh non-accepting state and return its id.
    pub fn add_state(&mut self) -> StateId {
        self.push_state()
    }

    /// Mark `state` as accepting or not.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.states[state].accepting = accepting;
    }
}

impl From<&Dfa> for Nfa {
    /// Re-express a DFA as an NFA accepting the same language, so that
    /// NFA-level constructions (preprocessors, Levenshtein expansion)
    /// compose with determinized intermediates.
    fn from(dfa: &Dfa) -> Nfa {
        let n = dfa.state_count().max(1);
        let mut nfa = Nfa::empty();
        for _ in 1..n {
            nfa.add_state();
        }
        for s in 0..dfa.state_count() {
            nfa.set_accepting(s, dfa.is_accepting(s));
            for (sym, t) in dfa.transitions(s) {
                nfa.add_transition(s, sym, t);
            }
        }
        nfa.start = dfa.start();
        nfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::str_symbols;

    fn s(text: &str) -> Vec<Symbol> {
        str_symbols(text)
    }

    #[test]
    fn empty_language_accepts_nothing() {
        let nfa = Nfa::empty();
        assert!(!nfa.contains(s("")));
        assert!(!nfa.contains(s("a")));
    }

    #[test]
    fn epsilon_accepts_only_empty_string() {
        let nfa = Nfa::epsilon();
        assert!(nfa.contains(s("")));
        assert!(!nfa.contains(s("a")));
    }

    #[test]
    fn literal_accepts_exactly_itself() {
        let nfa = Nfa::literal(s("The"));
        assert!(nfa.contains(s("The")));
        assert!(!nfa.contains(s("Th")));
        assert!(!nfa.contains(s("They")));
        assert!(!nfa.contains(s("")));
    }

    #[test]
    fn union_accepts_both_branches() {
        let nfa = Nfa::literal(s("cat")).union(Nfa::literal(s("dog")));
        assert!(nfa.contains(s("cat")));
        assert!(nfa.contains(s("dog")));
        assert!(!nfa.contains(s("catdog")));
    }

    #[test]
    fn concat_joins_languages() {
        let nfa = Nfa::literal(s("The ")).concat(Nfa::literal(s("cat")));
        assert!(nfa.contains(s("The cat")));
        assert!(!nfa.contains(s("The ")));
        assert!(!nfa.contains(s("cat")));
    }

    #[test]
    fn star_accepts_zero_or_more() {
        let nfa = Nfa::literal(s("ab")).star();
        for text in ["", "ab", "abab", "ababab"] {
            assert!(nfa.contains(s(text)), "should accept {text:?}");
        }
        assert!(!nfa.contains(s("a")));
        assert!(!nfa.contains(s("aba")));
    }

    #[test]
    fn plus_requires_at_least_one() {
        let nfa = Nfa::literal(s("ab")).plus();
        assert!(!nfa.contains(s("")));
        assert!(nfa.contains(s("ab")));
        assert!(nfa.contains(s("ababab")));
    }

    #[test]
    fn optional_accepts_empty_and_single() {
        let nfa = Nfa::literal(s("x")).optional();
        assert!(nfa.contains(s("")));
        assert!(nfa.contains(s("x")));
        assert!(!nfa.contains(s("xx")));
    }

    #[test]
    fn repeat_bounded_range() {
        // a{2,4}
        let nfa = Nfa::symbol(u32::from(b'a')).repeat(2, Some(4));
        assert!(!nfa.contains(s("a")));
        assert!(nfa.contains(s("aa")));
        assert!(nfa.contains(s("aaa")));
        assert!(nfa.contains(s("aaaa")));
        assert!(!nfa.contains(s("aaaaa")));
    }

    #[test]
    fn repeat_exact_count() {
        // [0-9]{3}
        let digit = Nfa::symbol_class((b'0'..=b'9').map(u32::from));
        let nfa = digit.repeat(3, Some(3));
        assert!(nfa.contains(s("555")));
        assert!(!nfa.contains(s("55")));
        assert!(!nfa.contains(s("5555")));
        assert!(!nfa.contains(s("55a")));
    }

    #[test]
    fn repeat_unbounded_min() {
        // a{2,}
        let nfa = Nfa::symbol(u32::from(b'a')).repeat(2, None);
        assert!(!nfa.contains(s("a")));
        assert!(nfa.contains(s("aa")));
        assert!(nfa.contains(s("aaaaaaa")));
    }

    #[test]
    #[should_panic(expected = "max")]
    fn repeat_rejects_inverted_bounds() {
        let _ = Nfa::symbol(0).repeat(3, Some(2));
    }

    #[test]
    fn symbol_class_accepts_each_member() {
        let nfa = Nfa::symbol_class([1, 2, 3]);
        assert!(nfa.contains([1]));
        assert!(nfa.contains([2]));
        assert!(nfa.contains([3]));
        assert!(!nfa.contains([4]));
        assert!(!nfa.contains([1, 2]));
    }

    #[test]
    fn phone_number_pattern() {
        // ([0-9]{3}) ([0-9]{3}) ([0-9]{4}) from Figure 4.
        let digit = || Nfa::symbol_class((b'0'..=b'9').map(u32::from));
        let space = || Nfa::symbol(u32::from(b' '));
        let nfa = digit()
            .repeat(3, Some(3))
            .concat(space())
            .concat(digit().repeat(3, Some(3)))
            .concat(space())
            .concat(digit().repeat(4, Some(4)));
        assert!(nfa.contains(s("555 555 5555")));
        assert!(!nfa.contains(s("555 555 555")));
        assert!(!nfa.contains(s("555-555-5555")));
    }

    #[test]
    fn manual_graph_edits() {
        let mut nfa = Nfa::literal(s("ab"));
        // Add a shortcut edge labelled 999 that skips straight to accept,
        // mimicking the token-compiler rewrite.
        let accept = (0..nfa.state_count())
            .find(|&i| nfa.is_accepting(i))
            .unwrap();
        nfa.add_transition(nfa.start(), 999, accept);
        assert!(nfa.contains([999]));
        assert!(nfa.contains(s("ab")));
    }
}
