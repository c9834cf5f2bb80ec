//! A small finite-state-transducer layer (§2.3, §3.4 of the paper).
//!
//! Transducers map one language to another; the paper uses them to model
//! both the tokenizer (strings → token sequences) and query preprocessors
//! (synonym substitution, character normalization). [`Fst`] here supports
//! building rewrite rules and taking the *image* of a regular language
//! under the transducer ([`Fst::apply`], a one-sided composition). No
//! query preprocessor uses it: the Levenshtein and filter preprocessors
//! rewrite automata directly.
//!
//! Specialized constructions that would be inefficient as generic
//! compositions (Levenshtein automata, the BPE shortcut compiler) are
//! implemented directly elsewhere; this type covers the general case.

use std::collections::VecDeque;

use crate::{Nfa, StateId, Symbol};

/// A transition of an [`Fst`]: consumes `input` (or nothing, if `None`)
/// and emits `output` (or nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FstArc {
    /// Consumed symbol; `None` is an ε-input (emit without consuming).
    pub input: Option<Symbol>,
    /// Emitted symbol; `None` emits nothing (deletion).
    pub output: Option<Symbol>,
    /// Destination state.
    pub target: StateId,
}

#[derive(Debug, Clone, Default)]
struct FstState {
    arcs: Vec<FstArc>,
    accepting: bool,
}

/// A finite-state transducer over `u32` symbols.
///
/// # Example
///
/// ```
/// use relm_automata::{Fst, Nfa, str_symbols, symbols_to_string};
///
/// // Rewrite 'a' -> 'A', pass everything else through.
/// let mut fst = Fst::identity((b'a'..=b'z').map(u32::from));
/// fst.add_rule(u32::from(b'a'), Some(u32::from(b'A')));
/// let image = fst.apply(&Nfa::literal(str_symbols("cab"))).determinize();
/// assert!(image.contains(str_symbols("cAb")));
/// assert!(!image.contains(str_symbols("cab")));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fst {
    states: Vec<FstState>,
    start: StateId,
}

impl Fst {
    /// A transducer with a single accepting state and no arcs (maps the
    /// empty string to the empty string and rejects everything else).
    pub fn new() -> Self {
        Fst {
            states: vec![FstState {
                arcs: Vec::new(),
                accepting: true,
            }],
            start: 0,
        }
    }

    /// The identity transducer over `alphabet`: maps every string over the
    /// alphabet to itself. Rewrite rules can then be layered on with
    /// [`Fst::add_rule`].
    pub fn identity<I: IntoIterator<Item = Symbol>>(alphabet: I) -> Self {
        let mut fst = Fst::new();
        for a in alphabet {
            fst.states[0].arcs.push(FstArc {
                input: Some(a),
                output: Some(a),
                target: 0,
            });
        }
        fst
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Replace the single-symbol rule for `input` at the start state:
    /// consuming `input` now emits `output` (`None` deletes it).
    ///
    /// For an identity transducer this turns "pass `input` through" into
    /// "rewrite `input`".
    pub fn add_rule(&mut self, input: Symbol, output: Option<Symbol>) {
        for arc in &mut self.states[self.start].arcs {
            if arc.input == Some(input) {
                arc.output = output;
                return;
            }
        }
        self.states[self.start].arcs.push(FstArc {
            input: Some(input),
            output,
            target: self.start,
        });
    }

    /// Add an arbitrary arc between explicit states.
    ///
    /// # Panics
    ///
    /// Panics if `from` or the arc target is out of bounds.
    pub fn add_arc(&mut self, from: StateId, arc: FstArc) {
        assert!(from < self.states.len(), "`from` out of bounds");
        assert!(arc.target < self.states.len(), "target out of bounds");
        self.states[from].arcs.push(arc);
    }

    /// Add a fresh non-accepting state.
    pub fn add_state(&mut self) -> StateId {
        self.states.push(FstState::default());
        self.states.len() - 1
    }

    /// Mark a state accepting.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.states[state].accepting = accepting;
    }

    /// The image of `language` under this transducer: the language of all
    /// outputs producible while consuming some string of `language`.
    ///
    /// This is the composition `language ∘ fst` projected onto outputs,
    /// computed as a lazily-explored product of the two machines.
    pub fn apply(&self, language: &Nfa) -> Nfa {
        // Product state space: (nfa state, fst state).
        let mut out = Nfa::empty();
        let mut ids = std::collections::HashMap::new();
        let start = (language.start(), self.start);
        ids.insert(start, out.start());
        let mut queue = VecDeque::from([start]);

        while let Some((qn, qf)) = queue.pop_front() {
            let here = ids[&(qn, qf)];
            if language.is_accepting(qn) && self.states[qf].accepting {
                out.set_accepting(here, true);
            }
            let mut push = |key: (StateId, StateId),
                            out: &mut Nfa,
                            queue: &mut VecDeque<(StateId, StateId)>|
             -> StateId {
                *ids.entry(key).or_insert_with(|| {
                    queue.push_back(key);
                    out.add_state()
                })
            };
            // ε-moves of the language NFA (FST stays put).
            for t in language.epsilon_transitions(qn) {
                let id = push((t, qf), &mut out, &mut queue);
                add_epsilon(&mut out, here, id);
            }
            for arc in &self.states[qf].arcs {
                match arc.input {
                    None => {
                        // FST ε-input: emit without consuming.
                        let id = push((qn, arc.target), &mut out, &mut queue);
                        match arc.output {
                            Some(o) => out.add_transition(here, o, id),
                            None => add_epsilon(&mut out, here, id),
                        }
                    }
                    Some(sym) => {
                        for (ls, lt) in language.transitions(qn) {
                            if ls == sym {
                                let id = push((lt, arc.target), &mut out, &mut queue);
                                match arc.output {
                                    Some(o) => out.add_transition(here, o, id),
                                    None => add_epsilon(&mut out, here, id),
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

fn add_epsilon(nfa: &mut Nfa, from: usize, to: usize) {
    nfa.states[from].epsilon.push(to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::str_symbols;

    fn lower() -> impl Iterator<Item = Symbol> {
        (b'a'..=b'z').map(u32::from)
    }

    #[test]
    fn identity_maps_language_to_itself() {
        let fst = Fst::identity(lower());
        let lang = Nfa::literal(str_symbols("dog")).union(Nfa::literal(str_symbols("cat")));
        let image = fst.apply(&lang).determinize();
        assert!(image.contains(str_symbols("dog")));
        assert!(image.contains(str_symbols("cat")));
        assert!(!image.contains(str_symbols("cow")));
    }

    #[test]
    fn substitution_rule_rewrites() {
        let mut fst = Fst::identity(lower());
        fst.add_rule(u32::from(b'o'), Some(u32::from(b'0')));
        let image = fst.apply(&Nfa::literal(str_symbols("dog"))).determinize();
        assert!(image.contains(str_symbols("d0g")));
        assert!(!image.contains(str_symbols("dog")));
    }

    #[test]
    fn deletion_rule_removes_symbol() {
        let mut fst = Fst::identity(lower());
        fst.add_rule(u32::from(b'-'), None);
        // '-' not in identity alphabet yet, so add_rule created it fresh.
        let lang = Nfa::literal(str_symbols("a-b"));
        let image = fst.apply(&lang).determinize();
        assert!(image.contains(str_symbols("ab")));
    }

    #[test]
    fn epsilon_input_inserts_output() {
        // A transducer that optionally prepends '!' once.
        let mut fst = Fst::identity(lower());
        let body = 0; // identity loop state (start, accepting)
        let pre = fst.add_state();
        // Move the start: emit '!' from a new start into the identity body.
        fst.set_accepting(pre, false);
        fst.add_arc(
            pre,
            FstArc {
                input: None,
                output: Some(u32::from(b'!')),
                target: body,
            },
        );
        fst.start = pre;
        let image = fst.apply(&Nfa::literal(str_symbols("hi"))).determinize();
        assert!(image.contains(str_symbols("!hi")));
        assert!(!image.contains(str_symbols("hi")));
    }

    #[test]
    fn apply_to_empty_language_is_empty() {
        let fst = Fst::identity(lower());
        let image = fst.apply(&Nfa::empty()).determinize();
        assert!(image.is_empty_language());
    }

    #[test]
    fn image_of_star_language() {
        let mut fst = Fst::identity(lower());
        fst.add_rule(u32::from(b'a'), Some(u32::from(b'b')));
        let image = fst
            .apply(&Nfa::literal(str_symbols("a")).star())
            .determinize();
        assert!(image.contains(str_symbols("")));
        assert!(image.contains(str_symbols("bbb")));
        assert!(!image.contains(str_symbols("aa")));
    }
}
