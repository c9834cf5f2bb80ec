//! Graphviz DOT export for automata, mirroring the diagrams in Figures 3
//! and 12 of the paper.

use std::fmt::Write as _;

use crate::{Dfa, Symbol};

/// Render a symbol for DOT labels: printable ASCII bytes appear as
/// characters (space as `␣`, like the paper's `Ġ`), everything else as a
/// number.
fn symbol_label(sym: Symbol, render: Option<&dyn Fn(Symbol) -> String>) -> String {
    if let Some(f) = render {
        return f(sym);
    }
    match u8::try_from(sym) {
        Ok(b' ') => "\u{2423}".to_string(),
        Ok(b) if b.is_ascii_graphic() => char::from(b).to_string(),
        _ => sym.to_string(),
    }
}

/// Serialize a [`Dfa`] as a Graphviz `digraph`.
pub fn dfa_to_dot(dfa: &Dfa, name: &str, render: Option<&dyn Fn(Symbol) -> String>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle];");
    let _ = writeln!(out, "  start [shape=point];");
    let _ = writeln!(out, "  start -> s{};", dfa.start());
    for s in 0..dfa.state_count() {
        if dfa.is_accepting(s) {
            let _ = writeln!(out, "  s{s} [shape=doublecircle];");
        }
        for (sym, t) in dfa.transitions(s) {
            let _ = writeln!(
                out,
                "  s{s} -> s{t} [label=\"{}\"];",
                symbol_label(sym, render)
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{str_symbols, Nfa};

    /// Serialize an [`Nfa`] as a Graphviz `digraph`.
    ///
    /// `render` optionally maps symbols to labels (e.g. token ids to token
    /// strings for LLM automata).
    fn nfa_to_dot(nfa: &Nfa, name: &str, render: Option<&dyn Fn(Symbol) -> String>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle];");
        let _ = writeln!(out, "  start [shape=point];");
        let _ = writeln!(out, "  start -> s{};", nfa.start());
        for s in 0..nfa.state_count() {
            if nfa.is_accepting(s) {
                let _ = writeln!(out, "  s{s} [shape=doublecircle];");
            }
            for (sym, t) in nfa.transitions(s) {
                let _ = writeln!(
                    out,
                    "  s{s} -> s{t} [label=\"{}\"];",
                    symbol_label(sym, render)
                );
            }
            for t in nfa.epsilon_transitions(s) {
                let _ = writeln!(out, "  s{s} -> s{t} [label=\"\u{03b5}\", style=dashed];");
            }
        }
        let _ = writeln!(out, "}}");
        out
    }

    #[test]
    fn nfa_dot_contains_states_and_edges() {
        let nfa = Nfa::literal(str_symbols("ab"));
        let dot = nfa_to_dot(&nfa, "g", None);
        assert!(dot.contains("digraph g {"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("label=\"b\""));
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn dfa_dot_space_rendered_visibly() {
        let dfa = Nfa::literal(str_symbols("a b")).determinize();
        let dot = dfa_to_dot(&dfa, "g", None);
        assert!(dot.contains('\u{2423}'));
    }

    #[test]
    fn custom_renderer_used() {
        let nfa = Nfa::symbol(42);
        let render = |s: Symbol| format!("tok{s}");
        let dot = nfa_to_dot(&nfa, "g", Some(&render));
        assert!(dot.contains("tok42"));
    }

    #[test]
    fn epsilon_edges_dashed() {
        let nfa = Nfa::literal(str_symbols("a")).union(Nfa::literal(str_symbols("b")));
        let dot = nfa_to_dot(&nfa, "g", None);
        assert!(dot.contains("style=dashed"));
    }
}
