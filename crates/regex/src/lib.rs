//! Regular-expression front end for ReLM-rs.
//!
//! ReLM queries are written as standard regular expressions (§2.3 / §3.1 of
//! the paper, syntax summarized in the paper's Table 2). This crate parses
//! that syntax into an [`Ast`] and compiles it to a byte-level
//! [`relm_automata::Nfa`] — the paper's *Natural Language Automaton* —
//! via Thompson's construction.
//!
//! Supported syntax (matching the queries used throughout the paper):
//!
//! * literals and concatenation: `The cat`
//! * disjunction: `(cat)|(dog)`
//! * grouping: `(...)`
//! * repetition: `a*`, `a+`, `a?`, `a{3}`, `a{1,2}`, `a{2,}`
//! * character classes: `[a-zA-Z0-9]`, `[^0-9]`, with ranges and literals
//! * wildcard: `.` (any byte except newline)
//! * escapes: `\.` `\?` `\|` `\(` `\)` `\[` `\]` `\{` `\}` `\*` `\+` `\\`
//!   `\-` `\n` `\t` `\r` and the classes `\d` `\w` `\s` (and negations
//!   `\D` `\W` `\S`)
//!
//! # Example
//!
//! ```
//! use relm_regex::Regex;
//!
//! let re = Regex::compile("My phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})")?;
//! assert!(re.is_match("My phone number is 555 555 5555"));
//! assert!(!re.is_match("My phone number is 555-555-5555"));
//! # Ok::<(), relm_regex::ParseRegexError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod compile;
mod parser;

pub use ast::{Ast, ClassItem};
pub use compile::compile_ast;
pub use parser::{parse, ParseRegexError};

use std::sync::OnceLock;

use relm_automata::{Dfa, Nfa};

/// A compiled regular expression: the parsed [`Ast`] plus its byte-level
/// automata.
///
/// The [`Nfa`] is kept for constructions that operate on the Thompson
/// graph (Levenshtein preprocessing); the minimized [`Dfa`] backs
/// membership tests. The DFA is built on first use ([`Regex::dfa`] or
/// [`Regex::is_match`]) and kept: the query compiler reads only the NFA,
/// so a query never pays for a DFA nobody looks at.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    ast: Ast,
    nfa: Nfa,
    dfa: OnceLock<Dfa>,
}

impl Regex {
    /// Parse `pattern` and compile it to its Thompson NFA. The minimized
    /// DFA is not built here but on first use.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRegexError`] when the pattern is syntactically
    /// invalid (unbalanced parentheses, bad repetition bounds, trailing
    /// escapes, …).
    pub fn compile(pattern: &str) -> Result<Self, ParseRegexError> {
        let ast = parse(pattern)?;
        let nfa = compile_ast(&ast);
        Ok(Regex {
            pattern: pattern.to_owned(),
            ast,
            nfa,
            dfa: OnceLock::new(),
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The parsed syntax tree.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// The Thompson NFA over bytes.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The minimized DFA over bytes: `nfa().determinize().minimize()`,
    /// built on the first call and kept (a clone taken afterwards
    /// carries it along).
    pub fn dfa(&self) -> &Dfa {
        self.dfa.get_or_init(|| self.nfa.determinize().minimize())
    }

    /// Whole-string match test (ReLM queries are always anchored: the
    /// query language *is* the set of matching strings).
    pub fn is_match(&self, text: &str) -> bool {
        self.dfa().contains(text.bytes().map(u32::from))
    }
}

/// Escape a literal string so it matches itself when embedded in a
/// pattern. Used when constructing queries from data (e.g. building
/// toxicity prompts from Pile sentences, §4.3).
///
/// # Example
///
/// ```
/// use relm_regex::{escape, Regex};
///
/// let re = Regex::compile(&escape("a+b (c)"))?;
/// assert!(re.is_match("a+b (c)"));
/// # Ok::<(), relm_regex::ParseRegexError>(())
/// ```
pub fn escape(literal: &str) -> String {
    let mut out = String::with_capacity(literal.len() * 2);
    for c in literal.chars() {
        if matches!(
            c,
            '\\' | '.'
                | '?'
                | '*'
                | '+'
                | '|'
                | '('
                | ')'
                | '['
                | ']'
                | '{'
                | '}'
                | '^'
                | '$'
                | '-'
        ) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Build the disjunction pattern `(w1)|(w2)|…` from a word list — the
/// construction the paper's `words` strategy uses for LAMBADA (§4.4).
pub fn disjunction_of<I, S>(words: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut parts: Vec<String> = words
        .into_iter()
        .map(|w| format!("({})", escape(w.as_ref())))
        .collect();
    parts.sort();
    parts.dedup();
    parts.join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_specials() {
        let s = "a.b?c*d+e|f(g)h[i]j{k}l\\m-n^o$p";
        let re = Regex::compile(&escape(s)).unwrap();
        assert!(re.is_match(s));
        assert!(!re.is_match("axb?c*d+e|f(g)h[i]j{k}l\\m-n^o$p"));
    }

    #[test]
    fn dfa_is_built_on_first_use() {
        let re = Regex::compile("The ((cat)|(dog)) sat( down)?").unwrap();
        let before = re.clone();
        assert_eq!(re.dfa(), &re.nfa().determinize().minimize());
        let after = re.clone();
        assert_eq!(before.dfa(), re.dfa());
        assert_eq!(after.dfa(), re.dfa());
        // `is_match` on a value whose `dfa()` was never called.
        let fresh = Regex::compile("The ((cat)|(dog)) sat( down)?").unwrap();
        assert!(fresh.is_match("The dog sat down"));
        assert!(!fresh.is_match("The cow sat"));
    }

    #[test]
    fn disjunction_sorted_and_deduped() {
        let pat = disjunction_of(["dog", "cat", "dog"]);
        assert_eq!(pat, "(cat)|(dog)");
        let re = Regex::compile(&pat).unwrap();
        assert!(re.is_match("cat"));
        assert!(re.is_match("dog"));
        assert!(!re.is_match("cow"));
    }

    #[test]
    fn george_washington_query_from_figure_11() {
        let months = "((January)|(February)|(March)|(April)|(May)|(June)|(July)|(August)|(September)|(October)|(November)|(December))";
        let pattern = format!("George Washington was born on {months} [0-9]{{1,2}}, [0-9]{{4}}");
        let re = Regex::compile(&pattern).unwrap();
        assert!(re.is_match("George Washington was born on February 22, 1732"));
        assert!(re.is_match("George Washington was born on July 4, 1732"));
        assert!(!re.is_match("George Washington was born on Feb 22, 1732"));
        assert!(!re.is_match("George Washington was born on February 22, 32"));
    }

    #[test]
    fn url_pattern_from_section_4_1() {
        let re = Regex::compile("https://www\\.([a-zA-Z0-9]|_|-|#|%)+\\.([a-zA-Z0-9]|_|-|#|%|/)+")
            .unwrap();
        assert!(re.is_match("https://www.example.com"));
        assert!(re.is_match("https://www.npr.org/sections"));
        assert!(!re.is_match("http://www.example.com"));
        assert!(!re.is_match("https://www..com"));
    }
}
