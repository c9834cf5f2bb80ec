//! Finite automata and graph algorithms for ReLM-rs.
//!
//! This crate is the formal-language substrate of the ReLM reproduction
//! (Kuchnik et al., MLSys 2023). It provides:
//!
//! * [`Nfa`] — nondeterministic finite automata with ε-transitions and the
//!   Thompson-construction combinators used by the regex compiler,
//! * [`Dfa`] — deterministic automata with subset construction, Hopcroft
//!   minimization, product operations (intersection, union, difference),
//!   complementation, and language enumeration,
//! * [`WalkTable`] — combinatorial walk counting (§3.3 of the paper) used
//!   to weigh edges so that random traversals sample *strings* uniformly
//!   rather than *edges* uniformly,
//! * [`levenshtein_within`] — Levenshtein automata (§3.4) describing all
//!   strings within a bounded edit distance of a regular language,
//! * [`Parallelism`] / [`WorkerPool`] — the workspace's worker pool. In
//!   this crate only walk-table rows split their work, into contiguous
//!   state ranges merged in range order, so a parallel table is
//!   bit-identical to a serial one; subset construction and products run
//!   on the calling thread.
//!
//! Symbols are plain `u32`s: byte values `0..=255` for character-level
//! automata and token identifiers for LLM (token-level) automata. The same
//! graph machinery therefore serves both the *Natural Language Automaton*
//! and the *LLM Automaton* of the paper.
//!
//! # Example
//!
//! ```
//! use relm_automata::Nfa;
//!
//! // (ab|c)* over bytes
//! let ab = Nfa::literal("ab".bytes().map(u32::from));
//! let c = Nfa::literal("c".bytes().map(u32::from));
//! let lang = ab.union(c).star();
//! let dfa = lang.determinize().minimize();
//! assert!(dfa.contains("abcab".bytes().map(u32::from)));
//! assert!(!dfa.contains("ba".bytes().map(u32::from)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dfa;
mod dot;
mod levenshtein;
mod nfa;
mod ops;
pub mod pool;
mod walks;

pub use dfa::Dfa;
pub use dot::dfa_to_dot;
pub use levenshtein::levenshtein_within;
pub use nfa::Nfa;
pub use ops::{concat, reverse};
pub use pool::{Parallelism, WorkerPool};
pub use walks::{WalkChoice, WalkTable};

/// Identifier of an automaton state (an index into the state table).
pub type StateId = usize;

/// A transition label. Byte values (`0..=255`) for character-level automata,
/// token ids for LLM automata.
pub type Symbol = u32;

/// The printable-ASCII alphabet (space through `~`), a convenient universe
/// for tests and for edit-automata over natural-language text.
pub fn ascii_alphabet() -> Vec<Symbol> {
    (0x20u32..=0x7e).collect()
}

/// Convert a `&str` into the byte-symbol sequence used by character
/// automata in this crate.
pub fn str_symbols(s: &str) -> Vec<Symbol> {
    s.bytes().map(u32::from).collect()
}
