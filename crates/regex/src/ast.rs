//! The regular-expression syntax tree.

/// One item of a character class: a single byte or an inclusive range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassItem {
    /// A single literal byte.
    Byte(u8),
    /// An inclusive byte range, e.g. `a-z`.
    Range(u8, u8),
}

impl ClassItem {
    /// Iterate over the bytes this item covers.
    pub fn bytes(self) -> impl Iterator<Item = u8> {
        let (lo, hi) = match self {
            ClassItem::Byte(b) => (b, b),
            ClassItem::Range(lo, hi) => (lo, hi),
        };
        lo..=hi
    }
}

/// The abstract syntax tree of a parsed regular expression.
///
/// The constructors correspond directly to the regular-expression algebra
/// of §2.3 (Table 2 in the paper): symbols, concatenation, disjunction,
/// and repetition, plus the character-class and wildcard sugar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// The empty string `ε`.
    Empty,
    /// A single literal byte.
    Literal(u8),
    /// A character class; `negated` complements it over all bytes.
    Class {
        /// The member items (bytes and ranges).
        items: Vec<ClassItem>,
        /// Whether the class is negated (`[^…]`).
        negated: bool,
    },
    /// `.` — any byte except `\n`.
    AnyByte,
    /// Concatenation of subexpressions, in order.
    Concat(Vec<Ast>),
    /// Disjunction (`|`) of alternatives.
    Alternation(Vec<Ast>),
    /// Repetition of a subexpression: `{min, max}`; `max = None` is
    /// unbounded. `a*` is `{0, None}`, `a+` is `{1, None}`, `a?` is
    /// `{0, Some(1)}`.
    Repeat {
        /// The repeated subexpression.
        inner: Box<Ast>,
        /// Minimum repetitions.
        min: usize,
        /// Maximum repetitions; `None` means unbounded.
        max: Option<usize>,
    },
    /// An explicit group `(…)`. Semantically transparent (ReLM has no
    /// capture semantics) but preserved so patterns can be reprinted.
    Group(Box<Ast>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_item_bytes() {
        assert_eq!(
            ClassItem::Byte(b'x').bytes().collect::<Vec<_>>(),
            vec![b'x']
        );
        assert_eq!(
            ClassItem::Range(b'a', b'c').bytes().collect::<Vec<_>>(),
            vec![b'a', b'b', b'c']
        );
    }
}
