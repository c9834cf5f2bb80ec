//! The crate error type.

use std::error::Error;
use std::fmt;

use relm_regex::ParseRegexError;

/// Errors returned by ReLM query compilation and execution.
///
/// The enum is `#[non_exhaustive]`: downstream `match`es must carry a
/// wildcard arm, so new failure modes can be added without a breaking
/// release. For stable programmatic dispatch, prefer
/// [`RelmError::kind`] — the [`RelmErrorKind`] classification is the
/// supported way to branch on "what went wrong" without matching
/// variant payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RelmError {
    /// The query pattern (or prefix pattern) failed to parse.
    Regex(ParseRegexError),
    /// The query language is empty — no string can ever match.
    EmptyLanguage,
    /// The prefix language is empty while a prefix was requested.
    EmptyPrefixLanguage,
    /// Query parameters are inconsistent (message explains).
    InvalidQuery(String),
    /// A plan-store operation failed (message carries the underlying
    /// [`relm_store::StoreError`]). Only *explicit* store operations
    /// (preload, cache snapshot/restore) surface this; the implicit
    /// store consult inside [`crate::Relm::plan`] treats every
    /// store failure as "no usable artifact" and falls back to
    /// compilation.
    Store(String),
}

/// The stable, payload-free classification of a [`RelmError`] — what
/// downstream code should branch on. Also `#[non_exhaustive]`; a
/// wildcard arm stays mandatory, but existing kinds never change
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RelmErrorKind {
    /// A pattern failed to parse.
    Pattern,
    /// The query (or prefix) language is empty.
    EmptyLanguage,
    /// The query's parameters, plan, model, and tokenizer do not fit
    /// together.
    InvalidQuery,
    /// A warm-artifact store operation failed (I/O or a corrupt,
    /// stale, or mismatched artifact surfaced by an explicit store
    /// call).
    Store,
}

impl RelmError {
    /// Classify this error. Stable across releases even as new
    /// `RelmError` variants appear (each new variant maps to an
    /// existing kind or adds a new one).
    pub fn kind(&self) -> RelmErrorKind {
        match self {
            RelmError::Regex(_) => RelmErrorKind::Pattern,
            RelmError::EmptyLanguage | RelmError::EmptyPrefixLanguage => {
                RelmErrorKind::EmptyLanguage
            }
            RelmError::InvalidQuery(_) => RelmErrorKind::InvalidQuery,
            RelmError::Store(_) => RelmErrorKind::Store,
        }
    }
}

impl fmt::Display for RelmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelmError::Regex(e) => write!(f, "invalid pattern: {e}"),
            RelmError::EmptyLanguage => write!(f, "query language is empty"),
            RelmError::EmptyPrefixLanguage => write!(f, "prefix language is empty"),
            RelmError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            RelmError::Store(msg) => write!(f, "plan store: {msg}"),
        }
    }
}

impl Error for RelmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RelmError::Regex(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseRegexError> for RelmError {
    fn from(e: ParseRegexError) -> Self {
        RelmError::Regex(e)
    }
}

impl From<relm_store::StoreError> for RelmError {
    fn from(e: relm_store::StoreError) -> Self {
        RelmError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RelmError::EmptyLanguage.to_string().contains("empty"));
        assert!(RelmError::InvalidQuery("bad".into())
            .to_string()
            .contains("bad"));
        let parse_err = relm_regex::parse("a(").unwrap_err();
        let e: RelmError = parse_err.into();
        assert!(e.to_string().contains("invalid pattern"));
    }

    #[test]
    fn kinds_classify_all_variants() {
        assert_eq!(
            RelmError::EmptyLanguage.kind(),
            RelmErrorKind::EmptyLanguage
        );
        assert_eq!(
            RelmError::EmptyPrefixLanguage.kind(),
            RelmErrorKind::EmptyLanguage
        );
        assert_eq!(
            RelmError::InvalidQuery("x".into()).kind(),
            RelmErrorKind::InvalidQuery
        );
        let parse_err = relm_regex::parse("a(").unwrap_err();
        assert_eq!(RelmError::from(parse_err).kind(), RelmErrorKind::Pattern);
        let store_err = RelmError::from(relm_store::StoreError::WrongMagic);
        assert_eq!(store_err.kind(), RelmErrorKind::Store);
        assert!(store_err.to_string().contains("plan store"));
    }

    #[test]
    fn source_chains_for_regex() {
        use std::error::Error as _;
        let parse_err = relm_regex::parse("a(").unwrap_err();
        let e = RelmError::from(parse_err);
        assert!(e.source().is_some());
        assert!(RelmError::EmptyLanguage.source().is_none());
    }
}
