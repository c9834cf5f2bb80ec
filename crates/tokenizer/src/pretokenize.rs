//! GPT-2-style pre-tokenization.
//!
//! BPE merges never cross pre-token boundaries. GPT-2 splits text with a
//! regex into chunks of the form "optional leading space + letters",
//! "optional leading space + digits", runs of punctuation, and whitespace
//! runs. We implement the same contract with a hand-rolled scanner (this
//! workspace's own regex engine matches whole strings, not substrings).

use std::ops::Range;

/// Split `text` into pre-tokens. Concatenating the pre-tokens yields the
/// original string exactly.
///
/// A pre-token is one of:
/// * an optional single leading space followed by a maximal run of ASCII
///   letters (`" the"`, `"Hello"`),
/// * an optional single leading space followed by a maximal run of ASCII
///   digits,
/// * an optional single leading space followed by a maximal run of other
///   non-whitespace bytes (punctuation, symbols),
/// * a maximal run of whitespace (when not absorbed as a leading space).
///
/// # Example
///
/// ```
/// use relm_bpe::pretokenize;
///
/// let parts = pretokenize("The cat, 42!");
/// assert_eq!(parts, vec!["The", " cat", ",", " 42", "!"]);
/// assert_eq!(parts.concat(), "The cat, 42!");
/// ```
pub fn pretokenize(text: &str) -> Vec<&str> {
    pieces(text.as_bytes()).map(|piece| &text[piece]).collect()
}

/// [`pretokenize`] over bytes that need not be UTF-8. Every byte from
/// 128 up counts as punctuation, so a boundary has an ASCII byte on at
/// least one side and never splits a UTF-8 character: the pieces of a
/// string's bytes are the bytes of its pieces.
pub(crate) fn pretokenize_bytes(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    pieces(bytes).map(move |piece| &bytes[piece])
}

/// The byte ranges of the pre-tokens of `bytes`, in order.
fn pieces(bytes: &[u8]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        if i == bytes.len() {
            return None;
        }
        let start = i;
        // Optionally absorb exactly one space if it precedes a
        // non-whitespace byte.
        let mut j = i;
        if bytes[j] == b' ' && j + 1 < bytes.len() && !bytes[j + 1].is_ascii_whitespace() {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_alphabetic() {
            while j < bytes.len() && bytes[j].is_ascii_alphabetic() {
                j += 1;
            }
        } else if j < bytes.len() && bytes[j].is_ascii_digit() {
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
        } else if j < bytes.len() && !bytes[j].is_ascii_whitespace() {
            while j < bytes.len()
                && !bytes[j].is_ascii_whitespace()
                && !bytes[j].is_ascii_alphanumeric()
            {
                j += 1;
            }
        } else {
            // Whitespace run. Mirror GPT-2's `\s+(?!\S)` rule: when the
            // run is followed by a word, leave the final space attached to
            // that word instead.
            j = i;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && j - i > 1 && bytes[j - 1] == b' ' {
                j -= 1;
            }
        }
        debug_assert!(j > start, "scanner must make progress");
        i = j;
        Some(start..j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_words_with_leading_spaces() {
        assert_eq!(pretokenize("the cat sat"), vec!["the", " cat", " sat"]);
    }

    #[test]
    fn digits_and_punctuation_separate() {
        assert_eq!(pretokenize("a1!b"), vec!["a", "1", "!", "b"]);
        assert_eq!(
            pretokenize("call 555 5555."),
            vec!["call", " 555", " 5555", "."]
        );
    }

    #[test]
    fn concatenation_is_lossless() {
        let samples = [
            "The cat, 42!",
            "  double  spaces  ",
            "https://www.example.com/a-b_c",
            "tabs\tand\nnewlines",
            "",
            " leading",
            "trailing ",
        ];
        for s in samples {
            assert_eq!(pretokenize(s).concat(), s, "lossless on {s:?}");
        }
    }

    #[test]
    fn whitespace_before_word_leaves_attaching_space() {
        assert_eq!(pretokenize("a  b"), vec!["a", " ", " b"]);
        assert_eq!(pretokenize("a \n b"), vec!["a", " \n", " b"]);
        assert_eq!(pretokenize("a\tb"), vec!["a", "\t", "b"]);
    }

    #[test]
    fn punctuation_run_with_leading_space() {
        assert_eq!(pretokenize("huh ?!"), vec!["huh", " ?!"]);
    }
}
