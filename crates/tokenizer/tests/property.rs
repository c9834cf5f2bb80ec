//! Property tests for the BPE tokenizer: lossless round trips, canonical
//! stability, and enumeration completeness on arbitrary text.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use proptest::prelude::*;
use relm_bpe::{pretokenize, BpeTokenizer};

fn trained() -> BpeTokenizer {
    BpeTokenizer::train(
        "the cat sat on the mat. the dog sat on the log. \
         numbers 123 456 and symbols !? here. the the the and and and",
        120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pre-tokenization is lossless on arbitrary printable text.
    #[test]
    fn pretokenize_lossless(text in "[ -~\\t\\n]{0,40}") {
        prop_assert_eq!(pretokenize(&text).concat(), text);
    }

    /// Pre-tokens never start mid-word: every boundary falls between a
    /// non-letter and a letter, after a space, or at a category change.
    #[test]
    fn pretokens_nonempty(text in "[ -~]{0,40}") {
        for piece in pretokenize(&text) {
            prop_assert!(!piece.is_empty());
        }
    }

    /// encode → decode is the identity on arbitrary printable text,
    /// even for byte sequences never seen in training.
    #[test]
    fn encode_decode_round_trip(text in "[ -~\\t\\n]{0,48}") {
        let tok = trained();
        prop_assert_eq!(tok.decode(&tok.encode(&text)), text);
    }

    /// The canonical encoding is stable: re-encoding its decode yields
    /// the same ids (§3.2's definition of canonicality).
    #[test]
    fn canonical_encoding_is_stable(text in "[a-z ]{0,24}") {
        let tok = trained();
        let ids = tok.encode(&text);
        prop_assert!(tok.is_canonical(&ids));
        prop_assert_eq!(tok.encode(&tok.decode(&ids)), ids);
    }

    /// Every enumerated encoding decodes to the source, includes the
    /// canonical one, and the count matches the DP.
    #[test]
    fn all_encodings_complete_and_sound(text in "[at ]{0,7}") {
        let tok = trained();
        let all = tok.all_encodings(&text, 100_000);
        let canonical = tok.encode(&text);
        prop_assert!(all.contains(&canonical));
        let mut seen = std::collections::HashSet::new();
        for enc in &all {
            prop_assert_eq!(tok.decode(enc), text.clone());
            prop_assert!(seen.insert(enc.clone()), "duplicate encoding");
        }
        prop_assert_eq!(all.len() as u128, tok.count_encodings(&text));
    }

    /// No token id outside the vocabulary is ever produced.
    #[test]
    fn encode_ids_in_range(text in "[ -~]{0,32}") {
        let tok = trained();
        for id in tok.encode(&text) {
            prop_assert!((id as usize) < tok.vocab_size());
            prop_assert!(id != tok.eos(), "encode must not emit EOS");
        }
    }

    /// No two vocabulary items share bytes (BPE merges are unique), so
    /// a bytes -> id lookup inverts token_bytes for every item.
    #[test]
    fn vocab_lookup_inverts(_x in 0..1u8) {
        let tok = trained();
        let mut lookup = HashMap::new();
        for (id, bytes) in tok.iter_vocab() {
            prop_assert_eq!(tok.token_bytes(id), bytes);
            prop_assert_eq!(lookup.insert(bytes.to_vec(), id), None);
        }
    }

    /// Training more merges never lengthens canonical encodings.
    #[test]
    fn more_merges_never_longer(text in "[a-z ]{0,24}") {
        let corpus = "the cat sat on the mat. the dog sat on the log. \
                      the the the and and and";
        let small = BpeTokenizer::train(corpus, 20);
        let large = BpeTokenizer::train(corpus, 120);
        prop_assert!(large.encode(&text).len() <= small.encode(&text).len());
    }
}

/// The pair rule — a token sequence is canonical iff every token and
/// every adjacent pair is — does not hold under this pre-tokenizer: a
/// whitespace byte before a non-whitespace byte joins the next piece,
/// so a pair can be non-canonical alone and canonical in context. The
/// smallest counterexamples found, for the pair and for windows of
/// three tokens (DESIGN.md "Substitutions").
#[test]
fn canonicity_is_not_decided_by_token_windows() {
    // "\t 1" pre-tokenizes as "\t", " 1": [\t, ' ', 1] is canonical,
    // while "\t " alone is one whitespace run and merges.
    let tok = BpeTokenizer::from_merges(&[(9, 32)]);
    assert!(tok.is_canonical(&[9, 32, 49]));
    assert!(!tok.is_canonical(&[9, 32]));
    // "a\n b" pre-tokenizes as "a", "\n", " b", but the window "a\n "
    // ends in the whitespace run "\n ", which merges.
    let tok = BpeTokenizer::from_merges(&[(10, 32)]);
    assert!(tok.is_canonical(&[97, 10, 32, 98]));
    assert!(!tok.is_canonical(&[97, 10, 32]));
}
