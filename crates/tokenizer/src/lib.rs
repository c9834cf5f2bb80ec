//! Byte-level byte-pair-encoding (BPE) tokenizer for ReLM-rs.
//!
//! GPT-2 tokenizes text with byte-level BPE (Gage 1994; Radford et al.
//! 2019): the base vocabulary is the 256 byte values, and a learned list
//! of *merges* combines adjacent token pairs into longer subword tokens.
//! A string of `n` bytes therefore has up to `2^(n-1)` valid tokenizations
//! — the *full set of encodings* — of which the encoder's greedy merge
//! order produces exactly one, the *canonical* encoding (§3.2 of the
//! paper).
//!
//! The paper's ReLM engine needs more from a tokenizer than `encode` /
//! `decode`: the graph compiler enumerates which vocabulary items can
//! realize which substrings, and the executor must distinguish canonical
//! from non-canonical token sequences. This crate provides:
//!
//! * [`BpeTokenizer::train`] — learn a merge table from a corpus (our
//!   substitute for shipping GPT-2's proprietary vocabulary file),
//! * [`BpeTokenizer::encode`] / [`BpeTokenizer::decode`] — canonical
//!   round-trip, and [`BpeTokenizer::encode_bytes`] /
//!   [`BpeTokenizer::decode_bytes`] for the byte strings of a byte
//!   language that are not UTF-8,
//! * [`BpeTokenizer::all_encodings`] — enumerate every token sequence
//!   that decodes to a given string,
//! * [`BpeTokenizer::is_canonical`] — the §3.2 stability check,
//! * [`VocabTrie`] — the text tokens as one byte trie, which the
//!   shortcut-edge compiler walks in lockstep with a byte automaton.
//!
//! # Example
//!
//! ```
//! use relm_bpe::BpeTokenizer;
//!
//! let corpus = "the cat sat on the mat. the dog sat on the log.";
//! let tok = BpeTokenizer::train(corpus, 50);
//! let ids = tok.encode("the cat");
//! assert_eq!(tok.decode(&ids), "the cat");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bpe;
mod pretokenize;
mod train;

pub use bpe::{BpeTokenizer, TokenId, VocabTrie};
pub use pretokenize::pretokenize;

/// FNV-1a 64-bit offset basis — the initial state for [`fnv_mix`].
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over the little-endian bytes of `v`.
///
/// The single fingerprint primitive shared by [`BpeTokenizer::fingerprint`]
/// and the downstream cache keys built on it (preprocessor fingerprints,
/// the session plan-memo key), so all of them stay algorithmically in
/// lockstep. Stable across runs and platforms.
pub fn fnv_mix(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}
