//! The byte-pair-encoding tokenizer proper.

use std::collections::HashMap;

use crate::pretokenize::pretokenize_bytes;

/// Identifier of a vocabulary token. Ids `0..=255` are the byte base
/// vocabulary; merged tokens follow; the end-of-sequence marker is last.
pub type TokenId = u32;

/// A trained byte-level BPE tokenizer.
///
/// See the crate docs for background. Construct with
/// [`BpeTokenizer::train`] (or [`BpeTokenizer::from_merges`] for a fixed
/// merge table), then use [`encode`](Self::encode) /
/// [`decode`](Self::decode) for the canonical round trip and
/// [`all_encodings`](Self::all_encodings) to enumerate the ambiguous
/// tokenizations the ReLM compiler reasons about.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    /// `id -> bytes` for every token.
    vocab: Vec<Vec<u8>>,
    /// Merge rules in priority order: merging `(left, right)` yields
    /// `result`.
    merges: Vec<(TokenId, TokenId, TokenId)>,
    /// `(left, right) -> (rank, result)` for the encoder.
    merge_lookup: HashMap<(TokenId, TokenId), (usize, TokenId)>,
    /// `bytes -> id` for segmentation enumeration.
    bytes_lookup: HashMap<Vec<u8>, TokenId>,
    /// End-of-sequence token id.
    eos: TokenId,
    /// Length in bytes of the longest token.
    max_token_len: usize,
}

impl BpeTokenizer {
    /// Build a tokenizer from an explicit merge table. Each merge names
    /// two existing token ids; the merged token's bytes are their
    /// concatenation.
    ///
    /// # Panics
    ///
    /// Panics if a merge references a token id that does not exist yet.
    pub fn from_merges(merges: &[(TokenId, TokenId)]) -> Self {
        let mut vocab: Vec<Vec<u8>> = (0u16..256).map(|b| vec![b as u8]).collect();
        let mut table = Vec::with_capacity(merges.len());
        let mut lookup = HashMap::with_capacity(merges.len());
        for (rank, &(l, r)) in merges.iter().enumerate() {
            assert!(
                (l as usize) < vocab.len() && (r as usize) < vocab.len(),
                "merge ({l}, {r}) references unknown token"
            );
            let mut bytes = vocab[l as usize].clone();
            bytes.extend_from_slice(&vocab[r as usize]);
            let id = vocab.len() as TokenId;
            vocab.push(bytes);
            table.push((l, r, id));
            lookup.insert((l, r), (rank, id));
        }
        let eos = vocab.len() as TokenId;
        vocab.push(b"<|endoftext|>".to_vec());
        let max_token_len = vocab
            .iter()
            .take(vocab.len() - 1) // EOS is a marker, not text
            .map(Vec::len)
            .max()
            .unwrap_or(1);
        let bytes_lookup = vocab
            .iter()
            .enumerate()
            .take(vocab.len() - 1)
            .map(|(i, b)| (b.clone(), i as TokenId))
            .collect();
        BpeTokenizer {
            vocab,
            merges: table,
            merge_lookup: lookup,
            bytes_lookup,
            eos,
            max_token_len,
        }
    }

    /// Train `num_merges` BPE merges on `corpus` (the `train` module's docs
    /// describe the algorithm) and return the tokenizer.
    pub fn train(corpus: &str, num_merges: usize) -> Self {
        crate::train::train(corpus, num_merges)
    }

    /// Total vocabulary size, including the 256 byte tokens and EOS.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The end-of-sequence token id.
    pub fn eos(&self) -> TokenId {
        self.eos
    }

    /// The byte content of `token`. The EOS token renders as
    /// `<|endoftext|>`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of range.
    pub fn token_bytes(&self, token: TokenId) -> &[u8] {
        &self.vocab[token as usize]
    }

    /// A stable 64-bit fingerprint of this tokenizer: FNV-1a over the
    /// merge table, vocabulary size, and EOS id.
    ///
    /// Two tokenizers with the same fingerprint encode every string
    /// identically (the merge table fully determines the encoder), so
    /// caches keyed by token ids — compiled-plan memos, scoring memo
    /// tables — use this to guarantee entries from one tokenizer are
    /// never served to another.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::FNV_OFFSET_BASIS;
        crate::fnv_mix(&mut h, self.vocab.len() as u64);
        crate::fnv_mix(&mut h, u64::from(self.eos));
        for &(l, r, out) in &self.merges {
            crate::fnv_mix(&mut h, u64::from(l));
            crate::fnv_mix(&mut h, u64::from(r));
            crate::fnv_mix(&mut h, u64::from(out));
        }
        h
    }

    /// Iterate over `(id, bytes)` for every text token (excludes EOS).
    pub fn iter_vocab(&self) -> impl Iterator<Item = (TokenId, &[u8])> + '_ {
        self.vocab
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i as TokenId != self.eos)
            .map(|(i, b)| (i as TokenId, b.as_slice()))
    }

    /// The merge table in priority order, as `(left, right, result)`.
    pub fn merges(&self) -> &[(TokenId, TokenId, TokenId)] {
        &self.merges
    }

    /// Canonical encoding: pre-tokenize, then greedily apply the highest-
    /// priority merge until none applies — exactly GPT-2's encoder.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        self.encode_bytes(text.as_bytes())
    }

    /// [`encode`](Self::encode) over bytes that need not be UTF-8: the
    /// languages the compiler lowers are byte languages (`.` matches
    /// bytes 128–255 one at a time), and each of their strings has one
    /// canonical encoding.
    pub fn encode_bytes(&self, bytes: &[u8]) -> Vec<TokenId> {
        let mut out = Vec::new();
        for piece in pretokenize_bytes(bytes) {
            self.encode_piece(piece, &mut out);
        }
        out
    }

    fn encode_piece(&self, bytes: &[u8], out: &mut Vec<TokenId>) {
        let mut tokens: Vec<TokenId> = bytes.iter().map(|&b| TokenId::from(b)).collect();
        loop {
            // Find the lowest-rank applicable merge.
            let mut best: Option<(usize, usize, TokenId)> = None; // (rank, index, result)
            for i in 0.._tokens_pairs(&tokens) {
                if let Some(&(rank, result)) = self.merge_lookup.get(&(tokens[i], tokens[i + 1])) {
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, i, result));
                    }
                }
            }
            let Some((rank, _, result)) = best else { break };
            // Apply every occurrence of this merge left-to-right.
            let (l, r, _) = self.merges[rank];
            let mut merged = Vec::with_capacity(tokens.len());
            let mut i = 0;
            while i < tokens.len() {
                if i + 1 < tokens.len() && tokens[i] == l && tokens[i + 1] == r {
                    merged.push(result);
                    i += 2;
                } else {
                    merged.push(tokens[i]);
                    i += 1;
                }
            }
            tokens = merged;
        }
        out.extend_from_slice(&tokens);
    }

    /// Decode a token sequence back into a string (lossy on invalid
    /// UTF-8). EOS tokens terminate decoding.
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        match String::from_utf8(self.decode_bytes(tokens)) {
            Ok(text) => text,
            Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
        }
    }

    /// The bytes a token sequence spells, exactly. EOS tokens terminate
    /// decoding.
    pub fn decode_bytes(&self, tokens: &[TokenId]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &t in tokens {
            if t == self.eos {
                break;
            }
            bytes.extend_from_slice(&self.vocab[t as usize]);
        }
        bytes
    }

    /// Whether `tokens` is the canonical encoding of the bytes it spells
    /// (§3.2: canonical encodings are "stable under repeated encodings
    /// and decodings"). Compared byte for byte: a token sequence whose
    /// bytes are not UTF-8 can be canonical too.
    pub fn is_canonical(&self, tokens: &[TokenId]) -> bool {
        self.encode_bytes(&self.decode_bytes(tokens)) == tokens
    }

    /// Enumerate every tokenization of `text`, up to `limit` results.
    ///
    /// The count grows as fast as `2^(n-1)` for `n` bytes, so `limit`
    /// bounds the work. Results are produced in depth-first order by
    /// split position; every result decodes to `text`.
    pub fn all_encodings(&self, text: &str, limit: usize) -> Vec<Vec<TokenId>> {
        let bytes = text.as_bytes();
        let mut results = Vec::new();
        let mut stack: Vec<(usize, Vec<TokenId>)> = vec![(0, Vec::new())];
        while let Some((pos, seq)) = stack.pop() {
            if results.len() >= limit {
                break;
            }
            if pos == bytes.len() {
                results.push(seq);
                continue;
            }
            let end = (pos + self.max_token_len).min(bytes.len());
            // Longer tokens pushed last so shorter splits explore first.
            for stop in (pos + 1..=end).rev() {
                if let Some(&id) = self.bytes_lookup.get(&bytes[pos..stop]) {
                    let mut next = seq.clone();
                    next.push(id);
                    stack.push((stop, next));
                }
            }
        }
        results
    }

    /// Count all tokenizations of `text` (dynamic program; no
    /// enumeration). Useful for tests and for sizing full-encoding
    /// automata.
    pub fn count_encodings(&self, text: &str) -> u128 {
        let bytes = text.as_bytes();
        let n = bytes.len();
        let mut dp = vec![0u128; n + 1];
        dp[0] = 1;
        for pos in 0..n {
            if dp[pos] == 0 {
                continue;
            }
            let end = (pos + self.max_token_len).min(n);
            for stop in pos + 1..=end {
                if self.bytes_lookup.contains_key(&bytes[pos..stop]) {
                    dp[stop] = dp[stop].saturating_add(dp[pos]);
                }
            }
        }
        dp[n]
    }
}

fn _tokens_pairs(tokens: &[TokenId]) -> usize {
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BpeTokenizer {
        // Merges: T+h=Th, h+e=he, Th+e=The
        let t = TokenId::from(b'T');
        let h = TokenId::from(b'h');
        let e = TokenId::from(b'e');
        BpeTokenizer::from_merges(&[(t, h), (h, e), (256, e)])
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = small();
        let b = small();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same merges, same id");
        let trained = BpeTokenizer::train("the cat sat on the mat", 30);
        assert_eq!(trained.fingerprint(), trained.fingerprint());
        assert_ne!(
            a.fingerprint(),
            trained.fingerprint(),
            "different merge tables must disagree"
        );
        assert_ne!(
            a.fingerprint(),
            BpeTokenizer::from_merges(&[]).fingerprint()
        );
    }

    #[test]
    fn byte_fallback_without_merges() {
        let tok = BpeTokenizer::from_merges(&[]);
        let ids = tok.encode("hi");
        assert_eq!(ids, vec![TokenId::from(b'h'), TokenId::from(b'i')]);
        assert_eq!(tok.decode(&ids), "hi");
    }

    #[test]
    fn canonical_encoding_uses_highest_priority_merges() {
        let tok = small();
        // "The" -> T+h merges first (rank 0), then Th+e (rank 2).
        let ids = tok.encode("The");
        assert_eq!(ids.len(), 1);
        assert_eq!(tok.token_bytes(ids[0]), b"The");
    }

    #[test]
    fn figure_3_the_has_four_encodings() {
        let tok = small();
        let all = tok.all_encodings("The", 100);
        // T-h-e, Th-e, T-he, The
        assert_eq!(all.len(), 4);
        for enc in &all {
            assert_eq!(tok.decode(enc), "The");
        }
        assert_eq!(tok.count_encodings("The"), 4);
    }

    #[test]
    fn canonical_is_among_all_and_shortest() {
        let tok = small();
        let canonical = tok.encode("The");
        let all = tok.all_encodings("The", 100);
        assert!(all.contains(&canonical));
        let min_len = all.iter().map(Vec::len).min().unwrap();
        assert_eq!(canonical.len(), min_len);
    }

    #[test]
    fn non_canonical_detected() {
        let tok = small();
        let canonical = tok.encode("The");
        assert!(tok.is_canonical(&canonical));
        let spelled: Vec<TokenId> = "The".bytes().map(TokenId::from).collect();
        assert!(!tok.is_canonical(&spelled));
    }

    #[test]
    fn bytes_round_trip_whether_or_not_they_are_utf8() {
        let tok = BpeTokenizer::train("the cat sat on the mat", 30);
        for bytes in [
            &b"the cat"[..],
            b"a\x80",
            b"\xff\xfe the",
            "caf\u{e9}".as_bytes(),
        ] {
            let ids = tok.encode_bytes(bytes);
            assert_eq!(tok.decode_bytes(&ids), bytes);
            assert!(tok.is_canonical(&ids), "{bytes:?}");
        }
        assert_eq!(tok.encode("the cat"), tok.encode_bytes(b"the cat"));
        let lone = [TokenId::from(b'a'), 0x80];
        assert_eq!(tok.decode(&lone), "a\u{fffd}");
        assert_eq!(tok.decode_bytes(&lone), b"a\x80");
    }

    #[test]
    fn eos_terminates_decode() {
        let tok = small();
        let mut ids = tok.encode("The");
        ids.push(tok.eos());
        ids.extend(tok.encode("The"));
        assert_eq!(tok.decode(&ids), "The");
    }

    #[test]
    fn trained_tokenizer_round_trips() {
        let corpus = "the cat sat on the mat. the dog sat on the log. \
                      the man was trained in art. the woman was trained in science.";
        let tok = BpeTokenizer::train(corpus, 100);
        for text in [
            "the cat sat",
            "the woman was trained in art",
            "unseen wordsx!",
            "punctuation, too.",
            "",
        ] {
            assert_eq!(tok.decode(&tok.encode(text)), text, "round trip {text:?}");
        }
    }

    #[test]
    fn training_creates_multibyte_tokens() {
        let corpus = "the the the the the cat cat cat";
        let tok = BpeTokenizer::train(corpus, 20);
        assert!(tok.max_token_len > 1);
        let ids = tok.encode("the");
        assert!(ids.len() < 3, "expected merged encoding, got {ids:?}");
    }

    #[test]
    fn all_encodings_limit_respected() {
        let tok = small();
        let some = tok.all_encodings("The", 2);
        assert_eq!(some.len(), 2);
    }

    #[test]
    fn count_encodings_matches_enumeration() {
        let corpus = "aaa aa aaaa aaaaa";
        let tok = BpeTokenizer::train(corpus, 30);
        for text in ["aaaa", "aaa", "a aa"] {
            let n = tok.all_encodings(text, 10_000).len() as u128;
            assert_eq!(tok.count_encodings(text), n, "count vs enumerate {text:?}");
        }
    }

    #[test]
    fn token_of_bytes_lookup() {
        let tok = small();
        let lookup = |bytes: &[u8]| tok.bytes_lookup.get(bytes).copied();
        assert_eq!(lookup(b"The"), Some(258));
        assert_eq!(lookup(b"xyz"), None);
        assert_eq!(lookup(b"T"), Some(TokenId::from(b'T')));
    }

    #[test]
    fn iter_vocab_excludes_eos() {
        let tok = small();
        assert_eq!(tok.iter_vocab().count(), tok.vocab_size() - 1);
        assert!(tok.iter_vocab().all(|(id, _)| id != tok.eos()));
    }
}
