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
    /// The text tokens by their bytes, for segmentation enumeration and
    /// the compiler's shortcut edges.
    trie: VocabTrie,
    /// End-of-sequence token id.
    eos: TokenId,
}

/// A byte trie of a tokenizer's text tokens (EOS excluded), in one
/// arena: node [`ROOT`](Self::ROOT) spells the empty string, and each
/// node's children are a contiguous range of one edge array, sorted by
/// byte.
///
/// A node spells the bytes on its path from the root and holds the ids
/// of the tokens with exactly those bytes, ascending: usually none or
/// one, but a merge table may spell one byte string twice.
#[derive(Debug, Clone)]
pub struct VocabTrie {
    /// Node `n`'s children are `edges[child_start[n]..child_start[n + 1]]`.
    child_start: Vec<u32>,
    /// `(byte, child)` pairs, sorted by byte within each node.
    edges: Vec<(u8, u32)>,
    /// Node `n`'s tokens are `tokens[token_start[n]..token_start[n + 1]]`.
    token_start: Vec<u32>,
    tokens: Vec<TokenId>,
}

impl VocabTrie {
    /// The node that spells the empty string.
    pub const ROOT: u32 = 0;

    /// Build the trie of `words`. Nodes are numbered breadth first, so
    /// every node's child range is appended after its parent's.
    fn new<'a>(words: impl Iterator<Item = (TokenId, &'a [u8])>) -> Self {
        let mut words: Vec<(&[u8], TokenId)> = words.map(|(id, bytes)| (bytes, id)).collect();
        words.sort_unstable();
        // Node `n` spells the common prefix of `words[lo..hi]`, `depth`
        // bytes long.
        let mut nodes: Vec<(usize, usize, usize)> = vec![(0, words.len(), 0)];
        let mut trie = VocabTrie {
            child_start: Vec::new(),
            edges: Vec::new(),
            token_start: Vec::new(),
            tokens: Vec::new(),
        };
        let mut n = 0;
        while n < nodes.len() {
            let (lo, hi, depth) = nodes[n];
            trie.child_start.push(trie.edges.len() as u32);
            trie.token_start.push(trie.tokens.len() as u32);
            // The words that end here sort first.
            let mut i = lo;
            while i < hi && words[i].0.len() == depth {
                trie.tokens.push(words[i].1);
                i += 1;
            }
            while i < hi {
                let byte = words[i].0[depth];
                let end = i + words[i..hi].partition_point(|w| w.0[depth] == byte);
                trie.edges.push((byte, nodes.len() as u32));
                nodes.push((i, end, depth + 1));
                i = end;
            }
            n += 1;
        }
        trie.child_start.push(trie.edges.len() as u32);
        trie.token_start.push(trie.tokens.len() as u32);
        trie
    }

    /// The `(byte, child)` edges of `node`, ascending by byte.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn children(&self, node: u32) -> &[(u8, u32)] {
        let n = node as usize;
        &self.edges[self.child_start[n] as usize..self.child_start[n + 1] as usize]
    }

    /// The ids of the tokens `node` spells, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn tokens(&self, node: u32) -> &[TokenId] {
        let n = node as usize;
        &self.tokens[self.token_start[n] as usize..self.token_start[n + 1] as usize]
    }

    /// The child of `node` along `byte`, if there is one.
    fn child(&self, node: u32, byte: u8) -> Option<u32> {
        let children = self.children(node);
        children
            .binary_search_by_key(&byte, |&(b, _)| b)
            .ok()
            .map(|i| children[i].1)
    }

    /// `(end, id)` for every token that spells `bytes[pos..end]`, in
    /// ascending `end`, into `out` (cleared first). Where one byte
    /// string is spelled by several tokens, the highest id stands for it.
    fn tokens_at(&self, bytes: &[u8], pos: usize, out: &mut Vec<(usize, TokenId)>) {
        out.clear();
        let mut node = Self::ROOT;
        for (end, &b) in bytes.iter().enumerate().skip(pos) {
            let Some(next) = self.child(node, b) else {
                break;
            };
            node = next;
            if let Some(&id) = self.tokens(node).last() {
                out.push((end + 1, id));
            }
        }
    }
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
        // EOS is a marker, not text: its bytes never spell a token.
        let trie = VocabTrie::new(
            vocab
                .iter()
                .enumerate()
                .map(|(i, b)| (i as TokenId, b.as_slice())),
        );
        let eos = vocab.len() as TokenId;
        vocab.push(b"<|endoftext|>".to_vec());
        BpeTokenizer {
            vocab,
            merges: table,
            merge_lookup: lookup,
            trie,
            eos,
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

    /// The byte trie of the text tokens (EOS excluded).
    pub fn vocab_trie(&self) -> &VocabTrie {
        &self.trie
    }

    /// The merge table in priority order, as `(left, right, result)`.
    #[cfg(test)]
    pub(crate) fn merges(&self) -> &[(TokenId, TokenId, TokenId)] {
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

    /// Append the canonical encoding of one pre-token to `out`, merging
    /// in place in `out`'s tail.
    fn encode_piece(&self, bytes: &[u8], out: &mut Vec<TokenId>) {
        let start = out.len();
        out.extend(bytes.iter().map(|&b| TokenId::from(b)));
        loop {
            let tokens = &mut out[start..];
            // Find the lowest-rank applicable merge.
            let mut best: Option<(usize, TokenId)> = None; // (rank, result)
            for pair in tokens.windows(2) {
                if let Some(&(rank, result)) = self.merge_lookup.get(&(pair[0], pair[1])) {
                    if best.is_none_or(|(r, _)| rank < r) {
                        best = Some((rank, result));
                    }
                }
            }
            let Some((rank, result)) = best else { break };
            // Apply every occurrence of this merge left to right,
            // compacting the tail: the write index never passes the
            // read index.
            let (l, r, _) = self.merges[rank];
            let (mut read, mut write) = (0, 0);
            while read < tokens.len() {
                if read + 1 < tokens.len() && tokens[read] == l && tokens[read + 1] == r {
                    tokens[write] = result;
                    read += 2;
                } else {
                    tokens[write] = tokens[read];
                    read += 1;
                }
                write += 1;
            }
            out.truncate(start + write);
        }
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
        let mut found = Vec::new();
        while let Some((pos, seq)) = stack.pop() {
            if results.len() >= limit {
                break;
            }
            if pos == bytes.len() {
                results.push(seq);
                continue;
            }
            self.trie.tokens_at(bytes, pos, &mut found);
            // Longer tokens pushed first so shorter splits explore first.
            for &(stop, id) in found.iter().rev() {
                let mut next = seq.clone();
                next.push(id);
                stack.push((stop, next));
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
        let mut found = Vec::new();
        for pos in 0..n {
            if dp[pos] == 0 {
                continue;
            }
            self.trie.tokens_at(bytes, pos, &mut found);
            for &(stop, _) in &found {
                dp[stop] = dp[stop].saturating_add(dp[pos]);
            }
        }
        dp[n]
    }
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

    /// The token the trie holds for `bytes`, walked byte by byte; the
    /// highest id where several tokens spell them.
    fn lookup(tok: &BpeTokenizer, bytes: &[u8]) -> Option<TokenId> {
        let trie = tok.vocab_trie();
        let node = bytes
            .iter()
            .try_fold(VocabTrie::ROOT, |node, &b| trie.child(node, b))?;
        trie.tokens(node).last().copied()
    }

    #[test]
    fn training_creates_multibyte_tokens() {
        let corpus = "the the the the the cat cat cat";
        let tok = BpeTokenizer::train(corpus, 20);
        let trie = tok.vocab_trie();
        let deep = trie
            .children(VocabTrie::ROOT)
            .iter()
            .any(|&(_, child)| !trie.children(child).is_empty());
        assert!(deep, "no token is longer than one byte");
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
        assert_eq!(lookup(&tok, b"The"), Some(258));
        assert_eq!(lookup(&tok, b"xyz"), None);
        assert_eq!(lookup(&tok, b"T"), Some(TokenId::from(b'T')));
        assert_eq!(lookup(&tok, b"Th"), Some(256));
        assert_eq!(lookup(&tok, b""), None, "the root spells no token");
    }

    #[test]
    fn trie_holds_every_text_token_and_not_eos() {
        let tok = BpeTokenizer::train("the cat sat on the mat <|endoftext|>", 40);
        for (id, bytes) in tok.iter_vocab() {
            assert_eq!(lookup(&tok, bytes), Some(id), "{bytes:?}");
        }
        assert_eq!(lookup(&tok, tok.token_bytes(tok.eos())), None);
        // Children are sorted by byte, and the root has all 256.
        let trie = tok.vocab_trie();
        let root = trie.children(VocabTrie::ROOT);
        assert_eq!(root.len(), 256);
        assert!(root.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn trie_keeps_every_token_of_a_repeated_byte_string() {
        // a+b=ab(256), ab+c=abc(257), b+c=bc(258), a+bc=abc(259).
        let (a, b, c) = (
            TokenId::from(b'a'),
            TokenId::from(b'b'),
            TokenId::from(b'c'),
        );
        let tok = BpeTokenizer::from_merges(&[(a, b), (256, c), (b, c), (a, 258)]);
        let trie = tok.vocab_trie();
        let node = [b'a', b'b', b'c']
            .iter()
            .try_fold(VocabTrie::ROOT, |node, &byte| trie.child(node, byte));
        assert_eq!(node.map(|n| trie.tokens(n)), Some(&[257, 259][..]));
        assert_eq!(lookup(&tok, b"abc"), Some(259));
        // a-b-c, ab-c, a-bc, abc: the repeated string counts once.
        assert_eq!(tok.count_encodings("abc"), 4);
        assert_eq!(tok.all_encodings("abc", 100).len(), 4);
    }

    #[test]
    fn iter_vocab_excludes_eos() {
        let tok = small();
        assert_eq!(tok.iter_vocab().count(), tok.vocab_size() - 1);
        assert!(tok.iter_vocab().all(|(id, _)| id != tok.eos()));
    }

    /// A test-only copy of the merge loop `encode_piece` replaced: a
    /// fresh `Vec` for each applied merge.
    fn reference_encode(tok: &BpeTokenizer, bytes: &[u8]) -> Vec<TokenId> {
        let lookup: HashMap<(TokenId, TokenId), (usize, TokenId)> = tok
            .merges()
            .iter()
            .enumerate()
            .map(|(rank, &(l, r, out))| ((l, r), (rank, out)))
            .collect();
        let mut out = Vec::new();
        for piece in pretokenize_bytes(bytes) {
            let mut tokens: Vec<TokenId> = piece.iter().map(|&b| TokenId::from(b)).collect();
            loop {
                let mut best: Option<(usize, usize, TokenId)> = None;
                for i in 0..tokens.len().saturating_sub(1) {
                    if let Some(&(rank, result)) = lookup.get(&(tokens[i], tokens[i + 1])) {
                        if best.is_none_or(|(r, _, _)| rank < r) {
                            best = Some((rank, i, result));
                        }
                    }
                }
                let Some((rank, _, result)) = best else { break };
                let (l, r, _) = tok.merges()[rank];
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
        out
    }

    /// A merge table of `draws.len() / 2` merges over the tokens built
    /// so far: random pairs, so merged tokens over bytes >= 128, merges
    /// that spell one byte string twice and merges that never apply
    /// are all common.
    fn random_merges(draws: &[u32]) -> BpeTokenizer {
        let mut merges = Vec::new();
        for pair in draws.chunks_exact(2) {
            let known = 256 + merges.len() as u32;
            merges.push((pair[0] % known, pair[1] % known));
        }
        BpeTokenizer::from_merges(&merges)
    }

    /// Bytes over a small alphabet of ASCII letters, a space and bytes
    /// >= 128 (alone, not UTF-8), so merges apply and pieces split.
    fn byte_string() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0usize..8, 0..40).prop_map(|picks| {
            picks
                .into_iter()
                .map(|p| [b'a', b'b', b't', b'h', b' ', 0x80, 0xc3, 0xff][p])
                .collect()
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 1024 }))]

        /// `encode_bytes` gives the ids of the fresh-`Vec` loop, bit for
        /// bit, on trained and on random merge tables.
        #[test]
        fn encode_oracle_matches_the_fresh_vec_loop(
            bytes in byte_string(),
            draws in proptest::collection::vec(0u32..1 << 16, 0..120),
        ) {
            let trained = trained_for_oracle();
            prop_assert_eq!(trained.encode_bytes(&bytes), reference_encode(&trained, &bytes));
            let random = random_merges(&draws);
            prop_assert_eq!(random.encode_bytes(&bytes), reference_encode(&random, &bytes));
        }
    }

    fn trained_for_oracle() -> BpeTokenizer {
        BpeTokenizer::train(
            "the bat hat that baa\u{80} the thath tab \u{ff}\u{c3}bat hath ta ba",
            60,
        )
    }
}
