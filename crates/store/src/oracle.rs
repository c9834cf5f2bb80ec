//! The format-v1 codec, kept as the test oracle for the one that
//! replaced it.
//!
//! Everything in here is the encoder, decoder and framing this crate
//! shipped up to format version 1, field by field and byte by byte:
//! one bounds-checked read per scalar, one `format!` label per field,
//! FNV-1a over the payload. It is slow and it is the definition of the
//! payload layout, which did not change with version 2 and lost only
//! its last field, the prefix's shard bounds, with version 3 (dropped
//! here too) — so the property tests below hold the live codec to it:
//! the payload bytes must be equal, and what either decoder makes of
//! them must be equal field for field, every `f64` compared by
//! `to_bits`.

use proptest::prelude::*;

use relm_automata::{Dfa, StateId, Symbol, WalkTable};
use relm_bpe::TokenId;

use crate::artifact::{ArtifactKey, CacheArtifact, PlanArtifact};
use crate::wire::{Reader as LiveReader, CACHE_MAGIC, HEADER_BYTES, PLAN_MAGIC};
use crate::StoreError;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A complete format-v1 file image around `payload`.
pub(crate) fn frame_v1(magic: [u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    bytes.extend_from_slice(&magic);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(msg: String) -> StoreError {
    StoreError::Corrupt(msg)
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if len > self.remaining() {
            return Err(corrupt(format!("truncated: {what}")));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4, what)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(b))
    }

    fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, StoreError> {
        let raw = self.u64(what)?;
        let count = usize::try_from(raw).map_err(|_| corrupt(format!("{what} overflows")))?;
        let need = count
            .checked_mul(elem_bytes.max(1))
            .ok_or_else(|| corrupt(format!("{what} overflows")))?;
        if need > self.remaining() {
            return Err(corrupt(format!("truncated: {what} count {count}")));
        }
        Ok(count)
    }

    fn f64(&mut self, what: &str) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.count(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt(format!("{what} is not UTF-8")))
    }

    fn opt_str(&mut self, what: &str) -> Result<Option<String>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.str(what)?)),
            tag => Err(corrupt(format!("{what} has invalid option tag {tag}"))),
        }
    }
}

fn encode_key(w: &mut Writer, key: &ArtifactKey) {
    w.str(&key.pattern);
    w.opt_str(key.prefix.as_deref());
    w.u8(key.tokenization);
    w.usize(key.preprocessors.len());
    for &fp in &key.preprocessors {
        w.u64(fp);
    }
    w.u64(key.tokenizer);
}

fn decode_key(r: &mut Reader<'_>) -> Result<ArtifactKey, StoreError> {
    let pattern = r.str("key pattern")?;
    let prefix = r.opt_str("key prefix")?;
    let tokenization = r.u8("key tokenization")?;
    let count = r.count(8, "key preprocessors")?;
    let mut preprocessors = Vec::with_capacity(count);
    for _ in 0..count {
        preprocessors.push(r.u64("key preprocessor fingerprint")?);
    }
    let tokenizer = r.u64("key tokenizer fingerprint")?;
    Ok(ArtifactKey {
        pattern,
        prefix,
        tokenization,
        preprocessors,
        tokenizer,
    })
}

fn encode_dfa(w: &mut Writer, dfa: &Dfa) {
    w.usize(dfa.state_count());
    w.usize(dfa.start());
    let accepting: Vec<StateId> = (0..dfa.state_count())
        .filter(|&s| dfa.is_accepting(s))
        .collect();
    w.usize(accepting.len());
    for s in accepting {
        w.usize(s);
    }
    w.usize(dfa.transition_count());
    for from in 0..dfa.state_count() {
        for (symbol, to) in dfa.transitions(from) {
            w.usize(from);
            w.u32(symbol);
            w.usize(to);
        }
    }
}

fn decode_dfa(r: &mut Reader<'_>, what: &str) -> Result<Dfa, StoreError> {
    let state_count = r.count(0, &format!("{what} state count"))?;
    let start = r.u64(&format!("{what} start"))? as StateId;
    let accepting_count = r.count(8, &format!("{what} accepting count"))?;
    let mut accepting = Vec::with_capacity(accepting_count);
    for _ in 0..accepting_count {
        accepting.push(r.u64(&format!("{what} accepting state"))? as StateId);
    }
    let transition_count = r.count(20, &format!("{what} transition count"))?;
    let mut transitions = Vec::with_capacity(transition_count);
    for _ in 0..transition_count {
        let from = r.u64(&format!("{what} transition source"))? as StateId;
        let symbol = r.u32(&format!("{what} transition symbol"))?;
        let to = r.u64(&format!("{what} transition target"))? as StateId;
        transitions.push((from, symbol, to));
    }
    Dfa::try_from_parts(state_count, start, &accepting, &transitions)
        .ok_or_else(|| corrupt(format!("{what} is not a valid DFA")))
}

/// The format-v1 plan payload.
pub(crate) fn encode_plan(plan: &PlanArtifact) -> Vec<u8> {
    let mut w = Writer::default();
    encode_key(&mut w, &plan.key);
    match &plan.prefix {
        Some(dfa) => {
            w.u8(1);
            encode_dfa(&mut w, dfa);
        }
        None => w.u8(0),
    }
    encode_dfa(&mut w, &plan.body);
    w.u8(u8::from(plan.needs_canonical_check));
    w.usize(plan.deferred_filters.len());
    for filter in &plan.deferred_filters {
        encode_dfa(&mut w, filter);
    }
    match &plan.walk_table {
        Some(table) => {
            w.u8(1);
            w.usize(table.max_len());
            let rows = table.exact_rows();
            w.usize(rows.first().map_or(0, Vec::len));
            for row in rows {
                for &v in row {
                    w.f64(v);
                }
            }
        }
        None => w.u8(0),
    }
    w.buf
}

/// Decode and structurally validate a format-v1 plan payload.
pub(crate) fn decode_plan(payload: &[u8]) -> Result<PlanArtifact, StoreError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let key = decode_key(&mut r)?;
    let prefix = match r.u8("prefix automaton tag")? {
        0 => None,
        1 => Some(decode_dfa(&mut r, "prefix automaton")?),
        tag => return Err(corrupt(format!("prefix automaton tag {tag}"))),
    };
    let body = decode_dfa(&mut r, "body automaton")?;
    let needs_canonical_check = match r.u8("canonical-check flag")? {
        0 => false,
        1 => true,
        tag => return Err(corrupt(format!("canonical-check flag {tag}"))),
    };
    let filter_count = r.count(1, "deferred filter count")?;
    let mut deferred_filters = Vec::with_capacity(filter_count);
    for i in 0..filter_count {
        deferred_filters.push(decode_dfa(&mut r, &format!("deferred filter {i}"))?);
    }
    let walk_table = match r.u8("walk-table tag")? {
        0 => None,
        1 => {
            let max_len = r.count(0, "walk-table max length")?;
            let states = r.count(0, "walk-table state count")?;
            let rows = max_len
                .checked_add(1)
                .ok_or_else(|| corrupt("walk-table max length overflows".into()))?;
            let cells = rows
                .checked_mul(states)
                .ok_or_else(|| corrupt("walk-table dimensions overflow".into()))?;
            if cells.checked_mul(8).is_none_or(|need| need > r.remaining()) {
                return Err(corrupt("truncated: walk table".into()));
            }
            let mut exact = Vec::with_capacity(rows);
            for _ in 0..rows {
                let mut row = Vec::with_capacity(states);
                for _ in 0..states {
                    row.push(r.f64("walk-table cell")?);
                }
                exact.push(row);
            }
            let prefix = prefix
                .as_ref()
                .ok_or_else(|| corrupt("walk table without a prefix automaton".into()))?;
            if states != prefix.state_count() {
                return Err(corrupt("walk table width is not the prefix's".into()));
            }
            Some(
                WalkTable::from_exact_rows(exact, max_len)
                    .ok_or_else(|| corrupt("walk table rows are invalid".into()))?,
            )
        }
        tag => return Err(corrupt(format!("walk-table tag {tag}"))),
    };
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }
    Ok(PlanArtifact {
        key,
        prefix,
        body,
        needs_canonical_check,
        deferred_filters,
        walk_table,
    })
}

/// The format-v1 cache payload.
pub(crate) fn encode_cache(cache: &CacheArtifact) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(cache.generation);
    w.u64(cache.tokenizer);
    w.usize(cache.entries.len());
    for (context, distribution) in &cache.entries {
        w.usize(context.len());
        for &token in context {
            w.u32(token);
        }
        w.usize(distribution.len());
        for &v in distribution.iter() {
            w.f64(v);
        }
    }
    w.buf
}

/// Decode a format-v1 cache payload.
pub(crate) fn decode_cache(payload: &[u8]) -> Result<CacheArtifact, StoreError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let generation = r.u64("cache generation")?;
    let tokenizer = r.u64("cache tokenizer fingerprint")?;
    let entry_count = r.count(16, "cache entry count")?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let context_len = r.count(4, "cache context length")?;
        let mut context: Vec<TokenId> = Vec::with_capacity(context_len);
        for _ in 0..context_len {
            context.push(r.u32("cache context token")?);
        }
        let dist_len = r.count(8, "cache distribution length")?;
        let mut distribution: Vec<f64> = Vec::with_capacity(dist_len);
        for _ in 0..dist_len {
            distribution.push(r.f64("cache distribution value")?);
        }
        entries.push((context, distribution.into()));
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }
    Ok(CacheArtifact {
        generation,
        tokenizer,
        entries,
    })
}

/// An endless deterministic stream of draws (SplitMix64 from one seed),
/// consumed the way `crates/automata/tests/property.rs::partial_dfa`
/// consumes its vector of draws.
struct Draws(u64);

impl Draws {
    fn raw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.raw() % bound as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    fn text(&mut self, max_len: usize) -> String {
        const ALPHABET: [char; 8] = ['a', 'b', '(', ')', '|', ' ', 'é', '→'];
        (0..self.below(max_len + 1))
            .map(|_| ALPHABET[self.below(ALPHABET.len())])
            .collect()
    }

    /// The values a score row or a walk-table cell can hold that a
    /// lossy codec would get wrong, and arbitrary bit patterns.
    fn f64(&mut self) -> f64 {
        match self.below(6) {
            0 => -0.0,
            1 => f64::NEG_INFINITY,
            2 => f64::from_bits(0x7ff8_0000_dead_beef),
            3 => f64::from_bits(0xfff0_0000_0000_0001),
            4 => -(self.below(1 << 20) as f64) / 1024.0,
            _ => f64::from_bits(self.raw()),
        }
    }

    /// A random *partial* DFA: 1–40 states over at most 6 symbols, each
    /// edge present half the time, random accepting set and start, so
    /// unreachable and dead states are common.
    fn partial_dfa(&mut self) -> Dfa {
        let n = 1 + self.below(40);
        let symbols = 1 + self.below(6);
        let accepting: Vec<StateId> = (0..n).filter(|_| self.flag()).collect();
        let mut transitions = Vec::new();
        for s in 0..n {
            for a in 0..symbols {
                if self.flag() {
                    // Symbols far apart, so that a symbol's upper bytes
                    // are not always zero.
                    transitions.push((s, (a as Symbol) * 0x0101_0101, self.below(n)));
                }
            }
        }
        Dfa::from_parts(n, self.below(n), &accepting, &transitions)
    }
}

fn draws() -> impl Strategy<Value = Draws> {
    (0u64..u64::MAX).prop_map(Draws)
}

/// Plans with and without a prefix and a walk table (built, or of
/// arbitrary cells), and with 0–3 deferred filters.
pub(crate) fn plan_artifact() -> impl Strategy<Value = PlanArtifact> {
    draws().prop_map(|mut d| {
        let key = ArtifactKey {
            pattern: d.text(24),
            prefix: d.flag().then(|| d.text(8)),
            tokenization: d.below(2) as u8,
            preprocessors: (0..d.below(4)).map(|_| d.raw()).collect(),
            tokenizer: d.raw(),
        };
        let prefix = d.flag().then(|| d.partial_dfa());
        let walk_table = prefix.as_ref().filter(|_| d.flag()).map(|prefix| {
            let max_len = d.below(6);
            if d.flag() {
                WalkTable::new(prefix, max_len)
            } else {
                let rows = (0..=max_len)
                    .map(|_| (0..prefix.state_count()).map(|_| d.f64()).collect())
                    .collect();
                WalkTable::from_exact_rows(rows, max_len)
                    .unwrap_or_else(|| WalkTable::new(prefix, max_len))
            }
        });
        PlanArtifact {
            key,
            prefix,
            body: d.partial_dfa(),
            needs_canonical_check: d.flag(),
            deferred_filters: (0..d.below(4)).map(|_| d.partial_dfa()).collect(),
            walk_table,
        }
    })
}

/// Snapshots of 0–6 rows, empty contexts and empty rows among them.
pub(crate) fn cache_artifact() -> impl Strategy<Value = CacheArtifact> {
    draws().prop_map(|mut d| CacheArtifact {
        generation: d.raw(),
        tokenizer: d.raw(),
        entries: (0..d.below(7))
            .map(|_| {
                let context = (0..d.below(5)).map(|_| d.raw() as TokenId).collect();
                let row: Vec<f64> = (0..d.below(9)).map(|_| d.f64()).collect();
                (context, row.into())
            })
            .collect(),
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Field-for-field equality of two plans, `f64`s by bit pattern.
pub(crate) fn same_plan(a: &PlanArtifact, b: &PlanArtifact) -> Result<(), String> {
    prop_assert_eq!(&a.key, &b.key);
    prop_assert_eq!(&a.prefix, &b.prefix);
    prop_assert_eq!(&a.body, &b.body);
    prop_assert_eq!(a.needs_canonical_check, b.needs_canonical_check);
    prop_assert_eq!(&a.deferred_filters, &b.deferred_filters);
    let table = |p: &PlanArtifact| {
        p.walk_table.as_ref().map(|t| {
            let rows: Vec<Vec<u64>> = t.exact_rows().iter().map(|row| bits(row)).collect();
            (t.max_len(), rows)
        })
    };
    prop_assert_eq!(table(a), table(b));
    Ok(())
}

/// Field-for-field equality of two snapshots, `f64`s by bit pattern.
pub(crate) fn same_cache(a: &CacheArtifact, b: &CacheArtifact) -> Result<(), String> {
    prop_assert_eq!(a.generation, b.generation);
    prop_assert_eq!(a.tokenizer, b.tokenizer);
    let rows = |c: &CacheArtifact| -> Vec<(Vec<TokenId>, Vec<u64>)> {
        c.entries
            .iter()
            .map(|(context, row)| (context.clone(), bits(row)))
            .collect()
    };
    prop_assert_eq!(rows(a), rows(b));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_payload_and_decode_match_the_v1_oracle(plan in plan_artifact()) {
        let file = plan.to_bytes();
        let expected = encode_plan(&plan);
        prop_assert!(file[HEADER_BYTES..] == expected[..], "payload bytes differ");
        // A real version-1 file of the same plan is another build's.
        prop_assert_eq!(
            PlanArtifact::from_bytes(&frame_v1(PLAN_MAGIC, &expected)).map(|_| ()),
            Err(StoreError::UnsupportedVersion(1))
        );
        prop_assert_eq!(file.len(), file.capacity(), "sized exactly, never regrown");
        let live = PlanArtifact::from_bytes(&file).map_err(|e| e.to_string())?;
        let oracle = decode_plan(&expected).map_err(|e| e.to_string())?;
        same_plan(&live, &oracle)?;
        same_plan(&live, &plan)?;
    }

    #[test]
    fn cache_payload_and_decode_match_the_v1_oracle(cache in cache_artifact()) {
        let file = cache.to_bytes();
        let expected = encode_cache(&cache);
        prop_assert!(file[HEADER_BYTES..] == expected[..], "payload bytes differ");
        prop_assert_eq!(
            CacheArtifact::from_bytes(&frame_v1(CACHE_MAGIC, &expected)).map(|_| ()),
            Err(StoreError::UnsupportedVersion(1))
        );
        prop_assert_eq!(file.len(), file.capacity(), "sized exactly, never regrown");
        let live = CacheArtifact::from_bytes(&file).map_err(|e| e.to_string())?;
        let oracle = decode_cache(&expected).map_err(|e| e.to_string())?;
        same_cache(&live, &oracle)?;
        same_cache(&live, &cache)?;
    }

    // Whatever the oracle rejects the live decoder rejects, and what it
    // accepts the live decoder reads the same way: one payload byte
    // overwritten at a time, no checksum in the way.
    #[test]
    fn mutated_payloads_decode_like_the_v1_oracle(
        plan in plan_artifact(),
        first in 0usize..1 << 16,
        value in 0u8..=255,
    ) {
        let good = encode_plan(&plan);
        for step in 0..64 {
            let mut payload = good.clone();
            let pos = (first + step * 257) % payload.len();
            payload[pos] = value.wrapping_add(step as u8);
            match (PlanArtifact::decode(LiveReader::new(&payload)), decode_plan(&payload)) {
                (Ok(live), Ok(oracle)) => same_plan(&live, &oracle)?,
                (Err(StoreError::Corrupt(_)), Err(StoreError::Corrupt(_))) => {}
                (live, oracle) => prop_assert!(
                    false,
                    "byte {pos}: live {:?} but oracle {:?}",
                    live.map(|_| ()),
                    oracle.map(|_| ())
                ),
            }
        }
    }
}
