//! The artifact payloads and their encodings.
//!
//! A **plan artifact** is everything a session's plan memo holds for
//! one compiled query: the optional prefix automaton, the body token
//! automaton (shortcut edges are its transitions) with its
//! canonical-check flag, the deferred filter automata, and — when it
//! was built before the snapshot — the walk table. It is keyed by
//! exactly the in-memory memo key: pattern, prefix, tokenization
//! strategy, preprocessor fingerprints, and tokenizer fingerprint.
//!
//! A **cache artifact** is a snapshot of a `SharedScoringCache`'s live
//! entries, tagged with the generation and tokenizer fingerprint they
//! were computed under so a restore can fail closed.
//!
//! Decoding validates structure end to end — a decoded automaton goes
//! through [`Dfa::try_from_parts`], walk rows through
//! [`WalkTable::from_exact_rows`] — so a corrupt payload that survives
//! the checksum still surfaces a typed error, never a panic.
//!
//! There is one encoder and one decoder per artifact. The plan encoder
//! reads a borrowed [`PlanView`], so an owned [`PlanArtifact`] and a
//! plan still sitting in a session's memo are written by the same code
//! and neither is cloned to be saved. Both encoders size their buffer
//! exactly before writing (`encoded_len`), and the decoders read every
//! run of fixed-width fields — accepting states, transitions, table
//! rows, context tokens, score rows — in one length-checked step.

use std::sync::Arc;

use relm_automata::{Dfa, StateId, Symbol, WalkTable};
use relm_bpe::TokenId;

use crate::wire::{Reader, Writer, CACHE_MAGIC, PLAN_MAGIC};
use crate::StoreError;

/// The store's key for a compiled plan — field for field the session
/// plan memo's in-memory key, so a disk hit is exactly a memo hit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// The query pattern source.
    pub pattern: String,
    /// The conditioning prefix, if any.
    pub prefix: Option<String>,
    /// The tokenization strategy, encoded as a stable `u8`
    /// (0 = canonical, 1 = all encodings).
    pub tokenization: u8,
    /// Structural fingerprints of the query's preprocessors, in
    /// application order.
    pub preprocessors: Vec<u64>,
    /// The tokenizer fingerprint the plan was compiled against.
    pub tokenizer: u64,
}

impl ArtifactKey {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.pattern);
        w.opt_str(self.prefix.as_deref());
        w.u8(self.tokenization);
        w.usize(self.preprocessors.len());
        w.u64s(&self.preprocessors);
        w.u64(self.tokenizer);
    }

    fn encoded_len(&self) -> usize {
        let prefix = self.prefix.as_ref().map_or(0, |p| 8 + p.len());
        8 + self.pattern.len() + 1 + prefix + 1 + 8 + 8 * self.preprocessors.len() + 8
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let pattern = r.str("key pattern")?;
        let prefix = r.opt_str("key prefix")?;
        let tokenization = r.u8("key tokenization")?;
        let count = r.count(8, "key preprocessors")?;
        let preprocessors = r.u64s(count, "key preprocessor fingerprints")?.collect();
        let tokenizer = r.u64("key tokenizer fingerprint")?;
        Ok(ArtifactKey {
            pattern,
            prefix,
            tokenization,
            preprocessors,
            tokenizer,
        })
    }

    /// The bytes hashed into the artifact's file name.
    pub(crate) fn encoded(&self) -> Vec<u8> {
        let mut w = Writer::bare(self.encoded_len());
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// One compiled plan, ready to be re-seated in a session's memo.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// The memo key this plan answers.
    pub key: ArtifactKey,
    /// The prefix token automaton, when the query has a prefix.
    pub prefix: Option<Dfa>,
    /// The body token automaton (shortcut edges included).
    pub body: Dfa,
    /// Whether executions must re-check canonical tokenization.
    pub needs_canonical_check: bool,
    /// Deferred filter automata, in application order.
    pub deferred_filters: Vec<Dfa>,
    /// The sampling walk table, when one had been built.
    pub walk_table: Option<WalkTable>,
}

/// The borrowed form of a plan — what the encoder reads. An owned
/// [`PlanArtifact`] lends one of itself; a session lends one of a plan
/// in its memo ([`crate::PlanStore::save_plan_parts`]).
#[derive(Debug)]
pub(crate) struct PlanView<'a> {
    pub(crate) key: &'a ArtifactKey,
    pub(crate) prefix: Option<&'a Dfa>,
    pub(crate) body: &'a Dfa,
    pub(crate) needs_canonical_check: bool,
    pub(crate) deferred_filters: &'a [Dfa],
    pub(crate) walk_table: Option<&'a WalkTable>,
}

fn accepting_states(dfa: &Dfa) -> impl Iterator<Item = StateId> + '_ {
    (0..dfa.state_count()).filter(|&s| dfa.is_accepting(s))
}

fn dfa_encoded_len(dfa: &Dfa) -> usize {
    4 * 8 + 8 * accepting_states(dfa).count() + TRANSITION_BYTES * dfa.transition_count()
}

/// One transition on the wire: source (u64), symbol (u32), target (u64).
const TRANSITION_BYTES: usize = 8 + 4 + 8;

fn transition_record(from: StateId, symbol: Symbol, to: StateId) -> [u8; TRANSITION_BYTES] {
    let mut record = [0u8; TRANSITION_BYTES];
    record[..8].copy_from_slice(&(from as u64).to_le_bytes());
    record[8..12].copy_from_slice(&symbol.to_le_bytes());
    record[12..].copy_from_slice(&(to as u64).to_le_bytes());
    record
}

fn read_transition(record: &[u8; TRANSITION_BYTES]) -> (StateId, Symbol, StateId) {
    let [f0, f1, f2, f3, f4, f5, f6, f7, s0, s1, s2, s3, t0, t1, t2, t3, t4, t5, t6, t7] = *record;
    (
        u64::from_le_bytes([f0, f1, f2, f3, f4, f5, f6, f7]) as StateId,
        u32::from_le_bytes([s0, s1, s2, s3]),
        u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]) as StateId,
    )
}

fn encode_dfa(w: &mut Writer, dfa: &Dfa) {
    w.usize(dfa.state_count());
    w.usize(dfa.start());
    w.usize(accepting_states(dfa).count());
    for s in accepting_states(dfa) {
        w.usize(s);
    }
    w.usize(dfa.transition_count());
    for from in 0..dfa.state_count() {
        for (symbol, to) in dfa.transitions(from) {
            w.bytes(transition_record(from, symbol, to));
        }
    }
}

/// Field names are bare ("transitions"); the caller says *which*
/// automaton when an error comes back ([`StoreError::within`]).
fn decode_dfa(r: &mut Reader<'_>) -> Result<Dfa, StoreError> {
    let state_count = r.count(0, "state count")?;
    let start = r.u64("start state")? as StateId;
    let accepting_count = r.count(8, "accepting count")?;
    let accepting: Vec<StateId> = r
        .u64s(accepting_count, "accepting states")?
        .map(|s| s as StateId)
        .collect();
    let transition_count = r.count(TRANSITION_BYTES, "transition count")?;
    let transitions: Vec<(StateId, Symbol, StateId)> = r
        .records(transition_count, "transitions")?
        .iter()
        .map(read_transition)
        .collect();
    // Degenerate special case: a zero-state automaton cannot satisfy
    // `start < state_count`, and no in-process construction produces
    // one (`Dfa::empty()` has one state), so reject it outright.
    Dfa::try_from_parts(state_count, start, &accepting, &transitions)
        .ok_or_else(|| StoreError::Corrupt("is not a valid DFA".into()))
}

impl PlanView<'_> {
    /// Exactly the payload bytes [`PlanView::encode`] writes, so the
    /// file image is allocated once.
    fn encoded_len(&self) -> usize {
        let mut len = self.key.encoded_len();
        len += 1 + self.prefix.map_or(0, dfa_encoded_len);
        len += dfa_encoded_len(self.body) + 1;
        len += 8 + self
            .deferred_filters
            .iter()
            .map(dfa_encoded_len)
            .sum::<usize>();
        len += 1 + self.walk_table.map_or(0, |table| {
            let cells: usize = table.exact_rows().iter().map(Vec::len).sum();
            8 + 8 + 8 * cells
        });
        len
    }

    fn encode(&self, w: &mut Writer) {
        self.key.encode(w);
        match self.prefix {
            Some(dfa) => {
                w.u8(1);
                encode_dfa(w, dfa);
            }
            None => w.u8(0),
        }
        encode_dfa(w, self.body);
        w.u8(u8::from(self.needs_canonical_check));
        w.usize(self.deferred_filters.len());
        for filter in self.deferred_filters {
            encode_dfa(w, filter);
        }
        match self.walk_table {
            Some(table) => {
                w.u8(1);
                w.usize(table.max_len());
                let rows = table.exact_rows();
                w.usize(rows.first().map_or(0, Vec::len));
                for row in rows {
                    w.f64s(row);
                }
            }
            None => w.u8(0),
        }
    }

    /// The complete framed file image.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::file(PLAN_MAGIC, self.encoded_len());
        self.encode(&mut w);
        w.finish()
    }
}

impl PlanArtifact {
    fn view(&self) -> PlanView<'_> {
        PlanView {
            key: &self.key,
            prefix: self.prefix.as_ref(),
            body: &self.body,
            needs_canonical_check: self.needs_canonical_check,
            deferred_filters: &self.deferred_filters,
            walk_table: self.walk_table.as_ref(),
        }
    }

    /// Serialize the artifact as a complete framed file image — header
    /// (magic, version, payload length, checksum) plus payload. These
    /// are exactly the bytes [`crate::PlanStore::save_plan`] writes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.view().to_bytes()
    }

    /// Parse and fully validate a framed file image (the inverse of
    /// [`PlanArtifact::to_bytes`]). Every corruption mode — bad magic,
    /// a version other than this build's, checksum mismatch, truncated
    /// or structurally invalid payload — is a typed [`StoreError`],
    /// never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode(Reader::file(bytes, PLAN_MAGIC)?)
    }

    /// Decode and structurally validate an artifact payload.
    pub(crate) fn decode(mut r: Reader<'_>) -> Result<Self, StoreError> {
        let key = ArtifactKey::decode(&mut r)?;
        let prefix = match r.flag("prefix automaton tag")? {
            true => Some(decode_dfa(&mut r).map_err(|e| e.within("prefix automaton"))?),
            false => None,
        };
        let body = decode_dfa(&mut r).map_err(|e| e.within("body automaton"))?;
        let needs_canonical_check = r.flag("canonical-check flag")?;
        let filter_count = r.count(1, "deferred filter count")?;
        let mut deferred_filters = Vec::with_capacity(filter_count);
        for i in 0..filter_count {
            let filter =
                decode_dfa(&mut r).map_err(|e| e.within(format_args!("deferred filter {i}")))?;
            deferred_filters.push(filter);
        }
        let walk_table = match r.flag("walk-table tag")? {
            false => None,
            true => {
                let max_len = r.count(0, "walk-table max length")?;
                let states = r.count(0, "walk-table state count")?;
                let rows = max_len
                    .checked_add(1)
                    .ok_or_else(|| StoreError::Corrupt("walk-table max length overflows".into()))?;
                let cells = rows
                    .checked_mul(states)
                    .ok_or_else(|| StoreError::Corrupt("walk-table dimensions overflow".into()))?;
                if cells.checked_mul(8).is_none_or(|need| need > r.remaining()) {
                    return Err(StoreError::Corrupt(format!(
                        "truncated: walk table needs {rows}x{states} cells, {} bytes remain",
                        r.remaining()
                    )));
                }
                let mut exact = Vec::with_capacity(rows);
                for _ in 0..rows {
                    exact.push(r.f64s(states, "walk-table row")?.collect());
                }
                // Sampling walks run over the *prefix* automaton, so
                // the serialized row width must match its state count.
                let prefix = prefix.as_ref().ok_or_else(|| {
                    StoreError::Corrupt("walk table present without a prefix automaton".into())
                })?;
                if states != prefix.state_count() {
                    return Err(StoreError::Corrupt(format!(
                        "walk table covers {states} states, prefix automaton has {}",
                        prefix.state_count()
                    )));
                }
                Some(WalkTable::from_exact_rows(exact, max_len).ok_or_else(|| {
                    StoreError::Corrupt("walk table rows are structurally invalid".into())
                })?)
            }
        };
        if r.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after the artifact payload",
                r.remaining()
            )));
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

    /// Rough resident size of the artifact's automata and tables, for
    /// `ls` reports.
    pub fn estimated_bytes(&self) -> usize {
        let mut bytes = self.body.estimated_bytes();
        if let Some(prefix) = &self.prefix {
            bytes += prefix.estimated_bytes();
        }
        for filter in &self.deferred_filters {
            bytes += filter.estimated_bytes();
        }
        if let Some(table) = &self.walk_table {
            bytes += table.estimated_bytes();
        }
        bytes
    }
}

/// A snapshot of a shared scoring cache's live entries.
///
/// A score row is an `Arc<[f64]>` on both sides of the store: the
/// exporting cache hands out the rows it holds (a reference count each,
/// no copy), the encoder reads them in place, and the decoder collects
/// each row straight into the `Arc` the importing cache will seat — so
/// the snapshot's megabytes are written once and read once.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArtifact {
    /// The cache generation the entries were exported under. A restore
    /// must refuse entries whose generation does not match the target
    /// cache's current generation — after a `swap_model` or
    /// `swap_tokenizer` the tag differs and the import becomes a no-op.
    pub generation: u64,
    /// The tokenizer fingerprint the contexts were encoded with.
    pub tokenizer: u64,
    /// `(context, next-token log-distribution)` pairs, the rows shared
    /// with whichever cache they came from or go to.
    pub entries: Vec<(Vec<TokenId>, Arc<[f64]>)>,
}

impl CacheArtifact {
    /// Serialize as a complete framed file image (see
    /// [`PlanArtifact::to_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::file(CACHE_MAGIC, self.encoded_len());
        w.u64(self.generation);
        w.u64(self.tokenizer);
        w.usize(self.entries.len());
        for (context, distribution) in &self.entries {
            w.usize(context.len());
            w.u32s(context);
            w.usize(distribution.len());
            w.f64s(distribution);
        }
        w.finish()
    }

    /// Exactly the payload bytes [`CacheArtifact::to_bytes`] writes.
    fn encoded_len(&self) -> usize {
        let rows = self.entries.iter();
        3 * 8
            + rows
                .map(|(context, row)| 8 + 4 * context.len() + 8 + 8 * row.len())
                .sum::<usize>()
    }

    /// Parse and fully validate a framed file image (the inverse of
    /// [`CacheArtifact::to_bytes`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode(Reader::file(bytes, CACHE_MAGIC)?)
    }

    pub(crate) fn decode(mut r: Reader<'_>) -> Result<Self, StoreError> {
        let generation = r.u64("cache generation")?;
        let tokenizer = r.u64("cache tokenizer fingerprint")?;
        let entry_count = r.count(16, "cache entry count")?;
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let context_len = r.count(4, "cache context length")?;
            let context = r.u32s(context_len, "cache context tokens")?.collect();
            let row_len = r.count(8, "cache distribution length")?;
            let row = r.f64s(row_len, "cache distribution")?.collect();
            entries.push((context, row));
        }
        if r.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after the cache payload",
                r.remaining()
            )));
        }
        Ok(CacheArtifact {
            generation,
            tokenizer,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::READS;

    fn reads_of<T>(decode: impl FnOnce() -> Result<T, StoreError>) -> (T, usize) {
        let before = READS.with(std::cell::Cell::get);
        let value = decode().expect("a file this test wrote decodes");
        (value, READS.with(std::cell::Cell::get) - before)
    }

    /// A full automaton over `symbols` symbols: every edge present.
    fn dense_dfa(states: usize, symbols: u32) -> Dfa {
        let transitions: Vec<(StateId, Symbol, StateId)> = (0..states)
            .flat_map(|s| (0..symbols).map(move |a| (s, a, (s + a as usize) % states)))
            .collect();
        Dfa::from_parts(states, 0, &[states - 1], &transitions)
    }

    /// The decoder's work is counted in length-checked reads: one per
    /// scalar and one per *run*, so a plan costs a few reads per
    /// automaton and per table row however many transitions and cells
    /// those hold, and a snapshot four per score row however wide the
    /// vocabulary. A field-at-a-time reader — the shape that also paid a
    /// `format!` per field for its label — fails this by two orders of
    /// magnitude. (Labels cannot regress quietly: the readers take
    /// `&'static str`, which a formatted `String` is not. A counting
    /// global allocator would say the same in allocations, but
    /// implementing `GlobalAlloc` takes `unsafe`, which this workspace
    /// forbids in every file.)
    #[test]
    fn decoding_costs_one_read_per_run_not_per_field() {
        let prefix = dense_dfa(40, 30);
        let plan = PlanArtifact {
            key: ArtifactKey {
                pattern: "dense".into(),
                prefix: Some("p".into()),
                tokenization: 1,
                preprocessors: vec![1, 2, 3],
                tokenizer: 9,
            },
            walk_table: Some(WalkTable::new(&prefix, 7)),
            prefix: Some(prefix),
            body: dense_dfa(25, 40),
            needs_canonical_check: false,
            deferred_filters: vec![dense_dfa(3, 5), dense_dfa(2, 2)],
        };
        let transitions = 40 * 30 + 25 * 40 + 3 * 5 + 2 * 2;
        let (automata, table_rows) = (4, 8);
        let bytes = plan.to_bytes();
        let (decoded, reads) = reads_of(|| PlanArtifact::from_bytes(&bytes));
        assert_eq!(decoded.body.transition_count(), 25 * 40);
        assert!(transitions >= 1_000);
        assert!(
            reads <= 32 + 6 * automata + table_rows,
            "{reads} reads for {automata} automata and {table_rows} table rows"
        );

        let rows = 64;
        let cache = CacheArtifact {
            generation: 1,
            tokenizer: 9,
            entries: (0..rows)
                .map(|i| (vec![i as TokenId; 5], vec![-(i as f64); 700].into()))
                .collect(),
        };
        let bytes = cache.to_bytes();
        let (decoded, reads) = reads_of(|| CacheArtifact::from_bytes(&bytes));
        assert_eq!(decoded, cache);
        assert_eq!(reads, 4 + 3 + 4 * rows, "header, preamble, four per row");
    }
}
