//! The store's byte-level wire helpers: the payload checksum, the
//! file-name hash, and little-endian length-checked reads and writes.
//!
//! Everything in a store file is written with `to_le_bytes` and read
//! back with `from_le_bytes` against an explicit remaining-length check
//! — no `unsafe`, no serde, and `f64`s travel as IEEE-754 bit patterns
//! (`to_bits`/`from_bits`) so a round trip is bit-exact. Counts are
//! validated against the bytes actually remaining *before* any buffer
//! is allocated, so a corrupt length field costs an error, not an
//! attempted multi-gigabyte allocation.
//!
//! Reading and writing cost about what moving the bytes costs. A run of
//! fixed-width records (transitions, score rows, walk-table rows) is
//! one length check and one pass over `as_chunks` — the array-typed
//! `chunks_exact` — on either side; the success path of [`Reader`]
//! allocates nothing, because a field is named by a `&'static str` and
//! a message is composed only when an error is built; and a [`Writer`]
//! for a file reserves the header up front and is sized exactly, so the
//! finished payload is checksummed where it lies and never copied.

use crate::StoreError;

/// Current store format version. Readers reject files stamped with
/// *any other* version ([`StoreError::UnsupportedVersion`]): a binary
/// must fail closed on an artifact whose layout or checksum it cannot
/// know, and sessions turn that into a miss — the plan is recompiled
/// and the file overwritten in this build's format.
///
/// Version 2 kept version 1's payload layout and replaced its FNV-1a
/// payload checksum with a word-wise, four-lane one. Version 3 kept
/// that checksum and dropped the plan payload's last field, a tagged
/// list of the prefix automaton's shard bounds.
pub const FORMAT_VERSION: u32 = 3;

/// Magic prefix of a plan artifact file.
pub(crate) const PLAN_MAGIC: [u8; 8] = *b"RELMPLAN";
/// Magic prefix of a scoring-cache snapshot file.
pub(crate) const CACHE_MAGIC: [u8; 8] = *b"RELMCACH";

/// Header size: magic + version + payload length + checksum.
pub(crate) const HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// FNV-1a over `bytes`: the hash in a plan's **file name**
/// (`plan-<fnv1a(key)>.relm`), a few dozen bytes at a time. Payloads
/// are guarded by [`checksum`], not by this.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Lanes of [`checksum`]: four independent multiply chains keep a
/// 64-bit multiplier busy every cycle instead of one cycle in three.
const LANES: usize = 4;
const LANE_SEEDS: [u64; LANES] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];
const MIX: u64 = 0xff51_afd7_ed55_8ccd;

/// One word into a running state. For a fixed `word` this is a
/// bijection of `state` (xor, multiplication by an odd constant and a
/// rotation each are), and for a fixed `state` a bijection of `word`.
#[inline]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(MIX).rotate_left(29)
}

/// The payload checksum of format versions 2 and 3. Not cryptographic
/// — it guards against truncation, bit rot and torn writes, the
/// failure modes of a local artifact cache.
///
/// The payload is read as little-endian 8-byte words. Word `i` of each
/// 32-byte block is absorbed into lane `i`; the words of the last,
/// partial block go to lanes `0..`, and the final 0–7 bytes, zero
/// padded, form one more word. The sum is the payload length with the
/// four lanes and that tail word absorbed in order, then avalanched.
///
/// Every step is a bijection of the state it updates, so two payloads
/// of equal length that differ only inside one aligned word, or only in
/// the tail, **always** differ in their sums — that covers every single
/// flipped bit and every burst within a word. Appending bytes changes
/// the length that seeds the fold. Anything wider (two damaged words) is
/// caught with probability 1 − 2⁻⁶⁴, as with any 64-bit sum.
pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (blocks, rest) = payload.as_chunks::<{ 8 * LANES }>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = absorb(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = absorb(*lane, u64::from_le_bytes(*word));
    }
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    let mut sum = payload.len() as u64;
    for lane in lanes {
        sum = absorb(sum, lane);
    }
    sum = absorb(sum, u64::from_le_bytes(last));
    sum ^= sum >> 32;
    sum = sum.wrapping_mul(MIX);
    sum ^ (sum >> 29)
}

/// Append-only little-endian encoder over one buffer.
#[derive(Debug)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A bare encoder (no header) sized for `bytes`, for the key bytes
    /// hashed into a file name.
    pub(crate) fn bare(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// An encoder for a complete file: the header is laid down now —
    /// magic and version filled in, length and checksum left for
    /// [`Writer::finish`] — and the buffer is sized for
    /// `payload_bytes` of payload, so an exact figure means the file
    /// image is built without a reallocation.
    pub(crate) fn file(magic: [u8; 8], payload_bytes: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_BYTES + payload_bytes);
        buf.extend_from_slice(&magic);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.resize(HEADER_BYTES, 0);
        Writer { buf }
    }

    /// The bytes of a bare encoder.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Seal a [`Writer::file`]: checksum the payload in place, patch
    /// length and checksum into the header, and hand the image over.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let (header, payload) = self.buf.split_at_mut(HEADER_BYTES);
        header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[20..28].copy_from_slice(&checksum(payload).to_le_bytes());
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// One fixed-width record assembled by the caller (a transition).
    pub(crate) fn bytes<const N: usize>(&mut self, record: [u8; N]) {
        self.buf.extend_from_slice(&record);
    }

    /// A run of fixed-width records of known length: one resize, then
    /// each record stored into its slot with no further capacity check.
    fn records<const N: usize>(&mut self, items: impl ExactSizeIterator<Item = [u8; N]>) {
        let start = self.buf.len();
        self.buf.resize(start + items.len() * N, 0);
        let (slots, _) = self.buf[start..].as_chunks_mut::<N>();
        for (slot, item) in slots.iter_mut().zip(items) {
            *slot = item;
        }
    }

    /// A run of `u64`s (fingerprints).
    pub(crate) fn u64s(&mut self, values: &[u64]) {
        self.records(values.iter().map(|v| v.to_le_bytes()));
    }

    /// A run of `u32`s (token ids).
    pub(crate) fn u32s(&mut self, values: &[u32]) {
        self.records(values.iter().map(|v| v.to_le_bytes()));
    }

    /// A run of `f64`s as their bit patterns (a score row, a walk-table
    /// row).
    pub(crate) fn f64s(&mut self, values: &[f64]) {
        self.records(values.iter().map(|v| v.to_bits().to_le_bytes()));
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
            None => self.u8(0),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Length-checked reads made on this thread — what the unit tests
    /// count to pin that a run is one read, however long it is.
    pub(crate) static READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
fn note_read() {
    #[cfg(test)]
    READS.with(|reads| reads.set(reads.get() + 1));
}

/// Length-checked little-endian decoder over a borrowed byte slice.
/// Every read is bounds-checked against the remaining bytes; running
/// out is a [`StoreError::Corrupt`], never a panic. Fields are named by
/// `&'static str`: nothing is formatted, and nothing allocated, unless
/// an error is being built.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Check a complete file image's header — magic, version, payload
    /// length, checksum — and return a reader over its payload. A file
    /// stamped with any version but [`FORMAT_VERSION`] is
    /// [`StoreError::UnsupportedVersion`]: an older layout is as
    /// unknown to this build as a newer one, and the version field
    /// sits outside the checksum, so `!=` is also what catches a bit
    /// flipped in it.
    pub(crate) fn file(bytes: &'a [u8], magic: [u8; 8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_BYTES {
            return Err(StoreError::Corrupt(format!(
                "file holds {} bytes, the header alone needs {HEADER_BYTES}",
                bytes.len()
            )));
        }
        let mut r = Reader::new(bytes);
        if r.array::<8>("header magic")? != magic {
            return Err(StoreError::WrongMagic);
        }
        let version = u32::from_le_bytes(r.array("header version")?);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let payload_len = r.u64("header payload length")?;
        let expected = r.u64("header checksum")?;
        if payload_len != r.remaining() as u64 {
            return Err(StoreError::Corrupt(format!(
                "header says {payload_len} payload bytes, file holds {}",
                r.remaining()
            )));
        }
        let actual = checksum(r.buf);
        if expected != actual {
            return Err(StoreError::ChecksumMismatch { expected, actual });
        }
        Ok(r)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn truncated(&self, what: &'static str, need: usize) -> StoreError {
        StoreError::Corrupt(format!(
            "truncated: {what} needs {need} bytes, {} remain",
            self.remaining()
        ))
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        note_read();
        let (head, rest) = self
            .buf
            .split_at_checked(len)
            .ok_or_else(|| self.truncated(what, len))?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], StoreError> {
        note_read();
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(what, N))?;
        self.buf = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, StoreError> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A presence tag: 0 or 1, anything else is corruption.
    pub(crate) fn flag(&mut self, what: &'static str) -> Result<bool, StoreError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(StoreError::Corrupt(format!(
                "{what} has invalid value {tag}"
            ))),
        }
    }

    /// A `u64` count field, validated so that `count * elem_bytes` does
    /// not exceed the remaining payload — the guard that keeps a
    /// corrupt count from driving a huge allocation.
    pub(crate) fn count(
        &mut self,
        elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, StoreError> {
        let raw = self.u64(what)?;
        let count = usize::try_from(raw)
            .map_err(|_| StoreError::Corrupt(format!("{what} count {raw} overflows usize")))?;
        let need = count.checked_mul(elem_bytes.max(1)).ok_or_else(|| {
            StoreError::Corrupt(format!("{what} count {count} overflows the payload"))
        })?;
        if need > self.remaining() {
            return Err(StoreError::Corrupt(format!(
                "truncated: {what} count {count} needs {need} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// A run of `count` fixed-width records in one length-checked take.
    pub(crate) fn records<const N: usize>(
        &mut self,
        count: usize,
        what: &'static str,
    ) -> Result<&'a [[u8; N]], StoreError> {
        let len = count.checked_mul(N).ok_or_else(|| {
            StoreError::Corrupt(format!("{what} count {count} overflows the payload"))
        })?;
        let (records, _) = self.take(len, what)?.as_chunks::<N>();
        Ok(records)
    }

    /// A run of `count` `u64`s (state ids, fingerprints).
    pub(crate) fn u64s(
        &mut self,
        count: usize,
        what: &'static str,
    ) -> Result<impl Iterator<Item = u64> + 'a, StoreError> {
        let records = self.records::<8>(count, what)?;
        Ok(records.iter().map(|b| u64::from_le_bytes(*b)))
    }

    /// A run of `count` `u32`s (token ids).
    pub(crate) fn u32s(
        &mut self,
        count: usize,
        what: &'static str,
    ) -> Result<impl Iterator<Item = u32> + 'a, StoreError> {
        let records = self.records::<4>(count, what)?;
        Ok(records.iter().map(|b| u32::from_le_bytes(*b)))
    }

    /// A run of `count` `f64`s from their bit patterns. The iterator
    /// knows its length, so collecting it — into a `Vec` or straight
    /// into an `Arc<[f64]>` — is one allocation.
    pub(crate) fn f64s(
        &mut self,
        count: usize,
        what: &'static str,
    ) -> Result<impl Iterator<Item = f64> + 'a, StoreError> {
        Ok(self.u64s(count, what)?.map(f64::from_bits))
    }

    pub(crate) fn str(&mut self, what: &'static str) -> Result<String, StoreError> {
        let len = self.count(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("{what} is not valid UTF-8")))
    }

    pub(crate) fn opt_str(&mut self, what: &'static str) -> Result<Option<String>, StoreError> {
        Ok(match self.flag(what)? {
            true => Some(self.str(what)?),
            false => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        let mut w = Writer::bare(0);
        w.u8(7);
        w.u64(u64::MAX - 1);
        w.bytes([1, 2, 3]);
        w.str("héllo");
        w.opt_str(None);
        w.opt_str(Some("x"));
        w.u64s(&[1, u64::MAX]);
        w.usize(5);
        w.usize(6);
        w.u32s(&[0xdead_beef, 0]);
        w.f64s(&[-0.0, f64::NEG_INFINITY]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.records::<3>(1, "d").unwrap(), [[1, 2, 3]]);
        assert_eq!(r.str("e").unwrap(), "héllo");
        assert_eq!(r.opt_str("f").unwrap(), None);
        assert_eq!(r.opt_str("g").unwrap(), Some("x".into()));
        let u64s: Vec<u64> = r.u64s(4, "h").unwrap().collect();
        assert_eq!(u64s, [1, u64::MAX, 5, 6]);
        let u32s: Vec<u32> = r.u32s(2, "i").unwrap().collect();
        assert_eq!(u32s, [0xdead_beef, 0]);
        let f64s: Vec<u64> = r.f64s(2, "j").unwrap().map(f64::to_bits).collect();
        assert_eq!(f64s, [(-0.0f64).to_bits(), f64::NEG_INFINITY.to_bits()]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u64("v"), Err(StoreError::Corrupt(_))));
        assert!(matches!(r.u64s(1, "v"), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            r.records::<20>(usize::MAX / 2, "v"),
            Err(StoreError::Corrupt(_))
        ));
        assert_eq!(r.remaining(), 2, "a failed read consumes nothing");
    }

    #[test]
    fn absurd_count_is_rejected_before_allocation() {
        let mut w = Writer::bare(0);
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.count(8, "rows"), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn a_file_is_one_exactly_sized_buffer() {
        let mut w = Writer::file(*b"RELMTEST", 8 + 3 * 8);
        w.u64(3);
        w.f64s(&[1.0, 2.0, 3.0]);
        let image = w.finish();
        assert_eq!(image.len(), HEADER_BYTES + 32);
        assert_eq!(image.capacity(), image.len());
        let mut r = Reader::file(&image, *b"RELMTEST").expect("sealed image opens");
        assert_eq!(r.remaining(), 32);
        assert_eq!(r.u64("count").unwrap(), 3);
        assert_eq!(
            Reader::file(&image, *b"RELMPLAN").unwrap_err(),
            StoreError::WrongMagic
        );
    }

    /// The algorithm is part of format versions 2 and 3: these sums are
    /// what every such file on disk was sealed with. (The expected
    /// values come from a separate implementation written from the
    /// rustdoc of `checksum`, not from running it.)
    #[test]
    fn checksum_golden_values() {
        assert_eq!(checksum(b""), 0x3a85_94c4_4c3f_9b22);
        assert_eq!(checksum(b"relm-store"), 0x5ed5_cb64_d5fc_a414);
        // 31 whole blocks, one word in lane 0 and no tail.
        let ramp: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert_eq!(checksum(&ramp), 0x76b9_e617_2c61_e0b2);
    }

    fn payload() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255, 0..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn substituting_one_aligned_word_changes_the_sum(
            bytes in payload(),
            at in 0usize..64,
            word in 0u64..u64::MAX,
        ) {
            let mut bytes = bytes;
            let words = bytes.len() / 8;
            if words > 0 {
                let at = 8 * (at % words);
                let before = checksum(&bytes);
                let old: [u8; 8] = bytes[at..at + 8].try_into().expect("eight bytes");
                if old != word.to_le_bytes() {
                    bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
                    prop_assert_ne!(checksum(&bytes), before);
                }
            }
        }

        #[test]
        fn changing_any_tail_byte_changes_the_sum(
            bytes in payload(),
            at in 0usize..8,
            flip in 1u8..=255,
        ) {
            let mut bytes = bytes;
            let tail = bytes.len() % 8;
            if tail > 0 {
                let at = bytes.len() - tail + at % tail;
                let before = checksum(&bytes);
                bytes[at] ^= flip;
                prop_assert_ne!(checksum(&bytes), before);
            }
        }

        #[test]
        fn appending_zero_bytes_changes_the_sum(bytes in payload(), zeros in 1usize..40) {
            let mut bytes = bytes;
            let before = checksum(&bytes);
            bytes.resize(bytes.len() + zeros, 0);
            prop_assert_ne!(checksum(&bytes), before);
        }

        #[test]
        fn lane_order_matters(bytes in payload(), a in 0usize..64, b in 0usize..64) {
            let mut bytes = bytes;
            let words = bytes.len() / 8;
            if words > 1 {
                let (a, b) = (a % words, b % words);
                let word = |bytes: &[u8], i: usize| -> [u8; 8] {
                    bytes[8 * i..8 * i + 8].try_into().expect("eight bytes")
                };
                let (wa, wb) = (word(&bytes, a), word(&bytes, b));
                // Two different words that sit in different lanes.
                if a % LANES != b % LANES && wa != wb {
                    let before = checksum(&bytes);
                    bytes[8 * a..8 * a + 8].copy_from_slice(&wb);
                    bytes[8 * b..8 * b + 8].copy_from_slice(&wa);
                    prop_assert_ne!(checksum(&bytes), before);
                }
            }
        }
    }
}
