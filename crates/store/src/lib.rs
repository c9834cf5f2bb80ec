//! `relm-store` — a versioned, checksummed on-disk store for compiled
//! ReLM plans and scoring-cache snapshots: compile once, serve
//! everywhere.
//!
//! All warmth a `Relm` client accumulates (the compiled-plan memo, the
//! shared scoring cache) dies with its process, so every server
//! replica, CI run, and bench re-pays the cold compile path. This crate
//! makes warmth a durable artifact: a [`PlanStore`] directory holds one
//! file per compiled plan — prefix and body automata, deferred filters,
//! walk table — keyed by exactly the in-memory memo key
//! ([`ArtifactKey`]), plus an optional snapshot of the shared scoring
//! cache ([`CacheArtifact`]) tagged with its generation.
//!
//! # Format
//!
//! Hand-rolled little-endian, like the serve wire protocol — no
//! `unsafe`, no serde. Every file is
//!
//! ```text
//! magic (8 bytes) | version (u32 LE) | payload length (u64 LE)
//! | checksum of payload (u64 LE) | payload
//! ```
//!
//! and every multi-byte integer in the payload is `to_le_bytes`;
//! `f64`s travel as IEEE-754 bit patterns (`to_bits`/`from_bits`), so
//! a plan loaded from disk is bit-for-bit the plan that was saved.
//! The checksum (since format version 2) reads the payload eight bytes
//! at a time into four interleaved lanes; any damage confined to one
//! aligned word is certain to change it. Format version 3 is version
//! 2's layout without the plan's trailing shard-bounds field. A file
//! stamped with any version other than [`FORMAT_VERSION`] is
//! [`StoreError::UnsupportedVersion`] — to a session a plain miss,
//! recompiled and overwritten (version 2 files included). FNV-1a
//! survives only in plan file *names*.
//! Reads are length-checked into preallocated buffers whose sizes are
//! validated against the bytes actually present, so corrupt files —
//! truncated, bit-flipped, wrong-magic, other-version — surface a
//! typed [`StoreError`], never a panic or a runaway allocation.
//!
//! # Cost
//!
//! Saving and loading cost about what moving the bytes costs: one
//! buffer per file, sized exactly, checksummed where it lies; runs of
//! fixed-width fields read and written in one step each; no allocation
//! on the decoder's success path beyond the structures it returns; and
//! score rows shared by reference count with the cache on either side
//! ([`CacheArtifact`]). DESIGN.md, "Store cost", has the numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod artifact;
#[cfg(test)]
mod oracle;
mod store;
mod wire;

pub use artifact::{ArtifactKey, CacheArtifact, PlanArtifact};
pub use store::PlanStore;
pub use wire::FORMAT_VERSION;

/// A typed store failure. Corruption in any form fails closed: callers
/// (the session integration) treat every variant as "no usable
/// artifact" and fall back to compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed (message of the underlying
    /// `std::io::Error`).
    Io(String),
    /// The file does not start with a relm-store magic.
    WrongMagic,
    /// The file is stamped with a format version other than this
    /// build's [`FORMAT_VERSION`] — older or newer, its layout or its
    /// checksum is not the one this build knows.
    UnsupportedVersion(u32),
    /// The payload bytes do not match the recorded checksum.
    ChecksumMismatch {
        /// The checksum recorded in the header.
        expected: u64,
        /// The checksum of the payload actually read.
        actual: u64,
    },
    /// The payload is structurally invalid (truncated fields,
    /// out-of-range state ids, ragged walk-table rows, ...).
    Corrupt(String),
    /// The artifact decodes cleanly but answers a different key than
    /// the one it was looked up under (file-name hash collision or a
    /// renamed file).
    KeyMismatch,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::WrongMagic => write!(f, "not a relm-store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "store format version {v} is not this build's ({FORMAT_VERSION})"
            ),
            StoreError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch (expected {expected:016x}, got {actual:016x})"
            ),
            StoreError::Corrupt(msg) => write!(f, "corrupt store payload: {msg}"),
            StoreError::KeyMismatch => {
                write!(
                    f,
                    "artifact answers a different key than it was looked up under"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Say which part of the artifact a structural error came from.
    /// Decoders name fields with static strings and never format on the
    /// success path; the context is composed here, once an error
    /// exists.
    pub(crate) fn within(self, context: impl std::fmt::Display) -> StoreError {
        match self {
            StoreError::Corrupt(msg) => StoreError::Corrupt(format!("{context}: {msg}")),
            other => other,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err.to_string())
    }
}
