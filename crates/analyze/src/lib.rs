//! `relm-analyze` — the workspace's self-hosted invariant linter.
//!
//! Every byte-identity proof in this repo (warm==cold, sharded==serial,
//! served==solo) rests on invariants `rustc` cannot see: no panics on
//! served paths, no wall-clock/environment/OS-RNG influence on scores,
//! no lock acquisitions against the blessed hierarchy now that N
//! server shards share one memo/cache/store/pool, and no wire-format
//! edits without a version bump. This crate turns those DESIGN.md
//! prose invariants into a machine-checked analysis pass: a hand-rolled
//! Rust token scanner ([`lexer`]) feeds four analysis families
//! ([`sites`], [`locks`], [`wire`]) and a reachability check on the
//! public surface ([`reach`]), findings are typed and
//! `file:line`-addressed ([`findings`]), suppression is explicit
//! (`// lint: allow(family, "why the invariant holds")` in source, or
//! the committed `lint.baseline` for accepted findings of the
//! baselinable families), and
//! the `relm_lint` binary gates CI on zero new findings.
//!
//! The crate is dependency-free and — like everything it lints —
//! `#![forbid(unsafe_code)]`.

#![forbid(unsafe_code)]

pub mod findings;
pub mod lexer;
pub mod locks;
pub mod reach;
pub mod scan;
pub mod sites;
pub mod wire;
pub mod workspace;

pub use findings::{Baseline, Family, Finding};
pub use lexer::{lex, Tok, TokKind};
pub use scan::{FileKind, SourceFile};
pub use workspace::{run, Report};
