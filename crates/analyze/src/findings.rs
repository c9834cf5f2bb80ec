//! Typed diagnostics and the accepted-findings baseline.
//!
//! A finding's identity (`key()`) is deliberately line-number-free:
//! `family path token#ordinal`, where the ordinal counts same-token
//! findings within the file in scan order. Unrelated edits above a
//! site therefore don't invalidate the baseline, while adding a new
//! site of the same shape shifts ordinals and correctly demands a
//! fresh decision.

use std::collections::BTreeMap;
use std::fmt;

/// The analysis families. `Panic`, `Nondet`/`FloatFmt`, `LockOrder`
/// and `Wire` are the four invariant families from DESIGN.md;
/// `UnsafeCode` enforces the workspace-wide `forbid(unsafe_code)`
/// rule, `DeadPub` reports public items nothing outside their own
/// file names, and `UnusedAllow` keeps annotations honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Panic,
    Nondet,
    FloatFmt,
    LockOrder,
    Wire,
    UnsafeCode,
    DeadPub,
    UnusedAllow,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Panic => "panic",
            Family::Nondet => "nondet",
            Family::FloatFmt => "float_fmt",
            Family::LockOrder => "lock_order",
            Family::Wire => "wire",
            Family::UnsafeCode => "unsafe_code",
            Family::DeadPub => "dead_pub",
            Family::UnusedAllow => "unused_allow",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: where, what, and a stable identity for baselining.
#[derive(Debug, Clone)]
pub struct Finding {
    pub family: Family,
    pub path: String,
    pub line: u32,
    /// The offending token or symbol (`unwrap`, `Instant::now`,
    /// `PlanArtifact`, a lock-edge description, …).
    pub token: String,
    /// Ordinal among findings with the same (family, path, token).
    pub ordinal: u32,
    pub message: String,
}

impl Finding {
    /// The baseline identity line for this finding.
    pub fn key(&self) -> String {
        format!(
            "{} {} {}#{}",
            self.family, self.path, self.token, self.ordinal
        )
    }

    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {} ({}#{})",
            self.path, self.line, self.family, self.message, self.token, self.ordinal
        )
    }
}

/// Assign ordinals in place: findings arrive in scan order, so the
/// n-th `unwrap` finding of a file gets ordinal n.
pub fn assign_ordinals(findings: &mut [Finding]) {
    let mut seen: BTreeMap<(String, String, String), u32> = BTreeMap::new();
    for f in findings.iter_mut() {
        let slot = seen
            .entry((f.family.name().into(), f.path.clone(), f.token.clone()))
            .or_insert(0);
        f.ordinal = *slot;
        *slot += 1;
    }
}

/// The committed baseline: accepted finding keys plus the recorded
/// wire-format fingerprints (`wire:` lines carry the fingerprint and
/// the format version it was taken under).
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// Accepted finding keys, each usable once per run.
    pub accepted: Vec<(String, bool)>,
    /// `struct name -> (fingerprint, format version)`.
    pub wire: BTreeMap<String, (u64, u32)>,
}

impl Baseline {
    pub fn parse(text: &str) -> Baseline {
        let mut baseline = Baseline::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("wire-fingerprint ") {
                let mut parts = rest.split_whitespace();
                let (name, fp, ver) = (parts.next(), parts.next(), parts.next());
                if let (Some(name), Some(fp), Some(ver)) = (name, fp, ver) {
                    let fp = u64::from_str_radix(fp.trim_start_matches("fp="), 16).unwrap_or(0);
                    let ver = ver.trim_start_matches("version=").parse().unwrap_or(0);
                    baseline.wire.insert(name.to_string(), (fp, ver));
                }
            } else {
                baseline.accepted.push((line.to_string(), false));
            }
        }
        baseline
    }

    /// Consume an acceptance for `key` if present and unused.
    pub fn take(&mut self, key: &str) -> bool {
        match self.accepted.iter_mut().find(|(k, used)| !used && k == key) {
            Some(slot) => {
                slot.1 = true;
                true
            }
            None => false,
        }
    }

    pub fn len(&self) -> usize {
        self.accepted.len() + self.wire.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render a fresh baseline accepting exactly `findings` (their
    /// keys, sorted) over the given wire fingerprints.
    pub fn render(findings: &[Finding], wire: &BTreeMap<String, (u64, u32)>) -> String {
        let mut out = String::from(
            "# relm_lint baseline — accepted findings and wire-format fingerprints.\n\
             # Regenerate with `cargo run --bin relm_lint -- --update-baseline`;\n\
             # CI fails if regeneration would change this file.\n",
        );
        for (name, (fp, ver)) in wire {
            out.push_str(&format!(
                "wire-fingerprint {name} fp={fp:016x} version={ver}\n"
            ));
        }
        let mut keys: Vec<String> = findings.iter().map(Finding::key).collect();
        keys.sort();
        for key in keys {
            out.push_str(&key);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(tok: &str) -> Finding {
        Finding {
            family: Family::Panic,
            path: "a.rs".into(),
            line: 3,
            token: tok.into(),
            ordinal: 0,
            message: "m".into(),
        }
    }

    #[test]
    fn ordinals_count_per_token() {
        let mut fs = vec![finding("unwrap"), finding("expect"), finding("unwrap")];
        assign_ordinals(&mut fs);
        assert_eq!(
            fs.iter().map(|f| f.ordinal).collect::<Vec<_>>(),
            vec![0, 0, 1]
        );
        assert_eq!(fs[2].key(), "panic a.rs unwrap#1");
    }

    #[test]
    fn baseline_round_trip() {
        let mut fs = vec![finding("unwrap"), finding("unwrap")];
        assign_ordinals(&mut fs);
        let mut wire = BTreeMap::new();
        wire.insert("PlanArtifact".to_string(), (0xabcdu64, 1u32));
        let text = Baseline::render(&fs, &wire);
        let mut parsed = Baseline::parse(&text);
        assert_eq!(parsed.wire.get("PlanArtifact"), Some(&(0xabcd, 1)));
        assert!(parsed.take("panic a.rs unwrap#0"));
        assert!(parsed.take("panic a.rs unwrap#1"));
        assert!(
            !parsed.take("panic a.rs unwrap#1"),
            "acceptances are single-use"
        );
    }
}
