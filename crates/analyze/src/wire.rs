//! Wire-format drift detection.
//!
//! The store artifacts (`PlanArtifact`, `CacheArtifact`, `ArtifactKey`)
//! and the serve protocol frames (`Request`, `Response`) are
//! hand-encoded: nothing ties their Rust field lists to the bytes on
//! disk or on the socket, so an innocent-looking field edit silently
//! changes the format while old readers still accept the magic and
//! version. This analysis fingerprints each watched type's normalized
//! definition tokens (FNV-1a, comments stripped) and compares against
//! the committed baseline: a changed fingerprint with an *unchanged*
//! format version is a finding — bump the version (or revert), then
//! `--update-baseline`.

use std::collections::BTreeMap;

use crate::findings::{Family, Finding};
use crate::scan::SourceFile;

/// The watched types: (path suffix, type name, version constant).
/// The version constant must live in the same crate and gate readers.
const WATCHED: [(&str, &str, &str); 5] = [
    (
        "crates/store/src/artifact.rs",
        "ArtifactKey",
        "FORMAT_VERSION",
    ),
    (
        "crates/store/src/artifact.rs",
        "PlanArtifact",
        "FORMAT_VERSION",
    ),
    (
        "crates/store/src/artifact.rs",
        "CacheArtifact",
        "FORMAT_VERSION",
    ),
    (
        "crates/serve/src/protocol.rs",
        "Request",
        "PROTOCOL_VERSION",
    ),
    (
        "crates/serve/src/protocol.rs",
        "Response",
        "PROTOCOL_VERSION",
    ),
];

/// FNV-1a over bytes — same constants as `relm_store::wire::fnv1a`,
/// re-derived here because the linter depends on nothing it lints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Current fingerprints: type name -> (fingerprint, version).
pub type Fingerprints = BTreeMap<String, (u64, u32)>;

/// Compute fingerprints for every watched type found in `files`, and
/// report drift against `baseline`. Missing types or version
/// constants are findings too: the watch list must track reality.
pub fn check(
    files: &[SourceFile],
    baseline: &Fingerprints,
    findings: &mut Vec<Finding>,
) -> Fingerprints {
    let mut current = Fingerprints::new();
    for (path_suffix, type_name, version_const) in WATCHED {
        let Some(file) = files.iter().find(|f| f.path.ends_with(path_suffix)) else {
            continue; // partial runs (fixtures) just skip absent files
        };
        let fp = match fingerprint_type(file, type_name) {
            Some(fp) => fp,
            None => {
                findings.push(Finding {
                    family: Family::Wire,
                    path: file.path.clone(),
                    line: 1,
                    token: type_name.into(),
                    ordinal: 0,
                    message: format!("watched wire type `{type_name}` not found — update the watch list in crates/analyze"),
                });
                continue;
            }
        };
        let version = files
            .iter()
            .filter(|f| f.crate_name == file.crate_name)
            .find_map(|f| const_u32(f, version_const));
        let Some(version) = version else {
            findings.push(Finding {
                family: Family::Wire,
                path: file.path.clone(),
                line: 1,
                token: version_const.into(),
                ordinal: 0,
                message: format!(
                    "format-version constant `{version_const}` not found in `{}`",
                    file.crate_name
                ),
            });
            continue;
        };
        current.insert(type_name.to_string(), (fp, version));
        match baseline.get(type_name) {
            None => findings.push(Finding {
                family: Family::Wire,
                path: file.path.clone(),
                line: 1,
                token: type_name.into(),
                ordinal: 0,
                message: format!(
                    "no baseline fingerprint for `{type_name}` — run `relm_lint --update-baseline` to record it"
                ),
            }),
            Some(&(base_fp, base_ver)) => {
                if base_fp != fp && base_ver == version {
                    findings.push(Finding {
                        family: Family::Wire,
                        path: file.path.clone(),
                        line: 1,
                        token: type_name.into(),
                        ordinal: 0,
                        message: format!(
                            "`{type_name}` definition changed (fp {base_fp:016x} -> {fp:016x}) without a `{version_const}` bump (still {version})"
                        ),
                    });
                }
            }
        }
    }
    current
}

/// FNV-1a over the normalized token text of `struct Name {…}` /
/// `enum Name {…}`: code tokens joined by single spaces, comments and
/// test regions excluded, so formatting and docs never shift the
/// fingerprint while any field/variant/type edit does.
fn fingerprint_type(file: &SourceFile, name: &str) -> Option<u64> {
    let code: Vec<usize> = file.code_indices().collect();
    for (ci, &i) in code.iter().enumerate() {
        let t = &file.toks[i];
        if !(t.text == "struct" || t.text == "enum") {
            continue;
        }
        let Some(&name_i) = code.get(ci + 1) else {
            continue;
        };
        if file.toks[name_i].text != name {
            continue;
        }
        // Collect to the matching close brace of the definition body.
        let mut normalized = String::new();
        let mut depth = 0i64;
        for &j in &code[ci..] {
            let tok = &file.toks[j];
            match tok.punct() {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        normalized.push('}');
                        return Some(fnv1a(normalized.as_bytes()));
                    }
                }
                Some(';') if depth == 0 => {
                    // Unit or tuple struct: `struct X;` / `struct X(A);`
                    normalized.push(';');
                    return Some(fnv1a(normalized.as_bytes()));
                }
                // Trailing-comma churn must not move the fingerprint.
                Some(',') => continue,
                _ => {}
            }
            if !normalized.is_empty() {
                normalized.push(' ');
            }
            normalized.push_str(&tok.text);
        }
        return None;
    }
    None
}

/// The value of `const NAME: u32 = N;` in `file`, if present.
fn const_u32(file: &SourceFile, name: &str) -> Option<u32> {
    let code: Vec<usize> = file.code_indices().collect();
    for (ci, &i) in code.iter().enumerate() {
        if file.toks[i].text != name {
            continue;
        }
        // Walk forward to `=` then the number, bounded by `;`.
        for &j in code.get(ci + 1..ci + 8).unwrap_or(&[]) {
            let t = &file.toks[j];
            if t.punct() == Some(';') {
                break;
            }
            if t.kind == crate::lexer::TokKind::Number {
                let digits: String = t.text.chars().filter(|c| c.is_ascii_digit()).collect();
                if let Ok(v) = digits.parse() {
                    return Some(v);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{FileKind, SourceFile};

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::with_kind(path, src, FileKind::Lib, "relm-store")
    }

    #[test]
    fn fingerprint_ignores_comments_but_not_fields() {
        let a = file(
            "crates/store/src/artifact.rs",
            "pub struct K { pub a: u32 }",
        );
        let b = file(
            "crates/store/src/artifact.rs",
            "pub struct K {\n    /// doc\n    pub a: u32,\n}",
        );
        let c = file(
            "crates/store/src/artifact.rs",
            "pub struct K { pub a: u64 }",
        );
        let fa = fingerprint_type(&a, "K").unwrap();
        let fb = fingerprint_type(&b, "K").unwrap();
        let fc = fingerprint_type(&c, "K").unwrap();
        assert_eq!(fa, fb, "docs and trailing commas are cosmetic");
        assert_ne!(fa, fc, "a type change must move the fingerprint");
    }

    #[test]
    fn drift_without_version_bump_is_a_finding() {
        let src_v1 = "pub const FORMAT_VERSION: u32 = 1;\npub struct ArtifactKey { pub a: u32 }\npub struct PlanArtifact { pub k: ArtifactKey }\npub struct CacheArtifact { pub g: u64 }";
        let files = vec![file("crates/store/src/artifact.rs", src_v1)];
        let mut findings = Vec::new();
        let current = check(&files, &Fingerprints::new(), &mut findings);
        assert_eq!(findings.len(), 3, "no baseline yet: {findings:?}");
        findings.clear();

        // Same version, changed field type: drift.
        let drifted = src_v1.replace("pub a: u32", "pub a: u64");
        let files2 = vec![file("crates/store/src/artifact.rs", &drifted)];
        let mut findings = Vec::new();
        check(&files2, &current, &mut findings);
        assert!(
            findings.iter().any(|f| f.token == "ArtifactKey"),
            "{findings:?}"
        );

        // Bumped version legitimizes the change.
        let bumped = drifted.replace("u32 = 1", "u32 = 2");
        let files3 = vec![file("crates/store/src/artifact.rs", &bumped)];
        let mut findings = Vec::new();
        check(&files3, &current, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
