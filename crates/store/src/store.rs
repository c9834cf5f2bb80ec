//! The on-disk store: a directory of framed, checksummed artifacts (the
//! frame itself — magic, version, length, checksum — is `wire.rs`).
//!
//! One file per plan, named `plan-<fnv1a(key)>.relm`; the full key is
//! stored *inside* the file and re-verified on load, so a file-name
//! hash collision can never serve the wrong plan. The scoring-cache
//! snapshot, when present, lives in `scoring-cache.relm`. Writes go to
//! a temporary sibling first and are renamed into place, so a reader
//! racing a writer sees either the old artifact or the new one, never
//! a torn file.

use std::fs;
use std::path::{Path, PathBuf};

use relm_automata::{Dfa, WalkTable};

use crate::artifact::{ArtifactKey, CacheArtifact, PlanArtifact, PlanView};
use crate::wire::fnv1a;
use crate::StoreError;

/// A directory of warm artifacts. Cheap to clone around — it holds
/// only the root path; every operation re-touches the filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStore {
    root: PathBuf,
}

/// Write `bytes` to `path` via a temporary sibling and an atomic
/// rename, so concurrent readers never observe a torn file. The
/// temporary name is unique per writer (process id + counter):
/// concurrent writers of the *same* artifact — e.g. two server shards
/// compiling the same fresh plan — each rename their own complete
/// file into place instead of racing over one shared `.tmp` sibling.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

impl PlanStore {
    /// Open (creating if needed) the store directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<PlanStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(PlanStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a plan for `key` lives in (whether or not it exists).
    fn plan_path(&self, key: &ArtifactKey) -> PathBuf {
        self.root
            .join(format!("plan-{:016x}.relm", fnv1a(&key.encoded())))
    }

    /// The scoring-cache snapshot file (whether or not it exists).
    pub fn cache_path(&self) -> PathBuf {
        self.root.join("scoring-cache.relm")
    }

    /// Load the plan for `key`, fully validated. `Ok(None)` means the
    /// store simply has no artifact for this key; every corruption mode
    /// — truncation, bit flips, wrong magic, another format version, a
    /// decoded key that differs from the requested one — is a typed
    /// error the caller treats as "compile instead".
    pub fn load_plan(&self, key: &ArtifactKey) -> Result<Option<PlanArtifact>, StoreError> {
        let path = self.plan_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        let artifact = PlanArtifact::from_bytes(&bytes)?;
        if artifact.key != *key {
            return Err(StoreError::KeyMismatch);
        }
        Ok(Some(artifact))
    }

    /// Persist a plan artifact, overwriting any previous artifact for
    /// the same key. Returns the number of bytes written to disk.
    pub fn save_plan(&self, artifact: &PlanArtifact) -> Result<u64, StoreError> {
        self.write_plan(&artifact.key, &artifact.to_bytes())
    }

    /// [`PlanStore::save_plan`] for a plan its owner keeps: the same
    /// encoder reads the parts where they are, so a session persisting
    /// its memo clones no automaton to do it. The arguments are
    /// [`PlanArtifact`]'s fields, borrowed.
    pub fn save_plan_parts(
        &self,
        key: &ArtifactKey,
        prefix: Option<&Dfa>,
        body: &Dfa,
        needs_canonical_check: bool,
        deferred_filters: &[Dfa],
        walk_table: Option<&WalkTable>,
    ) -> Result<u64, StoreError> {
        let view = PlanView {
            key,
            prefix,
            body,
            needs_canonical_check,
            deferred_filters,
            walk_table,
        };
        self.write_plan(key, &view.to_bytes())
    }

    fn write_plan(&self, key: &ArtifactKey, image: &[u8]) -> Result<u64, StoreError> {
        write_atomically(&self.plan_path(key), image)?;
        Ok(image.len() as u64)
    }

    /// Load the scoring-cache snapshot, if one exists.
    pub fn load_cache(&self) -> Result<Option<CacheArtifact>, StoreError> {
        let bytes = match fs::read(self.cache_path()) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        Ok(Some(CacheArtifact::from_bytes(&bytes)?))
    }

    /// Persist a scoring-cache snapshot. Returns bytes written.
    pub fn save_cache(&self, artifact: &CacheArtifact) -> Result<u64, StoreError> {
        let bytes = artifact.to_bytes();
        write_atomically(&self.cache_path(), &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// The plan artifact files currently in the store, sorted by file
    /// name (i.e. key hash) for deterministic listings.
    pub fn plan_files(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("plan-") && name.ends_with(".relm") {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }

    /// Decode and validate one plan artifact file (any path — used by
    /// the `relm_store` CLI's `ls` and `verify` over
    /// [`PlanStore::plan_files`]).
    pub fn read_plan_file(path: &Path) -> Result<PlanArtifact, StoreError> {
        PlanArtifact::from_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{checksum, FORMAT_VERSION, HEADER_BYTES};
    use proptest::prelude::*;
    use relm_automata::{str_symbols, Nfa};

    fn small_artifact() -> PlanArtifact {
        let body = Nfa::literal(str_symbols("the cat"))
            .union(Nfa::literal(str_symbols("the dog")))
            .determinize()
            .minimize();
        let prefix = Nfa::literal(str_symbols("the ")).determinize();
        // Walks run over the prefix automaton, and decode enforces it.
        let walk_table = WalkTable::new(&prefix, 12);
        PlanArtifact {
            key: ArtifactKey {
                pattern: "the ((cat)|(dog))".into(),
                prefix: Some("the ".into()),
                tokenization: 0,
                preprocessors: vec![0xfeed, 0xbeef],
                tokenizer: 0x1234_5678_9abc_def0,
            },
            prefix: Some(prefix),
            body,
            needs_canonical_check: true,
            deferred_filters: vec![Nfa::literal(str_symbols("x")).determinize()],
            walk_table: Some(walk_table),
        }
    }

    fn temp_store(tag: &str) -> PlanStore {
        let dir =
            std::env::temp_dir().join(format!("relm-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PlanStore::open(dir).expect("store opens")
    }

    #[test]
    fn plan_round_trip_is_bit_exact() {
        let store = temp_store("roundtrip");
        let artifact = small_artifact();
        let written = store.save_plan(&artifact).expect("save");
        assert!(written > 0);
        let loaded = store
            .load_plan(&artifact.key)
            .expect("load")
            .expect("present");
        assert_eq!(loaded.key, artifact.key);
        assert_eq!(loaded.prefix, artifact.prefix);
        assert_eq!(loaded.body, artifact.body);
        assert_eq!(loaded.needs_canonical_check, artifact.needs_canonical_check);
        assert_eq!(loaded.deferred_filters, artifact.deferred_filters);
        let (orig, back) = (
            artifact.walk_table.as_ref().unwrap(),
            loaded.walk_table.as_ref().unwrap(),
        );
        assert_eq!(orig.max_len(), back.max_len());
        for budget in 0..=orig.max_len() {
            for state in 0..artifact.prefix.as_ref().unwrap().state_count() {
                assert_eq!(
                    orig.count(state, budget).to_bits(),
                    back.count(state, budget).to_bits(),
                    "cumulative[{budget}][{state}]"
                );
            }
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_plan_is_none_not_error() {
        let store = temp_store("missing");
        assert!(store
            .load_plan(&small_artifact().key)
            .expect("load")
            .is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn cache_round_trip_is_bit_exact() {
        let store = temp_store("cache");
        let artifact = CacheArtifact {
            generation: 3,
            tokenizer: 42,
            entries: vec![
                (vec![1, 2, 3], vec![-0.5, f64::NEG_INFINITY, -2.25].into()),
                (vec![], vec![-0.0].into()),
            ],
        };
        store.save_cache(&artifact).expect("save");
        let loaded = store.load_cache().expect("load").expect("present");
        assert_eq!(loaded.generation, artifact.generation);
        assert_eq!(loaded.tokenizer, artifact.tokenizer);
        assert_eq!(loaded.entries.len(), artifact.entries.len());
        for ((ctx_a, dist_a), (ctx_b, dist_b)) in artifact.entries.iter().zip(&loaded.entries) {
            assert_eq!(ctx_a, ctx_b);
            let bits_a: Vec<u64> = dist_a.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = dist_b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn wrong_magic_fails_typed() {
        let store = temp_store("magic");
        let artifact = small_artifact();
        store.save_plan(&artifact).expect("save");
        let path = store.plan_path(&artifact.key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.load_plan(&artifact.key).unwrap_err(),
            StoreError::WrongMagic
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn future_version_fails_typed() {
        let store = temp_store("version");
        let artifact = small_artifact();
        store.save_plan(&artifact).expect("save");
        let path = store.plan_path(&artifact.key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.load_plan(&artifact.key).unwrap_err(),
            StoreError::UnsupportedVersion(FORMAT_VERSION + 1)
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn any_other_version_fails_typed_and_is_overwritten() {
        let store = temp_store("other-version");
        let artifact = small_artifact();
        store.save_plan(&artifact).expect("save");
        let path = store.plan_path(&artifact.key);
        let good = fs::read(&path).unwrap();
        // Versions 2 and 1 are 3 with bit 0 or bit 1 of byte 8 flipped,
        // and older layouts too: the old `>` check let both through.
        for version in [0, 1, 2, 4, u32::MAX] {
            let mut bytes = good.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            assert_eq!(
                store.load_plan(&artifact.key).unwrap_err(),
                StoreError::UnsupportedVersion(version)
            );
            assert_eq!(
                PlanStore::read_plan_file(&path).unwrap_err(),
                StoreError::UnsupportedVersion(version)
            );
        }
        store.save_plan(&artifact).expect("overwrite");
        assert_eq!(fs::read(&path).unwrap(), good);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn borrowed_parts_write_the_bytes_the_owned_artifact_writes() {
        let store = temp_store("parts");
        let artifact = small_artifact();
        let owned = store.save_plan(&artifact).expect("save");
        let path = store.plan_path(&artifact.key);
        let image = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let borrowed = store
            .save_plan_parts(
                &artifact.key,
                artifact.prefix.as_ref(),
                &artifact.body,
                artifact.needs_canonical_check,
                &artifact.deferred_filters,
                artifact.walk_table.as_ref(),
            )
            .expect("save parts");
        assert_eq!(borrowed, owned);
        assert_eq!(fs::read(&path).unwrap(), image);
        let _ = fs::remove_dir_all(store.root());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Even with a *recomputed* checksum over a mutated payload —
        // the adversarial case the checksum cannot catch — decoding
        // must return a typed error or a structurally valid artifact,
        // never panic. This drives the structural validators (DFA
        // bounds, walk rows, option tags, count guards).
        #[test]
        fn resealed_payload_mutations_never_panic(pos in 0usize..4096, value in 0u8..=255) {
            let mut image = small_artifact().to_bytes();
            let pos = HEADER_BYTES + pos % (image.len() - HEADER_BYTES);
            image[pos] = value;
            let sum = checksum(&image[HEADER_BYTES..]);
            image[20..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
            match PlanArtifact::from_bytes(&image) {
                // The mutation happened to decode — the artifact must
                // still be internally consistent enough to use.
                Ok(artifact) => prop_assert!(artifact.body.state_count() > 0),
                Err(err) => prop_assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}"),
            }
        }
    }

    #[test]
    fn truncation_and_bit_flips_fail_typed() {
        let store = temp_store("corrupt");
        let artifact = small_artifact();
        store.save_plan(&artifact).expect("save");
        let path = store.plan_path(&artifact.key);
        let good = fs::read(&path).unwrap();
        // Truncate at several depths, including inside the header.
        for cut in [0, HEADER_BYTES - 1, HEADER_BYTES + 3, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                store.load_plan(&artifact.key).is_err(),
                "truncation at {cut} must fail closed"
            );
        }
        // Flip one payload bit: the checksum must catch it.
        let mut flipped = good.clone();
        let mid = HEADER_BYTES + (good.len() - HEADER_BYTES) / 2;
        flipped[mid] ^= 0x10;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            store.load_plan(&artifact.key).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn listing_is_sorted_and_readable() {
        let store = temp_store("listing");
        let mut a = small_artifact();
        store.save_plan(&a).expect("save a");
        a.key.pattern = "another".into();
        store.save_plan(&a).expect("save b");
        let files = store.plan_files().expect("list");
        assert_eq!(files.len(), 2);
        assert!(files.windows(2).all(|w| w[0] < w[1]));
        for file in &files {
            let _ = PlanStore::read_plan_file(file).expect("decodes");
        }
        let _ = fs::remove_dir_all(store.root());
    }
}
