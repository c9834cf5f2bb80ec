//! Corruption robustness through the public API: a valid file with
//! any single bit flipped, cut short at any depth, or replaced by
//! garbage must surface a typed [`StoreError`] — never a panic, never
//! an artifact. The header's fields are each checked for equality and
//! the payload checksum is certain to notice damage confined to one
//! word, so the flip tests are exhaustive, not sampled. (Payloads
//! mutated *and resealed* are the crate's unit tests' business, where
//! the checksum is in reach.)

#![forbid(unsafe_code)]

use proptest::prelude::*;

use relm_automata::{str_symbols, Nfa, WalkTable};
use relm_store::{ArtifactKey, CacheArtifact, PlanArtifact, StoreError};

fn valid_plan_bytes() -> Vec<u8> {
    let body = Nfa::literal(str_symbols("the cat sat"))
        .union(Nfa::literal(str_symbols("the dog sat")))
        .determinize()
        .minimize();
    let prefix = Nfa::literal(str_symbols("the ")).determinize();
    let walk_table = WalkTable::new(&prefix, 16);
    PlanArtifact {
        key: ArtifactKey {
            pattern: "the ((cat)|(dog)) sat".into(),
            prefix: Some("the ".into()),
            tokenization: 0,
            preprocessors: vec![7, 11],
            tokenizer: 0xdead_beef_cafe_f00d,
        },
        prefix: Some(prefix),
        body,
        needs_canonical_check: false,
        deferred_filters: vec![Nfa::literal(str_symbols("sat")).determinize()],
        walk_table: Some(walk_table),
    }
    .to_bytes()
}

fn valid_cache_bytes() -> Vec<u8> {
    CacheArtifact {
        generation: 0,
        tokenizer: 99,
        entries: vec![
            (vec![1, 2], vec![-0.25, -1.5].into()),
            (vec![3], vec![-0.125].into()),
        ],
    }
    .to_bytes()
}

/// Every bit of `good`, flipped alone, must make `decode` fail, and
/// with the error the damaged region calls for.
fn every_flipped_bit_fails_closed(good: &[u8], decode: impl Fn(&[u8]) -> Result<(), StoreError>) {
    decode(good).expect("the undamaged file decodes");
    let mut bytes = good.to_vec();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            bytes[pos] ^= 1 << bit;
            let err = decode(&bytes).expect_err("a flipped bit must not decode");
            let expected = match pos {
                0..8 => matches!(err, StoreError::WrongMagic),
                8..12 => matches!(err, StoreError::UnsupportedVersion(_)),
                12..20 => matches!(err, StoreError::Corrupt(_)),
                _ => matches!(err, StoreError::ChecksumMismatch { .. }),
            };
            assert!(expected, "byte {pos} bit {bit}: {err:?}");
            bytes[pos] ^= 1 << bit;
        }
    }
    assert_eq!(bytes, good);
}

// A single flipped bit anywhere in the file must fail closed — every
// one of them, the version field's low bit (3 -> 2, an older layout a
// `>` check would let through) included.
#[test]
fn flipped_bit_in_plan_fails_closed() {
    every_flipped_bit_fails_closed(&valid_plan_bytes(), |bytes| {
        PlanArtifact::from_bytes(bytes).map(|_| ())
    });
}

#[test]
fn flipped_bit_in_cache_fails_closed() {
    every_flipped_bit_fails_closed(&valid_cache_bytes(), |bytes| {
        CacheArtifact::from_bytes(bytes).map(|_| ())
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Truncation at any depth must fail closed.
    #[test]
    fn truncated_plan_fails_closed(keep in 0usize..4096) {
        let bytes = valid_plan_bytes();
        let keep = keep % bytes.len();
        prop_assert!(PlanArtifact::from_bytes(&bytes[..keep]).is_err());
    }

    // Arbitrary garbage (wrong magic almost surely) must fail closed.
    #[test]
    fn random_bytes_fail_closed(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        prop_assert!(PlanArtifact::from_bytes(&bytes).is_err());
        prop_assert!(CacheArtifact::from_bytes(&bytes).is_err());
    }
}
