//! Hostile input never panics a decoder.
//!
//! Every decoder that reads bytes from outside the process — the engine
//! snapshot codec, the JSON parser, the scenario DSL, the ops-journal
//! line reader and the JSONL trace reader — must turn garbage into a
//! typed error. These properties feed each one arbitrary input and
//! mutated copies of real input; a case passes whether the decoder
//! returns `Ok` or `Err`, and fails only if it panics.

use grid3_core::dsl::{self, JobTrace};
use grid3_core::ops::OpsRecord;
use grid3_core::scenario::ScenarioConfig;
use grid3_core::snapshot::{EngineSnapshot, SnapshotError};
use grid3_core::Grid3Engine;
use grid3_simkit::time::{SimDuration, SimTime};
use proptest::collection;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The snapshot file layout's header: magic, version, checksum.
const HEADER_LEN: usize = 20;
const CHECKSUM: std::ops::Range<usize> = 12..20;

/// Bytes that make up JSON documents, so random strings reach past the
/// first token often enough to exercise the parser's nesting, string,
/// escape and number paths.
const JSON_ALPHABET: &[u8] = b"{}[]\"\",,::  0123456789.-+eEtrufalsn\\/bu\xc3\xa9";

const FEDERATED: &str = include_str!("../scenarios/sc2003_federated.json");
const OPS_LINE: &str =
    r#"{"at":5400000000,"site":3,"grid":1,"kind":{"TicketOpened":{"ticket":7,"kind":"DiskFull"}}}"#;
const TRACE_LINE: &str = r#"{"at_us": 5, "class": "LIGO", "user": "u", "runtime_us": 9, "input_bytes": 100, "walltime_factor": 2.0, "affinity": 0.5}"#;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A real snapshot of a small run, taken once per test binary.
fn small_snapshot() -> &'static [u8] {
    static SNAP: OnceLock<Vec<u8>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let cfg = ScenarioConfig::sc2003().with_scale(0.02).with_seed(3);
        let mut engine = Grid3Engine::new(cfg);
        engine.run_until(SimTime::EPOCH + SimDuration::from_hours(12));
        engine.snapshot().to_bytes()
    })
}

/// Apply `edits` as (position, byte) overwrites; then, when `keep` is
/// below 16 (one case in 16), cut the result to `keep`/16 of its length.
fn mutate(base: &[u8], edits: &[(usize, u8)], keep: u8) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for &(pos, b) in edits {
        let i = pos % bytes.len();
        bytes[i] = b;
    }
    if keep < 16 {
        bytes.truncate(bytes.len() * usize::from(keep) / 16);
    }
    bytes
}

/// Every text decoder in turn; each must return rather than panic.
fn decode_all(text: &str) {
    let _ = serde_json::from_str::<serde::Value>(text);
    let _ = dsl::parse_str(text).and_then(|doc| doc.to_config());
    let _ = OpsRecord::from_json_line(text);
    let _ = JobTrace::parse_jsonl(text);
}

#[test]
fn seed_inputs_decode() {
    assert!(EngineSnapshot::from_bytes(small_snapshot()).is_ok());
    assert!(dsl::parse_str(FEDERATED)
        .and_then(|doc| doc.to_config())
        .is_ok());
    assert!(OpsRecord::from_json_line(OPS_LINE).is_ok());
    assert_eq!(JobTrace::parse_jsonl(TRACE_LINE).unwrap().jobs.len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Garbage inside a snapshot whose checksum was patched to match, so
    /// it gets past the integrity check and reaches the codec.
    #[test]
    fn mutated_snapshots_with_valid_checksums_fail_typed(
        edits in collection::vec((any::<usize>(), any::<u8>()), 1..6),
        keep in any::<u8>(),
    ) {
        let base = small_snapshot();
        let mut bytes = base[..HEADER_LEN].to_vec();
        bytes.extend(mutate(&base[HEADER_LEN..], &edits, keep));
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[CHECKSUM].copy_from_slice(&sum.to_le_bytes());
        let result = EngineSnapshot::from_bytes(&bytes);
        prop_assert!(!matches!(result, Err(SnapshotError::ChecksumMismatch)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, read as (lossy) UTF-8.
    #[test]
    fn arbitrary_strings_fail_typed(raw in collection::vec(any::<u8>(), 0..96)) {
        decode_all(&String::from_utf8_lossy(&raw));
    }

    /// Strings over the JSON alphabet: mostly near-JSON.
    #[test]
    fn json_shaped_strings_fail_typed(picks in collection::vec(any::<u8>(), 0..96)) {
        let raw: Vec<u8> = picks
            .iter()
            .map(|&p| JSON_ALPHABET[usize::from(p) % JSON_ALPHABET.len()])
            .collect();
        decode_all(&String::from_utf8_lossy(&raw));
    }

    /// Real documents with a few bytes overwritten or the tail cut off.
    #[test]
    fn mutated_documents_fail_typed(
        edits in collection::vec((any::<usize>(), any::<u8>()), 1..6),
        keep in any::<u8>(),
        json_byte in any::<bool>(),
    ) {
        let edits: Vec<(usize, u8)> = edits
            .into_iter()
            .map(|(pos, b)| match json_byte {
                true => (pos, JSON_ALPHABET[usize::from(b) % JSON_ALPHABET.len()]),
                false => (pos, b),
            })
            .collect();
        for base in [FEDERATED, OPS_LINE, TRACE_LINE] {
            let bytes = mutate(base.as_bytes(), &edits, keep);
            decode_all(&String::from_utf8_lossy(&bytes));
        }
    }
}
