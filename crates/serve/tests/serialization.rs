//! Serialization contract of a **distributed-built** index (the unit
//! tests in `lcs_shortcut::index` cover hand-assembled indexes): save
//! → load is byte-exact, and every corruption mode — truncation at any
//! prefix, bad magic, wrong version, bit flips, and damage behind a
//! recomputed checksum — surfaces as a typed [`IndexError`], never a
//! panic.

use lcs_core::{build_index_distributed, DistributedConfig};
use lcs_graph::{HighwayGraph, HighwayParams, WeightedGraph};
use lcs_shortcut::{IndexError, Partition, ShortcutIndex, INDEX_FORMAT_VERSION};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

fn built_index() -> ShortcutIndex {
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: 3,
        path_len: 10,
        diameter: 4,
    })
    .unwrap();
    let g = hw.graph().clone();
    let p = Partition::new(&g, hw.path_parts()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xD15C);
    let wg = WeightedGraph::with_random_weights(g, 50, &mut rng);
    let cfg = DistributedConfig {
        known_diameter: Some(4),
        ..DistributedConfig::default()
    };
    build_index_distributed(wg.graph(), wg.weights(), &p, &cfg)
        .unwrap()
        .0
}

/// Section ids of the on-disk format (`lcs_shortcut::index` docs).
const META: u32 = 1;
const GRAPH: u32 = 2;
const TREES: u32 = 6;

/// The payload byte range of section `id`, read from the section table.
fn section(bytes: &[u8], id: u32) -> Range<usize> {
    let word = |at: usize, len: usize| {
        let mut le = [0u8; 8];
        le[..len].copy_from_slice(&bytes[at..at + len]);
        u64::from_le_bytes(le) as usize
    };
    (0..word(12, 4))
        .map(|s| 16 + s * 24)
        .find(|&e| word(e, 4) == id as usize)
        .map(|e| word(e + 8, 8)..word(e + 8, 8) + word(e + 16, 8))
        .expect("section present")
}

/// Recomputes the trailing FNV-1a checksum, so the damage reaches the
/// section parsers instead of stopping at the checksum.
fn reseal(bytes: &mut [u8]) {
    let (content, tail) = bytes.split_at_mut(bytes.len() - 8);
    let sum = content.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    tail.copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn save_load_roundtrip_is_byte_exact() {
    let idx = built_index();
    let path = std::env::temp_dir().join(format!("lcs_serve_ser_{}.lcsidx", std::process::id()));
    idx.save(&path).unwrap();
    let loaded = ShortcutIndex::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, idx);
    assert_eq!(loaded.to_bytes(), idx.to_bytes());
    // The reloaded index carries the construction metadata through.
    assert_eq!(loaded.meta().backend, "kogan_parter_distributed");
    assert!(loaded.meta().certificate.is_some());
}

#[test]
fn every_truncation_prefix_is_a_typed_error() {
    let bytes = built_index().to_bytes();
    // Sweep every prefix length (stride keeps the test fast; the small
    // lengths where the header lives are covered exhaustively).
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(97));
    for cut in cuts {
        match ShortcutIndex::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {cut} bytes decoded successfully"),
        }
    }
    // A clean cut mid-payload reports Truncated specifically, not a
    // checksum mismatch.
    assert!(matches!(
        ShortcutIndex::from_bytes(&bytes[..bytes.len() / 2]),
        Err(IndexError::Truncated)
    ));
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    let bytes = built_index().to_bytes();

    let mut magic = bytes.clone();
    magic[0] ^= 0xFF;
    assert!(matches!(
        ShortcutIndex::from_bytes(&magic),
        Err(IndexError::BadMagic)
    ));

    let mut version = bytes.clone();
    let bumped = INDEX_FORMAT_VERSION + 41;
    version[8..12].copy_from_slice(&bumped.to_le_bytes());
    match ShortcutIndex::from_bytes(&version) {
        Err(IndexError::UnsupportedVersion { found }) => assert_eq!(found, bumped),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn payload_bit_flips_fail_the_checksum() {
    let bytes = built_index().to_bytes();
    // Flip one bit in several payload positions; all must be caught by
    // the checksum (or a stricter structural error), never accepted.
    for pos in [
        bytes.len() / 4,
        bytes.len() / 3,
        bytes.len() / 2,
        2 * bytes.len() / 3,
    ] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        match ShortcutIndex::from_bytes(&corrupt) {
            Ok(_) => panic!("bit flip at {pos} was accepted"),
            Err(IndexError::BadChecksum { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            Err(_) => {} // structural errors are also acceptable
        }
    }
}

#[test]
fn node_counts_the_file_cannot_back_are_typed_errors() {
    let bytes = built_index().to_bytes();
    let graph = section(&bytes, GRAPH);
    for n in [u32::MAX, 100_000_000] {
        let mut hostile = bytes.clone();
        hostile[graph.start..graph.start + 4].copy_from_slice(&n.to_le_bytes());
        reseal(&mut hostile);
        match ShortcutIndex::from_bytes(&hostile) {
            Err(IndexError::Malformed(why)) => assert!(why.contains("nodes"), "{why}"),
            other => panic!("n = {n} must be refused, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes of the META..TREES payload are overwritten and the
    /// checksum recomputed, so every section parser sees the damage:
    /// loading returns `Ok` or a typed error, and never panics.
    #[cfg_attr(not(feature = "slow-tests"), ignore = "tier-2: run with --features slow-tests or -- --ignored")]
    #[test]
    fn resealed_payload_mutations_never_panic(seed in any::<u64>(), count in 1usize..8) {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let bytes = BYTES.get_or_init(|| built_index().to_bytes());
        let payload = section(bytes, META).start..section(bytes, TREES).end;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut damaged = bytes.clone();
        for _ in 0..count {
            damaged[rng.gen_range(payload.clone())] = rng.gen();
        }
        reseal(&mut damaged);
        let _ = ShortcutIndex::from_bytes(&damaged);
    }
}
