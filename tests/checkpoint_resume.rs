//! Integration + property coverage for the crash-safe engine: checkpoint /
//! resume parity, snapshot-file integrity, and deadline interruption.
//!
//! The contract under test (PR 7's tentpole): a search interrupted at *any*
//! point — an in-memory pause, a wall-clock deadline, or a process kill
//! between atomic snapshot writes — resumes to the **identical** verdict
//! and state counts as the uninterrupted run, including under symmetry
//! reduction (where resume must re-insert discovered configurations in
//! discovery order so the quotient picks the same orbit representatives).
//! And a snapshot that was corrupted, truncated, or written by a different
//! format version is rejected with a typed [`SnapshotError`] — never a
//! panic, never a silently wrong verdict.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use swapcons::core::SwapKSet;
use swapcons::sim::explore::ModelChecker;
use swapcons::sim::snapshot::{
    from_snapshot_bytes, read_snapshot, write_snapshot, SnapshotError, FORMAT_VERSION,
};
use swapcons::sim::testing::TwoProcessSwapConsensus;

/// A collision-free temp path for one test's snapshot file.
fn temp_snapshot(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("swck-resume-{}-{tag}.swck", std::process::id()))
}

/// Pristine snapshot bytes from a real paused search, generated once and
/// shared by the corruption properties (the search itself is deterministic).
fn pristine_snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let p = SwapKSet::consensus(2, 2);
        let checker = ModelChecker::new(10, 10_000).with_max_failures(1);
        let path = temp_snapshot("pristine");
        let report = checker
            .check_with_snapshot_file(&p, &[0, 1], &path, 8)
            .expect("snapshot writes succeed");
        assert!(report.passed(), "{report}");
        let bytes = std::fs::read(&path).expect("snapshot file exists");
        let _ = std::fs::remove_file(&path);
        assert!(bytes.len() > 24, "non-trivial snapshot");
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pause at a random state cutoff, resume, and get exactly the verdict
    /// and counts of the uninterrupted run — across protocols, crash
    /// budgets, and (the subtle row) symmetry reduction.
    #[test]
    fn pause_resume_parity_at_any_cutoff(
        cutoff in 1usize..400,
        max_failures in 0usize..2,
        reduced in 0u8..2,
        two_process in 0u8..2,
    ) {
        let (reduced, two_process) = (reduced == 1, two_process == 1);
        let mut checker = ModelChecker::new(9, 20_000).with_max_failures(max_failures);
        if reduced {
            checker = checker.with_symmetry_reduction();
        }
        let (baseline, outcome) = if two_process {
            let p = TwoProcessSwapConsensus;
            let checker = checker.with_solo_budget(2);
            (
                checker.check(&p, &[0, 1]),
                checker.check_paused(&p, &[0, 1], cutoff),
            )
        } else {
            let p = SwapKSet::consensus(2, 2);
            (
                checker.check(&p, &[0, 1]),
                checker.check_paused(&p, &[0, 1], cutoff),
            )
        };
        let (partial, image) = outcome;
        let resumed = match image {
            Some(image) => {
                prop_assert!(partial.paused, "{partial}");
                prop_assert!(partial.states <= baseline.states);
                let p2 = SwapKSet::consensus(2, 2);
                if two_process {
                    checker.with_solo_budget(2).resume(&TwoProcessSwapConsensus, &[0, 1], &image)
                        .expect("own image resumes")
                } else {
                    checker.resume(&p2, &[0, 1], &image).expect("own image resumes")
                }
            }
            // Finished before the cutoff fired: the report is already final.
            None => partial,
        };
        prop_assert!(baseline.same_verdict(&resumed), "{baseline} vs {resumed}");
        prop_assert_eq!(resumed.states, baseline.states, "state-count parity");
        prop_assert_eq!(resumed.terminal_states, baseline.terminal_states);
        prop_assert_eq!(resumed.deepest, baseline.deepest);
        prop_assert!(!resumed.paused && !resumed.deadline_truncated);
    }

    /// Any single flipped byte anywhere in a snapshot file is rejected with
    /// a typed error — never a panic, never a quietly-wrong image.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        index in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut bytes = pristine_snapshot_bytes().to_vec();
        let index = index % bytes.len();
        bytes[index] ^= flip;
        let err = from_snapshot_bytes(&bytes)
            .expect_err("corrupted snapshot must not decode");
        prop_assert!(
            matches!(
                err,
                SnapshotError::BadMagic
                    | SnapshotError::VersionMismatch { .. }
                    | SnapshotError::ChecksumMismatch
                    | SnapshotError::Corrupt(_)
            ),
            "unexpected rejection: {err}"
        );
    }

    /// Truncating a snapshot at any point is likewise a typed rejection.
    #[test]
    fn any_truncation_is_rejected(cut in 0usize..4096) {
        let bytes = pristine_snapshot_bytes();
        let cut = cut % bytes.len();
        let err = from_snapshot_bytes(&bytes[..cut])
            .expect_err("truncated snapshot must not decode");
        prop_assert!(
            matches!(
                err,
                SnapshotError::BadMagic | SnapshotError::ChecksumMismatch
            ),
            "unexpected rejection: {err}"
        );
    }
}

#[test]
fn version_patched_snapshot_is_rejected_with_the_versions() {
    // A snapshot from a future format version names both versions in the
    // error, so the fix (rerun or upgrade) is obvious from the message.
    let mut bytes = pristine_snapshot_bytes().to_vec();
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match from_snapshot_bytes(&bytes) {
        Err(SnapshotError::VersionMismatch { found, expected }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

#[test]
fn file_resume_rejects_corruption_and_meta_mismatch_not_panics() {
    let p = SwapKSet::consensus(2, 2);
    let checker = ModelChecker::new(10, 10_000).with_max_failures(1);
    let path = temp_snapshot("reject");

    // A corrupted file on disk: resume_from_file returns the typed error.
    let mut bytes = pristine_snapshot_bytes().to_vec();
    let mid = 24 + (bytes.len() - 24) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        checker.resume_from_file(&p, &[0, 1], &path, 8),
        Err(SnapshotError::ChecksumMismatch)
    ));

    // An intact file from *different* checker parameters: a meta mismatch
    // naming the divergent field, not a silently re-budgeted search.
    std::fs::write(&path, pristine_snapshot_bytes()).unwrap();
    let other = ModelChecker::new(10, 9_999).with_max_failures(1);
    match other.resume_from_file(&p, &[0, 1], &path, 8) {
        Err(SnapshotError::MetaMismatch(msg)) => {
            assert!(msg.contains("max_states"), "field named: {msg}")
        }
        other => panic!("expected a meta mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deadline_interrupt_then_file_resume_reaches_full_parity() {
    // The kill-and-resume CI job in miniature: a zero deadline expires with
    // the frontier non-empty, the engine takes a final snapshot on the way
    // out, and a fresh checker (no deadline) finishes the search from the
    // file with exact verdict and count parity.
    let p = SwapKSet::consensus(2, 2);
    let checker = ModelChecker::new(10, 10_000).with_max_failures(1);
    let baseline = checker.check(&p, &[0, 1]);
    assert!(baseline.passed(), "{baseline}");

    let path = temp_snapshot("deadline");
    let truncated = checker
        .with_deadline(Duration::ZERO)
        .check_with_snapshot_file(&p, &[0, 1], &path, usize::MAX)
        .expect("snapshot writes succeed");
    assert!(truncated.deadline_truncated, "{truncated}");
    assert!(truncated.states < baseline.states);
    let (_meta, _image) = read_snapshot(&path).expect("final deadline snapshot exists");

    let resumed = checker
        .resume_from_file(&p, &[0, 1], &path, usize::MAX)
        .expect("resume from the deadline snapshot");
    assert!(baseline.same_verdict(&resumed), "{baseline} vs {resumed}");
    assert_eq!(resumed.states, baseline.states);
    assert_eq!(resumed.terminal_states, baseline.terminal_states);
    assert!(!resumed.deadline_truncated && !resumed.paused);
    assert_eq!(resumed.complete, baseline.complete);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_files_are_written_atomically() {
    // write_snapshot goes through a .tmp sibling + rename; after a write
    // the tmp file must be gone and the target complete.
    let p = SwapKSet::consensus(2, 2);
    let checker = ModelChecker::new(8, 5_000);
    let path = temp_snapshot("atomic");
    let report = checker
        .check_with_snapshot_file(&p, &[0, 1], &path, 16)
        .unwrap();
    assert!(report.passed(), "{report}");
    assert!(path.exists(), "snapshot landed");
    assert!(
        !path.with_extension("tmp").exists(),
        "no tmp residue after an atomic write"
    );
    let (meta, image) = read_snapshot(&path).expect("file is a complete valid snapshot");
    assert_eq!(meta.inputs, vec![0, 1]);
    assert!(image.stats.states > 0);
    // Round-trip through the byte layer for good measure.
    let reparsed = from_snapshot_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(reparsed.0.protocol_name, meta.protocol_name);
    let _ = std::fs::remove_file(&path);
    // And write_snapshot is directly usable for hand-rolled clients.
    let path2 = temp_snapshot("direct");
    write_snapshot(&path2, &meta, &image).unwrap();
    assert!(read_snapshot(&path2).is_ok());
    let _ = std::fs::remove_file(&path2);
}
