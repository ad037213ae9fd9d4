//! The checkpoint/resume determinism contract (ISSUE 9 tentpole): a run
//! split across any number of suspend/resume cycles must produce a
//! byte-identical result netlist versus the same run uninterrupted.
//!
//! The chain harness runs work-limited legs: each leg starts from the
//! *original* input netlist plus the previous leg's snapshot, and the
//! chain ends at the first leg whose budget does not trip. Its result is
//! compared byte-for-byte (BLIF text) against one unlimited run.
//!
//! A proptest block pins the snapshot container itself: netlist codec
//! round-trips exactly on random netlists, string escaping round-trips
//! on arbitrary byte soup, and random single-byte corruption of a
//! snapshot file is always detected, never misread.

use gdo::snapshot::{
    decode_netlist, encode_netlist, escape, netlist_digest, read_payload, unescape, write_atomic,
    PayloadReader, KIND_RUN,
};
use gdo::{Budget, CheckpointSpec, EngineId, GdoConfig, OptimizeRequest, Pipeline, RunSnapshot};
use library::{standard_library, Library, MapGoal, Mapper};
use netlist::Netlist;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gdo_resume_{tag}_{}.ckpt", std::process::id()))
}

fn cfg(rounds: usize) -> GdoConfig {
    GdoConfig::builder()
        .vectors(256)
        .seed(7)
        .max_delay_rounds(rounds)
        .threads(1)
        .build()
        .unwrap()
}

fn engines() -> Vec<EngineId> {
    vec![EngineId::Gdo, EngineId::Resub]
}

/// One optimization leg from the original `input`: resumes `snap` when
/// given, checkpoints to `ckpt`, runs under `work` units (None =
/// unlimited). Returns the leg's result and whether the budget tripped.
fn run_leg(
    lib: &Library,
    input: &Netlist,
    rounds: usize,
    snap: Option<RunSnapshot>,
    ckpt: &Path,
    work: Option<u64>,
) -> (Netlist, bool, u64) {
    let mut nl = input.clone();
    let mut req = OptimizeRequest::new(cfg(rounds))
        .engines(engines())
        .checkpoint(CheckpointSpec::new(ckpt.to_path_buf()).every(1));
    if let Some(s) = snap {
        req = req.resume_from(s);
    }
    let budget = Budget::new(None, work);
    let stats = Pipeline::new(lib).run(&req, &mut nl, &budget).unwrap();
    (nl, stats.budget_exhausted, budget.work_done())
}

/// Core property: chain-of-interrupted-legs == one uninterrupted run,
/// byte for byte.
fn assert_resume_determinism(base: &Netlist, rounds: usize, tag: &str) {
    let lib = standard_library();
    let input = Mapper::new(&lib).goal(MapGoal::Area).map(base).unwrap();
    let ckpt = tmp_path(tag);
    std::fs::remove_file(&ckpt).ok();

    // Reference: one unlimited run (it also measures total work so the
    // chain below is forced through several suspend/resume cycles).
    let (reference, tripped, total_work) = run_leg(&lib, &input, rounds, None, &ckpt, None);
    assert!(!tripped, "{tag}: unlimited run must not trip");
    std::fs::remove_file(&ckpt).ok();

    // Slices start small to force several suspend/resume cycles; when a
    // leg cannot pass a single checkpoint boundary under its slice (one
    // engine iteration cost more than the slice), the slice doubles —
    // exactly what a real operator does when a job keeps tripping.
    let mut slice = (total_work / 4).max(1);
    let mut snap: Option<RunSnapshot> = None;
    let mut last_ckpt: Option<Vec<u8>> = None;
    let mut legs = 0usize;
    let resumed = loop {
        let (nl, tripped, _) = run_leg(&lib, &input, rounds, snap.take(), &ckpt, Some(slice));
        legs += 1;
        if !tripped {
            break nl;
        }
        assert!(legs < 64, "{tag}: chain does not converge");
        let bytes = std::fs::read(&ckpt).unwrap();
        if last_ckpt.as_deref() == Some(&bytes) {
            slice *= 2;
        }
        last_ckpt = Some(bytes);
        snap = Some(RunSnapshot::read(&ckpt).unwrap());
    };
    assert!(
        legs >= 2,
        "{tag}: work slice {slice} never interrupted the run — the test is vacuous"
    );
    let expected = formats::write_blif(&reference).unwrap();
    let actual = formats::write_blif(&resumed).unwrap();
    assert_eq!(
        expected, actual,
        "{tag}: resumed chain ({legs} legs) diverged from the uninterrupted run"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn random_netlists_resume_byte_identical() {
    for seed in [3, 11, 42] {
        let base = workloads::random_logic(seed, 14, 6, 150);
        assert_resume_determinism(&base, 8, &format!("rand{seed}"));
    }
}

#[test]
fn dp96_resume_byte_identical() {
    assert_resume_determinism(&workloads::datapath(96), 3, "dp96");
}

fn arbitrary_netlist(seed: u64, gates: usize) -> Netlist {
    let lib = standard_library();
    let nl = workloads::random_logic(seed, 10, 4, gates.max(8));
    Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn netlist_codec_round_trips_exactly(seed in 0u64..1_000_000, gates in 8usize..120) {
        let nl = arbitrary_netlist(seed, gates);
        let mut encoded = String::new();
        encode_netlist(&nl.to_raw(), &mut encoded);
        let back = decode_netlist(&mut PayloadReader::new(&encoded)).unwrap();
        prop_assert_eq!(netlist_digest(&nl), netlist_digest(&back));
        prop_assert_eq!(
            formats::write_blif(&nl).unwrap(),
            formats::write_blif(&back).unwrap()
        );
    }

    #[test]
    fn string_escaping_round_trips(bytes in proptest::collection::vec(0u8..=255u8, 0..64)) {
        let s = String::from_utf8_lossy(&bytes).into_owned();
        let escaped = escape(&s);
        // Escaped strings are single whitespace-free tokens.
        prop_assert!(escaped.bytes().all(|b| b > 0x20 && b < 0x7f));
        prop_assert_eq!(unescape(&escaped).unwrap(), s);
    }

    #[test]
    fn corrupted_snapshot_files_are_always_detected(
        seed in 0u64..1_000_000,
        at in 0usize..10_000,
        delta in 1u8..=255u8,
    ) {
        let path = std::env::temp_dir().join(format!(
            "gdo_resume_prop_{}_{seed}_{at}.ckpt",
            std::process::id()
        ));
        let payload = format!("cursor {seed} {at}\nwork_remaining none\n");
        write_atomic(&path, KIND_RUN, &payload).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = at % bytes.len();
        bytes[at] = bytes[at].wrapping_add(delta);
        std::fs::write(&path, &bytes).unwrap();
        // A flipped byte may hit the checksum line, the magic, the kind
        // or the payload: whatever it hits, the reader either rejects
        // the file or — if the corruption bounced the byte inside the
        // same token value — returns the identical payload. It must
        // never return silently different content.
        if let Ok((kind, read_back)) = read_payload(&path) {
            prop_assert_eq!(kind, KIND_RUN.to_string());
            prop_assert_eq!(read_back, payload);
        }
        std::fs::remove_file(&path).ok();
    }
}
