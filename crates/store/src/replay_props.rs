//! Replay equivalence: a reopen — from the WAL alone, or from a snapshot
//! plus a WAL tail — builds exactly the store the event path builds from
//! the same payloads, each decoded to an owned record and applied with
//! `Inner::apply`. Runs are recorded through the live path from the codec
//! generator's shapes: packed and spilled keys, error tokens, nested
//! lists, repeated names and values, and empty binding lists. A payload
//! whose CRC holds but which does not decode changes nothing: recovery
//! ends before it, as if the file ended there.

use std::path::{Path, PathBuf};

use prov_engine::{TraceEvent, TraceSink};
use prov_model::{ProcessorName, ValueId};

use crate::codec::{self, tests::Gen};
use crate::wal::{TailState, WalCursor};
use crate::{snapshot, verify_store, TraceStore};

/// A fresh path for one case's WAL, with no snapshot beside it.
fn tmp(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("prov-store-replay-props");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{seed:x}-{}.wal", std::process::id()));
    cleanup(&path);
    path
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    for g in snapshot::generations(path) {
        let _ = std::fs::remove_file(snapshot::snapshot_path(path, g));
    }
    let _ = std::fs::remove_file(snapshot::tmp_path(path));
}

/// Records a few random runs into `store` through the live path: single
/// events and batches, finished or not, with the odd registration and
/// dropped run.
fn record_runs(store: &TraceStore, g: &mut Gen) {
    for _ in 0..1 + g.below(3) {
        let run = store.begin_run(&ProcessorName(g.name()));
        for _ in 0..g.below(6) {
            match g.below(4) {
                0 => store.record_xform(run, g.xform()),
                1 => store.record_xfer(run, g.xfer()),
                _ => {
                    let events = (0..g.below(12)).map(|_| match g.below(2) {
                        0 => TraceEvent::Xform(g.xform()),
                        _ => TraceEvent::Xfer(g.xfer()),
                    });
                    store.record_batch(run, events.collect());
                }
            }
        }
        if g.below(3) > 0 {
            store.finish_run(run);
        }
    }
    if g.below(3) == 0 {
        store.register_workflow(&ProcessorName(g.name()), format!("{{\"v\":{}}}", g.below(3)));
    }
    if g.below(4) == 0 {
        let runs = store.runs();
        let _ = store.drop_run(runs[g.below(runs.len() as u64) as usize].id);
    }
}

/// The event path's store for `files`, in order: every clean payload
/// decoded with `codec::decode` and applied as an owned record.
fn oracle(files: &[&Path]) -> TraceStore {
    let store = TraceStore::in_memory();
    for path in files {
        let mut cursor = WalCursor::open(path).unwrap();
        while let Some(frame) = cursor.next_frame().unwrap() {
            store.apply_record(codec::decode(&frame[8..]).unwrap());
        }
        assert_eq!(cursor.tail(), TailState::Clean, "{}", path.display());
    }
    store
}

/// Every observable of `got` equals `want`'s: runs, each run's records
/// with their global ids and value ids, the name and value tables in
/// interning order, and the index key counts.
fn assert_same(got: &TraceStore, want: &TraceStore, what: &str) {
    assert_eq!(got.runs(), want.runs(), "{what}: runs");
    for info in want.runs() {
        let (g, w) = (got.pin(info.id), want.pin(info.id));
        assert_eq!(g.xforms_of_run(), w.xforms_of_run(), "{what}: xforms of {}", info.id);
        assert_eq!(g.xfers_of_run(), w.xfers_of_run(), "{what}: xfers of {}", info.id);
    }
    assert_eq!(got.symbol_count(), want.symbol_count(), "{what}: symbols");
    assert_eq!(got.symbol_names(), want.symbol_names(), "{what}: symbol order");
    assert_eq!(got.value_count(), want.value_count(), "{what}: values");
    for id in 0..want.value_count() as u64 {
        assert_eq!(got.value(ValueId(id)), want.value(ValueId(id)), "{what}: value {id}");
    }
    assert_eq!(got.index_key_counts(), want.index_key_counts(), "{what}: index keys");
}

/// Every clean frame of the file at `path`: (offset, payload).
fn frames(path: &Path) -> Vec<(u64, Vec<u8>)> {
    let mut cursor = WalCursor::open(path).unwrap();
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(frame) = cursor.next_frame().unwrap() {
        out.push((at, frame[8..].to_vec()));
        at = cursor.offset();
    }
    out
}

/// One byte of one frame's payload changed and the frame re-framed with a
/// correct CRC: a reopen either replays it like the verify sweep does, or
/// ends before it with nothing of it applied.
fn damaged_frame_changes_nothing(wal: &Path, g: &mut Gen, seed: u64) {
    let bytes = std::fs::read(wal).unwrap();
    let frames = frames(wal);
    let (offset, payload) = &frames[g.below(frames.len() as u64) as usize];
    let mut damaged = payload.clone();
    let at = g.below(damaged.len() as u64) as usize;
    damaged[at] ^= 1 + g.below(255) as u8;
    let start = *offset as usize;
    let mut file = bytes[..start].to_vec();
    file.extend_from_slice(&(damaged.len() as u32).to_le_bytes());
    file.extend_from_slice(&crate::crc32(&damaged).to_le_bytes());
    file.extend_from_slice(&damaged);
    file.extend_from_slice(&bytes[start + 8 + payload.len()..]);
    let (mutated, prefix) = (tmp("mutated", seed), tmp("prefix", seed));
    std::fs::write(&mutated, &file).unwrap();
    std::fs::write(&prefix, &bytes[..start]).unwrap();

    let what = format!("seed {seed}: byte {at} of the frame at {offset}");
    let swept = verify_store(&mutated).unwrap();
    let reopened = TraceStore::open(&mutated).unwrap();
    if codec::decode(&damaged).is_ok() {
        assert_eq!(swept.wal_frames, reopened.repl_position().durable_frames, "{what}");
        assert_eq!(swept.tail, TailState::Clean, "{what}");
    } else {
        let tail = TailState::CorruptFrame { offset: *offset };
        assert_eq!(reopened.recovered_tail(), Some(tail), "{what}");
        assert_eq!(swept.tail, tail, "{what}");
        let alone = TraceStore::open(&prefix).unwrap();
        assert_eq!(reopened.symbol_count(), alone.symbol_count(), "{what}: symbols");
        assert_eq!(reopened.value_count(), alone.value_count(), "{what}: values");
        assert_eq!(reopened.runs(), alone.runs(), "{what}: runs");
    }
    cleanup(&mutated);
    cleanup(&prefix);
}

/// One case: record, reopen from the WAL and from a snapshot plus a WAL
/// tail, compare both against the event path, then damage frames.
fn replay_case(seed: u64) {
    let mut g = Gen(seed);
    let (wal, snap) = (tmp("wal", seed), tmp("snap", seed));
    {
        let live = TraceStore::open(&wal).unwrap();
        record_runs(&live, &mut g);
        drop(live);
        assert_same(&TraceStore::open(&wal).unwrap(), &oracle(&[&wal]), "WAL reopen");
    }
    {
        let live = TraceStore::open(&snap).unwrap();
        record_runs(&live, &mut g);
        live.snapshot().unwrap();
        record_runs(&live, &mut g);
        drop(live);
        let want = oracle(&[&snapshot::snapshot_path(&snap, 1), &snap]);
        let got = TraceStore::open(&snap).unwrap();
        assert_eq!(got.snapshot_metrics().fallbacks.get(), 0);
        assert_same(&got, &want, "snapshot reopen");
    }
    for _ in 0..4 {
        damaged_frame_changes_nothing(&wal, &mut g, seed);
    }
    cleanup(&wal);
    cleanup(&snap);
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

    #[test]
    fn replay_equivalence_matches_the_event_path(seed in proptest::prelude::any::<u64>()) {
        replay_case(seed);
    }
}

/// The seeded pass: `CRASH_TORTURE_SEED` picks the cases, so a failure
/// found with a random seed replays exactly.
#[test]
fn replay_equivalence_from_the_torture_seed() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0x5EED);
    eprintln!("replay equivalence seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let mut g = Gen(seed);
    for _ in 0..8 {
        replay_case(g.next());
    }
}
