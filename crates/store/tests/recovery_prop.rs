//! Crash-recovery property test (satellite of the durability PR): a
//! random mutation sequence is appended to a WAL segment, the file is
//! truncated at a random byte offset — simulating a crash that tore the
//! tail — and recovery must yield **exactly the longest valid prefix** of
//! the appended ops, then keep accepting appends.

use cbv_hb::Record;
use proptest::prelude::*;
use rl_store::wal::{SyncPolicy, Wal, WalOp};
use rl_store::{replay_from_epoch, Store, StoreError, StoreOptions, WalReader, WAL_MAGIC};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per generated case (cases run in one
/// process, so a counter is enough to keep them apart).
fn scratch_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rl-store-prop-{}-{n}", std::process::id()))
}

fn op_strategy() -> impl Strategy<Value = WalOp> {
    let name = (0u64..3000).prop_map(|n| format!("N{n:04}"));
    prop_oneof![
        (0u64..500, name.clone(), name.clone())
            .prop_map(|(id, a, b)| WalOp::Insert(Record::new(id, [a, b]))),
        (0u64..500, name.clone(), name)
            .prop_map(|(id, a, b)| WalOp::Observe(Record::new(id, [a, b]))),
        (0u64..500).prop_map(WalOp::Delete),
    ]
}

/// One thing a segment holds: an op written under an epoch, or an
/// epoch-bump marker.
#[derive(Debug, Clone)]
enum Entry {
    Op(u64, WalOp),
    Marker(u64),
}

fn entry_strategy() -> impl Strategy<Value = Entry> {
    prop_oneof![
        (0u64..4, op_strategy()).prop_map(|(epoch, op)| Entry::Op(epoch, op)),
        (0u64..4).prop_map(Entry::Marker),
    ]
}

/// Recovers `bytes` as a segment at `path` and tails it with a
/// [`WalReader`]: neither may panic, and the reader must yield exactly
/// recovery's ops and stop where recovery's valid prefix ends.
fn recovery_and_tail_agree(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
    let recovered = match replay_from_epoch(path, 0) {
        Ok(seg) => seg,
        Err(StoreError::NotAWal { .. }) => {
            let opened = WalReader::open(path);
            assert!(
                matches!(opened, Err(StoreError::NotAWal { .. })),
                "{opened:?}"
            );
            return;
        }
        Err(e) => panic!("recovery failed: {e}"),
    };
    if bytes.len() < WAL_MAGIC.len() {
        // The stub a crash between create and the header write leaves.
        assert!(recovered.ops.is_empty());
        assert_eq!(
            (recovered.valid_len, recovered.torn_bytes),
            (0, bytes.len() as u64)
        );
        assert!(WalReader::open(path).is_err(), "no magic to read yet");
        return;
    }
    let mut reader = WalReader::open(path).unwrap();
    let mut tailed = Vec::new();
    while let Ok(Some(frame)) = reader.next_frame() {
        tailed.push(frame.op);
    }
    assert_eq!(tailed, recovered.ops);
    assert_eq!(reader.pos(), recovered.valid_len);
    assert_eq!(
        recovered.valid_len + recovered.torn_bytes,
        bytes.len() as u64
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No bytes can panic recovery or the replication tail, and the two
    /// agree: a segment written by [`Wal`] (random ops, epochs that
    /// sometimes fall, markers) is cut at every length, has one byte
    /// flipped, and has one frame's tag rewritten under a valid CRC.
    #[test]
    fn damaged_segments_recover_and_tail_alike(
        entries in proptest::collection::vec(entry_strategy(), 1..10),
        flip in (0u64..u64::MAX, 1u8..=255),
        retag in (0u64..u64::MAX, 0u8..8),
    ) {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let seg = dir.join("wal-000001.log");
        let mut wal = Wal::create(&seg, SyncPolicy::Never).unwrap();
        let mut starts = Vec::with_capacity(entries.len());
        for entry in &entries {
            starts.push(wal.len() as usize);
            match entry {
                Entry::Op(epoch, op) => {
                    wal.set_epoch(*epoch);
                    wal.append(op).unwrap();
                }
                Entry::Marker(epoch) => wal.append_marker(*epoch).unwrap(),
            }
        }
        drop(wal);
        let bytes = std::fs::read(&seg).unwrap();
        let damaged = dir.join("damaged.log");

        for cut in 0..=bytes.len() {
            recovery_and_tail_agree(&damaged, &bytes[..cut]);
        }

        let mut flipped = bytes.clone();
        flipped[(flip.0 % bytes.len() as u64) as usize] ^= flip.1;
        recovery_and_tail_agree(&damaged, &flipped);

        // Re-frame one frame under another tag, so that the CRC holds and
        // the payload meets the decoder under a tag it was not written
        // for (an op as a marker, a stamped op as an un-stamped one, …).
        let at = starts[(retag.0 % starts.len() as u64) as usize];
        let (_, payload, consumed) = rl_wire::peek_frame(&bytes[at..], u32::MAX)
            .unwrap()
            .unwrap();
        let mut retagged = bytes[..at].to_vec();
        rl_wire::encode_frame_into(retag.1, payload, &mut retagged);
        retagged.extend_from_slice(&bytes[at + consumed..]);
        recovery_and_tail_agree(&damaged, &retagged);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_yields_exactly_the_longest_valid_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..32),
        cut_seed in 0u64..u64::MAX,
    ) {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        // Write the sequence through a real segment, remembering the byte
        // boundary after every frame.
        let seg = dir.join("wal-000000.log");
        let mut wal = Wal::create(&seg, SyncPolicy::Never).unwrap();
        let mut boundaries = Vec::with_capacity(ops.len());
        for op in &ops {
            boundaries.push(wal.append(op).unwrap());
        }
        wal.sync().unwrap();
        let file_len = wal.len();
        drop(wal);

        // Tear the tail at an arbitrary offset (including 0 — a crash
        // right after the file was created — and file_len — no tear).
        let cut = cut_seed % (file_len + 1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // The longest valid prefix: every frame whose end fits under the
        // cut. A cut inside the 8-byte header invalidates everything; a
        // cut exactly on a frame boundary tears nothing.
        let header = 8u64;
        let keep = boundaries.iter().filter(|&&end| end <= cut).count();
        let valid_end = boundaries
            .iter()
            .copied()
            .filter(|&end| end <= cut)
            .max()
            .unwrap_or(header);
        let expected_torn = if cut < header { cut } else { cut - valid_end };

        let (mut store, recovery) = Store::open(&dir, StoreOptions::default()).unwrap();
        prop_assert!(recovery.snapshot.is_none());
        prop_assert_eq!(&recovery.ops, &ops[..keep]);
        prop_assert_eq!(recovery.report.replayed_ops, keep as u64);
        prop_assert_eq!(recovery.report.truncated_bytes, expected_torn);

        // The store must keep accepting appends after recovery, and a
        // second recovery must see prefix + new op.
        let extra = WalOp::Delete(u64::MAX);
        store.append(&extra).unwrap();
        drop(store);
        let (_store2, again) = Store::open(&dir, StoreOptions::default()).unwrap();
        let mut expected: Vec<WalOp> = ops[..keep].to_vec();
        expected.push(extra);
        prop_assert_eq!(again.ops, expected);
        prop_assert_eq!(again.report.truncated_bytes, 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Fencing property (satellite of the self-healing-replication PR): a
    /// WAL holding frames stamped with arbitrary epochs replays **exactly
    /// the longest prefix with non-decreasing epochs** — the first frame
    /// stamped below an epoch seen earlier (stale-primary residue) ends
    /// the log like a torn frame, and everything after it is truncated.
    #[test]
    fn mixed_epoch_replay_stops_at_the_first_stale_frame(
        stamped in proptest::collection::vec((op_strategy(), 0u64..4), 1..32),
    ) {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let seg = dir.join("wal-000001.log");
        let mut wal = Wal::create(&seg, SyncPolicy::Never).unwrap();
        for (op, epoch) in &stamped {
            // Forge a writer that stamps whatever epoch the case says —
            // including one *below* what it wrote before, which is
            // exactly what a demoted primary's zombie appends look like.
            wal.set_epoch(*epoch);
            wal.append(op).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Expected: the longest prefix where epochs never decrease.
        let mut high = 0u64;
        let mut keep = 0usize;
        for (_, epoch) in &stamped {
            if *epoch < high {
                break;
            }
            high = *epoch;
            keep += 1;
        }
        let expected: Vec<WalOp> = stamped[..keep].iter().map(|(op, _)| op.clone()).collect();

        let seg_replay = rl_store::replay_from_epoch(&seg, 0).unwrap();
        prop_assert_eq!(&seg_replay.ops, &expected);
        prop_assert_eq!(seg_replay.max_epoch, high);
        prop_assert_eq!(seg_replay.torn_bytes > 0, keep < stamped.len());

        // Store-level recovery applies the same fence and keeps working
        // at the recovered (highest) epoch afterwards.
        let (mut store, recovery) = Store::open(&dir, StoreOptions::default()).unwrap();
        prop_assert_eq!(&recovery.ops, &expected);
        prop_assert_eq!(store.epoch(), high);
        let extra = WalOp::Delete(u64::MAX);
        store.append(&extra).unwrap();
        drop(store);
        let (_store2, again) = Store::open(&dir, StoreOptions::default()).unwrap();
        let mut expected_after: Vec<WalOp> = expected.clone();
        expected_after.push(extra);
        prop_assert_eq!(again.ops, expected_after);
        prop_assert_eq!(again.report.epoch, high);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
