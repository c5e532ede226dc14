//! Property test for WAL segment rotation: the same append sequence
//! driven into a log that rotates constantly (tiny `rotate_bytes`, many
//! copy-forward generations) and a log that never rotates must replay to
//! the *same durable truth* on reopen — identical open transactions,
//! identical surviving records, identical LSNs. Rotation is allowed to
//! forget records of closed transactions (that is its job); it must
//! never lose, duplicate or renumber a record of a still-open one.
//!
//! Schedules are seeded interleavings of participant transaction
//! lifecycles (`Prepared` → `Decision` → `Applied`), with one
//! transaction pinned open for the whole run so every rotation exercises
//! copy-forward.

use std::collections::HashMap;
use xrpc_peer::{Decision, FsyncPolicy, SequencedRecord, Wal, WalConfig, WalRecord};
use xrpc_proto::QueryId;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn qid(i: u64) -> QueryId {
    QueryId::new("xrpc://wal-prop.example.org", 1_000 + i, 60)
}

/// One seeded interleaving: per-transaction lifecycle order is fixed,
/// the interleaving across transactions is random. Transaction 0 stays
/// open (Prepared only, never decided) for the entire schedule.
fn gen_ops(seed: u64, txns: u64) -> Vec<WalRecord> {
    let mut rng = seed;
    // remaining lifecycle per txn; txn 0 gets only its Prepared
    let mut pending: Vec<Vec<WalRecord>> = (0..txns)
        .map(|i| {
            let prepared = WalRecord::Prepared {
                qid: qid(i),
                coordinator: "xrpc://coord.example.org".into(),
                delta: vec![],
            };
            if i == 0 {
                vec![prepared]
            } else if splitmix64(&mut rng).is_multiple_of(3) {
                vec![
                    prepared,
                    WalRecord::Decision {
                        qid: qid(i),
                        decision: Decision::Aborted,
                    },
                ]
            } else {
                vec![
                    prepared,
                    WalRecord::Decision {
                        qid: qid(i),
                        decision: Decision::Committed,
                    },
                    WalRecord::Applied {
                        qid: qid(i),
                        mark: 0, // patched to the Prepared LSN at append time
                    },
                ]
            }
        })
        .collect();
    let mut ops = Vec::new();
    while pending.iter().any(|p| !p.is_empty()) {
        let pick = splitmix64(&mut rng) % txns;
        // walk from a random start to the next txn with work left
        for off in 0..txns {
            let i = ((pick + off) % txns) as usize;
            if !pending[i].is_empty() {
                ops.push(pending[i].remove(0));
                break;
            }
        }
    }
    ops
}

fn replay_of(path: &std::path::Path, config: WalConfig) -> Vec<SequencedRecord> {
    let (wal, replay) = Wal::open_with(path, config).unwrap();
    drop(wal);
    replay.records
}

#[test]
fn rotated_replay_equals_unrotated_replay() {
    for seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
        let base = std::env::temp_dir().join(format!("xrpc-walprop-{}-{seed}", std::process::id()));
        let tiny_path = base.with_extension("tiny.wal");
        let big_path = base.with_extension("big.wal");
        for p in [&tiny_path, &big_path] {
            let _ = std::fs::remove_dir_all(p);
        }

        let tiny_cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            rotate_bytes: 256,
            ..WalConfig::default()
        };
        let big_cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            rotate_bytes: 1 << 30,
            ..WalConfig::default()
        };
        let (tiny, _) = Wal::open_with(&tiny_path, tiny_cfg).unwrap();
        let (big, _) = Wal::open_with(&big_path, big_cfg).unwrap();

        // drive the identical schedule into both logs, patching each
        // Applied mark to its transaction's Prepared LSN as a real
        // participant would
        let mut prepared_lsn: HashMap<u64, u64> = HashMap::new();
        for op in gen_ops(seed * 0x5eed, 12) {
            let op = match op {
                WalRecord::Applied { qid, .. } => WalRecord::Applied {
                    mark: prepared_lsn[&qid.timestamp_millis],
                    qid,
                },
                other => other,
            };
            let lsn_t = tiny.append(&op).unwrap();
            let lsn_b = big.append(&op).unwrap();
            assert_eq!(lsn_t, lsn_b, "LSN allocation must not depend on rotation");
            if let WalRecord::Prepared { qid, .. } = &op {
                prepared_lsn.insert(qid.timestamp_millis, lsn_t);
            }
        }

        let stats = tiny.stats();
        assert!(
            stats.rotations >= 3,
            "seed {seed}: 256-byte threshold must rotate ≥3 times: {stats:?}"
        );
        assert!(
            stats.copy_forward_records >= stats.rotations,
            "seed {seed}: the pinned txn is copied forward every time: {stats:?}"
        );
        assert_eq!(tiny.open_transactions(), 1);
        assert_eq!(big.open_transactions(), 1);
        drop(tiny);
        drop(big);

        // ---- the property: reopen both and compare durable truth ----
        let tiny_replay = replay_of(&tiny_path, tiny_cfg);
        let big_replay = replay_of(&big_path, big_cfg);

        // every record the rotated log kept exists in the unrotated log,
        // bit-identical and under the same LSN (subset: rotation may
        // drop closed-transaction records, never alter surviving ones)
        let by_lsn: HashMap<u64, &WalRecord> =
            big_replay.iter().map(|sr| (sr.lsn, &sr.record)).collect();
        for sr in &tiny_replay {
            match by_lsn.get(&sr.lsn) {
                Some(rec) => assert_eq!(
                    *rec, &sr.record,
                    "seed {seed}: lsn {} diverged across rotation",
                    sr.lsn
                ),
                None => panic!(
                    "seed {seed}: rotated log invented lsn {} missing from \
                     the unrotated log: {:?}",
                    sr.lsn, sr.record
                ),
            }
        }

        // the pinned transaction's full record set survives verbatim in
        // both — copy-forward preserved it across every generation
        let pinned = |records: &[SequencedRecord]| -> Vec<SequencedRecord> {
            records
                .iter()
                .filter(|sr| sr.record.qid().timestamp_millis == qid(0).timestamp_millis)
                .cloned()
                .collect()
        };
        let t0 = pinned(&tiny_replay);
        let b0 = pinned(&big_replay);
        assert_eq!(
            t0, b0,
            "seed {seed}: open-transaction records must be identical"
        );
        assert_eq!(t0.len(), 1, "seed {seed}: exactly the one Prepared record");
        assert_eq!(
            t0[0].lsn,
            prepared_lsn[&qid(0).timestamp_millis],
            "seed {seed}: copy-forward must not renumber LSNs"
        );

        // and the live fold agrees: one open transaction either way
        let (t, _) = Wal::open_with(&tiny_path, tiny_cfg).unwrap();
        let (b, _) = Wal::open_with(&big_path, big_cfg).unwrap();
        assert_eq!(t.open_transactions(), 1);
        assert_eq!(b.open_transactions(), 1);
        drop(t);
        drop(b);

        for p in [&tiny_path, &big_path] {
            let _ = std::fs::remove_dir_all(p);
        }
    }
}
