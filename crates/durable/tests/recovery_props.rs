//! Property tests for durability recovery.
//!
//! Two families:
//!
//! 1. **Oracle equivalence** — a deterministic pseudo-random op stream is
//!    applied to a [`DurableSet`] and a plain `BTreeSet` side by side,
//!    across the configuration grid {snapshot never / every round /
//!    every 7} × {group commit 1 / 8 / 64}, with the set closed and
//!    reopened mid-stream.  Every op result and every recovered state
//!    must match the oracle exactly.
//!
//! 2. **Corrupt-a-byte fuzz** — flip each byte of the on-disk state in a
//!    fresh copy of the directory and reopen.  A flipped WAL byte must
//!    recover exactly the state as of the last record before the damage
//!    (and heal, so a second open is clean); a flipped manifest or
//!    snapshot byte must refuse to open with `InvalidData` — never panic,
//!    and never silently fall back to an emptier state.  Both tiers share
//!    one recovery engine, so each fuzz runs over a [`DurableSet`] and a
//!    [`DurableMap`] fixture, the map's checked value by value.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use batchapi::Batch;
use durable::{DurableMap, DurableOptions, DurableSet};
use forkjoin::Pool;
use pbist::{IstMap, IstSet};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("durable-props-{}-{tag}-{id}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &Path, group_commit: u64, snapshot_every: u64) -> DurableSet<u64, IstSet<u64>> {
    DurableSet::open(
        dir,
        Pool::new(1).expect("pool"),
        DurableOptions {
            group_commit,
            snapshot_every,
            ..DurableOptions::default()
        },
        |batch| IstSet::from_batch(&batch),
    )
    .expect("open durable set")
}

/// The durable set's full contents (one linearisation point).
fn contents(set: &DurableSet<u64, IstSet<u64>>) -> Vec<u64> {
    set.inner().snapshot_keys().0
}

/// Flat copy of a durable directory (it never has subdirectories).
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn flip_byte(path: &Path, at: usize) {
    let mut bytes = fs::read(path).unwrap();
    bytes[at] ^= 0x5A;
    fs::write(path, &bytes).unwrap();
}

/// xorshift64* — deterministic, seedable, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn recovery_matches_a_btreeset_oracle_across_the_config_grid() {
    for snapshot_every in [0u64, 1, 7] {
        for group_commit in [1u64, 8, 64] {
            let tag = format!("s{snapshot_every}-g{group_commit}");
            let dir = scratch_dir(&tag);
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (snapshot_every << 8 | group_commit));
            let mut oracle: BTreeSet<u64> = BTreeSet::new();
            let mut set = open(&dir, group_commit, snapshot_every);

            for step in 0..240 {
                if step == 90 || step == 201 {
                    // Mid-stream reopen: everything must survive the trip
                    // through the log (and any snapshots) byte-for-byte.
                    set.close().expect("close");
                    set = open(&dir, group_commit, snapshot_every);
                    assert_eq!(
                        contents(&set),
                        oracle.iter().copied().collect::<Vec<_>>(),
                        "{tag}: reopen at step {step} diverged from the oracle"
                    );
                }
                let key = rng.next() % 128;
                match rng.next() % 5 {
                    0 => assert_eq!(
                        set.insert(key).expect("insert"),
                        oracle.insert(key),
                        "{tag}: insert({key}) at step {step}"
                    ),
                    1 => assert_eq!(
                        set.remove(&key).expect("remove"),
                        oracle.remove(&key),
                        "{tag}: remove({key}) at step {step}"
                    ),
                    2 => assert_eq!(
                        set.contains(&key).expect("contains"),
                        oracle.contains(&key),
                        "{tag}: contains({key}) at step {step}"
                    ),
                    kind => {
                        let keys: Vec<u64> =
                            (0..1 + rng.next() % 9).map(|_| rng.next() % 128).collect();
                        let batch = Batch::from_unsorted(keys);
                        // Insert-only (or remove-only) batches of distinct
                        // keys: the per-key result is independent of order.
                        let expect: Vec<bool> = batch
                            .as_slice()
                            .iter()
                            .map(|&k| {
                                if kind == 3 {
                                    oracle.insert(k)
                                } else {
                                    oracle.remove(&k)
                                }
                            })
                            .collect();
                        let got = if kind == 3 {
                            set.batch_insert(&batch).expect("batch_insert")
                        } else {
                            set.batch_remove(&batch).expect("batch_remove")
                        };
                        assert_eq!(got, expect, "{tag}: batch op at step {step}");
                    }
                }
                assert_eq!(set.len(), oracle.len(), "{tag}: len at step {step}");
            }

            set.close().expect("final close");
            let set = open(&dir, group_commit, snapshot_every);
            assert_eq!(
                contents(&set),
                oracle.iter().copied().collect::<Vec<_>>(),
                "{tag}: final recovery diverged from the oracle"
            );
            assert_eq!(
                set.metrics().counter("durable.torn_tails"),
                Some(0),
                "{tag}: clean shutdowns must not report tears"
            );
            drop(set);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A durable tier the corrupt-a-byte fuzzers drive, seen as `(key,
/// value)` entries: the set stores no values (reported as 0), the map
/// stores [`Tier::value`] under each key, so its recovery is checked
/// value by value.
trait Tier: Sized {
    fn open_with(dir: &Path, options: DurableOptions) -> io::Result<Self>;
    /// The value the fixture stores under `key`.
    fn value(key: u64) -> u64;
    fn insert(&self, key: u64) -> bool;
    fn remove(&self, key: u64) -> bool;
    fn snapshot(&self);
    fn close(self);
    fn torn_tails(&self) -> Option<u64>;
    fn entries(&self) -> Vec<(u64, u64)>;

    /// Opens with group commit 1 and no automatic snapshots.
    fn open(dir: &Path) -> Self {
        Self::open_with(
            dir,
            DurableOptions {
                group_commit: 1,
                ..DurableOptions::default()
            },
        )
        .expect("open durable tier")
    }
}

impl Tier for DurableSet<u64, IstSet<u64>> {
    fn open_with(dir: &Path, options: DurableOptions) -> io::Result<Self> {
        DurableSet::open(dir, Pool::new(1).expect("pool"), options, |batch| {
            IstSet::from_batch(&batch)
        })
    }
    fn value(_: u64) -> u64 {
        0
    }
    fn insert(&self, key: u64) -> bool {
        DurableSet::insert(self, key).expect("insert")
    }
    fn remove(&self, key: u64) -> bool {
        DurableSet::remove(self, &key).expect("remove")
    }
    fn snapshot(&self) {
        DurableSet::snapshot(self).expect("snapshot");
    }
    fn close(self) {
        DurableSet::close(self).expect("close");
    }
    fn torn_tails(&self) -> Option<u64> {
        self.metrics().counter("durable.torn_tails")
    }
    fn entries(&self) -> Vec<(u64, u64)> {
        contents(self).into_iter().map(|k| (k, 0)).collect()
    }
}

impl Tier for DurableMap<u64, u64, IstMap<u64, u64>> {
    fn open_with(dir: &Path, options: DurableOptions) -> io::Result<Self> {
        DurableMap::open(dir, options, |batch| IstMap::from_kv_batch(&batch))
    }
    fn value(key: u64) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    }
    fn insert(&self, key: u64) -> bool {
        DurableMap::insert(self, key, Self::value(key)).expect("insert")
    }
    fn remove(&self, key: u64) -> bool {
        DurableMap::remove(self, &key).expect("remove")
    }
    fn snapshot(&self) {
        DurableMap::snapshot(self).expect("snapshot");
    }
    fn close(self) {
        DurableMap::close(self).expect("close");
    }
    fn torn_tails(&self) -> Option<u64> {
        self.metrics().counter("durable.torn_tails")
    }
    fn entries(&self) -> Vec<(u64, u64)> {
        self.collect_entries()
    }
}

type SetTier = DurableSet<u64, IstSet<u64>>;
type MapTier = DurableMap<u64, u64, IstMap<u64, u64>>;

/// Builds a directory whose WAL holds exactly 24 single-op records (no
/// snapshot), returning the oracle state after each record: `states[k]`
/// is the contents once the first `k` records have applied.
fn build_wal_fixture<T: Tier>(dir: &Path) -> Vec<Vec<(u64, u64)>> {
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut states = vec![Vec::new()];
    let tier = T::open(dir);
    for i in 0..24u64 {
        // Every op is effective (ineffective ops write no record): two
        // inserts of fresh keys, then a remove of the second.
        if i % 3 == 2 {
            assert!(tier.remove(i - 1));
            oracle.remove(&(i - 1));
        } else {
            assert!(tier.insert(i));
            oracle.insert(i, T::value(i));
        }
        states.push(oracle.iter().map(|(&k, &v)| (k, v)).collect());
    }
    tier.close();
    states
}

/// The WAL fuzz for one tier: flip each segment byte in a fresh copy of
/// the fixture and check recovery keeps exactly the records before it.
fn flip_every_wal_byte<T: Tier>(tag: &str) {
    let base = scratch_dir(&format!("{tag}-wal-fuzz-base"));
    let states = build_wal_fixture::<T>(&base);

    // All 24 records land in the single active segment the fixture's one
    // open created (default 8 MiB rotation threshold).
    let segments: Vec<PathBuf> = fs::read_dir(&base)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    assert_eq!(segments.len(), 1, "fixture should be one unrotated segment");
    let segment_name = segments[0].file_name().unwrap().to_owned();
    let len = fs::metadata(&segments[0]).unwrap().len() as usize;
    const MAGIC: usize = 8;
    assert_eq!((len - MAGIC) % 24, 0, "records are fixed-width here");
    let record = (len - MAGIC) / 24;

    for at in 0..len {
        let dir = scratch_dir(&format!("{tag}-wal-fuzz"));
        copy_dir(&base, &dir);
        flip_byte(&dir.join(&segment_name), at);

        // A tear in the magic voids the whole segment; a tear in record
        // k keeps exactly the records before it.  Either way open()
        // succeeds — a damaged log *tail* is the expected crash shape.
        let survivors = if at < MAGIC { 0 } else { (at - MAGIC) / record };
        let tier = T::open(&dir);
        assert_eq!(
            tier.torn_tails(),
            Some(1),
            "{tag} byte {at}: the flip must read as a tear"
        );
        assert_eq!(
            tier.entries(),
            states[survivors],
            "{tag} byte {at}: recovery must keep exactly the {survivors} records before the damage"
        );
        drop(tier);

        // Recovery healed (truncated or deleted) the damage: the second
        // open replays a clean log and agrees.
        let tier = T::open(&dir);
        assert_eq!(
            tier.torn_tails(),
            Some(0),
            "{tag} byte {at}: the tear must not survive healing"
        );
        assert_eq!(
            tier.entries(),
            states[survivors],
            "{tag} byte {at}: healed state drifted"
        );
        drop(tier);
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&base).unwrap();
}

#[test]
fn flipping_any_wal_byte_recovers_the_prefix_before_the_damage() {
    flip_every_wal_byte::<SetTier>("set");
}

#[test]
fn flipping_any_map_wal_byte_recovers_the_prefix_value_exact() {
    flip_every_wal_byte::<MapTier>("map");
}

/// All `wal-*.log` segments in `dir` as `(file name, byte length)`,
/// sorted by name (= sequence order).
fn wal_segments(dir: &Path) -> Vec<(String, u64)> {
    let mut segments: Vec<(String, u64)> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .map(|e| {
            (
                e.file_name().to_str().unwrap().to_owned(),
                e.metadata().unwrap().len(),
            )
        })
        .collect();
    segments.sort();
    segments
}

/// Regression: a record larger than `segment_bytes` must append *whole*
/// to a single fresh segment — exactly one rotation, never a split
/// across segments, never a rotate-forever loop — and the state must
/// survive a reopen.  The rotation check runs once per record (before
/// the append), so an oversized record is legal in exactly one place:
/// alone at the head of the segment it forced open.
#[test]
fn an_oversized_record_appends_whole_to_one_fresh_segment() {
    let dir = scratch_dir("oversize");
    let open_tiny = |dir: &Path| {
        DurableSet::open(
            dir,
            Pool::new(1).expect("pool"),
            DurableOptions {
                group_commit: 1,
                snapshot_every: 0,
                segment_bytes: 64,
                ..DurableOptions::default()
            },
            |batch| IstSet::from_batch(&batch),
        )
        .expect("open durable set")
    };

    let set = open_tiny(&dir);
    // Push the active segment past the 64-byte threshold with small
    // records, so the oversized record's own rotation check fires.
    for i in 0..6u64 {
        assert!(set.insert(i).expect("insert"));
    }
    let before = wal_segments(&dir);
    assert!(
        before.len() >= 2,
        "fixture should already have rotated under 64-byte segments: {before:?}"
    );

    // One batch round appends one WAL record: 200 keys is a single
    // record ~25x the segment threshold.
    let big: Vec<u64> = (1_000..1_200u64).collect();
    assert!(
        set.batch_insert(&Batch::from_unsorted(big.clone()))
            .expect("batch_insert")
            .iter()
            .all(|&fresh| fresh),
        "all 200 keys are new"
    );

    let after = wal_segments(&dir);
    assert_eq!(
        after.len(),
        before.len() + 1,
        "the oversized record must force exactly one rotation: {before:?} -> {after:?}"
    );
    assert_eq!(
        &after[..before.len()],
        &before[..],
        "sealed segments must be untouched — the record must not split across files"
    );
    let (_, fresh_len) = after.last().unwrap();
    assert!(
        *fresh_len >= 200 * 8,
        "the whole record (>= 1600 bytes of keys) must sit in the fresh segment, got {fresh_len}"
    );

    // A follow-up small record rotates once more (the oversized segment
    // is over threshold) instead of re-triggering on the same record.
    assert!(set.insert(9_999).expect("insert after oversize"));
    assert_eq!(
        wal_segments(&dir).len(),
        after.len() + 1,
        "exactly one more rotation for the next record"
    );

    set.close().expect("close");
    let set = open_tiny(&dir);
    let mut expect: Vec<u64> = (0..6u64).chain(big).collect();
    expect.push(9_999);
    expect.sort_unstable();
    assert_eq!(
        contents(&set),
        expect,
        "recovery must replay the oversized record byte-for-byte"
    );
    drop(set);
    fs::remove_dir_all(&dir).unwrap();
}

/// The manifest/snapshot fuzz for one tier: flip each byte of the
/// committed recovery root in a fresh copy and check the open refuses.
fn flip_every_root_byte<T: Tier>(tag: &str) {
    let base = scratch_dir(&format!("{tag}-snap-fuzz-base"));
    {
        let tier = T::open(&base);
        for i in 0..10u64 {
            tier.insert(i);
        }
        tier.snapshot();
        for i in 10..15u64 {
            tier.insert(i);
        }
        tier.close();
    }

    let snap_name = fs::read_dir(&base)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .find(|n| {
            n.to_str()
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".snap"))
        })
        .expect("fixture has a snapshot");

    for target in ["MANIFEST", snap_name.to_str().unwrap()] {
        let len = fs::metadata(base.join(target)).unwrap().len() as usize;
        for at in 0..len {
            let dir = scratch_dir(&format!("{tag}-snap-fuzz"));
            copy_dir(&base, &dir);
            flip_byte(&dir.join(target), at);

            // The manifest authorised deleting older log segments, so a
            // damaged manifest or snapshot cannot degrade to "no
            // snapshot" — that would present data loss as a clean open.
            let err = T::open_with(&dir, DurableOptions::default())
                .err()
                .unwrap_or_else(|| panic!("{tag} {target} byte {at}: corrupt root opened anyway"));
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{tag} {target} byte {at}: wrong error kind ({err})"
            );
        }
        // The un-flipped copy still opens: the fixture itself is sound.
        let dir = scratch_dir(&format!("{tag}-snap-fuzz-sound"));
        copy_dir(&base, &dir);
        let tier = T::open(&dir);
        assert_eq!(
            tier.entries(),
            (0..15u64).map(|k| (k, T::value(k))).collect::<Vec<_>>()
        );
        drop(tier);
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&base).unwrap();
}

#[test]
fn flipping_any_manifest_or_snapshot_byte_refuses_to_open() {
    flip_every_root_byte::<SetTier>("set");
}

#[test]
fn flipping_any_map_manifest_or_snapshot_byte_refuses_to_open() {
    flip_every_root_byte::<MapTier>("map");
}
