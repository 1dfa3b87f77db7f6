//! Durable key-value maps: the map-tier sibling of [`DurableSet`].
//!
//! A [`DurableMap`] persists a [`batchapi::BatchedMap`] backend with the
//! same engine and the same on-disk format as the set tier (see the
//! [crate docs](crate)); its records and snapshots carry `V::WIDTH` value
//! bytes where the set's carry none.
//!
//! # Concurrency model
//!
//! Unlike [`DurableSet`], which layers the WAL over the flat-combining
//! front-end's commit log, `DurableMap` serialises every operation through
//! one mutex holding the backend *and* the WAL together.  That single
//! critical section makes append order trivially equal to commit order —
//! the WAL is the linearisation — at the cost of no combining: one writer
//! mutates at a time.  Batched calls still amortise (one lock, one round,
//! one record per batch); wiring a map-aware combining front-end in front
//! is the roadmap's follow-on.
//!
//! # Logging policy
//!
//! Every upsert is logged, including upserts of already-present keys —
//! the value may have changed, and replaying an unchanged upsert is
//! idempotent (last-wins).  Removes of absent keys and pure reads are not
//! logged.  Group commit, snapshots, `durable_seq`, wedging, and the
//! crash-consistency contract are exactly the set tier's; the kill-9
//! suite in `tests/durable_map_crash.rs` enforces that *values*, not
//! just keys, survive recovery.
//!
//! [`DurableSet`]: crate::DurableSet

use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use batchapi::{Batch, BatchedMap, KeyCodec, KvBatch};

use crate::wal::{Log, Wal};
use crate::DurableOptions;

/// A durable concurrent map: a [`batchapi::BatchedMap`] backend whose
/// mutations are appended — values included — to a write-ahead log,
/// checkpointed by snapshots, and recovered by [`DurableMap::open`].  See
/// the [module docs](self) for the concurrency model, and the [crate
/// docs](crate) for the on-disk format, the protocol and the
/// crash-consistency contract it shares with [`crate::DurableSet`].
pub struct DurableMap<K, V, M>
where
    K: Ord + Clone + KeyCodec,
    V: Clone + KeyCodec,
    M: BatchedMap<K, V>,
{
    wal: Wal<K, V>,
    /// The backend and the engine's log under one mutex: the shared
    /// critical section is what makes append order equal commit order.
    inner: Mutex<(M, Log)>,
}

impl<K, V, M> DurableMap<K, V, M>
where
    K: Ord + Clone + KeyCodec,
    V: Clone + KeyCodec,
    M: BatchedMap<K, V>,
{
    /// Opens (creating if absent) the durable map rooted at `dir`,
    /// recovering any existing history: load the manifest's snapshot,
    /// replay the log tail above it, truncate a torn final record, and
    /// seed a fresh backend via `make_backend` (e.g.
    /// `IstMap::from_kv_batch`).
    ///
    /// # Errors
    ///
    /// I/O failure, or `InvalidData` when a committed artefact (manifest
    /// or snapshot) is damaged.  A directory written for another value
    /// width — a [`crate::DurableSet`]'s, whose values are `()` — or in a
    /// retired on-disk dialect is refused with `InvalidData` and left
    /// untouched: a map never invents values for a set's keys.  A torn
    /// log tail is an expected crash signature and recovered from
    /// silently.
    ///
    /// # Panics
    ///
    /// When `V::WIDTH` exceeds 255 bytes, which the on-disk header cannot
    /// record.
    pub fn open<P, F>(
        dir: P,
        options: DurableOptions,
        make_backend: F,
    ) -> io::Result<DurableMap<K, V, M>>
    where
        P: AsRef<Path>,
        F: FnOnce(KvBatch<K, V>) -> M,
    {
        let (wal, log, contents) = Wal::open(dir.as_ref(), &options)?;
        let pairs: Vec<(K, V)> = contents.into_iter().collect();
        let batch = KvBatch::from_sorted(pairs).expect("BTreeMap iterates strictly ascending");
        Ok(DurableMap {
            wal,
            inner: Mutex::new((make_backend(batch), log)),
        })
    }

    /// Upserts `key -> val`; `Ok(true)` iff the key was newly inserted
    /// (an upsert of a present key returns `Ok(false)` but still replaces
    /// the value, and is still logged).  Durable on return only under
    /// `group_commit: 1` (see the crate docs).
    pub fn insert(&self, key: K, val: V) -> io::Result<bool> {
        let batch = KvBatch::from_unsorted(vec![(key, val)]);
        Ok(self.batch_insert_kv(&batch)?[0])
    }

    /// Removes `key`; `Ok(true)` iff it was present.
    pub fn remove(&self, key: &K) -> io::Result<bool> {
        let batch =
            Batch::from_sorted(vec![key.clone()]).expect("a single key is trivially sorted");
        Ok(self.batch_remove(&batch)?[0])
    }

    /// The value stored under `key`, if any.  Reads touch only the
    /// in-memory backend — no WAL work, no `io::Result`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.locked().0.get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.locked().0.contains_key(key)
    }

    /// One lookup per batch key; `result[i]` answers `batch[i]`.
    pub fn batch_get(&self, batch: &Batch<K>) -> Vec<Option<V>> {
        self.locked().0.batch_get(batch)
    }

    /// Upserts every batch entry (last-wins dedup already applied by
    /// [`KvBatch`]); one round, one WAL record carrying every `(key,
    /// value)` payload.  `result[i]` is `true` iff `batch.keys()[i]` was
    /// newly inserted.
    pub fn batch_insert_kv(&self, batch: &KvBatch<K, V>) -> io::Result<Vec<bool>> {
        self.with_log(|map, log| {
            let flags = map.batch_insert_kv(batch);
            self.log_round(map, log, batch.iter().map(|(k, v)| (k, Some(v))))?;
            Ok(flags)
        })
    }

    /// Removes every batch key; `result[i]` is `true` iff
    /// `batch[i]` was present.  Only effective removals are logged.
    pub fn batch_remove(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.with_log(|map, log| {
            let flags = map.batch_remove(batch);
            let removed = batch.iter().zip(&flags).filter(|&(_, &hit)| hit);
            self.log_round(map, log, removed.map(|(k, _)| (k, None)))?;
            Ok(flags)
        })
    }

    /// Number of entries (in memory; does not publish).
    pub fn len(&self) -> usize {
        self.locked().0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every `(key, value)` entry in ascending key order — the full
    /// contents at one linearisation point.
    pub fn collect_entries(&self) -> Vec<(K, V)> {
        self.locked().0.collect_entries()
    }

    /// Forces everything committed so far onto disk and returns the new
    /// durable high-water sequence number.
    pub fn sync(&self) -> io::Result<u64> {
        self.with_log(|_, log| {
            self.wal.fsync(log)?;
            Ok(self.wal.durable_seq())
        })
    }

    /// Takes a snapshot now and truncates the log; returns the snapshot's
    /// sequence number.  Everything at or below it is durable when this
    /// returns.
    pub fn snapshot(&self) -> io::Result<u64> {
        self.with_log(|map, log| self.snapshot_into(map, log))
    }

    /// The durable high-water mark: every round with seq at or below this
    /// has reached disk and survives any crash.
    pub fn durable_seq(&self) -> u64 {
        self.wal.durable_seq()
    }

    /// Snapshot of the `durable.*` metrics (same registry names as the
    /// set tier).
    pub fn metrics(&self) -> obs::Snapshot {
        self.wal.metrics()
    }

    /// Fsyncs, then closes; the error-reporting variant of [`Drop`].
    pub fn close(self) -> io::Result<()> {
        self.sync().map(|_| ())
    }

    /// The backend and the log, under the one mutex.
    fn locked(&self) -> MutexGuard<'_, (M, Log)> {
        self.inner
            .lock()
            .expect("durable map poisoned: a thread panicked holding its lock")
    }

    /// Runs `f` on the backend and the log under the one mutex and the
    /// engine's wedge rule.
    fn with_log<T>(&self, f: impl FnOnce(&mut M, &mut Log) -> io::Result<T>) -> io::Result<T> {
        let mut inner = self.locked();
        let (map, log) = &mut *inner;
        log.guard(|log| f(map, log))
    }

    /// Logs one applied round as the next record (none when `ops` is
    /// empty), then runs group commit and the snapshot cadence.  Caller
    /// holds the mutex and has applied the round to `map`.
    fn log_round<'a>(
        &self,
        map: &M,
        log: &mut Log,
        ops: impl Iterator<Item = (&'a K, Option<&'a V>)>,
    ) -> io::Result<()>
    where
        K: 'a,
        V: 'a,
    {
        self.wal.count_rounds(1);
        let seq = log.appended_seq() + 1;
        self.wal.append(log, seq, ops)?;
        self.wal.commit(log, |log| self.snapshot_into(map, log))
    }

    /// Snapshots the map and truncates the log.  Caller holds the mutex,
    /// so the backend's contents *are* the state at `appended_seq` — no
    /// combiner race to reason about.
    fn snapshot_into(&self, map: &M, log: &mut Log) -> io::Result<u64> {
        let entries = map.collect_entries();
        let seq = log.appended_seq();
        self.wal
            .snapshot(log, seq, entries.iter().map(|(k, v)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{list_segments, segment_path, SegmentLog};
    use crate::DurableSet;
    use forkjoin::Pool;
    use pbist::{IstMap, IstSet};
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "durable-map-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    fn open(dir: &Path, options: DurableOptions) -> DurableMap<u64, u64, IstMap<u64, u64>> {
        DurableMap::open(dir, options, |batch| IstMap::from_kv_batch(&batch)).unwrap()
    }

    #[test]
    fn fresh_open_write_reopen_recovers_values() {
        let dir = scratch_dir("basic");
        let map = open(&dir, DurableOptions::default());
        assert!(map.is_empty());
        assert!(map.insert(3, 30).unwrap());
        assert!(map.insert(1, 10).unwrap());
        // Upsert: replaces the value, reports not-new, still logs.
        assert!(!map.insert(3, 33).unwrap());
        assert!(map.remove(&1).unwrap());
        assert!(!map.remove(&1).unwrap());
        assert_eq!(map.get(&3), Some(33));
        map.close().unwrap();

        let map = open(&dir, DurableOptions::default());
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(&3), Some(33), "the upserted value must survive");
        assert_eq!(map.get(&1), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_recover_with_last_wins_values() {
        let dir = scratch_dir("batch");
        let map = open(&dir, DurableOptions::default());
        let ins = KvBatch::from_unsorted((0..100u64).map(|i| (i, i * 2)).collect());
        assert!(map.batch_insert_kv(&ins).unwrap().iter().all(|&b| b));
        let over = KvBatch::from_unsorted((0..50u64).map(|i| (i * 2, 9_000 + i)).collect());
        let flags = map.batch_insert_kv(&over).unwrap();
        assert!(flags.iter().all(|&b| !b), "overwrites are not new");
        let rem = Batch::from_unsorted((0..20u64).map(|i| i * 5).collect());
        assert!(map.batch_remove(&rem).unwrap().iter().all(|&b| b));
        map.close().unwrap();

        let map = open(&dir, DurableOptions::default());
        assert_eq!(map.len(), 80);
        for i in 0..100u64 {
            let expect = if i % 5 == 0 {
                None
            } else if i % 2 == 0 {
                Some(9_000 + i / 2)
            } else {
                Some(i * 2)
            };
            assert_eq!(map.get(&i), expect, "key {i}");
        }
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn noop_removes_and_reads_write_no_records() {
        let dir = scratch_dir("noop");
        let map = open(&dir, DurableOptions::default());
        map.insert(5, 50).unwrap();
        let before = map.metrics().counter("durable.records_appended").unwrap();
        assert_eq!(map.get(&5), Some(50));
        assert!(!map.remove(&99).unwrap());
        assert!(map.batch_get(&Batch::from_unsorted(vec![5, 6])).len() == 2);
        let after = map.metrics().counter("durable.records_appended").unwrap();
        assert_eq!(before, after, "no state change, no WAL record");
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_and_recovery_replays_only_the_tail() {
        let dir = scratch_dir("snap");
        let map = open(&dir, DurableOptions::default());
        for k in 0..200u64 {
            map.insert(k, k + 1).unwrap();
        }
        let snap_seq = map.snapshot().unwrap();
        assert_eq!(snap_seq, 200);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        for k in 200..230u64 {
            map.insert(k, k + 1).unwrap();
        }
        map.close().unwrap();

        let map = open(&dir, DurableOptions::default());
        assert_eq!(map.len(), 230);
        assert_eq!(map.get(&150), Some(151), "snapshotted value");
        assert_eq!(map.get(&229), Some(230), "replayed value");
        let m = map.metrics();
        assert_eq!(m.gauge("durable.snapshot_seq"), Some(snap_seq));
        let replayed = m.histogram("durable.recovery_replayed").unwrap();
        assert_eq!(replayed.sum, 30, "only the post-snapshot tail replays");
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_snapshots_and_rotation_keep_every_value() {
        let dir = scratch_dir("auto");
        let map = open(
            &dir,
            DurableOptions {
                snapshot_every: 25,
                segment_bytes: 64,
                ..DurableOptions::default()
            },
        );
        for k in 0..90u64 {
            map.insert(k, k * 7).unwrap();
        }
        assert_eq!(map.metrics().counter("durable.snapshots"), Some(3));
        drop(map);
        let map = open(&dir, DurableOptions::default());
        assert_eq!(map.len(), 90);
        assert_eq!(map.get(&89), Some(89 * 7));
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file in `dir` with its bytes: what a refused open must leave
    /// exactly as it found it.
    fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect()
    }

    #[test]
    fn set_dialect_segments_are_rejected_not_replayed() {
        let dir = scratch_dir("dialect");
        let map = open(
            &dir,
            DurableOptions {
                group_commit: 1,
                ..DurableOptions::default()
            },
        );
        map.insert(1, 100).unwrap();
        drop(map);
        // Plant a *set*'s segment (value width 0) after the map's
        // segments: its well-formed header must refuse the open, keep
        // the file, and never replay key 7 with an invented value.
        let planted = segment_path(&dir, 1_000);
        let mut set_log = SegmentLog::create(&dir, 1_000, u64::MAX, 0).unwrap();
        let mut buf = Vec::new();
        crate::record::encode(1_000, [(&7u64, Some(&()))], &mut buf);
        set_log.append(&buf).unwrap();
        set_log.sync().unwrap();
        drop(set_log);
        let before = dir_bytes(&dir);

        let refused = DurableMap::open(&dir, DurableOptions::default(), |batch| {
            IstMap::<u64, u64>::from_kv_batch(&batch)
        })
        .err()
        .expect("a set's segment must refuse the map open");
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert!(planted.exists(), "refusal keeps the foreign segment");
        assert_eq!(dir_bytes(&dir), before, "refusal touches nothing");

        // Without the planted segment, the map's own history is intact.
        std::fs::remove_file(&planted).unwrap();
        let map = open(&dir, DurableOptions::default());
        assert_eq!(map.metrics().counter("durable.torn_tails"), Some(0));
        assert_eq!(map.collect_entries(), vec![(1, 100)]);
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_a_directory_as_the_wrong_tier_is_refused_and_touches_nothing() {
        let open_set = |dir: &Path| {
            DurableSet::open(dir, Pool::new(1).unwrap(), DurableOptions::default(), |b| {
                IstSet::from_batch(&b)
            })
        };

        // A set directory with no snapshot, opened as a map.
        let dir = scratch_dir("set-as-map");
        let set = open_set(&dir).unwrap();
        for k in 0..20u64 {
            set.insert(k).unwrap();
        }
        set.close().unwrap();
        let before = dir_bytes(&dir);
        let refused = DurableMap::open(&dir, DurableOptions::default(), |batch| {
            IstMap::<u64, u64>::from_kv_batch(&batch)
        })
        .err()
        .expect("a set directory must not open as a map");
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert_eq!(dir_bytes(&dir), before, "the set's segments are untouched");
        let set = open_set(&dir).unwrap();
        assert_eq!(set.metrics().counter("durable.torn_tails"), Some(0));
        assert_eq!(
            set.inner().snapshot_keys().0,
            (0..20u64).collect::<Vec<_>>()
        );
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();

        // And a map directory (log and snapshot), opened as a set.
        let dir = scratch_dir("map-as-set");
        let map = open(&dir, DurableOptions::default());
        map.insert(1, 10).unwrap();
        map.snapshot().unwrap();
        map.insert(2, 20).unwrap();
        map.close().unwrap();
        let before = dir_bytes(&dir);
        let refused = open_set(&dir)
            .err()
            .expect("a map directory must not open as a set");
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert_eq!(dir_bytes(&dir), before, "the map's files are untouched");
        let map = open(&dir, DurableOptions::default());
        assert_eq!(map.collect_entries(), vec![(1, 10), (2, 20)]);
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retired_dialect_segments_are_refused_and_kept() {
        // A segment from before the value width reached the header: the
        // keys-only dialect's magic, then a record whose bytes happen to
        // match today's `V = ()` layout.  It is refused, not read and
        // not healed away.
        let dir = scratch_dir("retired");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = b"PBWAL\x00\x00\x01".to_vec();
        crate::record::encode(1, [(&7u64, Some(&()))], &mut bytes);
        std::fs::write(segment_path(&dir, 1), &bytes).unwrap();
        let before = dir_bytes(&dir);
        let refused = DurableSet::open(
            &dir,
            Pool::new(1).unwrap(),
            DurableOptions::default(),
            |b| IstSet::<u64>::from_batch(&b),
        )
        .err()
        .expect("a retired-dialect segment must refuse the open");
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert_eq!(dir_bytes(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_gates_the_durable_mark() {
        let dir = scratch_dir("group");
        let map = open(
            &dir,
            DurableOptions {
                group_commit: 8,
                ..DurableOptions::default()
            },
        );
        for k in 0..20u64 {
            map.insert(k, k).unwrap();
        }
        let m = map.metrics();
        assert_eq!(m.counter("durable.records_appended"), Some(20));
        assert_eq!(m.counter("durable.fsyncs"), Some(2));
        assert!(map.durable_seq() < m.gauge("durable.appended_seq").unwrap());
        let durable = map.sync().unwrap();
        assert_eq!(durable, 20);
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
