//! Durability tier: a write-ahead log, snapshots and crash recovery
//! layered over the flat-combining front-end's round stream.
//!
//! The flat-combining combiner already produces exactly the artefact a
//! write-ahead log needs: a totally-ordered stream of committed rounds,
//! each stamped with a gap-free sequence number.  [`DurableSet`] is that
//! stream's sink ([`combine::RoundSink`]) and appends one checksummed
//! record per *mutation* round to an append-only segment log, amortising
//! `fsync` over groups of rounds the same way combining amortises tree
//! descents over groups of keys.
//!
//! # The protocol
//!
//! * **Append.**  The combiner hands each committed round to the sink
//!   before acknowledging any of its clients; the sink strips reads and
//!   ineffective ops and appends the rest as one record under the round's
//!   seq.  Rounds arrive one at a time in commit order, so the log *is*
//!   the linearisation.
//! * **Group commit.**  Records accumulate until
//!   [`DurableOptions::group_commit`] of them are pending, then one
//!   `fsync` covers them all, still inside the round: `group_commit: 1`
//!   fsyncs on every mutation round before any of its clients is
//!   acknowledged — each op is durable before its call returns; larger
//!   groups trade bounded post-crash loss for an order of magnitude fewer
//!   fsyncs.  [`DurableSet::durable_seq`] is the contract either way: it
//!   advances only when records reach disk, so state at or below it
//!   survives any crash.  [`DurableSet::sync`] forces the boundary.
//! * **Snapshot.**  Every [`DurableOptions::snapshot_every`] appended
//!   records (or on [`DurableSet::snapshot`]), the set's full contents are
//!   captured at one linearisation point ([`combine::ConcurrentSet::snapshot_keys`],
//!   which serves the combiner-published read snapshot without entering a
//!   round), written to a snapshot file, and committed by atomically
//!   renaming a manifest into place, on a client thread after its op.
//!   Because the combiner publishes a round's snapshot *before* handing
//!   the round to the sink, the snapshot's seq covers every record
//!   already appended, so *all* segments are deleted and the log restarts
//!   empty — bounded disk, bounded recovery.
//! * **Recover.**  [`DurableSet::open`] loads the manifest's snapshot (if
//!   any) and replays log records with seq above it, in segment-name
//!   order, into a fresh backend.  A torn final record — the signature of
//!   a crash mid-append — ends replay cleanly and is truncated away; the
//!   new combiner's numbering resumes from the recovered high-water seq
//!   ([`combine::Options::first_seq`]), so a later recovery replays the
//!   continued history without seq collisions.
//!
//! # Crash-consistency contract
//!
//! After `SIGKILL` at any point, reopening the directory yields a set
//! whose contents equal the committed history up to some round boundary
//! at or after the last fsynced record — never a torn state, never a
//! reordering, and always including every round at or below the
//! `durable_seq` the crashed process last observed.  The kill-9 test in
//! `tests/durable_crash.rs` and the property suite in
//! `crates/durable/tests/recovery_props.rs` enforce exactly this.
//!
//! What is *not* promised: rounds above `durable_seq` (acknowledged in
//! memory, not yet fsynced under `group_commit > 1`) may or may not
//! survive — whole trailing rounds, never fractions of one.
//!
//! # One engine, one on-disk format
//!
//! A set is a map with `V = ()`: [`DurableSet`] and [`DurableMap`] share
//! one private WAL engine and write one format.  Every segment and
//! snapshot header records the value width `V::WIDTH`; a record op is
//! `[kind][key][V::WIDTH value bytes]` with kind put or remove, so a
//! set's ops carry no value bytes; a snapshot holds `(key, value)`
//! entries.  A directory written for another value width — a set's
//! opened as a map, or a map's as a set — is refused with `InvalidData`
//! and left exactly as it was, and so is one written in the retired
//! pre-width dialects.  The tiers differ only in concurrency: see the
//! [`map`] module docs.
//!
//! # Example
//!
//! ```
//! use durable::{DurableOptions, DurableSet};
//! use pbist::IstSet;
//! use forkjoin::Pool;
//!
//! let dir = std::env::temp_dir().join(format!("durable-doc-{}", std::process::id()));
//! let open = |pool| {
//!     DurableSet::open(&dir, pool, DurableOptions::default(), |batch| {
//!         IstSet::from_batch(&batch)
//!     })
//! };
//!
//! let set = open(Pool::new(2).unwrap()).unwrap();
//! assert!(set.insert(7).unwrap());
//! set.sync().unwrap();
//! set.close().unwrap();
//!
//! // A new process (here: a new handle) recovers the history.
//! let set = open(Pool::new(2).unwrap()).unwrap();
//! assert!(set.contains(&7).unwrap());
//! set.close().unwrap();
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

mod log;
pub mod map;
mod record;
mod snapshot;
mod wal;

pub use map::DurableMap;

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use batchapi::{Batch, BatchedSet, KeyCodec};
use combine::{ConcurrentSet, OpKind, Options, RoundOp, RoundSink};
use forkjoin::Pool;

use crate::wal::{Log, Wal};

/// Construction-time knobs for [`DurableSet`] and [`DurableMap`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Mutation records per `fsync`: `1` makes every op durable before it
    /// returns; `n` lets up to `n` records ride one fsync (bounded loss on
    /// crash — see the crate docs' contract).  Values below 1 behave as 1.
    pub group_commit: u64,
    /// Appended records between automatic snapshots; `0` (the default)
    /// never snapshots automatically — [`DurableSet::snapshot`] still
    /// works on demand.
    pub snapshot_every: u64,
    /// Size threshold, in bytes, at which the active log segment rotates.
    pub segment_bytes: u64,
    /// Options for the wrapped flat-combining front-end.  `first_seq` is
    /// overwritten: recovery dictates the numbering.
    pub combine: Options,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            group_commit: 8,
            snapshot_every: 0,
            segment_bytes: 8 << 20,
            combine: Options::default(),
        }
    }
}

/// A durable concurrent set: a [`combine::ConcurrentSet`] whose committed
/// rounds are appended to an on-disk write-ahead log, checkpointed by
/// snapshots, and recovered by [`DurableSet::open`].  See the crate docs
/// for the protocol and the crash-consistency contract.
///
/// Operations return `io::Result`: the round carrying a call's op is
/// appended, and may trip the group-commit fsync, before the call returns.
/// After an I/O error the instance is *wedged* — that round's calls and
/// every later call fail fast — and reopening the directory recovers
/// everything durable up to that point.
pub struct DurableSet<K, S> {
    inner: ConcurrentSet<K, S>,
    /// The WAL, shared with `inner` as its round sink.
    sink: Arc<WalSink<K>>,
}

/// The set tier's round sink: the WAL engine, instantiated with no values
/// (a set is a map with `V = ()`), and its log under the wal lock, which
/// the combiner's appends share with `sync` and `snapshot`.
struct WalSink<K> {
    wal: Wal<K, ()>,
    log: Mutex<Log>,
    /// Set by an append that brought the snapshot cadence due; read
    /// without the lock after each op, so the snapshot runs on a client
    /// thread, outside the combiner.  `Relaxed`: it publishes no data
    /// (the snapshot itself runs under the lock).
    snapshot_due: AtomicBool,
}

impl<K: Ord + KeyCodec> WalSink<K> {
    /// Runs `f` under the wal lock and the engine's wedge rule.
    fn with_log<T>(&self, f: impl FnOnce(&mut Log) -> io::Result<T>) -> io::Result<T> {
        let mut log = self.log.lock().expect("wal lock poisoned by a panic");
        self.wal.guard(&mut log, f)
    }
}

impl<K: Ord + KeyCodec + Send + Sync> RoundSink<K> for WalSink<K> {
    fn round(&self, seq: u64, ops: &mut dyn Iterator<Item = RoundOp<&K>>) {
        self.wal.count_round();
        // Keep only ops that changed state: reads replay to nothing, and a
        // failed insert/remove is a no-op too.  Sequence gaps this leaves
        // in the WAL are expected (crate docs).
        let mut muts = ops
            .filter_map(|op| match op.kind {
                OpKind::Insert if op.result => Some((op.key, Some(&()))),
                OpKind::Remove if op.result => Some((op.key, None)),
                _ => None,
            })
            .peekable();
        if muts.peek().is_none() {
            return;
        }
        // An error wedges the engine, which every client of this round
        // checks once it is acknowledged.  A due snapshot is left to them.
        let _ = self.with_log(|log| {
            self.wal.append(log, seq, muts)?;
            self.wal.commit(log, |_| {
                self.snapshot_due.store(true, Ordering::Relaxed);
                Ok(())
            })
        });
    }
}

impl<K, S> DurableSet<K, S>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedSet<K> + Send,
{
    /// Opens (creating if absent) the durable set rooted at `dir`,
    /// recovering any existing history: load the manifest's snapshot,
    /// replay the log tail above it, truncate a torn final record, and
    /// seed a fresh backend via `make_backend` (e.g.
    /// `IstSet::from_batch`).  Large recovered batches build on `pool`,
    /// which the front-end then uses for large rounds.
    ///
    /// # Errors
    ///
    /// I/O failure, or `InvalidData` when a *committed* artefact (the
    /// manifest or the snapshot it points to) is damaged — that is real
    /// corruption, unlike a torn log tail, which is an expected crash
    /// signature and recovered from silently.  A directory written by a
    /// [`DurableMap`] (or in a retired on-disk dialect) is refused with
    /// `InvalidData` too, and left untouched.
    pub fn open<P, F>(
        dir: P,
        pool: Pool,
        options: DurableOptions,
        make_backend: F,
    ) -> io::Result<DurableSet<K, S>>
    where
        P: AsRef<Path>,
        F: FnOnce(Batch<K>) -> S,
    {
        let (wal, log, contents) = Wal::open(dir.as_ref(), &options)?;
        // The backend, from the recovered contents, with round numbering
        // continuing where the history left off.
        let keys: Vec<K> = contents.into_keys().collect();
        let batch = Batch::from_sorted(keys).expect("BTreeMap iterates strictly ascending");
        let first_seq = log.appended_seq();
        let sink = Arc::new(WalSink {
            wal,
            log: Mutex::new(log),
            snapshot_due: AtomicBool::new(false),
        });
        let inner = ConcurrentSet::with_sink(
            make_backend(batch),
            pool,
            Options {
                first_seq,
                ..options.combine
            },
            sink.clone(),
        );
        Ok(DurableSet { inner, sink })
    }

    /// Inserts `key`; `Ok(true)` iff it was newly inserted.  Durable on
    /// return only under `group_commit: 1` — otherwise durable once
    /// [`DurableSet::durable_seq`] passes its round (see the crate docs).
    pub fn insert(&self, key: K) -> io::Result<bool> {
        self.settle(self.inner.insert(key))
    }

    /// Removes `key`; `Ok(true)` iff it was present.
    pub fn remove(&self, key: &K) -> io::Result<bool> {
        self.settle(self.inner.remove(key))
    }

    /// Membership test.  Reads append nothing, but fail once the set is
    /// wedged, like every other call.
    pub fn contains(&self, key: &K) -> io::Result<bool> {
        self.settle(self.inner.contains(key))
    }

    /// Batch insert; one combining round, one WAL record.
    pub fn batch_insert(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.settle(self.inner.batch_insert(batch))
    }

    /// Batch remove; one combining round, one WAL record.
    pub fn batch_remove(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.settle(self.inner.batch_remove(batch))
    }

    /// Batch membership test; fails once wedged, like every call.
    pub fn batch_contains(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.settle(self.inner.batch_contains(batch))
    }

    /// Number of keys in the set (in memory).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty (in memory).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Forces everything committed so far onto disk and returns the new
    /// durable high-water sequence number.
    pub fn sync(&self) -> io::Result<u64> {
        self.sink.with_log(|log| {
            self.sink.wal.fsync(log)?;
            Ok(self.sink.wal.durable_seq())
        })
    }

    /// Takes a snapshot now (regardless of [`DurableOptions::snapshot_every`])
    /// and truncates the log; returns the snapshot's sequence number.
    /// Everything at or below it is durable when this returns.
    pub fn snapshot(&self) -> io::Result<u64> {
        self.sink.with_log(|log| self.snapshot_into(log))
    }

    /// The durable high-water mark: every round with seq at or below this
    /// has reached disk (via fsynced records or a committed snapshot) and
    /// survives any crash.
    pub fn durable_seq(&self) -> u64 {
        self.sink.wal.durable_seq()
    }

    /// Snapshot of the `durable.*` metrics (see the README's metrics
    /// table).  The wrapped front-end's `combine.*` metrics live on
    /// [`DurableSet::inner`]`.metrics()`.
    pub fn metrics(&self) -> obs::Snapshot {
        self.sink.wal.metrics()
    }

    /// The wrapped flat-combining front-end, for its stats, metrics and
    /// traces.  Writes issued through it reach the WAL like any other:
    /// their rounds go through the same sink.
    pub fn inner(&self) -> &ConcurrentSet<K, S> {
        &self.inner
    }

    /// Fsyncs, then closes.  Dropping the set fsyncs too, on a
    /// best-effort basis; `close` is the variant that reports the error.
    pub fn close(self) -> io::Result<()> {
        self.sync().map(|_| ())
    }

    /// The post-op step: fail once wedged, and take the snapshot the
    /// cadence made due; then hand back the op's `result`.  Lock-free
    /// unless a snapshot is due.
    fn settle<T>(&self, result: T) -> io::Result<T> {
        self.sink.wal.check()?;
        let due = &self.sink.snapshot_due;
        if due.load(Ordering::Relaxed) && due.swap(false, Ordering::Relaxed) {
            self.snapshot()?;
        }
        Ok(result)
    }

    /// Snapshots the set and truncates the log.  Caller holds the wal
    /// lock.
    fn snapshot_into(&self, log: &mut Log) -> io::Result<u64> {
        // One linearisation point, read from the combiner-published
        // snapshot.  Every record appended so far has seq <= snap_seq: its
        // round published the (monotone) cell before reaching the sink.  A
        // round published before this load but appended after it lands in
        // the *next* segment with seq <= snap_seq — skipped at replay.
        let (keys, snap_seq) = self.inner.snapshot_keys();
        self.sink.snapshot_due.store(false, Ordering::Relaxed);
        self.sink
            .wal
            .snapshot(log, snap_seq, keys.iter().map(|key| (key, &())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{list_segments, segment_path};
    use std::collections::BTreeSet;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// A plain sorted-vec backend, enough for unit tests.
    struct VecSet {
        keys: Vec<u64>,
    }

    impl VecSet {
        fn from_batch(batch: Batch<u64>) -> VecSet {
            VecSet {
                keys: batch.into_vec(),
            }
        }
    }

    impl BatchedSet<u64> for VecSet {
        fn len(&self) -> usize {
            self.keys.len()
        }
        fn contains(&self, key: &u64) -> bool {
            self.keys.binary_search(key).is_ok()
        }
        fn rank(&self, key: &u64) -> usize {
            self.keys.partition_point(|k| k < key)
        }
        fn min(&self) -> Option<&u64> {
            self.keys.first()
        }
        fn max(&self) -> Option<&u64> {
            self.keys.last()
        }
        fn batch_contains(&self, batch: &Batch<u64>) -> Vec<bool> {
            batch.iter().map(|k| self.contains(k)).collect()
        }
        fn batch_insert(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            batch
                .as_slice()
                .to_vec()
                .iter()
                .map(|k| self.insert_one(k))
                .collect()
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            batch
                .as_slice()
                .to_vec()
                .iter()
                .map(|k| self.remove_one(k))
                .collect()
        }
        fn insert_one(&mut self, key: &u64) -> bool {
            match self.keys.binary_search(key) {
                Ok(_) => false,
                Err(at) => {
                    self.keys.insert(at, *key);
                    true
                }
            }
        }
        fn remove_one(&mut self, key: &u64) -> bool {
            match self.keys.binary_search(key) {
                Ok(at) => {
                    self.keys.remove(at);
                    true
                }
                Err(_) => false,
            }
        }
        fn collect_keys(&self) -> Vec<u64> {
            self.keys.clone()
        }
    }

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "durable-lib-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    fn open(dir: &Path, options: DurableOptions) -> DurableSet<u64, VecSet> {
        DurableSet::open(dir, Pool::new(2).unwrap(), options, VecSet::from_batch).unwrap()
    }

    #[test]
    fn fresh_open_write_reopen_recovers() {
        let dir = scratch_dir("basic");
        let set = open(&dir, DurableOptions::default());
        assert!(set.is_empty());
        assert!(set.insert(3).unwrap());
        assert!(set.insert(1).unwrap());
        assert!(!set.insert(3).unwrap());
        assert!(set.remove(&1).unwrap());
        assert!(set.contains(&3).unwrap());
        set.close().unwrap();

        let set = open(&dir, DurableOptions::default());
        assert_eq!(set.len(), 1);
        assert!(set.contains(&3).unwrap());
        assert!(!set.contains(&1).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_one_makes_every_op_durable_on_return() {
        let dir = scratch_dir("group1");
        let set = open(
            &dir,
            DurableOptions {
                group_commit: 1,
                ..DurableOptions::default()
            },
        );
        for k in 0..10u64 {
            set.insert(k).unwrap();
            let appended = set.metrics().gauge("durable.appended_seq").unwrap();
            assert_eq!(
                set.durable_seq(),
                appended,
                "group_commit=1 leaves nothing pending"
            );
        }
        let m = set.metrics();
        assert_eq!(m.counter("durable.records_appended"), Some(10));
        assert_eq!(m.counter("durable.fsyncs"), Some(10));
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn larger_groups_amortise_fsyncs() {
        let dir = scratch_dir("group8");
        let set = open(
            &dir,
            DurableOptions {
                group_commit: 64,
                ..DurableOptions::default()
            },
        );
        // Single-threaded, so each op is its own round/record: 64 records
        // per fsync exactly.
        for k in 0..128u64 {
            set.insert(k).unwrap();
        }
        let m = set.metrics();
        assert_eq!(m.counter("durable.records_appended"), Some(128));
        assert_eq!(m.counter("durable.fsyncs"), Some(2));
        let sizes = m.histogram("durable.group_size").unwrap();
        assert_eq!(sizes.count(), 2);
        assert_eq!(sizes.sum, 128);
        // Ops beyond the durable mark are pending, not lost: sync flushes.
        assert!(set.insert(1000).unwrap());
        assert!(set.durable_seq() < set.metrics().gauge("durable.appended_seq").unwrap());
        let durable = set.sync().unwrap();
        assert_eq!(
            durable,
            set.metrics().gauge("durable.appended_seq").unwrap()
        );
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_and_failed_mutations_write_no_records() {
        let dir = scratch_dir("noop");
        let set = open(&dir, DurableOptions::default());
        set.insert(5).unwrap();
        let before = set.metrics().counter("durable.records_appended").unwrap();
        assert!(set.contains(&5).unwrap());
        assert!(!set.contains(&6).unwrap());
        assert!(!set.insert(5).unwrap());
        assert!(!set.remove(&99).unwrap());
        let after = set.metrics().counter("durable.records_appended").unwrap();
        assert_eq!(before, after, "no state change, no WAL record");
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_recover_and_batch_results_survive() {
        let dir = scratch_dir("batch");
        let set = open(&dir, DurableOptions::default());
        let ins = Batch::from_unsorted((0..100u64).map(|i| i * 3).collect());
        assert!(set.batch_insert(&ins).unwrap().iter().all(|&b| b));
        let rem = Batch::from_unsorted((0..50u64).map(|i| i * 6).collect());
        assert!(set.batch_remove(&rem).unwrap().iter().all(|&b| b));
        set.close().unwrap();

        let set = open(&dir, DurableOptions::default());
        assert_eq!(set.len(), 50);
        let check = set.batch_contains(&ins).unwrap();
        for (i, (key, hit)) in ins.iter().zip(check).enumerate() {
            assert_eq!(hit, key % 6 != 0, "key {key} at {i}");
        }
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_the_log_and_still_recovers() {
        let dir = scratch_dir("snap");
        let set = open(&dir, DurableOptions::default());
        for k in 0..200u64 {
            set.insert(k).unwrap();
        }
        let snap_seq = set.snapshot().unwrap();
        assert!(snap_seq >= 200);
        assert_eq!(set.durable_seq(), snap_seq);
        // Post-snapshot, exactly one (fresh, near-empty) segment remains.
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        // And the history continues past it.
        for k in 200..230u64 {
            set.insert(k).unwrap();
        }
        set.close().unwrap();

        let set = open(&dir, DurableOptions::default());
        assert_eq!(set.len(), 230);
        let m = set.metrics();
        assert_eq!(m.gauge("durable.snapshot_seq"), Some(snap_seq));
        let replayed = m.histogram("durable.recovery_replayed").unwrap();
        assert_eq!(replayed.count(), 1);
        assert_eq!(replayed.sum, 30, "only the post-snapshot tail replays");
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_snapshots_fire_on_the_configured_cadence() {
        let dir = scratch_dir("autosnap");
        let set = open(
            &dir,
            DurableOptions {
                snapshot_every: 10,
                ..DurableOptions::default()
            },
        );
        for k in 0..35u64 {
            set.insert(k).unwrap();
        }
        let m = set.metrics();
        assert_eq!(m.counter("durable.snapshots"), Some(3));
        drop(set);
        let set = open(&dir, DurableOptions::default());
        assert_eq!(set.len(), 35);
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_rotation_keeps_every_record() {
        let dir = scratch_dir("rotate");
        let set = open(
            &dir,
            DurableOptions {
                segment_bytes: 64,
                ..DurableOptions::default()
            },
        );
        for k in 0..100u64 {
            set.insert(k).unwrap();
        }
        set.sync().unwrap();
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "64-byte segments must have rotated"
        );
        drop(set);
        let set = open(&dir, DurableOptions::default());
        assert_eq!(set.len(), 100);
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_recover_exactly() {
        let dir = scratch_dir("threads");
        let set = Arc::new(open(
            &dir,
            DurableOptions {
                group_commit: 4,
                ..DurableOptions::default()
            },
        ));
        thread::scope(|s| {
            for t in 0..4u64 {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = t * 1_000 + i;
                        set.insert(key).unwrap();
                        if i % 3 == 0 {
                            set.remove(&key).unwrap();
                        }
                    }
                });
            }
        });
        let expect: BTreeSet<u64> = (0..4u64)
            .flat_map(|t| (0..200u64).map(move |i| (t, i)))
            .filter(|&(_, i)| i % 3 != 0)
            .map(|(t, i)| t * 1_000 + i)
            .collect();
        assert_eq!(set.len(), expect.len());
        let set = Arc::into_inner(set).unwrap();
        set.close().unwrap();

        let set = open(&dir, DurableOptions::default());
        assert_eq!(set.len(), expect.len());
        let probe = Batch::from_unsorted(expect.iter().copied().collect());
        assert!(set.batch_contains(&probe).unwrap().iter().all(|&b| b));
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_numbering_continues_across_reopen() {
        let dir = scratch_dir("seqcont");
        let set = open(&dir, DurableOptions::default());
        for k in 0..5u64 {
            set.insert(k).unwrap();
        }
        let before = set.metrics().gauge("durable.appended_seq").unwrap();
        set.close().unwrap();

        let set = open(&dir, DurableOptions::default());
        set.insert(99).unwrap();
        let after = set.metrics().gauge("durable.appended_seq").unwrap();
        assert!(
            after > before,
            "new rounds must continue the old numbering ({after} vs {before})"
        );
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_through_inner_are_durable_on_return() {
        let dir = scratch_dir("inner");
        let set = open(
            &dir,
            DurableOptions {
                group_commit: 1,
                ..DurableOptions::default()
            },
        );
        // The front-end's own calls: no `DurableSet` call follows them, yet
        // each round was appended and fsynced before it was acknowledged.
        assert!(set.inner().insert(7));
        assert!(set.durable_seq() >= set.inner().committed_seq());
        set.inner()
            .batch_insert(&Batch::from_unsorted(vec![1u64, 2, 3]));
        assert!(set.inner().remove(&2));
        assert!(set.durable_seq() >= set.inner().committed_seq());
        drop(set);

        let set = open(&dir, DurableOptions::default());
        assert_eq!(set.inner().snapshot_keys().0, vec![1, 3, 7]);
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_io_error_wedges_the_set_and_reopen_recovers_the_durable_prefix() {
        let dir = scratch_dir("wedge");
        let options = DurableOptions {
            segment_bytes: 1,
            group_commit: 1,
            ..DurableOptions::default()
        };
        let set = open(&dir, options.clone());
        assert!(set.insert(1).unwrap());
        let durable = set.durable_seq();
        assert_eq!(durable, set.inner().committed_seq());

        // Every append rotates first (1-byte segments); a directory where
        // the next segment file goes makes that rotation's create fail.
        let last = list_segments(&dir).unwrap().last().unwrap().0;
        let blocker = segment_path(&dir, (durable + 1).max(last + 1));
        std::fs::create_dir(&blocker).unwrap();

        assert!(
            set.insert(2).is_err(),
            "the failing round reports the error"
        );
        assert_eq!(set.durable_seq(), durable);
        let wedged = |result: io::Result<()>| {
            let err = result.expect_err("a wedged set fails every call");
            assert!(err.to_string().contains("wedged"), "{err}");
        };
        for key in 3..6u64 {
            wedged(set.insert(key).map(drop));
            wedged(set.contains(&key).map(drop));
            wedged(set.sync().map(drop));
            assert!(set.durable_seq() <= durable, "nothing past the last fsync");
        }
        assert!(!set.inner().is_poisoned(), "a wedge is not a poison");
        drop(set);

        std::fs::remove_dir(&blocker).unwrap();
        let set = open(&dir, options);
        let recovered: BTreeSet<u64> = set.inner().snapshot_keys().0.into_iter().collect();
        assert!(recovered.contains(&1), "the durable prefix survives");
        assert!(
            recovered.is_subset(&(1..6).collect()),
            "no key that was never inserted: {recovered:?}"
        );
        drop(set);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
