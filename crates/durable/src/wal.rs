//! The WAL engine both durable tiers instantiate: recovery, append with
//! rotation, group commit and the snapshot cadence, fsync, snapshot plus
//! segment truncation, the wedge rule, and the final flush on drop.
//!
//! A tier is a [`Wal<K, V>`] — the engine's shared half (directory,
//! policy, metrics) — plus a [`Log`], the mutable half it keeps under
//! its own lock.  The tier decides what one linearisation step logs and
//! how to capture its contents for a snapshot; everything that touches
//! disk lives here.  A set is the engine with `V = ()`.

use std::collections::BTreeMap;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use batchapi::KeyCodec;
use obs::{Counter, Gauge, Histogram, Registry};

use crate::log::{self, list_segments, truncate_segment, SegmentEnd, SegmentLog};
use crate::snapshot::{
    self, commit_manifest, read_manifest, remove_stale_snapshots, snapshot_path,
};
use crate::{record, DurableOptions};

/// Handles to the `durable.*` metrics, resolved once at construction.
#[derive(Debug)]
struct Metrics {
    rounds_drained: Arc<Counter>,
    records_appended: Arc<Counter>,
    bytes_written: Arc<Counter>,
    fsyncs: Arc<Counter>,
    snapshots: Arc<Counter>,
    segments_created: Arc<Counter>,
    segments_deleted: Arc<Counter>,
    torn_tails: Arc<Counter>,
    group_size: Arc<Histogram>,
    recovery_replayed: Arc<Histogram>,
    appended_seq: Arc<Gauge>,
    durable_seq: Arc<Gauge>,
    snapshot_seq: Arc<Gauge>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            rounds_drained: registry.counter("durable.rounds_drained"),
            records_appended: registry.counter("durable.records_appended"),
            bytes_written: registry.counter("durable.bytes_written"),
            fsyncs: registry.counter("durable.fsyncs"),
            snapshots: registry.counter("durable.snapshots"),
            segments_created: registry.counter("durable.segments_created"),
            segments_deleted: registry.counter("durable.segments_deleted"),
            torn_tails: registry.counter("durable.torn_tails"),
            group_size: registry.histogram("durable.group_size"),
            recovery_replayed: registry.histogram("durable.recovery_replayed"),
            appended_seq: registry.gauge("durable.appended_seq"),
            durable_seq: registry.gauge("durable.durable_seq"),
            snapshot_seq: registry.gauge("durable.snapshot_seq"),
        }
    }
}

/// What [`Wal::open`] returns: the engine, its log, and the recovered
/// contents.
pub(crate) type Opened<K, V> = (Wal<K, V>, Log, BTreeMap<K, V>);

/// The engine's shared half: where the files live, the flush and
/// snapshot policy, and the `durable.*` metrics.
pub(crate) struct Wal<K, V> {
    dir: PathBuf,
    group_commit: u64,
    snapshot_every: u64,
    registry: Registry,
    metrics: Metrics,
    /// Set when an I/O error left the on-disk log in an unknown state:
    /// later durability calls refuse (appending past a possibly-partial
    /// record would corrupt the log), the in-memory contents keep working,
    /// and reopening recovers the durable prefix.  Checked lock-free; the
    /// `Release` store pairs with the `Acquire` load in `check`.
    wedged: AtomicBool,
    _codec: PhantomData<fn(K, V)>,
}

/// The engine's mutable half, kept under the tier's lock.  Appends must
/// arrive in commit order: the set tier's come from the combiner, one
/// round at a time; the map tier's from under its one mutex.
#[derive(Debug)]
pub(crate) struct Log {
    segment: SegmentLog,
    /// Seq of the last record appended (starts at the recovery mark).
    appended_seq: u64,
    /// Highest segment name ever created; names must strictly increase so
    /// that segment-name order stays append order (see `next_name`).
    last_name: u64,
    /// Records appended since the last fsync.
    pending: u64,
    /// Records appended since the last snapshot.
    since_snapshot: u64,
    /// Encode scratch, reused across appends.
    buf: Vec<u8>,
}

impl Log {
    /// Seq of the last record appended.
    pub(crate) fn appended_seq(&self) -> u64 {
        self.appended_seq
    }

    /// The name for the next segment: past the last appended record *and*
    /// past every name already used (post-snapshot segments can carry
    /// late-appended records numbered below their name, so `appended_seq`
    /// alone could repeat a name and truncate a live segment).
    fn next_name(&self) -> u64 {
        (self.appended_seq + 1).max(self.last_name + 1)
    }
}

impl Drop for Log {
    /// Best-effort final fsync; the tiers' `close` is the error-reporting
    /// path.  Never runs on a wedged log: wedging drops `pending` to 0.
    fn drop(&mut self) {
        if self.pending > 0 {
            let _ = self.segment.sync();
        }
    }
}

impl<K: Ord + KeyCodec, V: KeyCodec> Wal<K, V> {
    /// Opens (creating if absent) the durable directory `dir` and recovers
    /// its history: load the manifest's snapshot, replay the log tail
    /// above it, heal a torn final record, and open a fresh segment.
    /// Returns the engine, its log, and the recovered contents; the
    /// recovered high-water seq is `log.appended_seq()`.
    ///
    /// # Errors
    ///
    /// I/O failure, or `InvalidData` when a *committed* artefact (the
    /// manifest or the snapshot it points to) is damaged, or when any
    /// artefact was written for another value width or in a retired
    /// dialect.  Refusal touches nothing on disk.  A torn log tail is an
    /// expected crash signature and recovered from silently.
    pub(crate) fn open(dir: &Path, options: &DurableOptions) -> io::Result<Opened<K, V>> {
        std::fs::create_dir_all(dir)?;
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);

        // 1. The snapshot, if one was ever committed.
        let mut contents: BTreeMap<K, V> = BTreeMap::new();
        let mut snap_seq = 0u64;
        if let Some((seq, path)) = read_manifest(dir)? {
            let (file_seq, entries) = snapshot::load::<K, V>(&path)?;
            if file_seq != seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "manifest says seq {seq} but snapshot {} says {file_seq}",
                        path.display()
                    ),
                ));
            }
            snap_seq = seq;
            contents = entries.into_iter().collect();
        }
        metrics.snapshot_seq.set(snap_seq);

        // 2. Refuse foreign segments before anything heals: a segment of
        //    another value width must never be deleted as a torn tail.
        let segments = list_segments(dir)?;
        for (_, path) in &segments {
            log::check_segment(path, V::WIDTH)?;
        }

        // 3. Replay the log tail in segment-name (= append) order.  A
        //    record seq that fails to strictly increase is treated like a
        //    checksum failure: the valid log ends there.
        let mut max_seq = snap_seq;
        let mut last_record_seq = 0u64;
        let mut replayed = 0u64;
        let mut tear: Option<(usize, u64)> = None;
        for (i, (_, path)) in segments.iter().enumerate() {
            let end = log::replay::<K, V, _>(path, |record| {
                if record.seq <= last_record_seq {
                    return false;
                }
                last_record_seq = record.seq;
                if record.seq > snap_seq {
                    for (key, val) in record.ops() {
                        match val {
                            Some(val) => contents.insert(key, val),
                            None => contents.remove(&key),
                        };
                    }
                    max_seq = record.seq;
                    replayed += 1;
                }
                true
            })?;
            if let SegmentEnd::Torn(offset) = end {
                tear = Some((i, offset));
                break;
            }
        }

        // 4. Heal a tear: truncate the damaged segment at the tear and
        //    delete everything appended after it — point-in-time recovery
        //    to the last valid record.
        if let Some((i, offset)) = tear {
            metrics.torn_tails.inc();
            if offset == 0 {
                // No valid prefix — not even the header.  Truncating would
                // leave a headerless file that replays as torn on every
                // future open; delete it instead.
                std::fs::remove_file(&segments[i].1)?;
                metrics.segments_deleted.inc();
            } else {
                truncate_segment(&segments[i].1, offset)?;
            }
            for (_, path) in &segments[i + 1..] {
                std::fs::remove_file(path)?;
                metrics.segments_deleted.inc();
            }
            log::sync_dir(dir)?;
        }
        metrics.recovery_replayed.record(replayed);

        // 5. A fresh active segment, named past every survivor so that
        //    name order stays append order across process lifetimes.
        let highest_name = segments.iter().map(|&(seq, _)| seq).max().unwrap_or(0);
        let name = (max_seq + 1).max(highest_name + 1);
        let segment = SegmentLog::create(dir, name, options.segment_bytes.max(1), V::WIDTH)?;
        metrics.segments_created.inc();

        metrics.appended_seq.set(max_seq);
        metrics.durable_seq.set(max_seq);
        let wal = Wal {
            dir: dir.to_path_buf(),
            group_commit: options.group_commit.max(1),
            snapshot_every: options.snapshot_every,
            registry,
            metrics,
            wedged: AtomicBool::new(false),
            _codec: PhantomData,
        };
        let log = Log {
            segment,
            appended_seq: max_seq,
            last_name: name,
            pending: 0,
            since_snapshot: 0,
            buf: Vec::new(),
        };
        Ok((wal, log, contents))
    }

    /// The durable high-water mark: every seq at or below it has reached
    /// disk (via fsynced records or a committed snapshot).
    pub(crate) fn durable_seq(&self) -> u64 {
        self.metrics.durable_seq.get()
    }

    /// Snapshot of the `durable.*` metrics.
    pub(crate) fn metrics(&self) -> obs::Snapshot {
        self.registry.snapshot()
    }

    /// The wedge rule: refuse if an earlier call failed, wedge if this
    /// one does, giving up on the records not yet fsynced — no later
    /// fsync, the drop flush included, may touch a log in an unknown state.
    pub(crate) fn guard<T>(
        &self,
        log: &mut Log,
        f: impl FnOnce(&mut Log) -> io::Result<T>,
    ) -> io::Result<T> {
        self.check()?;
        f(log).inspect_err(|_| {
            log.pending = 0;
            self.wedged.store(true, Ordering::Release);
        })
    }

    /// `Err` once an I/O error has wedged the engine; takes no lock.
    pub(crate) fn check(&self) -> io::Result<()> {
        if self.wedged.load(Ordering::Acquire) {
            return Err(io::Error::other(
                "durable tier wedged by an earlier I/O error; reopen the directory to recover",
            ));
        }
        Ok(())
    }

    /// Counts one linearisation step handed to the log, logged or not.
    pub(crate) fn count_round(&self) {
        self.metrics.rounds_drained.inc();
    }

    /// Appends one record of `ops` (`(key, Some(value))` puts, `(key,
    /// None)` removes) numbered `seq`, rotating first when the active
    /// segment is full.  A step with no ops writes nothing.
    pub(crate) fn append<'a>(
        &self,
        log: &mut Log,
        seq: u64,
        ops: impl IntoIterator<Item = (&'a K, Option<&'a V>)>,
    ) -> io::Result<()>
    where
        K: 'a,
        V: 'a,
    {
        log.buf.clear();
        if record::encode(seq, ops, &mut log.buf) == 0 {
            return Ok(());
        }
        if log.segment.wants_rotation() {
            // Seal the active segment before abandoning it: its records
            // must never wait on a rotated-away fd.
            self.fsync(log)?;
            let name = log.next_name();
            log.segment.rotate(name)?;
            log.last_name = name;
            self.metrics.segments_created.inc();
        }
        let appended = log.segment.append(&log.buf);
        self.metrics.bytes_written.add(log.buf.len() as u64);
        appended?;
        self.metrics.records_appended.inc();
        log.appended_seq = seq;
        log.pending += 1;
        log.since_snapshot += 1;
        self.metrics.appended_seq.set(seq);
        Ok(())
    }

    /// Group commit and the snapshot cadence, run after each append:
    /// fsync once [`DurableOptions::group_commit`] records are pending,
    /// and call `snapshot` once [`DurableOptions::snapshot_every`] records
    /// have accumulated since the last one.
    pub(crate) fn commit<T>(
        &self,
        log: &mut Log,
        snapshot: impl FnOnce(&mut Log) -> io::Result<T>,
    ) -> io::Result<()> {
        if log.pending >= self.group_commit {
            self.fsync(log)?;
        }
        if self.snapshot_every > 0 && log.since_snapshot >= self.snapshot_every {
            snapshot(log)?;
        }
        Ok(())
    }

    /// Fsyncs the active segment, advancing the durable mark over every
    /// pending record.
    pub(crate) fn fsync(&self, log: &mut Log) -> io::Result<()> {
        if log.pending == 0 {
            return Ok(());
        }
        log.segment.sync()?;
        self.metrics.fsyncs.inc();
        self.metrics.group_size.record(log.pending);
        log.pending = 0;
        self.metrics.durable_seq.set_max(log.appended_seq);
        Ok(())
    }

    /// Commits `entries` — the tier's contents at seq `seq`, which must
    /// cover every record appended so far — as a snapshot, then deletes
    /// every segment it supersedes.  Returns `seq`; everything at or
    /// below it is durable when this returns.
    pub(crate) fn snapshot<'a>(
        &self,
        log: &mut Log,
        seq: u64,
        entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
    ) -> io::Result<u64>
    where
        K: 'a,
        V: 'a,
    {
        // Seal what is already appended: the snapshot supersedes it, but
        // if the snapshot fails mid-way the log must still stand alone.
        self.fsync(log)?;
        let name = snapshot::write(&self.dir, seq, entries)?;
        commit_manifest(&self.dir, seq, &name)?;
        self.metrics.snapshots.inc();
        self.metrics.snapshot_seq.set(seq);
        self.metrics.durable_seq.set_max(seq);

        // Every record in every segment now has seq <= `seq`: the
        // snapshot covers them all, so truncation deletes whole segments.
        let survivors = list_segments(&self.dir)?;
        let next = log.next_name().max(seq + 1);
        log.segment.rotate(next)?;
        log.last_name = next;
        self.metrics.segments_created.inc();
        let active = log::segment_path(&self.dir, next);
        for (_, path) in survivors {
            if path != active {
                std::fs::remove_file(&path)?;
                self.metrics.segments_deleted.inc();
            }
        }
        remove_stale_snapshots(&self.dir, &snapshot_path(&self.dir, seq))?;
        log::sync_dir(&self.dir)?;
        log.since_snapshot = 0;
        Ok(seq)
    }
}
