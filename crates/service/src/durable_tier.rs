//! The durable sharded tier: one [`durable::DurableSet`] per shard, one
//! directory per shard, tier-wide recovery on open.
//!
//! Composition, not new machinery: routing is the same [`ShardRouter`]
//! contract as [`ShardedSet`](crate::ShardedSet), and durability is each
//! shard's own WAL + snapshot protocol (see the [`durable`] crate docs).
//! Because every key maps to exactly one shard, each shard's log is a
//! complete, self-contained history of its key range — shards recover
//! independently and in any order, and there is no cross-shard
//! coordination to get wrong.  The price is the same contract as the
//! in-memory tier: per-shard linearizability (and now per-shard
//! durability), with no cross-shard ordering or atomicity.  A
//! [`DurableTier::sync_all`] is N independent per-shard durability
//! points, not a consistent cut.
//!
//! On disk a tier is a directory of shard directories plus a small `TIER`
//! file recording the shard count.  Reopening with a router that
//! partitions a different number of ways is refused: records would route
//! to different shards than the ones whose logs hold them, silently
//! splitting the history.  (Resharding would need an explicit migration —
//! out of scope here.)
//!
//! ```text
//! tier-dir/
//!   TIER            shard-count manifest
//!   shard-0000/     a durable::DurableSet directory (WAL + snapshots)
//!   shard-0001/
//!   ...
//! ```

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use batchapi::{Batch, BatchedSet, KeyCodec};
use durable::{DurableOptions, DurableSet};
use forkjoin::Pool;
use obs::Snapshot;

use crate::router::ShardRouter;

/// First line of the `TIER` manifest file.
const TIER_MAGIC: &str = "pbtier-v1";

/// A durable, sharded concurrent set: a [`ShardRouter`] over N
/// [`durable::DurableSet`] shards, each persisting its own key range in
/// its own subdirectory.  See the crate docs' Durability section for the
/// on-disk layout and the (per-shard) consistency contract.
pub struct DurableTier<K, S, R>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedSet<K> + Send,
{
    router: R,
    shards: Vec<DurableSet<K, S>>,
    dir: PathBuf,
}

/// Reads or creates the `TIER` manifest, enforcing a stable shard count.
fn check_tier_manifest(dir: &Path, num_shards: usize) -> io::Result<()> {
    let path = dir.join("TIER");
    match std::fs::File::open(&path) {
        Ok(mut file) => {
            let mut text = String::new();
            file.read_to_string(&mut text)?;
            let mut lines = text.lines();
            let (magic, count) = (lines.next(), lines.next());
            if magic != Some(TIER_MAGIC) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a tier manifest", path.display()),
                ));
            }
            let recorded: usize = count.and_then(|c| c.trim().parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} has no shard count", path.display()),
                )
            })?;
            if recorded != num_shards {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "tier at {} was created with {recorded} shards but the router \
                         partitions {num_shards} ways; resharding needs an explicit migration",
                        dir.display()
                    ),
                ));
            }
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let mut file = std::fs::File::create(&path)?;
            write!(file, "{TIER_MAGIC}\n{num_shards}\n")?;
            file.sync_all()
        }
        Err(e) => Err(e),
    }
}

impl<K, S, R> DurableTier<K, S, R>
where
    K: Ord + Clone + Send + Sync + KeyCodec + 'static,
    S: BatchedSet<K> + Send,
    R: ShardRouter<K>,
{
    /// Opens (creating if absent) the tier rooted at `dir`, recovering
    /// every shard: `shard-<i>/` is opened as a [`DurableSet`] with
    /// `options`, a pool built by `make_pool(i)` (pools are per shard —
    /// a shard's combiner must never block on another shard's workers),
    /// and a backend built by `make_backend` (called once per shard with
    /// that shard's recovered contents).
    ///
    /// # Errors
    ///
    /// Any shard's recovery error propagates; additionally `InvalidData`
    /// when `dir` holds a tier created with a different shard count.
    pub fn open<P, MP, F>(
        dir: P,
        router: R,
        options: DurableOptions,
        mut make_pool: MP,
        mut make_backend: F,
    ) -> io::Result<DurableTier<K, S, R>>
    where
        P: AsRef<Path>,
        MP: FnMut(usize) -> Pool,
        F: FnMut(Batch<K>) -> S,
    {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        check_tier_manifest(&dir, router.num_shards())?;
        let shards = (0..router.num_shards())
            .map(|i| {
                DurableSet::open(
                    dir.join(format!("shard-{i:04}")),
                    make_pool(i),
                    options.clone(),
                    &mut make_backend,
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(DurableTier {
            router,
            shards,
            dir,
        })
    }

    /// Number of shards in the tier.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The tier's router.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// The tier's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Inserts `key` on its owning shard; `Ok(true)` iff newly inserted.
    /// Durability timing is the shard's group-commit contract
    /// ([`durable::DurableSet::insert`]).
    pub fn insert(&self, key: K) -> io::Result<bool> {
        self.shards[self.router.shard_of(&key)].insert(key)
    }

    /// Removes `key` from its owning shard; `Ok(true)` iff it was present.
    pub fn remove(&self, key: &K) -> io::Result<bool> {
        self.shards[self.router.shard_of(key)].remove(key)
    }

    /// Membership test on the owning shard.
    pub fn contains(&self, key: &K) -> io::Result<bool> {
        self.shards[self.router.shard_of(key)].contains(key)
    }

    /// Splits `batch` across shards, runs one durable batch insert per
    /// non-empty sub-batch, and stitches results back into batch order.
    /// Sub-batches run sequentially: each is a durability point, and a
    /// mid-batch error reports exactly which prefix of shards committed.
    pub fn batch_insert(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.run_batch(batch, |shard, sub| self.shards[shard].batch_insert(sub))
    }

    /// Batched remove; see [`DurableTier::batch_insert`].
    pub fn batch_remove(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.run_batch(batch, |shard, sub| self.shards[shard].batch_remove(sub))
    }

    /// Batched membership; see [`DurableTier::batch_insert`].
    pub fn batch_contains(&self, batch: &Batch<K>) -> io::Result<Vec<bool>> {
        self.run_batch(batch, |shard, sub| self.shards[shard].batch_contains(sub))
    }

    /// Total keys across all shards (per-shard counts at independent
    /// instants; not a consistent cut).
    pub fn len(&self) -> usize {
        self.shards.iter().map(DurableSet::len).sum()
    }

    /// Whether every shard is empty (same caveat as [`DurableTier::len`]).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(DurableSet::is_empty)
    }

    /// Forces every shard's log onto disk; returns the per-shard durable
    /// high-water marks, index-aligned with the router's numbering.
    pub fn sync_all(&self) -> io::Result<Vec<u64>> {
        self.shards.iter().map(DurableSet::sync).collect()
    }

    /// Snapshots every shard (truncating its log); returns the per-shard
    /// snapshot seqs.  N independent per-shard checkpoints, not an
    /// atomic tier-wide one.
    pub fn snapshot_all(&self) -> io::Result<Vec<u64>> {
        self.shards.iter().map(DurableSet::snapshot).collect()
    }

    /// Per-shard durable high-water marks (see
    /// [`durable::DurableSet::durable_seq`]).
    pub fn durable_seqs(&self) -> Vec<u64> {
        self.shards.iter().map(DurableSet::durable_seq).collect()
    }

    /// Per-shard `durable.*` metric snapshots, index-aligned with the
    /// router's shard numbering.
    pub fn shard_metrics(&self) -> Vec<Snapshot> {
        self.shards.iter().map(DurableSet::metrics).collect()
    }

    /// Direct access to one shard (for its combiner stats/metrics).
    ///
    /// # Panics
    ///
    /// Panics when `shard >= num_shards()`.
    pub fn shard(&self, shard: usize) -> &DurableSet<K, S> {
        &self.shards[shard]
    }

    /// Fsyncs every shard, then closes; first error wins (the
    /// remaining shards still run their best-effort `Drop` sync).
    pub fn close(self) -> io::Result<()> {
        self.shards.into_iter().try_for_each(DurableSet::close)
    }

    fn run_batch<F>(&self, batch: &Batch<K>, mut exec: F) -> io::Result<Vec<bool>>
    where
        F: FnMut(usize, &Batch<K>) -> io::Result<Vec<bool>>,
    {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let split = self.router.split(batch);
        let mut results: Vec<Vec<bool>> = Vec::with_capacity(self.shards.len());
        for (shard, sub) in split.sub_batches().iter().enumerate() {
            results.push(if sub.is_empty() {
                Vec::new()
            } else {
                exec(shard, sub)?
            });
        }
        let mut out = Vec::with_capacity(batch.len());
        split.stitch(&results, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RangeRouter;
    use pbist::IstSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "durable-tier-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    fn open(
        dir: &Path,
        num_shards: usize,
        options: DurableOptions,
    ) -> DurableTier<u64, IstSet<u64>, RangeRouter<u64>> {
        DurableTier::open(
            dir,
            RangeRouter::new(num_shards, 0, 10_000),
            options,
            |_| Pool::new(1).unwrap(),
            |batch| IstSet::from_batch(&batch),
        )
        .unwrap()
    }

    #[test]
    fn tier_routes_persists_and_recovers() {
        let dir = scratch_dir("basic");
        let tier = open(&dir, 4, DurableOptions::default());
        assert!(tier.is_empty());
        let batch = Batch::from_unsorted(vec![1u64, 2_600, 5_100, 7_600, 9_999]);
        assert_eq!(tier.batch_insert(&batch).unwrap(), vec![true; 5]);
        assert!(tier.insert(42).unwrap());
        assert!(tier.remove(&2_600).unwrap());
        assert_eq!(tier.len(), 5);
        // Every shard directory exists and is a durable set root.
        for i in 0..4 {
            assert!(dir.join(format!("shard-{i:04}")).is_dir());
        }
        tier.close().unwrap();

        let tier = open(&dir, 4, DurableOptions::default());
        assert_eq!(tier.len(), 5);
        assert_eq!(
            tier.batch_contains(&batch).unwrap(),
            vec![true, false, true, true, true]
        );
        assert!(tier.contains(&42).unwrap());
        tier.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_change_is_refused() {
        let dir = scratch_dir("reshard");
        let tier = open(&dir, 2, DurableOptions::default());
        tier.insert(5).unwrap();
        tier.close().unwrap();

        let err = DurableTier::<u64, IstSet<u64>, _>::open(
            &dir,
            RangeRouter::new(3, 0u64, 10_000),
            DurableOptions::default(),
            |_| Pool::new(1).unwrap(),
            |batch| IstSet::from_batch(&batch),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("2 shards"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_all_and_snapshot_all_cover_every_shard() {
        let dir = scratch_dir("syncall");
        let tier = open(
            &dir,
            3,
            DurableOptions {
                group_commit: 1_000, // nothing durable until sync_all
                ..DurableOptions::default()
            },
        );
        for k in (0..9_000u64).step_by(100) {
            tier.insert(k).unwrap();
        }
        let durable = tier.sync_all().unwrap();
        assert_eq!(durable.len(), 3);
        assert_eq!(tier.durable_seqs(), durable);
        assert!(durable.iter().all(|&d| d > 0), "{durable:?}");

        let snaps = tier.snapshot_all().unwrap();
        assert_eq!(snaps.len(), 3);
        for (i, snap) in tier.shard_metrics().iter().enumerate() {
            assert_eq!(
                snap.counter("durable.snapshots"),
                Some(1),
                "shard {i} must have snapshotted"
            );
        }
        tier.close().unwrap();

        // Snapshot-only recovery (logs were truncated).
        let tier = open(&dir, 3, DurableOptions::default());
        assert_eq!(tier.len(), 90);
        tier.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
