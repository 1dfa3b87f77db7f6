//! Sharded service tier: a batch-splitting router over N flat-combining
//! front-ends.
//!
//! One [`combine::ConcurrentSet`] is one combiner — one serialisation
//! point, no matter how many clients publish into it.  This crate is the
//! production answer the ROADMAP calls for: partition the key space across
//! `N` shards, each its own `ConcurrentSet` over its own backend, and route
//! traffic at two granularities:
//!
//! * **Point ops** ([`ShardedSet::insert`] / [`ShardedSet::remove`] /
//!   [`ShardedSet::contains`]) go straight to the owning shard — one
//!   [`ShardRouter::shard_of`] call of routing overhead on top of the
//!   shard's own fast path.
//! * **Batched ops** ([`ShardedSet::batch_insert`] and friends) split one
//!   incoming sorted [`Batch`] into per-shard sub-batches
//!   ([`ShardRouter::split`] — for the range router a handful of narrowing
//!   binary searches whose offsets are the exclusive scan of per-shard
//!   counts, exactly the carve `pbist`'s joint traversal performs at every
//!   inner node), execute the sub-batches (in parallel on the tier's
//!   fork-join pool once the batch is large enough), and stitch per-op
//!   results back into batch order by carving the output at the same
//!   offsets.
//!
//! # Routing contract
//!
//! The router's assignment is total and stable, so **every operation on a
//! key — point or batched — executes on the same shard**, and each shard
//! serialises its operations through its combiner.  The tier therefore
//! guarantees **per-shard linearizability**: restricted to any one shard's
//! key range, the concurrent history is linearizable (each shard's commit
//! log is a witness, replayable against a sequential oracle — the
//! `service_stress` suite does exactly that).
//!
//! There is **no cross-shard ordering guarantee**.  Two operations on keys
//! of different shards commit independently; a client that observes op A
//! on shard 1 and then issues op B on shard 2 gets no promise that another
//! client sees them in that order.  Aggregates over several shards
//! ([`ShardedSet::len`], and the ordered queries [`ShardedSet::range_keys`]
//! / [`ShardedSet::range_count`] / [`ShardedSet::predecessor`] /
//! [`ShardedSet::successor`] / [`ShardedSet::kth`]) are sums or stitches
//! of per-shard linearisation points taken at different instants, not a
//! consistent cut.  This is the standard
//! sharded-store contract; callers needing cross-shard atomicity must add
//! a coordination layer on top.
//!
//! # Durability
//!
//! [`DurableTier`] is the persistent variant: the same router contract
//! over one [`durable::DurableSet`] per shard, each persisting its key
//! range in its own subdirectory (WAL + snapshots), with tier-wide
//! recovery on open.  See [`durable_tier`](DurableTier)'s docs.
//!
//! # Poisoning
//!
//! A backend panic mid-round poisons its shard (see
//! [`combine`'s poisoning contract](combine::ConcurrentSet#poisoning)) and
//! — as soon as the tier observes it — the whole tier: the panic
//! propagates to the issuing client, every later tier operation panics
//! fast, and clients blocked on *other* shards either complete normally or
//! observe the tier-level poison.  Nothing hangs.
//!
//! # Example
//!
//! ```
//! use service::{RangeRouter, ShardedSet};
//!
//! let router = RangeRouter::new(4, 0u64, 10_000);
//! let set = ShardedSet::new(
//!     router,
//!     (0..4)
//!         .map(|_| {
//!             combine::ConcurrentSet::new(
//!                 pbist::IstSet::from_unsorted(Vec::new()),
//!                 forkjoin::Pool::new(1).expect("shard pool"),
//!             )
//!         })
//!         .collect(),
//!     forkjoin::Pool::new(2).expect("tier pool"),
//! );
//!
//! assert!(set.insert(7));
//! let batch = batchapi::Batch::from_unsorted(vec![7u64, 2_500, 9_999]);
//! assert_eq!(set.batch_insert(&batch), vec![false, true, true]);
//! assert_eq!(set.batch_contains(&batch), vec![true, true, true]);
//! assert_eq!(set.len(), 3);
//! ```

#![warn(missing_docs)]

mod durable_tier;
mod router;

pub use durable_tier::DurableTier;
pub use router::{HashRouter, RangeRouter, ShardRouter, SplitBatch};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use batchapi::{Batch, BatchedSet};
use combine::{ConcurrentSet, OpKind};
use forkjoin::Pool;
use obs::{Counter, Histogram, Registry, Snapshot};

/// Construction-time knobs for [`ShardedSet`].
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Batches with at least this many keys execute their per-shard
    /// sub-batches in parallel on the tier's fork-join pool; smaller ones
    /// run the shards sequentially on the issuing thread (a pool
    /// round-trip costs more than a couple of small sub-batches).  `0`
    /// forces every split batch through the pool; `usize::MAX` keeps
    /// everything sequential.
    pub parallel_cutoff: usize,
}

impl Default for ShardedOptions {
    fn default() -> ShardedOptions {
        ShardedOptions {
            parallel_cutoff: 256,
        }
    }
}

/// Handles cloned out of the tier registry once at construction, so the
/// routing paths hit the atomics directly.
struct ServiceMetrics {
    /// `service.batches_split` — incoming batches split across shards.
    batches_split: Arc<Counter>,
    /// `service.point_ops` — point operations routed to a shard.
    point_ops: Arc<Counter>,
    /// `service.range_ops` — ordered queries fanned out to every shard
    /// (`range_keys` / `range_count` / `predecessor` / `successor` /
    /// `kth`).
    range_ops: Arc<Counter>,
    /// `service.empty_subbatches` — sub-batches that received no keys
    /// (their shard was skipped for that batch).
    empty_subbatches: Arc<Counter>,
    /// `service.poisoned` — shard panics observed (and promoted) by the
    /// tier.
    poisoned: Arc<Counter>,
    /// `service.subbatch_size` — keys per non-empty per-shard sub-batch.
    subbatch_size: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(registry: &Registry) -> ServiceMetrics {
        ServiceMetrics {
            batches_split: registry.counter("service.batches_split"),
            point_ops: registry.counter("service.point_ops"),
            range_ops: registry.counter("service.range_ops"),
            empty_subbatches: registry.counter("service.empty_subbatches"),
            poisoned: registry.counter("service.poisoned"),
            subbatch_size: registry.histogram("service.subbatch_size"),
        }
    }
}

/// Promotes a shard panic to tier-level poison on unwind.  Scoped tightly
/// around each delegation into a shard, so only a panic *escaping a shard
/// operation* (the shard's own poison panic, or the backend panic that
/// caused it) trips the tier flag.
struct PoisonOnUnwind<'a> {
    poisoned: &'a AtomicBool,
    counter: &'a Counter,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // SeqCst mirrors the shard-level poison store: the flag must be
            // visible to every fenced re-check before the unwind finishes
            // releasing whatever the panicking client held.
            if !self.poisoned.swap(true, Ordering::SeqCst) {
                self.counter.inc();
            }
        }
    }
}

/// A concurrent ordered set partitioned across `N`
/// [`combine::ConcurrentSet`] shards by a [`ShardRouter`].
///
/// See the [module docs](self) for the routing contract (per-shard
/// linearizability, no cross-shard ordering) and the poisoning semantics.
/// Shared by reference (typically `Arc`); all operations take `&self`.
pub struct ShardedSet<K, S, R> {
    router: R,
    shards: Vec<ConcurrentSet<K, S>>,
    /// Tier pool executing per-shard sub-batches in parallel.  Distinct
    /// from every shard's own pool, so a tier worker blocking on a shard
    /// combiner can never form a wait cycle.
    pool: Pool,
    parallel_cutoff: usize,
    /// Tier-level poison flag; set when any delegation into a shard
    /// unwinds.  Checked first by every tier operation.
    poisoned: AtomicBool,
    registry: Registry,
    metrics: ServiceMetrics,
}

impl<K, S, R> ShardedSet<K, S, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    S: BatchedSet<K> + Send,
    R: ShardRouter<K> + Sync,
{
    /// Builds a tier from a router, its shards (one `ConcurrentSet` per
    /// router shard, index-aligned), and the tier pool, with default
    /// [`ShardedOptions`].
    ///
    /// # Panics
    ///
    /// Panics when `shards.len() != router.num_shards()` or no shards are
    /// given.
    pub fn new(router: R, shards: Vec<ConcurrentSet<K, S>>, pool: Pool) -> ShardedSet<K, S, R> {
        ShardedSet::with_options(router, shards, pool, ShardedOptions::default())
    }

    /// [`ShardedSet::new`] with explicit [`ShardedOptions`].
    pub fn with_options(
        router: R,
        shards: Vec<ConcurrentSet<K, S>>,
        pool: Pool,
        options: ShardedOptions,
    ) -> ShardedSet<K, S, R> {
        assert!(!shards.is_empty(), "a tier needs at least one shard");
        assert_eq!(
            shards.len(),
            router.num_shards(),
            "router partitions {} ways but {} shards were given",
            router.num_shards(),
            shards.len()
        );
        let registry = Registry::new();
        let metrics = ServiceMetrics::new(&registry);
        ShardedSet {
            router,
            shards,
            pool,
            parallel_cutoff: options.parallel_cutoff,
            poisoned: AtomicBool::new(false),
            registry,
            metrics,
        }
    }

    /// Number of shards in the tier.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The tier's router.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// Inserts `key` on its owning shard, returning `true` iff it was
    /// newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the tier is [poisoned](self#poisoning) (same for every
    /// other operation).
    pub fn insert(&self, key: K) -> bool {
        self.check_poisoned();
        self.metrics.point_ops.inc();
        let shard = self.router.shard_of(&key);
        let _promote = self.poison_guard();
        self.shards[shard].insert(key)
    }

    /// Removes `key` from its owning shard, returning `true` iff it was
    /// present.
    pub fn remove(&self, key: &K) -> bool {
        self.check_poisoned();
        self.metrics.point_ops.inc();
        let _promote = self.poison_guard();
        self.shards[self.router.shard_of(key)].remove(key)
    }

    /// Returns `true` iff `key` is present on its owning shard — a
    /// wait-free read against the shard's published snapshot when the
    /// shards were built with [`combine::Options::snapshot_reads`] (the
    /// default).
    pub fn contains(&self, key: &K) -> bool {
        self.check_read_poisoned();
        self.metrics.point_ops.inc();
        let _promote = self.poison_guard();
        self.shards[self.router.shard_of(key)].contains(key)
    }

    /// Answers one membership query per batch key, split across shards.
    /// `result[i]` answers `batch[i]`; per-shard results are per-shard
    /// linearisation points (no cross-shard snapshot — see the
    /// [module docs](self)).
    pub fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.len());
        self.batch_contains_report(batch, &mut out);
        out
    }

    /// Inserts every batch key on its owning shard; `result[i]` is `true`
    /// iff `batch[i]` was newly inserted.
    pub fn batch_insert(&self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.len());
        self.batch_insert_report(batch, &mut out);
        out
    }

    /// Removes every batch key from its owning shard; `result[i]` is
    /// `true` iff `batch[i]` was present.
    pub fn batch_remove(&self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.len());
        self.batch_remove_report(batch, &mut out);
        out
    }

    /// Buffer-reusing variant of [`ShardedSet::batch_contains`] (flags
    /// land in `out`, cleared first).
    pub fn batch_contains_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        self.run_batch(OpKind::Contains, batch, out);
    }

    /// Buffer-reusing variant of [`ShardedSet::batch_insert`].
    pub fn batch_insert_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        self.run_batch(OpKind::Insert, batch, out);
    }

    /// Buffer-reusing variant of [`ShardedSet::batch_remove`].
    pub fn batch_remove_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        self.run_batch(OpKind::Remove, batch, out);
    }

    /// Total keys across all shards.
    ///
    /// # Consistency contract
    ///
    /// Each shard's count is read at that shard's own linearisation
    /// point; shards are visited in index order with no tier-wide lock
    /// freezing them in between, so the sum is **not a consistent
    /// cross-shard cut** (see the [module docs](self)).  What *is*
    /// pinned:
    ///
    /// * every per-shard count is exact at the instant that shard is
    ///   read, so the sum lies between the sum of per-shard minimum and
    ///   per-shard maximum cardinalities over the call's duration;
    /// * under a *monotone* concurrent workload (only inserts, or only
    ///   removes, in flight) that bracket collapses to the total
    ///   cardinality just before and just after the call — in
    ///   particular, every operation **acknowledged before the call
    ///   began** is counted, and no operation **issued after the call
    ///   returned** is;
    /// * a quiescent tier (no concurrent writers) gets the exact count.
    ///
    /// Non-monotone concurrent histories can yield a sum no single
    /// instant exhibited (shard 0 counted before its insert, shard 1
    /// after its remove).  The `service_stress` suite pins the monotone
    /// bracket against acknowledged-operation counters.
    pub fn len(&self) -> usize {
        self.check_read_poisoned();
        let _promote = self.poison_guard();
        self.shards.iter().map(ConcurrentSet::len).sum()
    }

    /// Returns `true` when no shard holds any key (same
    /// [consistency contract](ShardedSet::len) as `len`: per-shard
    /// counts at independent instants, exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys in `(lo, hi)` across all shards, ascending.
    ///
    /// Every shard answers the full bounds from its own published
    /// snapshot (a wait-free read under the default
    /// [`combine::Options::snapshot_reads`]); the tier then concatenates
    /// the runs in shard order when the router is
    /// [monotone](ShardRouter::monotone) and k-way merges them
    /// otherwise.  Per-shard runs are per-shard linearisation points —
    /// the stitched result is **not** a consistent cross-shard cut (same
    /// contract as [`ShardedSet::len`]), but each shard's contribution
    /// is exactly that shard's range at its own instant, so a quiescent
    /// tier gets the exact range.
    pub fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        let runs: Vec<Vec<K>> = self
            .shards
            .iter()
            .map(|shard| shard.range_keys(lo, hi))
            .collect();
        if self.router.monotone() {
            runs.into_iter().flatten().collect()
        } else {
            merge_sorted_runs(runs)
        }
    }

    /// Number of keys in `(lo, hi)` across all shards — the sum of
    /// per-shard counts, with [`ShardedSet::len`]'s consistency
    /// contract.
    pub fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        self.shards
            .iter()
            .map(|shard| shard.range_count(lo, hi))
            .sum()
    }

    /// Greatest key strictly less than `key` anywhere in the tier — the
    /// maximum of the per-shard predecessors (each a per-shard
    /// linearisation point).  Works for any router: a non-monotone
    /// router scatters the candidates but `max` is order-insensitive.
    pub fn predecessor(&self, key: &K) -> Option<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        self.shards
            .iter()
            .filter_map(|shard| shard.predecessor(key))
            .max()
    }

    /// Least key strictly greater than `key` anywhere in the tier — the
    /// minimum of the per-shard successors.
    pub fn successor(&self, key: &K) -> Option<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        self.shards
            .iter()
            .filter_map(|shard| shard.successor(key))
            .min()
    }

    /// The `k`-th smallest key (0-based) across all shards, or `None`
    /// when fewer than `k + 1` keys are held.
    ///
    /// A [monotone](ShardRouter::monotone) router walks shards in index
    /// order subtracting cardinalities (two reads per skipped shard);
    /// otherwise the tier merges every shard's full key run and indexes
    /// it.  Like every cross-shard aggregate this is not a consistent
    /// cut: a shard that shrinks between the walk's `len` and `kth`
    /// reads can make a concurrent call return `None` for a rank that
    /// was momentarily occupied.
    pub fn kth(&self, k: usize) -> Option<K> {
        self.check_read_poisoned();
        self.metrics.range_ops.inc();
        let _promote = self.poison_guard();
        if self.router.monotone() {
            let mut k = k;
            for shard in &self.shards {
                let n = shard.len();
                if k < n {
                    return shard.kth(k);
                }
                k -= n;
            }
            None
        } else {
            merge_sorted_runs(
                self.shards
                    .iter()
                    .map(|shard| shard.range_keys(Bound::Unbounded, Bound::Unbounded))
                    .collect(),
            )
            .into_iter()
            .nth(k)
        }
    }

    /// Returns `true` when the tier — or any of its shards — is poisoned.
    /// Never panics; this is the health probe.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) || self.shards.iter().any(ConcurrentSet::is_poisoned)
    }

    /// Snapshot of the tier's own metrics (`service.*` — batch splits,
    /// sub-batch sizes, routed point ops, observed poisonings).
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Per-shard metric snapshots (each shard's `combine.*` registry:
    /// rounds, round sizes, fast/slow path splits), index-aligned with the
    /// router's shard numbering.
    pub fn shard_metrics(&self) -> Vec<Snapshot> {
        self.shards.iter().map(ConcurrentSet::metrics).collect()
    }

    /// Consumes the tier, returning its shards (dropping the tier pool).
    /// Owning `self` proves no operation is in flight.
    pub fn into_shards(self) -> Vec<ConcurrentSet<K, S>> {
        self.shards
    }

    /// Splits `batch` across shards, executes every non-empty sub-batch on
    /// its shard (in parallel on the tier pool once the batch reaches
    /// `parallel_cutoff` keys), and stitches the per-shard flags back into
    /// batch order.
    fn run_batch(&self, kind: OpKind, batch: &Batch<K>, out: &mut Vec<bool>) {
        if matches!(kind, OpKind::Contains) {
            self.check_read_poisoned();
        } else {
            self.check_poisoned();
        }
        out.clear();
        if batch.is_empty() {
            return;
        }
        let split = self.router.split(batch);
        self.metrics.batches_split.inc();
        for sub in split.sub_batches() {
            if sub.is_empty() {
                self.metrics.empty_subbatches.inc();
            } else {
                self.metrics.subbatch_size.record(sub.len() as u64);
            }
        }

        // One result run per shard (empty sub-batches report zero flags);
        // tasks carry only the non-empty shards.
        let mut results: Vec<Vec<bool>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut tasks: Vec<(usize, &Batch<K>, &mut Vec<bool>)> = split
            .sub_batches()
            .iter()
            .zip(results.iter_mut())
            .enumerate()
            .filter(|(_, (sub, _))| !sub.is_empty())
            .map(|(shard, (sub, run))| (shard, sub, run))
            .collect();

        // All-read batches skip the tier pool: each sub-batch is answered
        // from its shard's published snapshot (a few binary searches), so
        // a pool round-trip would cost more than the reads themselves.
        let pooled = !matches!(kind, OpKind::Contains)
            && batch.len() >= self.parallel_cutoff
            && tasks.len() > 1;
        if pooled {
            // Each task is a whole shard round, so fork with grain 1 (the
            // element-count heuristic would be wrong — see pbist::traverse).
            self.pool.install(|| {
                parprim::for_each_mut_with_grain(&mut tasks, 1, |(shard, sub, run)| {
                    self.exec_shard(kind, *shard, sub, run);
                });
            });
        } else {
            for (shard, sub, run) in &mut tasks {
                self.exec_shard(kind, *shard, sub, run);
            }
        }
        split.stitch(&results, out);
    }

    /// Delegates one sub-batch to its shard, promoting any panic that
    /// escapes the shard to tier-level poison.
    fn exec_shard(&self, kind: OpKind, shard: usize, sub: &Batch<K>, run: &mut Vec<bool>) {
        let _promote = self.poison_guard();
        let shard = &self.shards[shard];
        match kind {
            OpKind::Contains => shard.batch_contains_report(sub, run),
            OpKind::Insert => shard.batch_insert_report(sub, run),
            OpKind::Remove => shard.batch_remove_report(sub, run),
        }
    }

    fn poison_guard(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind {
            poisoned: &self.poisoned,
            counter: &self.metrics.poisoned,
        }
    }

    /// Panics if the tier observed a shard poisoning (see the
    /// [module docs](self)).
    fn check_poisoned(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("{}", TIER_POISON_MSG);
        }
    }

    /// Read-path poison check: polls the shards as well as the tier flag
    /// (exactly what [`ShardedSet::is_poisoned`] reports), so a read never
    /// reaches a poisoned shard and dies with that shard's own message —
    /// or worse, after the tier looked healthy.  A shard poisoned behind
    /// the tier's back (its client panicked without unwinding through a
    /// tier guard) is promoted to tier-level poison here, and the read
    /// fails fast with the tier-level error.
    fn check_read_poisoned(&self) {
        if self.poisoned.load(Ordering::Acquire)
            || self.shards.iter().any(ConcurrentSet::is_poisoned)
        {
            if !self.poisoned.swap(true, Ordering::SeqCst) {
                self.metrics.poisoned.inc();
            }
            panic!("{}", TIER_POISON_MSG);
        }
    }
}

/// The tier-level poison error every tier entry point fails with.
const TIER_POISON_MSG: &str = "ShardedSet is poisoned: a shard's backend panicked mid-round, \
     so that shard's state is indeterminate";

/// K-way merge of sorted runs (one per shard) into one ascending vector.
/// A binary heap of run heads costs `O(n log k)`; shard ranges are
/// disjoint (the router's assignment is total), so no dedup is needed.
fn merge_sorted_runs<K: Ord>(runs: Vec<Vec<K>>) -> Vec<K> {
    let total = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<K>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (run, iter) in iters.iter_mut().enumerate() {
        if let Some(key) = iter.next() {
            heap.push(Reverse((key, run)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((key, run))) = heap.pop() {
        out.push(key);
        if let Some(next) = iters[run].next() {
            heap.push(Reverse((next, run)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbist::IstSet;

    fn tier(
        num_shards: usize,
        parallel_cutoff: usize,
    ) -> ShardedSet<u64, IstSet<u64>, RangeRouter<u64>> {
        ShardedSet::with_options(
            RangeRouter::new(num_shards, 0, 10_000),
            (0..num_shards)
                .map(|_| {
                    ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap())
                })
                .collect(),
            Pool::new(2).unwrap(),
            ShardedOptions { parallel_cutoff },
        )
    }

    #[test]
    fn point_ops_route_and_have_set_semantics() {
        let set = tier(4, 256);
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.insert(9_999));
        assert!(set.contains(&5));
        assert!(!set.contains(&6));
        assert_eq!(set.len(), 2);
        assert!(set.remove(&5));
        assert!(!set.remove(&5));
        assert!(!set.is_empty());
        assert!(!set.is_poisoned());
        let m = set.metrics();
        assert_eq!(m.counter("service.point_ops"), Some(7));
        assert_eq!(m.counter("service.batches_split"), Some(0));
    }

    #[test]
    fn batched_ops_split_execute_and_stitch() {
        for cutoff in [0usize, usize::MAX] {
            let set = tier(4, cutoff);
            let batch = Batch::from_unsorted(vec![1u64, 2_600, 5_100, 7_600, 9_999]);
            assert_eq!(set.batch_insert(&batch), vec![true; 5]);
            assert_eq!(set.batch_insert(&batch), vec![false; 5]);
            assert_eq!(set.batch_contains(&batch), vec![true; 5]);
            let partial = Batch::from_unsorted(vec![1u64, 3, 5_100]);
            assert_eq!(set.batch_remove(&partial), vec![true, false, true]);
            assert_eq!(set.len(), 3);

            let m = set.metrics();
            assert_eq!(
                m.counter("service.batches_split"),
                Some(4),
                "cutoff {cutoff}"
            );
            let sizes = m.histogram("service.subbatch_size").unwrap();
            assert!(sizes.count() > 0);
            // Each shard saw traffic: the 5-key batch covers all 4 ranges.
            for (shard, snap) in set.shard_metrics().iter().enumerate() {
                assert!(
                    snap.counter("combine.rounds").unwrap_or(0) > 0,
                    "shard {shard} committed no rounds (cutoff {cutoff})"
                );
            }
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let set = tier(2, 256);
        assert!(set.batch_insert(&Batch::empty()).is_empty());
        let mut out = vec![true; 3];
        set.batch_contains_report(&Batch::empty(), &mut out);
        assert!(out.is_empty());
        assert_eq!(set.metrics().counter("service.batches_split"), Some(0));
    }

    #[test]
    fn ordered_queries_stitch_across_shards() {
        let set = tier(4, 0);
        let keys: Vec<u64> = (0..100).map(|i| i * 97 % 9_973).collect();
        set.batch_insert(&Batch::from_unsorted(keys.clone()));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();

        use std::ops::Bound::{Excluded, Included, Unbounded};
        assert_eq!(set.range_keys(Unbounded, Unbounded), sorted);
        let lo = sorted[10];
        let hi = sorted[90];
        let want: Vec<u64> = sorted
            .iter()
            .copied()
            .filter(|k| *k >= lo && *k < hi)
            .collect();
        assert_eq!(set.range_keys(Included(&lo), Excluded(&hi)), want);
        assert_eq!(set.range_count(Included(&lo), Excluded(&hi)), want.len());
        assert_eq!(set.predecessor(&sorted[50]), Some(sorted[49]));
        assert_eq!(set.predecessor(&sorted[0]), None);
        assert_eq!(set.successor(&sorted[50]), Some(sorted[51]));
        assert_eq!(set.successor(sorted.last().unwrap()), None);
        for k in [0usize, 1, 50, sorted.len() - 1] {
            assert_eq!(set.kth(k), Some(sorted[k]), "rank {k}");
        }
        assert_eq!(set.kth(sorted.len()), None);
        assert!(set.metrics().counter("service.range_ops").unwrap() >= 9);
    }

    #[test]
    fn non_monotone_router_merges_ordered_results() {
        let router = HashRouter::new(3);
        assert!(!ShardRouter::<u64>::monotone(&router));
        let set = ShardedSet::with_options(
            router,
            (0..3)
                .map(|_| {
                    ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap())
                })
                .collect(),
            Pool::new(2).unwrap(),
            ShardedOptions { parallel_cutoff: 0 },
        );
        let keys: Vec<u64> = (0..200).map(|i| i * 13 % 1_009).collect();
        set.batch_insert(&Batch::from_unsorted(keys.clone()));
        let mut sorted = keys;
        sorted.sort_unstable();
        sorted.dedup();

        use std::ops::Bound::{Included, Unbounded};
        let got = set.range_keys(Unbounded, Unbounded);
        assert_eq!(got, sorted, "hash-router runs must k-way merge sorted");
        let lo = sorted[5];
        assert_eq!(
            set.range_keys(Included(&lo), Unbounded),
            sorted[5..].to_vec()
        );
        assert_eq!(set.kth(7), Some(sorted[7]));
        assert_eq!(set.predecessor(&sorted[9]), Some(sorted[8]));
        assert_eq!(set.successor(&sorted[9]), Some(sorted[10]));
    }

    #[test]
    #[should_panic(expected = "router partitions 3 ways but 2 shards")]
    fn shard_count_mismatch_is_rejected() {
        ShardedSet::new(
            RangeRouter::new(3, 0u64, 100),
            (0..2)
                .map(|_| {
                    ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap())
                })
                .collect(),
            Pool::new(1).unwrap(),
        );
    }
}
