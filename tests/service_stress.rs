//! Cross-shard linearizability stress suite for the sharded service tier.
//!
//! N point-op clients and M batch clients hammer a `service::ShardedSet`
//! whose shards log every committed round.  Afterwards the test replays
//! **each shard's log independently** against a `BTreeSet` oracle
//! restricted to that shard's key range and demands that
//!
//! 1. every key a shard committed actually routes to that shard (the
//!    router's assignment is total and the tier never mis-delivers),
//! 2. every per-op result in a shard's log matches the sequential replay
//!    of that shard's rounds — the committed order is a valid
//!    linearisation *per shard*, which is exactly the contract the tier
//!    documents (there is no cross-shard ordering guarantee to test),
//! 3. the multiset of `(kind, key, result)` triples the clients observed
//!    (batch results flattened to per-key triples) equals the union of the
//!    shard logs — every client op appears on exactly one shard, once,
//!    with the result its client saw, and
//! 4. each shard's final contents equal its oracle with tree invariants
//!    intact, so the union of shard contents equals the union of the
//!    per-shard sequential oracles.
//!
//! A separate set of tests drives a panicking backend through one shard
//! and asserts the poison propagates to the tier: the bombing client
//! observes the backend panic, clients on *other* shards either complete
//! or observe the tier-level poison, and nothing hangs.
//!
//! Every failure message carries the active seed and configuration so CI
//! failures replay without bisecting.

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use pbist_repro::{
    baselines::SortedArraySet,
    batchapi::{Batch, BatchedSet},
    combine::{ConcurrentSet, OpKind as CombinedOp, Options, RoundLog},
    forkjoin::Pool,
    pbist::IstSet,
    service::{HashRouter, RangeRouter, ShardRouter, ShardedOptions, ShardedSet},
    workloads::{self, ClientTrace, OpKind},
};

/// One batch client's script: pre-validated batches, so observed result
/// vectors align index-for-index with batch keys when tallying.
type BatchScript = Vec<(OpKind, Batch<u64>)>;

fn to_script(ops: Vec<workloads::OpBatch>) -> BatchScript {
    ops.into_iter()
        .map(|op| (op.kind, Batch::from_unsorted(op.keys)))
        .collect()
}

fn to_combined(kind: OpKind) -> CombinedOp {
    match kind {
        OpKind::Insert => CombinedOp::Insert,
        OpKind::Remove => CombinedOp::Remove,
        OpKind::Contains => CombinedOp::Contains,
    }
}

/// Drives point traces and batch scripts concurrently through a logged
/// sharded tier seeded with `initial`, then runs the four checks above.
#[allow(clippy::too_many_arguments)]
fn drive_and_verify_sharded<R>(
    ctx: &str,
    router: R,
    shard_pool_threads: usize,
    pool_cutoff: usize,
    tier_pool_threads: usize,
    parallel_cutoff: usize,
    initial: &[u64],
    traces: &[ClientTrace],
    scripts: &[BatchScript],
) where
    R: ShardRouter<u64> + Send + Sync + Clone,
{
    let num_shards = router.num_shards();
    let mut per_shard_initial: Vec<Vec<u64>> = vec![Vec::new(); num_shards];
    for &key in initial {
        per_shard_initial[router.shard_of(&key)].push(key);
    }
    // One round log per shard: each is that shard's linearisation witness.
    let logs: Vec<Arc<RoundLog<u64>>> = (0..num_shards).map(|_| Arc::default()).collect();
    let shards = per_shard_initial
        .iter()
        .zip(&logs)
        .map(|(keys, log)| {
            ConcurrentSet::with_sink(
                IstSet::from_unsorted(keys.clone()),
                Pool::new(shard_pool_threads).unwrap_or_else(|e| panic!("{ctx}: shard pool: {e}")),
                Options {
                    pool_cutoff,
                    // The replay checks demand every op — contains included —
                    // in the shard logs, so the wait-free snapshot read path
                    // is pinned off.  The staleness-contract test below
                    // covers the snapshot path.
                    snapshot_reads: false,
                    ..Options::default()
                },
                log.clone(),
            )
        })
        .collect();
    let set = Arc::new(ShardedSet::with_options(
        router.clone(),
        shards,
        Pool::new(tier_pool_threads).unwrap_or_else(|e| panic!("{ctx}: tier pool: {e}")),
        ShardedOptions { parallel_cutoff },
    ));

    let (point_results, batch_results): (Vec<Vec<bool>>, Vec<Vec<Vec<bool>>>) =
        thread::scope(|s| {
            let point_handles: Vec<_> = traces
                .iter()
                .map(|trace| {
                    let set = Arc::clone(&set);
                    s.spawn(move || {
                        trace
                            .iter()
                            .map(|(kind, key)| match kind {
                                OpKind::Insert => set.insert(*key),
                                OpKind::Remove => set.remove(key),
                                OpKind::Contains => set.contains(key),
                            })
                            .collect::<Vec<bool>>()
                    })
                })
                .collect();
            let batch_handles: Vec<_> = scripts
                .iter()
                .map(|script| {
                    let set = Arc::clone(&set);
                    s.spawn(move || {
                        script
                            .iter()
                            .map(|(kind, batch)| match kind {
                                OpKind::Insert => set.batch_insert(batch),
                                OpKind::Remove => set.batch_remove(batch),
                                OpKind::Contains => set.batch_contains(batch),
                            })
                            .collect::<Vec<Vec<bool>>>()
                    })
                })
                .collect();
            (
                point_handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect(),
                batch_handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect(),
            )
        });

    let shard_rounds: Vec<_> = logs.iter().map(|log| log.take()).collect();
    let point_ops: usize = traces.iter().map(Vec::len).sum();
    let batch_keys: usize = scripts
        .iter()
        .flat_map(|script| script.iter().map(|(_, batch)| batch.len()))
        .sum();
    assert_eq!(
        shard_rounds
            .iter()
            .flat_map(|rounds| rounds.iter().map(|r| r.ops.len()))
            .sum::<usize>(),
        point_ops + batch_keys,
        "{ctx}: logged op count across shards"
    );

    // Checks 1 + 2: per-shard routing invariant and linearisation replay.
    let mut oracles: Vec<BTreeSet<u64>> = per_shard_initial
        .iter()
        .map(|keys| keys.iter().copied().collect())
        .collect();
    for (shard, rounds) in shard_rounds.iter().enumerate() {
        for (r, round) in rounds.iter().enumerate() {
            for op in &round.ops {
                assert_eq!(
                    router.shard_of(&op.key),
                    shard,
                    "{ctx}: shard {shard} committed key {} owned by shard {}",
                    op.key,
                    router.shard_of(&op.key)
                );
                let expect = match op.kind {
                    CombinedOp::Insert => oracles[shard].insert(op.key),
                    CombinedOp::Remove => oracles[shard].remove(&op.key),
                    CombinedOp::Contains => oracles[shard].contains(&op.key),
                };
                assert_eq!(
                    op.result, expect,
                    "{ctx}: shard {shard}, round {r}, op {op:?}"
                );
            }
        }
    }

    // Check 3: clients observed exactly the union of the shard logs.
    let mut tally: HashMap<(CombinedOp, u64, bool), i64> = HashMap::new();
    for (trace, results) in traces.iter().zip(&point_results) {
        assert_eq!(
            results.len(),
            trace.len(),
            "{ctx}: point client result count"
        );
        for ((kind, key), &result) in trace.iter().zip(results) {
            *tally.entry((to_combined(*kind), *key, result)).or_insert(0) += 1;
        }
    }
    for (script, results) in scripts.iter().zip(&batch_results) {
        assert_eq!(results.len(), script.len(), "{ctx}: batch client op count");
        for ((kind, batch), flags) in script.iter().zip(results) {
            assert_eq!(flags.len(), batch.len(), "{ctx}: batch result width");
            for (key, &flag) in batch.as_slice().iter().zip(flags) {
                *tally.entry((to_combined(*kind), *key, flag)).or_insert(0) += 1;
            }
        }
    }
    for rounds in &shard_rounds {
        for round in rounds {
            for op in &round.ops {
                *tally.entry((op.kind, op.key, op.result)).or_insert(0) -= 1;
            }
        }
    }
    if let Some((entry, count)) = tally.iter().find(|(_, &c)| c != 0) {
        panic!("{ctx}: client/log multiset mismatch at {entry:?} (excess {count})");
    }

    // Check 4: per-shard final contents match the per-shard oracles, so
    // the union of shard contents is the union of the oracles.
    assert!(!set.is_poisoned(), "{ctx}: tier poisoned by healthy run");
    let backings = Arc::try_unwrap(set)
        .unwrap_or_else(|_| panic!("{ctx}: client Arc leaked"))
        .into_shards();
    let mut union_len = 0usize;
    for (shard, backing) in backings.into_iter().enumerate() {
        let tree = backing.into_inner();
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: shard {shard} invariants: {e}"));
        let oracle = &oracles[shard];
        assert_eq!(tree.len(), oracle.len(), "{ctx}: shard {shard} final len");
        union_len += tree.len();
        if !oracle.is_empty() {
            let present = Batch::from_unsorted(oracle.iter().copied().collect());
            assert!(
                tree.batch_contains(&present).iter().all(|&hit| hit),
                "{ctx}: shard {shard} lost an oracle key"
            );
        }
        let absent = Batch::from_unsorted(
            (0..500u64)
                .map(|i| i * 41)
                .filter(|k| !oracle.contains(k))
                .collect(),
        );
        assert!(
            !tree.batch_contains(&absent).iter().any(|&hit| hit),
            "{ctx}: shard {shard} holds a key its oracle does not"
        );
    }
    assert_eq!(
        union_len,
        oracles.iter().map(BTreeSet::len).sum::<usize>(),
        "{ctx}: union of shard contents"
    );
}

/// Uniform point + batch traffic across shard counts 1–8 over a range
/// router; per-shard linearizability must hold at every width.
#[test]
fn shard_counts_one_through_eight_linearize_per_shard() {
    for num_shards in [1usize, 2, 3, 4, 8] {
        let seed = 0x5EED ^ num_shards as u64;
        let initial = workloads::uniform_keys_distinct(seed, 400, 0..4_000);
        let traces = workloads::client_traces(seed, 3, 800, 0..4_000, (3, 2, 2));
        let scripts: Vec<BatchScript> = (0..2)
            .map(|c| {
                to_script(workloads::mixed_op_batches(
                    seed ^ c,
                    25,
                    48,
                    0..4_000,
                    (2, 2, 1),
                ))
            })
            .collect();
        let ctx = format!("seed {seed}, {num_shards} shards, range router");
        drive_and_verify_sharded(
            &ctx,
            RangeRouter::new(num_shards, 0, 4_000),
            1,
            Options::default().pool_cutoff,
            2,
            64,
            &initial,
            &traces,
            &scripts,
        );
    }
}

/// Zipf hot-key traffic: most ops hammer a few keys of one shard, the
/// worst case for both duplicate resolution inside a shard round and
/// skewed sub-batch splits at the tier.
#[test]
fn zipf_hot_key_traffic_linearizes_across_shards() {
    let seed = 0x21AF;
    let universe = workloads::uniform_keys_distinct(seed, 300, 0..1_000_000);
    let initial: Vec<u64> = universe[..120].to_vec();
    let traces = workloads::client_traces_zipf(seed, 4, 600, &universe, 0.99, (2, 2, 1));
    let scripts: Vec<BatchScript> = (0..2)
        .map(|c| {
            to_script(workloads::mixed_op_batches_zipf(
                seed ^ c,
                20,
                40,
                &universe,
                0.99,
                (2, 2, 1),
            ))
        })
        .collect();
    let ctx = format!("seed {seed}, 4 shards, zipf 0.99");
    drive_and_verify_sharded(
        &ctx,
        RangeRouter::new(4, 0, 1_000_000),
        2,
        Options::default().pool_cutoff,
        2,
        64,
        &initial,
        &traces,
        &scripts,
    );
}

/// Hash-routed tier: the scatter split/stitch path under concurrency.
#[test]
fn hash_router_linearizes_per_shard() {
    let seed = 0xCAFE;
    let initial = workloads::uniform_keys_distinct(seed, 300, 0..3_000);
    let traces = workloads::client_traces(seed, 3, 600, 0..3_000, (3, 2, 2));
    let scripts = vec![to_script(workloads::mixed_op_batches(
        seed,
        25,
        48,
        0..3_000,
        (2, 2, 1),
    ))];
    let ctx = format!("seed {seed}, 4 shards, hash router");
    drive_and_verify_sharded(
        &ctx,
        HashRouter::new(4),
        1,
        Options::default().pool_cutoff,
        2,
        64,
        &initial,
        &traces,
        &scripts,
    );
}

/// Everything forced through every pool with a single worker each:
/// `pool_cutoff: 0` sends each shard round through that shard's 1-worker
/// pool, `parallel_cutoff: 0` sends every split batch through the
/// 1-worker tier pool.  The configuration where any blocking bug between
/// the tier pool and the shard combiners becomes a deadlock instead of a
/// slowdown.
#[test]
fn one_worker_pools_with_forced_parallel_splits() {
    let seed = 0x1DEA;
    let initial = workloads::uniform_keys_distinct(seed, 200, 0..2_000);
    let traces = workloads::client_traces(seed, 2, 300, 0..2_000, (3, 2, 2));
    let scripts: Vec<BatchScript> = (0..2)
        .map(|c| {
            to_script(workloads::mixed_op_batches(
                seed ^ c,
                15,
                32,
                0..2_000,
                (2, 2, 1),
            ))
        })
        .collect();
    let ctx = format!("seed {seed}, 4 shards, 1-worker pools, all cutoffs 0");
    drive_and_verify_sharded(
        &ctx,
        RangeRouter::new(4, 0, 2_000),
        1,
        0,
        1,
        0,
        &initial,
        &traces,
        &scripts,
    );
}

// ---------------------------------------------------------------------
// Poison propagation
// ---------------------------------------------------------------------

/// A backend that panics when asked to insert `u64::MAX` — the mid-round
/// backend failure the poisoning contract is about.
struct BombSet {
    inner: SortedArraySet<u64>,
}

impl BombSet {
    fn new() -> BombSet {
        BombSet {
            inner: SortedArraySet::from_unsorted(Vec::new()),
        }
    }
}

impl BatchedSet<u64> for BombSet {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn contains(&self, key: &u64) -> bool {
        BatchedSet::contains(&self.inner, key)
    }
    fn rank(&self, key: &u64) -> usize {
        BatchedSet::rank(&self.inner, key)
    }
    fn min(&self) -> Option<&u64> {
        BatchedSet::min(&self.inner)
    }
    fn max(&self) -> Option<&u64> {
        BatchedSet::max(&self.inner)
    }
    fn batch_contains(&self, batch: &Batch<u64>) -> Vec<bool> {
        self.inner.batch_contains(batch)
    }
    fn batch_insert(&mut self, batch: &Batch<u64>) -> Vec<bool> {
        assert!(
            !batch.as_slice().contains(&u64::MAX),
            "BombSet: backend blew up mid-round"
        );
        self.inner.batch_insert(batch)
    }
    fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
        self.inner.batch_remove(batch)
    }
    fn collect_keys(&self) -> Vec<u64> {
        self.inner.collect_keys()
    }
}

/// Builds a 4-shard bomb-backed tier over `[0, 8_000]`; `u64::MAX` clamps
/// into the top shard, so shards 0–2 never see the bomb key.
fn bomb_tier(parallel_cutoff: usize) -> ShardedSet<u64, BombSet, RangeRouter<u64>> {
    ShardedSet::with_options(
        RangeRouter::new(4, 0, 8_000),
        (0..4)
            .map(|_| ConcurrentSet::new(BombSet::new(), Pool::new(1).unwrap()))
            .collect(),
        Pool::new(2).unwrap(),
        ShardedOptions { parallel_cutoff },
    )
}

/// A panic in one shard's backend poisons the tier; clients pinned to
/// *other* shards complete or observe the tier poison — and every thread
/// joins (the test finishing at all is the no-hang assertion).
#[test]
fn backend_panic_in_one_shard_poisons_tier_without_hanging() {
    let set = Arc::new(bomb_tier(0));
    let bombed = thread::scope(|s| {
        // Victims hammer shards 0–2 (keys < 6_000) until they finish their
        // script or observe a poison panic.
        let victims: Vec<_> = (0..3u64)
            .map(|v| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let mut poisoned_at = None;
                    for i in 0..3_000u64 {
                        let key = (v * 1_777 + i * 13) % 5_900;
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            if i % 3 == 0 {
                                set.insert(key)
                            } else {
                                set.contains(&key)
                            }
                        }));
                        if result.is_err() {
                            poisoned_at = Some(i);
                            break;
                        }
                    }
                    poisoned_at
                })
            })
            .collect();
        // The bomber lets the victims get going, then detonates shard 3
        // through the point path (which routes through `batch_insert`).
        let bomber = {
            let set = Arc::clone(&set);
            s.spawn(move || {
                for _ in 0..64 {
                    if catch_unwind(AssertUnwindSafe(|| set.insert(7_500))).is_err() {
                        return false;
                    }
                }
                catch_unwind(AssertUnwindSafe(|| set.insert(u64::MAX))).is_err()
            })
        };
        for victim in victims {
            // Completing or stopping at a poison panic are both fine;
            // joining at all is the property under test.
            let _ = victim.join().unwrap();
        }
        bomber.join().unwrap()
    });
    assert!(bombed, "the bomb insert must panic");
    assert!(set.is_poisoned(), "tier must observe the shard poison");
    let err = catch_unwind(AssertUnwindSafe(|| set.contains(&5))).unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("poisoned"),
        "fresh ops must fail fast with a poison panic, got: {msg:?}"
    );
    assert!(
        set.metrics().counter("service.poisoned").unwrap_or(0) >= 1,
        "tier must count the observed poisoning"
    );
}

/// Regression: a shard poisoned *before* the tier ever observes a panic
/// through its own guards (here: poisoned before the tier is even built)
/// used to kill read entry points with the shard's own poison message
/// while `is_poisoned()` already reported the tier state.  Every read
/// entry point must fail fast with the *tier-level* poison error — and
/// the failed read promotes the shard poison into the tier flag.
#[test]
fn reads_fail_fast_with_the_tier_poison_when_a_shard_is_pre_poisoned() {
    // Detonate a lone shard first, outside any tier guard.
    let bombed = ConcurrentSet::new(BombSet::new(), Pool::new(1).unwrap());
    assert!(
        catch_unwind(AssertUnwindSafe(|| bombed.insert(u64::MAX))).is_err(),
        "the bomb insert must panic"
    );
    assert!(bombed.is_poisoned(), "shard must be poisoned");

    let mut shards: Vec<_> = (0..3)
        .map(|_| ConcurrentSet::new(BombSet::new(), Pool::new(1).unwrap()))
        .collect();
    shards.push(bombed);
    let set = ShardedSet::with_options(
        RangeRouter::new(4, 0, 8_000),
        shards,
        Pool::new(2).unwrap(),
        ShardedOptions { parallel_cutoff: 0 },
    );
    assert!(
        set.is_poisoned(),
        "the health probe must see the shard poison"
    );

    let healthy_batch = Batch::from_unsorted(vec![10u64, 2_100, 4_100]);
    type Read<'a> = Box<dyn Fn() + 'a>;
    let reads: Vec<(&str, Read<'_>)> = vec![
        (
            "contains",
            Box::new(|| {
                set.contains(&5);
            }),
        ),
        (
            "len",
            Box::new(|| {
                set.len();
            }),
        ),
        (
            "is_empty",
            Box::new(|| {
                set.is_empty();
            }),
        ),
        (
            "batch_contains",
            Box::new(|| {
                set.batch_contains(&healthy_batch);
            }),
        ),
    ];
    for (name, read) in reads {
        let err = catch_unwind(AssertUnwindSafe(read))
            .err()
            .unwrap_or_else(|| panic!("{name} must fail fast on a pre-poisoned shard"));
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.starts_with("ShardedSet is poisoned"),
            "{name} must raise the tier-level poison error, got: {msg:?}"
        );
    }
    assert!(
        set.metrics().counter("service.poisoned").unwrap_or(0) >= 1,
        "the failed reads must promote the shard poison to tier level"
    );
}

/// Staleness contract at the tier: clients write disjoint key spaces, and
/// every wait-free read — the point path and the all-read batched path —
/// must observe the client's own acknowledged writes (the shard snapshot
/// is published before the write is acknowledged, so a client can never
/// read past its own last write going *backwards*).
#[test]
fn tier_snapshot_reads_observe_the_clients_own_writes() {
    let set = Arc::new(ShardedSet::with_options(
        RangeRouter::new(4, 0, 4_000_000),
        (0..4)
            .map(|_| ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap()))
            .collect(),
        Pool::new(2).unwrap(),
        ShardedOptions {
            parallel_cutoff: 64,
        },
    ));
    let span = 89u64; // keys per client space, so writes revisit keys
    thread::scope(|s| {
        for c in 0..4u64 {
            let set = Arc::clone(&set);
            s.spawn(move || {
                let mut mine = BTreeSet::new();
                for i in 0..400u64 {
                    let key = c * 1_000_000 + (i % span);
                    let insert = i % 3 != 2;
                    if insert {
                        set.insert(key);
                        mine.insert(key);
                    } else {
                        set.remove(&key);
                        mine.remove(&key);
                    }
                    // Read-your-writes through the tier point path: nobody
                    // else touches this key, so the snapshot the read lands
                    // on must already hold this client's write.
                    assert_eq!(
                        set.contains(&key),
                        insert,
                        "client {c} step {i}: read of own write went stale"
                    );
                    if i % 16 == 7 {
                        // The all-read batched path (bypasses the tier
                        // pool): membership of the client's whole space
                        // must match its local oracle exactly.
                        let space =
                            Batch::from_unsorted((0..span).map(|r| c * 1_000_000 + r).collect());
                        let flags = set.batch_contains(&space);
                        for (k, &flag) in space.as_slice().iter().zip(&flags) {
                            assert_eq!(
                                flag,
                                mine.contains(k),
                                "client {c} step {i}: batched read of key {k} diverged"
                            );
                        }
                    }
                }
            });
        }
    });
    // The reads really took the snapshot path on every shard.
    for (shard, metrics) in set.shard_metrics().iter().enumerate() {
        assert!(
            metrics.counter("combine.snapshot_reads").unwrap_or(0) > 0,
            "shard {shard} answered no reads from its snapshot"
        );
    }
}

/// A tier-level batch containing the bomb key panics the issuing client
/// and poisons the tier — on both the sequential and the parallel
/// split-execution paths.
#[test]
fn batch_containing_bomb_key_poisons_tier() {
    for parallel_cutoff in [0usize, usize::MAX] {
        let set = bomb_tier(parallel_cutoff);
        let healthy = Batch::from_unsorted(vec![10u64, 2_100, 4_100, 6_100]);
        assert_eq!(set.batch_insert(&healthy), vec![true; 4]);
        let bomb = Batch::from_unsorted(vec![20u64, 2_200, u64::MAX]);
        let err = catch_unwind(AssertUnwindSafe(|| set.batch_insert(&bomb)));
        assert!(
            err.is_err(),
            "bomb batch must panic (cutoff {parallel_cutoff})"
        );
        assert!(
            set.is_poisoned(),
            "tier must be poisoned after a bomb batch (cutoff {parallel_cutoff})"
        );
        let follow_up = catch_unwind(AssertUnwindSafe(|| set.batch_contains(&healthy)));
        assert!(
            follow_up.is_err(),
            "post-poison batches must fail fast (cutoff {parallel_cutoff})"
        );
    }
}

/// Pins `ShardedSet::len`'s documented consistency bracket (the satellite
/// contract in the crate docs): under a *monotone* concurrent workload
/// (insert-only, distinct keys), every call observes
///
/// ```text
/// acknowledged-before-the-call  <=  len()  <=  issued-after-the-call
/// ```
///
/// because an insert acknowledged before the call began has committed on
/// its shard before that shard's count is read, and a key counted by some
/// shard must have been issued before the call returned.  The non-atomic
/// cut shows up only *between* the two bounds — that slack is the
/// documented behaviour, not a bug, so the test asserts the bracket and
/// nothing tighter.
#[test]
fn len_stays_within_the_monotone_workload_bracket() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let num_shards = 4;
    let set = Arc::new(ShardedSet::new(
        RangeRouter::new(num_shards, 0u64, 1_000_000),
        (0..num_shards)
            .map(|_| ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), Pool::new(1).unwrap()))
            .collect(),
        Pool::new(2).unwrap(),
    ));
    let issued = Arc::new(AtomicU64::new(0));
    let acked = Arc::new(AtomicU64::new(0));

    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let set = Arc::clone(&set);
            let issued = Arc::clone(&issued);
            let acked = Arc::clone(&acked);
            thread::spawn(move || {
                // Distinct keys per writer (disjoint residues), so every
                // insert is new and cardinality is exactly the ack count.
                for i in 0..2_000u64 {
                    let key = i * 3 + w;
                    issued.fetch_add(1, Ordering::SeqCst);
                    assert!(set.insert(key), "key {key} must be new");
                    acked.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    let mut observed = 0usize;
    while observed < 6_000 {
        let lo = acked.load(Ordering::SeqCst);
        let n = set.len();
        let hi = issued.load(Ordering::SeqCst);
        assert!(
            (lo as usize) <= n && n <= hi as usize,
            "len() = {n} outside the bracket [{lo}, {hi}]"
        );
        observed = n;
    }
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(set.len(), 6_000, "quiescent tier counts exactly");
    assert!(!set.is_empty());

    // Quiescent ordered queries agree with the oracle built from the same
    // keys — the stitched range is exact once no writer is in flight.
    let oracle: BTreeSet<u64> = (0..6_000u64).collect();
    assert_eq!(
        set.range_keys(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded),
        oracle.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(
        set.range_count(
            std::ops::Bound::Included(&100),
            std::ops::Bound::Excluded(&200)
        ),
        100
    );
}
