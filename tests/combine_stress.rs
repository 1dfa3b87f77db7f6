//! Linearizability-style stress suite for the flat-combining front-end.
//!
//! N client threads issue recorded single-op traces through a
//! `combine::ConcurrentSet` over the real tree.  The combiner logs every
//! committed round; afterwards the test replays the rounds **sequentially**
//! against a `BTreeSet` oracle and demands that
//!
//! 1. every per-op result recorded in the log matches the sequential replay
//!    (the committed order is a valid linearisation),
//! 2. the multiset of `(kind, key, result)` triples the clients observed
//!    equals the multiset in the log (every client op appears exactly once,
//!    with exactly the result its client saw), and
//! 3. the backing set's final contents equal the oracle's, with the tree's
//!    shape invariants intact.
//!
//! Together with the fact that round commit order respects real time (an op
//! that completed before another started was drained in an earlier round),
//! this is a linearizability check for the whole history.
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
    workloads::{self, ClientTrace, OpKind},
};

/// Drives `traces` concurrently through a logged `ConcurrentSet<_, IstSet>`
/// seeded with `initial`, then runs the three oracle checks above.
fn drive_and_verify(
    ctx: &str,
    pool_threads: usize,
    pool_cutoff: usize,
    initial: &[u64],
    traces: &[ClientTrace],
) {
    let pool = Pool::new(pool_threads).unwrap_or_else(|e| panic!("{ctx}: pool: {e}"));
    let backing = IstSet::from_unsorted(initial.to_vec());
    let log = Arc::new(RoundLog::default());
    let set = Arc::new(ConcurrentSet::with_sink(
        backing,
        pool,
        Options {
            pool_cutoff,
            // This harness checks the *combining* path: every op — contains
            // included — must appear in the round log, so the wait-free
            // snapshot read path is pinned off.  The staleness-contract test
            // below covers the snapshot path.
            snapshot_reads: false,
            ..Options::default()
        },
        log.clone(),
    ));

    let observed: Vec<Vec<bool>> = thread::scope(|s| {
        let handles: Vec<_> = traces
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
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let rounds = log.take();
    let total_ops: usize = traces.iter().map(|t| t.len()).sum();
    assert_eq!(
        rounds.iter().map(|r| r.ops.len()).sum::<usize>(),
        total_ops,
        "{ctx}: logged op count"
    );

    // Check 0: sequence numbers are strictly increasing and gap-free in
    // commit order — the numbering a durable log keys its records by.
    for (r, round) in rounds.iter().enumerate() {
        assert_eq!(round.seq, r as u64 + 1, "{ctx}: round seq at index {r}");
    }

    // Check 1: the committed round order is a valid linearisation.
    let mut oracle: BTreeSet<u64> = initial.iter().copied().collect();
    for (r, round) in rounds.iter().enumerate() {
        for op in &round.ops {
            let expect = match op.kind {
                CombinedOp::Insert => oracle.insert(op.key),
                CombinedOp::Remove => oracle.remove(&op.key),
                CombinedOp::Contains => oracle.contains(&op.key),
            };
            assert_eq!(op.result, expect, "{ctx}: round {r}, op {op:?}");
        }
    }

    // Check 2: clients observed exactly the logged multiset of results.
    let mut tally: HashMap<(CombinedOp, u64, bool), i64> = HashMap::new();
    for (trace, results) in traces.iter().zip(&observed) {
        assert_eq!(results.len(), trace.len(), "{ctx}: client result count");
        for ((kind, key), &result) in trace.iter().zip(results) {
            let kind = match kind {
                OpKind::Insert => CombinedOp::Insert,
                OpKind::Remove => CombinedOp::Remove,
                OpKind::Contains => CombinedOp::Contains,
            };
            *tally.entry((kind, *key, result)).or_insert(0) += 1;
        }
    }
    for round in &rounds {
        for op in &round.ops {
            *tally.entry((op.kind, op.key, op.result)).or_insert(0) -= 1;
        }
    }
    if let Some((entry, count)) = tally.iter().find(|(_, &c)| c != 0) {
        panic!("{ctx}: client/log multiset mismatch at {entry:?} (excess {count})");
    }

    // Check 3: the final structure matches the oracle, invariants intact.
    let stats = set.stats();
    assert_eq!(stats.ops, total_ops as u64, "{ctx}: stats.ops");
    let backing = Arc::try_unwrap(set)
        .unwrap_or_else(|_| panic!("{ctx}: client Arc leaked"))
        .into_inner();
    backing
        .check_invariants()
        .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"));
    assert_eq!(backing.len(), oracle.len(), "{ctx}: final len");
    let present = Batch::from_unsorted(oracle.iter().copied().collect());
    assert!(
        backing.batch_contains(&present).iter().all(|&hit| hit),
        "{ctx}: an oracle key is missing from the backing set"
    );
    let absent_probes = Batch::from_unsorted(
        (0..1000u64)
            .map(|i| i * 37)
            .filter(|k| !oracle.contains(k))
            .collect(),
    );
    assert!(
        !backing
            .batch_contains(&absent_probes)
            .iter()
            .any(|&hit| hit),
        "{ctx}: the backing set holds a key the oracle does not"
    );
}

/// Uniform traffic over a narrow key range (heavy cross-client collisions),
/// across pool sizes 1–8 with the default inline/pool cutoff.
#[test]
fn uniform_traffic_linearizes_across_pool_sizes() {
    for (seed, pool_threads) in [(1u64, 1usize), (2, 2), (3, 4), (4, 8)] {
        let initial = workloads::uniform_keys_distinct(seed ^ 0xA5A5, 600, 0..2_000);
        let traces = workloads::client_traces(seed, 4, 2_500, 0..2_000, (3, 2, 2));
        let ctx = format!("seed {seed}, pool {pool_threads}, cutoff default");
        drive_and_verify(
            &ctx,
            pool_threads,
            Options::default().pool_cutoff,
            &initial,
            &traces,
        );
    }
}

/// Zipf hot-key traffic: many concurrent ops on the same few keys, which is
/// exactly what stresses duplicate resolution inside one round.
#[test]
fn zipf_hot_key_traffic_linearizes() {
    for (seed, pool_threads) in [(5u64, 2usize), (6, 4)] {
        let universe = workloads::uniform_keys_distinct(seed, 300, 0..1_000_000);
        let initial: Vec<u64> = universe[..150].to_vec();
        let traces = workloads::client_traces_zipf(seed, 6, 800, &universe, 0.99, (2, 2, 1));
        let ctx = format!("seed {seed}, pool {pool_threads}, zipf");
        drive_and_verify(
            &ctx,
            pool_threads,
            Options::default().pool_cutoff,
            &initial,
            &traces,
        );
    }
}

/// `pool_cutoff: 0` forces every round — even single-op ones — through
/// `Pool::install`, exercising the pooled execution path that default
/// configurations only hit on large rounds.  Run on a 1-worker pool, the
/// configuration where a blocking bug becomes a deadlock rather than a
/// slowdown.
#[test]
fn one_worker_pool_with_forced_pool_rounds() {
    let seed = 7u64;
    let initial = workloads::uniform_keys_distinct(seed, 400, 0..1_500);
    let traces = workloads::client_traces(seed, 4, 400, 0..1_500, (3, 2, 2));
    let ctx = format!("seed {seed}, pool 1, cutoff 0");
    drive_and_verify(&ctx, 1, 0, &initial, &traces);
}

/// The owner's handle can be dropped while clients still hold theirs and
/// have operations in flight; the last client to finish tears the whole
/// front-end (and its pool) down from a worker-facing thread.
#[test]
fn drop_with_waiters_lifecycle() {
    let seed = 8u64;
    let pool = Pool::new(2).unwrap();
    let set = Arc::new(ConcurrentSet::new(
        IstSet::from_unsorted((0..500u64).collect()),
        pool,
    ));
    let traces = workloads::client_traces(seed, 8, 500, 0..1_000, (2, 2, 1));
    let handles: Vec<_> = traces
        .into_iter()
        .map(|trace| {
            let set = Arc::clone(&set);
            thread::spawn(move || {
                for (kind, key) in trace {
                    match kind {
                        OpKind::Insert => set.insert(key),
                        OpKind::Remove => set.remove(&key),
                        OpKind::Contains => set.contains(&key),
                    };
                }
            })
        })
        .collect();
    // Drop the owning handle immediately: clients keep the set alive, and
    // whoever finishes last runs the full teardown.
    drop(set);
    for h in handles {
        h.join().unwrap();
    }
}

/// The combiner advances `Stats` with plain single-writer load+store pairs,
/// ordered so that `ops` is published before `rounds` (Release) and read
/// back in the opposite order (Acquire).  That ordering is exactly what
/// makes `ops >= rounds` and `pooled_rounds <= rounds` hold in *every*
/// concurrent snapshot, not just quiescent ones — every committed round
/// drained at least one op, and a snapshot that sees the round must see
/// its ops.  Hammer the reader against four writers to catch any
/// reordering regression in `bump_stats`.
#[test]
fn stats_snapshots_never_show_rounds_ahead_of_ops() {
    let pool = Pool::new(2).unwrap();
    let set = Arc::new(ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), pool));
    let writers = 4usize;
    let per_writer = 2_000u64;
    thread::scope(|s| {
        for w in 0..writers as u64 {
            let set = Arc::clone(&set);
            s.spawn(move || {
                for i in 0..per_writer {
                    let key = w * 100_000 + (i % 64);
                    if i % 3 == 0 {
                        set.remove(&key);
                    } else {
                        set.insert(key);
                    }
                }
            });
        }
        let set = Arc::clone(&set);
        s.spawn(move || {
            for _ in 0..5_000 {
                let st = set.stats();
                assert!(
                    st.ops >= st.rounds,
                    "snapshot shows more rounds than ops: {st:?}"
                );
                assert!(
                    st.pooled_rounds <= st.rounds,
                    "snapshot shows more pooled rounds than rounds: {st:?}"
                );
            }
        });
    });
    let st = set.stats();
    assert_eq!(st.ops, writers as u64 * per_writer, "quiescent op total");
    assert!(st.rounds >= 1 && st.rounds <= st.ops, "quiescent rounds");
}

/// Staleness-contract replay for the wait-free snapshot read path.
///
/// Clients write disjoint key spaces (default options: snapshot reads
/// *on*, plus the round log for the replay).  Three properties:
///
/// 1. **Read-your-writes** — immediately after an acknowledged write, a
///    snapshot `contains` of the same key reflects it (the combiner
///    publishes the snapshot *before* acknowledging the round, and no
///    other client touches the key).
/// 2. **Monotonicity** — a single client's observed snapshot seqs never
///    go backwards.
/// 3. **Exactness at the observed seq** — replaying the round log, every
///    recorded read `(key, result, seq)` must equal the oracle state
///    after exactly the rounds with seq `<= seq` — i.e. the snapshot *is*
///    some round's state, between the client's last write and the read.
#[test]
fn snapshot_reads_satisfy_the_staleness_contract() {
    let pool = Pool::new(2).unwrap();
    let log = Arc::new(RoundLog::default());
    let set = Arc::new(ConcurrentSet::with_sink(
        IstSet::from_unsorted(Vec::new()),
        pool,
        Options::default(),
        log.clone(),
    ));
    let clients = 4u64;
    let per_client = 400u64;
    let span = 97u64;

    // Each client records its snapshot reads as (key, result, seq).
    let reads: Vec<Vec<(u64, bool, u64)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let mut recorded = Vec::new();
                    let mut last_seq = 0u64;
                    for i in 0..per_client {
                        let key = c * 1_000_000 + (i % span);
                        let insert = i % 3 != 2;
                        if insert {
                            set.insert(key);
                        } else {
                            set.remove(&key);
                        }
                        // Property 1: read-your-writes.
                        assert_eq!(
                            set.contains(&key),
                            insert,
                            "client {c} step {i}: read of own write went stale"
                        );
                        // Properties 2 + 3: record a probe from one
                        // snapshot, pairing result and seq exactly.
                        let snap = set.read_snapshot();
                        assert!(
                            snap.seq() >= last_seq,
                            "client {c} step {i}: snapshot seq went backwards \
                             ({last_seq} -> {})",
                            snap.seq()
                        );
                        last_seq = snap.seq();
                        let probe = c * 1_000_000 + ((i * 31) % span);
                        recorded.push((probe, snap.view().contains(&probe), snap.seq()));
                    }
                    recorded
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Reads bypassed the combiner entirely: the round log holds writes
    // only, and the op counter agrees.
    let rounds = log.take();
    assert!(
        rounds
            .iter()
            .flat_map(|r| r.ops.iter())
            .all(|op| !matches!(op.kind, CombinedOp::Contains)),
        "snapshot reads must never enter a round"
    );
    assert_eq!(
        set.stats().ops,
        clients * per_client,
        "only the writes may be combined"
    );
    assert!(
        set.metrics().counter("combine.snapshot_reads").unwrap_or(0) >= clients * per_client * 2,
        "every contains and read_snapshot must count as a snapshot read"
    );

    // Property 3: replay the log; a read observed at seq s is checked
    // against the oracle once every round with seq <= s has applied.
    let mut events: Vec<(u64, u64, bool)> = reads
        .iter()
        .flatten()
        .map(|&(key, result, seq)| (seq, key, result))
        .collect();
    events.sort_by_key(|&(seq, _, _)| seq);
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    let mut next = 0usize;
    for round in &rounds {
        while next < events.len() && events[next].0 < round.seq {
            let (seq, key, result) = events[next];
            assert_eq!(
                result,
                oracle.contains(&key),
                "read of key {key} at snapshot seq {seq} does not match the round state"
            );
            next += 1;
        }
        for op in &round.ops {
            match op.kind {
                CombinedOp::Insert => {
                    oracle.insert(op.key);
                }
                CombinedOp::Remove => {
                    oracle.remove(&op.key);
                }
                CombinedOp::Contains => {}
            }
        }
    }
    while next < events.len() {
        let (seq, key, result) = events[next];
        assert_eq!(
            result,
            oracle.contains(&key),
            "read of key {key} at snapshot seq {seq} does not match the final state"
        );
        next += 1;
    }
}

/// One recorded ordered read: everything a client learned from a single
/// snapshot, paired with that snapshot's seq.
struct RangeRead {
    seq: u64,
    lo: u64,
    hi: u64,
    keys: Vec<u64>,
    count: usize,
    pred: Option<u64>,
    succ: Option<u64>,
}

/// Staleness-contract replay for the wait-free *ordered* reads
/// (`range_keys` / `range_count` / `predecessor` / `successor` off the
/// published snapshot), mirroring the point-read contract test above.
///
/// Clients write disjoint key spaces and, after each write, capture one
/// snapshot and record a full ordered read against it.  Afterwards the
/// round log replays sequentially and every recorded read must equal the
/// oracle state after exactly the rounds with seq `<=` the observed seq —
/// i.e. every range a client ever saw *is* some committed round's range,
/// never a half-applied or invented one.  The front-end's own wait-free
/// wrappers are exercised in the same run and must never enter a round.
#[test]
fn snapshot_range_reads_replay_against_the_committed_rounds() {
    let pool = Pool::new(2).unwrap();
    let log = Arc::new(RoundLog::default());
    let set = Arc::new(ConcurrentSet::with_sink(
        IstSet::from_unsorted(Vec::new()),
        pool,
        Options::default(),
        log.clone(),
    ));
    let clients = 4u64;
    let per_client = 300u64;
    let span = 61u64;

    let reads: Vec<Vec<RangeRead>> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let base = c * 1_000_000;
                    let mut recorded = Vec::new();
                    for i in 0..per_client {
                        let key = base + (i % span);
                        if i % 3 != 2 {
                            set.insert(key);
                        } else {
                            set.remove(&key);
                        }
                        // The wait-free wrappers must answer without
                        // combining; their results are checked only for
                        // plausibility here (they may come from a newer
                        // snapshot than the one recorded below).
                        let quick = set.range_count(
                            std::ops::Bound::Included(&base),
                            std::ops::Bound::Excluded(&(base + span)),
                        );
                        assert!(quick as u64 <= span, "client {c}: impossible count");
                        // The recorded read: one snapshot, every ordered
                        // query against that same view, seq attached.
                        let snap = set.read_snapshot();
                        let lo = base + ((i * 13) % span);
                        let hi = lo + 1 + (i * 7) % 40;
                        let view = snap.view();
                        recorded.push(RangeRead {
                            seq: snap.seq(),
                            lo,
                            hi,
                            keys: view.range_keys(
                                std::ops::Bound::Included(&lo),
                                std::ops::Bound::Excluded(&hi),
                            ),
                            count: view.range_count(
                                std::ops::Bound::Included(&lo),
                                std::ops::Bound::Excluded(&hi),
                            ),
                            pred: view.predecessor(&lo),
                            succ: view.successor(&lo),
                        });
                    }
                    recorded
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Ordered reads bypassed the combiner: the log holds writes only.
    let rounds = log.take();
    assert!(
        rounds
            .iter()
            .flat_map(|r| r.ops.iter())
            .all(|op| !matches!(op.kind, CombinedOp::Contains)),
        "ordered reads must never enter a round"
    );
    assert_eq!(
        set.stats().ops,
        clients * per_client,
        "only the writes may be combined"
    );

    // Replay: a read observed at seq s is checked against the oracle once
    // every round with seq <= s has applied.
    let mut events: Vec<RangeRead> = reads.into_iter().flatten().collect();
    events.sort_by_key(|e| e.seq);
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    let mut next = 0usize;
    let check = |e: &RangeRead, oracle: &BTreeSet<u64>| {
        let expect: Vec<u64> = oracle
            .iter()
            .copied()
            .filter(|&k| k >= e.lo && k < e.hi)
            .collect();
        assert_eq!(
            e.keys, expect,
            "range [{}, {}) at snapshot seq {} does not match the round state",
            e.lo, e.hi, e.seq
        );
        assert_eq!(e.count, expect.len(), "count at seq {} diverged", e.seq);
        assert_eq!(
            e.pred,
            oracle.range(..e.lo).next_back().copied(),
            "predecessor({}) at seq {} diverged",
            e.lo,
            e.seq
        );
        assert_eq!(
            e.succ,
            oracle.range(e.lo + 1..).next().copied(),
            "successor({}) at seq {} diverged",
            e.lo,
            e.seq
        );
    };
    for round in &rounds {
        while next < events.len() && events[next].seq < round.seq {
            check(&events[next], &oracle);
            next += 1;
        }
        for op in &round.ops {
            match op.kind {
                CombinedOp::Insert => {
                    oracle.insert(op.key);
                }
                CombinedOp::Remove => {
                    oracle.remove(&op.key);
                }
                CombinedOp::Contains => {}
            }
        }
    }
    while next < events.len() {
        check(&events[next], &oracle);
        next += 1;
    }
}

/// A backend that panics when asked to insert `u64::MAX` — used to race
/// `snapshot_keys` against a poisoning combiner.
struct BombSet {
    inner: SortedArraySet<u64>,
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

/// `snapshot_keys` racing a poisoning combiner: every successful
/// `(keys, seq)` pair must equal the round-log oracle at exactly that
/// seq — a half-applied (panicked) round's view must be structurally
/// unreachable — and once the poison lands, `snapshot_keys` fails fast
/// with the poison error while `read_snapshot` (supervisor-grade) still
/// answers with the last good snapshot.
#[test]
fn snapshot_keys_never_observes_a_half_applied_round() {
    let log = Arc::new(RoundLog::default());
    let set = Arc::new(ConcurrentSet::with_sink(
        BombSet {
            inner: SortedArraySet::from_unsorted(Vec::new()),
        },
        Pool::new(1).unwrap(),
        Options::default(),
        log.clone(),
    ));

    let observed: Vec<Vec<(Vec<u64>, u64)>> = thread::scope(|s| {
        let observers: Vec<_> = (0..2)
            .map(|_| {
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let mut pairs = Vec::new();
                    // Snapshot until the poison lands; the Err arm is the
                    // test finishing, so an observer can never hang.
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| set.snapshot_keys())) {
                            Ok(pair) => pairs.push(pair),
                            Err(_) => return pairs,
                        }
                        thread::yield_now();
                    }
                })
            })
            .collect();
        let bomber = {
            let set = Arc::clone(&set);
            s.spawn(move || {
                for i in 0..512u64 {
                    set.insert(i);
                }
                catch_unwind(AssertUnwindSafe(|| set.insert(u64::MAX))).is_err()
            })
        };
        assert!(bomber.join().unwrap(), "the bomb insert must panic");
        observers.into_iter().map(|o| o.join().unwrap()).collect()
    });
    assert!(set.is_poisoned(), "the combiner must be poisoned");

    // Replay the committed rounds (the panicked round never logged, never
    // published) and pin every observed pair to its seq's exact state.
    let rounds = log.take();
    let mut states: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    states.insert(0, Vec::new());
    for round in &rounds {
        for op in &round.ops {
            match op.kind {
                CombinedOp::Insert => {
                    oracle.insert(op.key);
                }
                CombinedOp::Remove => {
                    oracle.remove(&op.key);
                }
                CombinedOp::Contains => {}
            }
        }
        states.insert(round.seq, oracle.iter().copied().collect());
    }
    let total: usize = observed.iter().map(Vec::len).sum();
    assert!(total > 0, "observers must have snapshotted at least once");
    for pairs in &observed {
        for (keys, seq) in pairs {
            let expect = states
                .get(seq)
                .unwrap_or_else(|| panic!("snapshot seq {seq} is not a committed round"));
            assert_eq!(
                keys, expect,
                "snapshot at seq {seq} does not match that round's state"
            );
        }
    }

    // Fail-fast contract after the poison: snapshot_keys refuses...
    let err = catch_unwind(AssertUnwindSafe(|| set.snapshot_keys())).unwrap_err();
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("poisoned"),
        "snapshot_keys after poison must fail fast, got: {msg:?}"
    );
    // ...while the supervisor-grade accessor still serves the last good
    // snapshot (it predates the poisoned round by construction).
    let snap = set.read_snapshot();
    assert_eq!(
        &snap.view().collect_keys(),
        states.get(&snap.seq()).expect("last good snapshot seq"),
        "read_snapshot after poison must still be a committed round's state"
    );
}

/// `len` reads the published snapshot under the default options, so calling
/// it concurrently with mutating traffic must neither deadlock nor return
/// out-of-thin-air values — and because snapshots are published in round
/// order, a single reader must see monotonically non-decreasing lengths
/// while the set only grows.
#[test]
fn concurrent_len_reads_stay_bounded() {
    let pool = Pool::new(2).unwrap();
    let set = Arc::new(ConcurrentSet::new(IstSet::from_unsorted(Vec::new()), pool));
    let writers = 3usize;
    let per_writer = 500u64;
    thread::scope(|s| {
        for w in 0..writers as u64 {
            let set = Arc::clone(&set);
            s.spawn(move || {
                for i in 0..per_writer {
                    // Distinct key spaces: the set only ever grows.
                    set.insert(w * 10_000 + i);
                }
            });
        }
        let set = Arc::clone(&set);
        s.spawn(move || {
            let mut last = 0usize;
            for _ in 0..200 {
                let n = set.len();
                assert!(n >= last, "len went backwards: {last} -> {n}");
                assert!(n <= writers * per_writer as usize, "len overshot: {n}");
                last = n;
            }
        });
    });
    assert_eq!(set.len(), writers * per_writer as usize);
}
