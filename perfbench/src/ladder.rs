//! The cost ladder: client 0's stream replayed from one thread through
//! each layer's public entry point, bottom to top, on identical prefills.
//! Each rung adds one layer to the one below it, so the difference between
//! neighbouring rungs is that layer's marginal cost per key operation.
//!
//! The chain is `baselines` → `pbist` → `pbist.cow_` → `combine` →
//! `service` → `durable`, the layers the end-to-end tiers run through.
//! `forkjoin` is a side rung: the `pbist` rung on an `nproc`-thread pool,
//! whose marginal is taken from `pbist`.  The tiers' `combine` rounds run
//! on the combining thread, never in a pool, so the pool is not on the
//! chain.

use std::path::Path;
use std::time::Instant;

use baselines::SortedArraySet;
use batchapi::Batch;
use forkjoin::Pool;
use obs::HistSnapshot;

use crate::bench::{durable_tier, front, nproc, sharded, Which};
use crate::drive::{Bits, Verdict};
use crate::gen::{Kind, Op};
use crate::stats::{ratio, side_marginals, RungCost};
use crate::target::{Ist, Raw, Target};

/// One rung's measurements.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Metric-name prefix, e.g. `pbist.` or `pbist.cow_`.
    pub prefix: &'static str,
    /// ns per key operation.
    pub cost: RungCost,
    /// `cost.all_ns` minus the rung below's on the chain (the side
    /// rung's: minus the `pbist` rung's).
    pub marginal_ns: f64,
    /// Key operations replayed.
    pub keys: u64,
}

/// The whole ladder.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// The chain bottom to top, with the side rung after `pbist`.
    pub rungs: Vec<Rung>,
    /// The `pbist` rung's cost on a 1-thread pool over its cost on an
    /// `nproc`-thread pool.
    pub speedup: f64,
    /// The `forkjoin` rung's pool counters per operation kind.
    pub pool: [PoolDelta; 3],
    /// Calls replayed per rung.
    pub calls: u64,
    /// Rungs whose results disagreed with the bottom rung's.
    pub verdict: Verdict,
}

/// Pool counters accumulated over the calls of one operation kind.
#[derive(Debug, Clone, Default)]
pub struct PoolDelta {
    /// Calls measured.
    pub calls: u64,
    /// Jobs the pool's workers executed during them.
    pub jobs: u64,
    /// Successful steals during them.
    pub steals: u64,
    /// `join` latencies recorded during them.
    pub join: HistSnapshot,
}

/// A call with its batch already normalised: the ladder times layers, not
/// `Batch::from_unsorted`.
enum Call {
    Point(Kind, u64),
    Batch(Kind, Batch<u64>),
}

struct Replayed {
    cost: RungCost,
    results: Bits,
    keys: u64,
    errors: u64,
    pool: [PoolDelta; 3],
}

/// Replays `calls` through `target`.  With `pool`, that pool's counters
/// are read around every call, outside the timed span, and accumulated
/// per operation kind.
fn replay(target: &dyn Target, calls: &[Call], pool: Option<&Pool>) -> Replayed {
    let (mut read_ns, mut read_keys, mut write_ns, mut write_keys) = (0u128, 0u64, 0u128, 0u64);
    let mut results = Bits::default();
    let mut errors = 0;
    let mut out = Vec::new();
    let mut deltas: [PoolDelta; 3] = Default::default();
    for call in calls {
        let before = pool.map(Pool::metrics);
        let (kind, keys, ok, ns) = match call {
            Call::Point(kind, key) => {
                let start = Instant::now();
                let r = target.point(*kind, *key);
                let ns = start.elapsed().as_nanos();
                out.clear();
                out.extend(r.as_ref().ok());
                (*kind, 1, r.is_ok(), ns)
            }
            Call::Batch(kind, batch) => {
                let start = Instant::now();
                let r = target.batch(*kind, batch, &mut out);
                (
                    *kind,
                    batch.len() as u64,
                    r.is_ok(),
                    start.elapsed().as_nanos(),
                )
            }
        };
        if let (Some(before), Some(pool)) = (before, pool) {
            let after = pool.metrics();
            let (b, a) = (before.totals(), after.totals());
            let delta = &mut deltas[kind as usize];
            delta.calls += 1;
            delta.jobs += a.jobs_executed - b.jobs_executed;
            delta.steals += a.steal_success - b.steal_success;
            delta.join = delta
                .join
                .merge(&after.join_latency.delta(&before.join_latency));
        }
        if !ok {
            errors += 1;
            out.clear();
        }
        out.resize(keys as usize, false);
        for &flag in &out {
            results.push(flag);
        }
        if kind.is_write() {
            write_ns += ns;
            write_keys += keys;
        } else {
            read_ns += ns;
            read_keys += keys;
        }
    }
    Replayed {
        cost: RungCost {
            read_ns: ratio(read_ns as f64, read_keys as f64),
            write_ns: ratio(write_ns as f64, write_keys as f64),
            all_ns: ratio((read_ns + write_ns) as f64, (read_keys + write_keys) as f64),
        },
        results,
        keys: read_keys + write_keys,
        errors,
        pool: deltas,
    }
}

/// Replays `trace` through every rung, each built fresh over `prefill`.
pub fn run(which: Which, keys: &Batch<u64>, trace: &[Op], dir: &Path) -> std::io::Result<Ladder> {
    let calls: Vec<Call> = trace
        .iter()
        .map(|op| match op {
            Op::Point(kind, key) => Call::Point(*kind, *key),
            Op::Batch(kind, keys) => Call::Batch(*kind, Batch::from_unsorted(keys.clone())),
        })
        .collect();
    // Both pools count, so the speedup compares like with like.
    let pool = |threads| {
        Pool::builder()
            .num_threads(threads)
            .metrics(true)
            .build()
            .expect("a fork-join pool")
    };
    let (one, many) = (pool(1), pool(nproc()));
    let ist = || Ist::from_batch(keys);
    let mut replays = vec![
        (
            "baselines.",
            one.install(|| {
                replay(
                    &Raw::new(SortedArraySet::from_sorted(keys.to_vec()), false),
                    &calls,
                    None,
                )
            }),
        ),
        (
            "pbist.",
            one.install(|| replay(&Raw::new(ist(), false), &calls, None)),
        ),
        (
            "forkjoin.",
            many.install(|| replay(&Raw::new(ist(), false), &calls, Some(&many))),
        ),
        (
            "pbist.cow_",
            one.install(|| replay(&Raw::new(ist(), true), &calls, None)),
        ),
        ("combine.", replay(&front(keys, false), &calls, None)),
        (
            "service.",
            replay(&sharded(which.router(), keys, false), &calls, None),
        ),
    ];
    let tier = durable_tier(dir, which.router(), keys, false, None)?;
    replays.push(("durable.", replay(&tier, &calls, None)));
    tier.close()?;

    let mut verdict = Verdict::default();
    let reference = &replays[0].1.results;
    for (prefix, r) in &replays {
        if r.errors > 0 {
            verdict.absorb(Verdict {
                mismatches: r.errors,
                first: Some(format!("rung {prefix} returned {} errors", r.errors)),
            });
        }
        let differ = (0..reference.len())
            .filter(|&i| r.results.get(i) != reference.get(i))
            .count();
        if differ > 0 {
            verdict.absorb(Verdict {
                mismatches: differ as u64,
                first: Some(format!(
                    "rung {prefix} disagrees with the bottom rung on {differ} keys"
                )),
            });
        }
    }
    // The side rung is the `pbist` rung on a larger pool.
    const SIDE: usize = 2;
    let costs: Vec<RungCost> = replays.iter().map(|(_, r)| r.cost).collect();
    let rungs = replays
        .iter()
        .zip(side_marginals(&costs, SIDE))
        .map(|((prefix, r), marginal_ns)| Rung {
            prefix,
            cost: r.cost,
            marginal_ns,
            keys: r.keys,
        })
        .collect();
    Ok(Ladder {
        rungs,
        speedup: ratio(costs[SIDE - 1].all_ns, costs[SIDE].all_ns),
        pool: replays[SIDE].1.pool.clone(),
        calls: calls.len() as u64,
        verdict,
    })
}
