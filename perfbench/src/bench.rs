//! The three workloads: inputs, tiers, the timed phase, checks and metrics.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use batchapi::Batch;
use combine::Options;
use durable::DurableOptions;
use forkjoin::Pool;
use obs::{HistSnapshot, Snapshot, SpanRecord};
use pbist::IstMetricsSnapshot;
use service::{RangeRouter, ShardRouter, ShardedSet};

use crate::drive::{self, ClientLog, Stop, Verdict};
use crate::gen::{self, Kind, OpGen, KEY_SPACE};
use crate::ladder;
use crate::stats::{self, median, quantile, ratio};
use crate::target::{Front, Ist, Sharded, Target, Tier};

/// Seconds of untimed warm-up before each timed phase.
const WARMUP_S: f64 = 1.0;
/// Builds of the prefilled tier per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// `durable_ingest` recoveries per run; `durable.recovery_s` is their
/// median.
const RECOVERY_REPS: usize = 21;
/// Round spans each `combine` shard keeps in a traced phase.
const ROUND_TRACE: usize = 1 << 16;
/// `durable_ingest`'s flush policy: records per fsync.
pub const GROUP_COMMIT: u64 = 64;
/// Calls client 0 issues after `durable_ingest`'s timed phase, on top of
/// a fresh snapshot, so every recovery replays the same amount of log.
const DURABLE_TAIL: u64 = 100_000;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Point ops from two clients on a sharded in-memory tier.
    PointMix,
    /// The paper's set-set operations as large batches on one front-end.
    BatchSetops,
    /// A sliding window of writes from two clients on the durable tier.
    DurableIngest,
}

impl Which {
    /// Every workload.
    pub const ALL: [Which; 3] = [Which::PointMix, Which::BatchSetops, Which::DurableIngest];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Which::PointMix => "point_mix",
            Which::BatchSetops => "batch_setops",
            Which::DurableIngest => "durable_ingest",
        }
    }

    /// Client threads in the closed loop.
    pub fn clients(self) -> usize {
        match self {
            Which::BatchSetops => 1,
            Which::PointMix | Which::DurableIngest => 2,
        }
    }

    /// Keys in the prefilled structure.
    pub fn prefill(self) -> usize {
        match self {
            Which::PointMix | Which::BatchSetops => 1_000_000,
            Which::DurableIngest => 100_000,
        }
    }

    /// Calls of client 0's stream the ladder replays through every rung.
    pub fn ladder_calls(self) -> u64 {
        match self {
            Which::PointMix => 40_000,
            Which::BatchSetops => 192,
            Which::DurableIngest => 20_000,
        }
    }

    /// Keys per `batch_setops` call.
    pub const BATCH: usize = 1024;

    /// The router of the sharded rungs and tiers: two equal slices of the
    /// key space, or of the prefill range for `durable_ingest` (so every
    /// new key lands on the last shard).
    pub fn router(self) -> RangeRouter<u64> {
        match self {
            Which::PointMix | Which::BatchSetops => RangeRouter::new(2, 0, KEY_SPACE - 1),
            Which::DurableIngest => RangeRouter::new(2, 0, self.prefill() as u64 - 1),
        }
    }

    /// The workload parameters, for the provenance record.
    pub fn params(self) -> String {
        let mut p = format!(
            "clients={} prefill={} ladder_calls={} shards={} pool_threads={}",
            self.clients(),
            self.prefill(),
            self.ladder_calls(),
            match self {
                Which::BatchSetops => 1,
                _ => 2,
            },
            nproc()
        );
        match self {
            Which::PointMix => p.push_str(" mix=contains80/insert10/remove10 keys=uniform[0,2^40)"),
            Which::BatchSetops => p.push_str(&format!(
                " batch={} mix=contains50/insert25/remove25 keys=uniform[0,2^40)",
                Self::BATCH
            )),
            Which::DurableIngest => p.push_str(&format!(
                " mix=insert40/remove40/contains20 keys=sliding_window \
                 flush=group_commit:{GROUP_COMMIT},snapshot_every:0 tail={DURABLE_TAIL}"
            )),
        }
        p
    }
}

/// Worker threads per fork-join pool.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An `nproc`-thread pool.
fn pool() -> Pool {
    Pool::new(nproc()).expect("a fork-join pool")
}

/// Every `combine` round runs on the combining thread, however many keys
/// it holds: no round is handed to the pool.  A pooled round sleeps the
/// caller and wakes the workers, and on a shared two-vCPU virtual machine
/// the latency of those hand-offs swings with other tenants' load: with
/// pooled rounds, `batch_setops`' write p99 rose by 60-75% under a
/// 30%-busy neighbour thread, against 0.4% with every round inline, and
/// run-to-run p99 spreads reached 0.3-0.5.  Pooled rounds were also slower
/// on that machine (about 0.7M against 0.82M keys/s).  The pool's cost and
/// speedup are measured by the ladder's `forkjoin` rung instead.
fn combine_options(traced: bool) -> Options {
    Options {
        trace_capacity: if traced { ROUND_TRACE } else { 0 },
        pool_cutoff: usize::MAX,
        ..Options::default()
    }
}

/// A `combine` front-end over a `pbist` tree of `keys`.
pub fn front(keys: &Batch<u64>, traced: bool) -> Front {
    let set = Ist::from_batch(keys).with_metrics(traced);
    Front::with_options(set, pool(), combine_options(traced))
}

/// A `service` tier of `combine` shards over `keys`.
pub fn sharded(router: RangeRouter<u64>, keys: &Batch<u64>, traced: bool) -> Sharded {
    let shards = router
        .split(keys)
        .sub_batches()
        .iter()
        .map(|sub| front(sub, traced))
        .collect();
    ShardedSet::new(router, shards, pool())
}

/// Opens the durable tier at `dir`, recovering whatever is there; every
/// shard's backend is also cloned into `probes` (the clones share the
/// trees' work counters).
pub fn open_tier(
    dir: &Path,
    router: RangeRouter<u64>,
    traced: bool,
    probes: Option<&Mutex<Vec<Ist>>>,
) -> std::io::Result<Tier> {
    let options = DurableOptions {
        group_commit: GROUP_COMMIT,
        snapshot_every: 0,
        combine: combine_options(traced),
        ..DurableOptions::default()
    };
    Tier::open(
        dir,
        router,
        options,
        |_| pool(),
        |batch| {
            let set = Ist::from_batch(&batch).with_metrics(traced);
            if let Some(probes) = probes {
                probes.lock().expect("probe list").push(set.clone());
            }
            set
        },
    )
}

/// A fresh durable tier at `dir` holding `keys`, its first snapshot
/// committed.
pub fn durable_tier(
    dir: &Path,
    router: RangeRouter<u64>,
    keys: &Batch<u64>,
    traced: bool,
    probes: Option<&Mutex<Vec<Ist>>>,
) -> std::io::Result<Tier> {
    let tier = open_tier(dir, router, traced, probes)?;
    tier.batch_insert(keys)?;
    tier.snapshot_all()?;
    Ok(tier)
}

/// A tier's contents in ascending order, read through its shards'
/// published snapshots.
fn tier_contents(tier: &Tier) -> Vec<u64> {
    (0..tier.num_shards())
        .flat_map(|i| tier.shard(i).inner().snapshot_keys().0)
        .collect()
}

/// Layer counters readable while the tier serves.
#[derive(Debug, Clone, Default)]
struct Layers {
    combine: Vec<Snapshot>,
    durable: Vec<Snapshot>,
    pbist: IstMetricsSnapshot,
}

/// What closing a tier yields.
#[derive(Debug, Default)]
struct Closed {
    contents: Vec<u64>,
    pbist: IstMetricsSnapshot,
    rounds: Vec<SpanRecord>,
}

fn sum_pbist(sets: impl IntoIterator<Item = IstMetricsSnapshot>) -> IstMetricsSnapshot {
    sets.into_iter()
        .fold(IstMetricsSnapshot::default(), |a, m| IstMetricsSnapshot {
            nodes_touched: a.nodes_touched + m.nodes_touched,
            leaves_edited: a.leaves_edited + m.leaves_edited,
            rebuilds: a.rebuilds + m.rebuilds,
            rebuild_keys: a.rebuild_keys + m.rebuild_keys,
        })
}

/// The tier one workload runs on.
enum Built {
    Front(Box<Front>),
    Sharded(Sharded),
    Durable(Tier),
}

impl Built {
    fn target(&self) -> &(dyn Target + Sync) {
        match self {
            Built::Front(t) => t.as_ref(),
            Built::Sharded(t) => t,
            Built::Durable(t) => t,
        }
    }

    fn layers(&self, probes: &Mutex<Vec<Ist>>) -> Layers {
        match self {
            Built::Front(t) => Layers {
                combine: vec![t.metrics()],
                ..Layers::default()
            },
            Built::Sharded(t) => Layers {
                combine: t.shard_metrics(),
                ..Layers::default()
            },
            Built::Durable(t) => Layers {
                combine: (0..t.num_shards())
                    .map(|i| t.shard(i).inner().metrics())
                    .collect(),
                durable: t.shard_metrics(),
                pbist: sum_pbist(probes.lock().expect("probe list").iter().map(Ist::metrics)),
            },
        }
    }

    fn close(self) -> std::io::Result<Closed> {
        Ok(match self {
            Built::Front(t) => {
                let rounds = t.take_trace();
                let set = t.into_inner();
                Closed {
                    contents: set.collect_keys(),
                    pbist: set.metrics(),
                    rounds,
                }
            }
            Built::Sharded(t) => {
                let mut closed = Closed::default();
                for shard in t.into_shards() {
                    closed.rounds.extend(shard.take_trace());
                    let set = shard.into_inner();
                    closed.contents.extend(set.collect_keys());
                    closed.pbist = sum_pbist([closed.pbist, set.metrics()]);
                }
                closed
            }
            Built::Durable(t) => {
                let closed = Closed {
                    contents: tier_contents(&t),
                    rounds: (0..t.num_shards())
                        .flat_map(|i| t.shard(i).inner().take_trace())
                        .collect(),
                    ..Closed::default()
                };
                t.close()?;
                closed
            }
        })
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it rests on.
    pub samples: u64,
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked result agreed with its oracle.
    pub correct: bool,
    /// Key operations attempted.
    pub attempted: u64,
    /// Key operations whose call returned `Err` or panicked.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Mismatches found, described.
    pub problems: Vec<String>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn judge(&mut self, what: &str, verdict: Verdict) {
        if verdict.mismatches > 0 {
            self.problems.push(format!(
                "{what}: {} mismatches; first: {}",
                verdict.mismatches,
                verdict.first.unwrap_or_default()
            ));
        }
    }
}

/// A workload's seeded inputs.
struct Inputs {
    which: Which,
    /// The prefill.
    prefill: Batch<u64>,
    /// One generator per client, as of before the run.
    gens: Vec<Box<dyn GenClone>>,
}

/// A generator that can be cloned for the checker and the ladder.
trait GenClone: OpGen {
    fn boxed(&self) -> Box<dyn GenClone>;
    fn into_gen(self: Box<Self>) -> Box<dyn OpGen>;
}

impl<G: OpGen + Clone + 'static> GenClone for G {
    fn boxed(&self) -> Box<dyn GenClone> {
        Box::new(self.clone())
    }

    fn into_gen(self: Box<Self>) -> Box<dyn OpGen> {
        self
    }
}

impl Inputs {
    fn new(which: Which, seed: u64) -> Inputs {
        let clients = which.clients() as u64;
        let n = which.prefill();
        let salt = which as u64 + 1;
        let prefill = match which {
            Which::DurableIngest => (0..n as u64).collect(),
            _ => {
                workloads::uniform_keys_distinct(gen::client_seed(seed, salt, 99), n, 0..KEY_SPACE)
            }
        };
        let share = |id: u64| -> Vec<u64> {
            let mut live: Vec<u64> = prefill
                .iter()
                .copied()
                .filter(|k| k % clients == id)
                .collect();
            live.sort_unstable();
            live
        };
        let gens = (0..clients)
            .map(|id| {
                let s = gen::client_seed(seed, salt, id);
                match which {
                    Which::PointMix => {
                        Box::new(gen::PointMix::new(s, id, clients, share(id))) as Box<dyn GenClone>
                    }
                    Which::BatchSetops => Box::new(gen::SetOps::new(s, Which::BATCH, share(id))),
                    Which::DurableIngest => Box::new(gen::Ingest::new(s, id, clients, n as u64)),
                }
            })
            .collect();
        Inputs {
            which,
            prefill: Batch::from_unsorted(prefill),
            gens,
        }
    }

    /// Client `id`'s oracle before the run: its share of the prefill.
    fn oracle(&self, id: usize) -> BTreeSet<u64> {
        let clients = self.which.clients() as u64;
        self.prefill
            .iter()
            .copied()
            .filter(|k| k % clients == id as u64)
            .collect()
    }

    /// The first `calls` operations of client 0's stream.
    pub fn trace(&self, calls: u64) -> Vec<gen::Op> {
        let mut g = self.gens[0].boxed();
        (0..calls).map(|_| g.next_op()).collect()
    }
}

/// Resident and peak-resident set size of this process, in bytes.
fn memory() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// What one timed phase measured.
struct Phase {
    /// The layer the clients called.
    layer: &'static str,
    /// Length of the timed phase, s.
    seconds: f64,
    logs: Vec<ClientLog>,
    /// `durable_ingest`'s post-run calls by client 0.
    tail: Option<ClientLog>,
    setup: Vec<f64>,
    recovery: Vec<f64>,
    replayed: u64,
    mem_growth: u64,
    before: Layers,
    after: Layers,
    closed: Closed,
    verdict: Verdict,
}

impl Phase {
    /// Key operations of the timed phase.
    fn keys(&self) -> u64 {
        self.logs.iter().map(|l| l.keys).sum()
    }

    /// Completed key operations per second: the median over the timed
    /// phase's windows, so a burst of interference from outside the
    /// program moves one window, not the result.
    fn throughput(&self) -> f64 {
        let n = self.logs[0].windows.len();
        let per_window: Vec<f64> = (0..n)
            .map(|w| self.logs.iter().map(|l| l.windows[w]).sum::<u64>() as f64)
            .collect();
        median(&per_window) * n as f64 / self.seconds
    }

    /// Every log the checker judged.
    fn all_logs(&self) -> impl Iterator<Item = &ClientLog> {
        self.logs.iter().chain(self.tail.as_ref())
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// A fresh directory for this process and `label`.
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = std::env::current_dir()?
            .join(".perfbench_tmp")
            .join(format!("{label}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Removes `dir` and everything in it, if it exists.
fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn build(
    which: Which,
    keys: &Batch<u64>,
    traced: bool,
    dir: &Path,
    probes: &Mutex<Vec<Ist>>,
) -> std::io::Result<Built> {
    Ok(match which {
        Which::PointMix => Built::Sharded(sharded(which.router(), keys, traced)),
        Which::BatchSetops => Built::Front(Box::new(front(keys, traced))),
        Which::DurableIngest => Built::Durable(durable_tier(
            dir,
            which.router(),
            keys,
            traced,
            Some(probes),
        )?),
    })
}

/// What [`recover`] measured.
#[derive(Default)]
struct Recovered {
    /// Seconds per recovery.
    times: Vec<f64>,
    /// Log records the last recovery replayed.
    replayed: u64,
    /// Recoveries that did not restore the acknowledged contents.
    wrong: u64,
}

/// Reopens the durable tier at `dir` [`RECOVERY_REPS`] times; each must
/// recover exactly `contents`.
fn recover(dir: &Path, router: RangeRouter<u64>, contents: &[u64]) -> std::io::Result<Recovered> {
    let mut r = Recovered::default();
    for _ in 0..RECOVERY_REPS {
        let start = Instant::now();
        let tier = open_tier(dir, router.clone(), false, None)?;
        r.times.push(start.elapsed().as_secs_f64());
        r.replayed = tier
            .shard_metrics()
            .iter()
            .filter_map(|m| m.histogram("durable.recovery_replayed"))
            .map(|h| (h.mean() * h.count() as f64).round() as u64)
            .sum();
        if tier_contents(&tier) != contents {
            r.wrong += 1;
        }
        tier.close()?;
    }
    Ok(r)
}

/// Sets the workload up, runs it for `seconds`, checks every result and,
/// for `durable_ingest`, measures recovery.
fn phase(inputs: &Inputs, seconds: f64, traced: bool, scratch: &Path) -> std::io::Result<Phase> {
    let which = inputs.which;
    let mut gens: Vec<Box<dyn OpGen>> = inputs.gens.iter().map(|g| g.boxed().into_gen()).collect();
    let mut logs: Vec<ClientLog> = (0..gens.len())
        .map(|i| ClientLog::new(i as u8, traced))
        .collect();
    gens.iter_mut().for_each(|g| g.reserve());
    let probes = Mutex::new(Vec::new());
    let (rss0, _) = memory();

    let mut setup = Vec::new();
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let dir = scratch.join(format!("setup-{rep}"));
        drop(built.take());
        probes.lock().expect("probe list").clear();
        if rep > 0 {
            remove_dir(&scratch.join(format!("setup-{}", rep - 1)))?;
        }
        let start = Instant::now();
        built = Some(build(which, &inputs.prefill, traced, &dir, &probes)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one set-up");
    let dir = scratch.join(format!("setup-{}", SETUP_REPS - 1));

    let layer = built.target().layer();
    let before = built.layers(&probes);
    let windows = (seconds as usize).max(1);
    drive::run_clients(
        built.target(),
        &mut gens,
        &mut logs,
        WARMUP_S,
        seconds,
        windows,
    );
    let (_, hwm) = memory();
    let after = built.layers(&probes);

    let mut tail = None;
    if let Built::Durable(tier) = &built {
        tier.snapshot_all()?;
        let mut log = ClientLog::new(0, false);
        drive::run_client(
            tier,
            gens[0].as_mut(),
            &mut log,
            Stop::Calls(DURABLE_TAIL),
            Instant::now(),
        );
        tail = Some(log);
    }
    let closed = built.close()?;

    // Recovery runs before the oracles are built, so it meets the heap the
    // run left and not the checker's.
    let recovered = match which {
        Which::DurableIngest => recover(&dir, which.router(), &closed.contents)?,
        _ => Recovered::default(),
    };

    let mut verdict = Verdict::default();
    let mut oracles = Vec::new();
    let mut uncertain = BTreeSet::new();
    for (id, log) in logs.iter().enumerate() {
        let mut oracle = inputs.oracle(id);
        let mut client_logs = vec![log];
        if id == 0 {
            client_logs.extend(tail.as_ref());
        }
        let gen = inputs.gens[id].boxed().into_gen();
        verdict.absorb(drive::check_client(
            gen,
            &client_logs,
            &mut oracle,
            &mut uncertain,
        ));
        oracles.push(oracle);
    }
    verdict.absorb(drive::check_contents(
        &closed.contents,
        &oracles,
        &uncertain,
    ));

    if recovered.wrong > 0 {
        verdict.absorb(Verdict {
            mismatches: recovered.wrong,
            first: Some(format!(
                "{} recoveries did not restore the acknowledged contents",
                recovered.wrong
            )),
        });
    }

    Ok(Phase {
        layer,
        seconds,
        logs,
        tail,
        setup,
        recovery: recovered.times,
        replayed: recovered.replayed,
        mem_growth: hwm.saturating_sub(rss0),
        before,
        after,
        closed,
        verdict,
    })
}

/// Latency of one class of calls, in µs: the median over every sample,
/// and p99 by [`stats::stretch_quantile`] over each client's samples.
fn latency(
    report: &mut Report,
    logs: &[ClientLog],
    class: &str,
    pick: fn(&ClientLog) -> &stats::Sampler<u32>,
) {
    let series: Vec<Vec<f64>> = logs
        .iter()
        .map(|l| {
            pick(l)
                .values()
                .iter()
                .map(|&ns| f64::from(ns) / 1000.0)
                .collect()
        })
        .collect();
    let mut all: Vec<f64> = series.concat();
    all.sort_by(f64::total_cmp);
    let n = all.len() as u64;
    let refs: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
    let p50 = quantile(&all, 0.5).map(|x| (x, n));
    let p99 = stats::stretch_quantile(&refs, 0.99).map(|(x, _)| (x, n));
    for (label, value) in [("p50", p50), ("p99", p99)] {
        match value {
            Some((x, n)) => report.add(&format!("{class}_{label}_us"), x, "us", n),
            None => report.problems.push(format!(
                "{class}_{label}_us: {n} samples are too few for the percentile rule"
            )),
        }
    }
}

fn end_to_end(report: &mut Report, p: &Phase) {
    let timed: u64 = p.logs.iter().flat_map(|l| &l.windows).sum();
    report.add("throughput_ops_s", p.throughput(), "ops/s", timed);
    latency(report, &p.logs, "read", |l| &l.read_ns);
    latency(report, &p.logs, "write", |l| &l.write_ns);
    report.add("setup_s", median(&p.setup), "s", p.setup.len() as u64);
    report.add(
        "mem_peak_mb",
        p.mem_growth as f64 / f64::from(1 << 20),
        "MB",
        1,
    );
}

/// Sum over shards of a counter's growth.
fn counter(before: &[Snapshot], after: &[Snapshot], name: &str) -> u64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| {
            a.counter(name)
                .unwrap_or(0)
                .saturating_sub(b.counter(name).unwrap_or(0))
        })
        .sum()
}

/// Merge over shards of a histogram's growth.
fn histogram(before: &[Snapshot], after: &[Snapshot], name: &str) -> HistSnapshot {
    let empty = HistSnapshot::default();
    before
        .iter()
        .zip(after)
        .fold(HistSnapshot::default(), |sum, (b, a)| {
            let (b, a) = (
                b.histogram(name).unwrap_or(&empty),
                a.histogram(name).unwrap_or(&empty),
            );
            sum.merge(&a.delta(b))
        })
}

fn per_layer(report: &mut Report, reference: &Phase, p: &Phase, ladder: &ladder::Ladder) {
    for rung in &ladder.rungs {
        let (prefix, n) = (rung.prefix, rung.keys);
        report.add(&format!("{prefix}read_ns"), rung.cost.read_ns, "ns", n);
        report.add(&format!("{prefix}write_ns"), rung.cost.write_ns, "ns", n);
        report.add(&format!("{prefix}marginal_ns"), rung.marginal_ns, "ns", n);
    }
    report.add("forkjoin.speedup", ladder.speedup, "x", ladder.calls);

    let keys = p.keys();
    let writes: u64 = p.logs.iter().map(|l| l.write_keys).sum();
    let ist = sum_pbist([p.after.pbist.delta(&p.before.pbist), p.closed.pbist]);
    report.add(
        "pbist.nodes_touched_per_key",
        ratio(ist.nodes_touched as f64, keys as f64),
        "count",
        keys,
    );
    report.add(
        "pbist.leaves_edited_per_write",
        ratio(ist.leaves_edited as f64, writes as f64),
        "count",
        writes,
    );
    report.add(
        "pbist.rebuild_keys_per_write",
        ratio(ist.rebuild_keys as f64, writes as f64),
        "count",
        writes,
    );

    // The `forkjoin` rung's pool, read around each call of each kind.
    for (delta, kind) in ladder.pool.iter().zip(Kind::ALL) {
        let (n, kind) = (delta.calls, kind.name());
        report.add(
            &format!("forkjoin.jobs_per_batch.{kind}"),
            ratio(delta.jobs as f64, n as f64),
            "count",
            n,
        );
        report.add(
            &format!("forkjoin.steals_per_batch.{kind}"),
            ratio(delta.steals as f64, n as f64),
            "count",
            n,
        );
        report.add(
            &format!("forkjoin.join_latency_p50_ns.{kind}"),
            delta.join.quantile_upper_bound(0.5) as f64,
            "ns",
            delta.join.count(),
        );
    }

    let (nk, nns) = p.logs.iter().fold((0, 0), |(k, ns), l| {
        (k + l.normalize_keys, ns + l.normalize_ns)
    });
    report.add(
        "batchapi.normalize_ns",
        ratio(nns as f64, nk as f64),
        "ns/key",
        nk,
    );

    let (cb, ca) = (&p.before.combine, &p.after.combine);
    let c = |name| counter(cb, ca, name) as f64;
    let rounds = c("combine.rounds");
    let (fast, slow) = (c("combine.fast_path_rounds"), c("combine.slow_path_ops"));
    let (snap, batched) = (c("combine.snapshot_reads"), c("combine.batch_rounds"));
    let rounds_n = rounds as u64;
    report.add(
        "combine.round_size_mean",
        ratio(c("combine.ops"), rounds),
        "ops",
        rounds_n,
    );
    report.add(
        "combine.fast_path_frac",
        ratio(fast, fast + slow),
        "frac",
        (fast + slow) as u64,
    );
    let entries = snap + fast + slow + batched;
    report.add(
        "combine.snapshot_read_frac",
        ratio(snap, entries),
        "frac",
        entries as u64,
    );
    report.add(
        "combine.publish_clone_keys_per_round",
        ratio(c("combine.publish_clone_keys"), rounds),
        "count",
        rounds_n,
    );
    let mut round_us: Vec<f64> = p
        .closed
        .rounds
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0)
        .collect();
    round_us.sort_by(f64::total_cmp);
    let round_p50 = quantile(&round_us, 0.5).unwrap_or(0.0);
    report.add(
        "combine.round_us_p50",
        round_p50,
        "us",
        round_us.len() as u64,
    );

    let load: Vec<f64> = cb
        .iter()
        .zip(ca)
        .map(|(b, a)| {
            let (b, a) = (std::slice::from_ref(b), std::slice::from_ref(a));
            (counter(b, a, "combine.ops") + counter(b, a, "combine.snapshot_reads")) as f64
        })
        .collect();
    let mean = load.iter().sum::<f64>() / load.len().max(1) as f64;
    let skew = ratio(load.iter().copied().fold(0.0, f64::max), mean);
    report.add("service.shard_skew", skew, "x", load.len() as u64);

    let (db, da) = (&p.before.durable, &p.after.durable);
    report.add(
        "durable.fsyncs_per_op",
        ratio(counter(db, da, "durable.fsyncs") as f64, keys as f64),
        "count",
        keys,
    );
    report.add(
        "durable.bytes_per_op",
        ratio(counter(db, da, "durable.bytes_written") as f64, keys as f64),
        "B",
        keys,
    );
    let groups = histogram(db, da, "durable.group_size");
    report.add(
        "durable.group_size_mean",
        groups.mean(),
        "records",
        groups.count(),
    );
    let recovery_s = if p.recovery.is_empty() {
        0.0
    } else {
        median(&p.recovery)
    };
    report.add(
        "durable.recovery_s",
        recovery_s,
        "s",
        p.recovery.len() as u64,
    );
    report.add(
        "durable.replay_records_per_s",
        ratio(p.replayed as f64, recovery_s),
        "records/s",
        p.replayed,
    );

    report.add(
        "obs.disabled_overhead_ns",
        obs::measure_disabled_overhead(2_000_000, 5),
        "ns",
        5,
    );
    let frac = 1.0 - ratio(p.throughput(), reference.throughput());
    report.add("obs.trace_overhead_frac", frac, "frac", 2);
}

/// Runs one workload: an untraced run measures the end-to-end metrics; a
/// traced run splits its time between an untraced reference phase and a
/// traced phase, then replays client 0's stream up the cost ladder.
pub fn run(which: Which, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Report> {
    let inputs = Inputs::new(which, seed);
    let scratch = Scratch::new(which.name())?;
    let mut report = Report::default();
    let mut phases = Vec::new();
    if traced {
        let reference = phase(&inputs, seconds / 2.0, false, &scratch.0.join("reference"))?;
        let p = phase(&inputs, seconds / 2.0, true, &scratch.0.join("traced"))?;
        let ladder = ladder::run(
            which,
            &inputs.prefill,
            &inputs.trace(which.ladder_calls()),
            &scratch.0.join("ladder"),
        )?;
        per_layer(&mut report, &reference, &p, &ladder);
        report.judge("ladder", ladder.verdict);
        print_spans(&p);
        phases.push(reference);
        phases.push(p);
    } else {
        let p = phase(&inputs, seconds, false, &scratch.0.join("run"))?;
        end_to_end(&mut report, &p);
        phases.push(p);
    }
    for p in phases {
        report.attempted += p.all_logs().map(|l| l.keys).sum::<u64>();
        report.failed += p.all_logs().map(|l| l.failed_keys).sum::<u64>();
        report.judge(which.name(), p.verdict);
    }
    report.correct = report.problems.is_empty();
    Ok(report)
}

/// Summarises the traced phase's spans per span name.  The spans stay in
/// memory (a systematic sample per client) and are written out here, as
/// one line per name, when the run ends.
fn print_spans(p: &Phase) {
    let spans: Vec<&drive::SpanRec> = p
        .logs
        .iter()
        .filter_map(|l| l.spans.as_ref())
        .flat_map(|s| s.values())
        .collect();
    let calls: u64 = p
        .logs
        .iter()
        .filter_map(|l| l.spans.as_ref())
        .map(|s| s.seen())
        .sum();
    for (k, kind) in Kind::ALL.iter().enumerate() {
        let mine: Vec<_> = spans.iter().filter(|s| usize::from(s.kind) == k).collect();
        let mut us: Vec<f64> = mine
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1000.0)
            .collect();
        us.sort_by(f64::total_cmp);
        let clients: BTreeSet<u8> = mine.iter().map(|s| s.client).collect();
        if let Some(p50) = quantile(&us, 0.5) {
            println!(
                "span {}.{} p50_us={p50:.3} kept={} clients={} (of {calls} calls traced)",
                p.layer,
                kind.name(),
                us.len(),
                clients.len(),
            );
        }
    }
}
