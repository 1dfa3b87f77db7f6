//! The closed-loop clients, their per-call records, and the oracle
//! checker that judges them after the timed phase.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use batchapi::Batch;

use crate::gen::{Kind, Op, OpGen};
use crate::stats::Sampler;
use crate::target::Target;

/// Latency samples kept per client and per read/write class.
pub const LATENCY_SAMPLES: usize = 1 << 18;
/// Spans kept per client in a traced phase.
pub const SPAN_SAMPLES: usize = 1 << 16;

/// A growable bit vector.
#[derive(Debug, Clone, Default)]
pub struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} of {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Flips bit `i` (planting a wrong result in tests).
    #[cfg(test)]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} of {}", self.len);
        self.words[i / 64] ^= 1 << (i % 64);
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }
}

/// One call into the top layer as a span: the call's kind (its name is
/// `<layer>.<kind>`), the issuing client, and when it ran (ns since the
/// timed phase began).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanRec {
    /// Index of the operation kind in [`Kind::ALL`].
    pub kind: u8,
    /// Issuing client.
    pub client: u8,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Everything one client recorded: per-call success, per-key results,
/// latency samples and, in a traced phase, spans.
#[derive(Debug, Clone)]
pub struct ClientLog {
    /// Client index.
    pub client: u8,
    /// One bit per call: returned normally (no `Err`, no panic).
    pub ok: Bits,
    /// One bit per key of every successful call: the reported result.
    pub results: Bits,
    /// Key operations attempted.
    pub keys: u64,
    /// Key operations completed per window of the timed phase, by the
    /// call's return time (calls started before the phase are warm-up).
    pub windows: Vec<u64>,
    /// Window length, ns (0: no windows).
    pub window_ns: u128,
    /// Key operations in write calls.
    pub write_keys: u64,
    /// Key operations in calls that failed.
    pub failed_keys: u64,
    /// Successful batch calls whose result vector had the wrong length.
    pub malformed: u64,
    /// Read-call latencies, ns.
    pub read_ns: Sampler<u32>,
    /// Write-call latencies, ns.
    pub write_ns: Sampler<u32>,
    /// `Batch::from_unsorted` time, ns, and the keys it normalised.
    pub normalize_ns: u64,
    /// Keys handed to `Batch::from_unsorted`.
    pub normalize_keys: u64,
    /// Spans, kept in a traced phase.
    pub spans: Option<Sampler<SpanRec>>,
}

impl ClientLog {
    /// An empty log; its sample buffers are allocated (and resident) now.
    pub fn new(client: u8, traced: bool) -> ClientLog {
        ClientLog {
            client,
            ok: Bits::default(),
            results: Bits::default(),
            keys: 0,
            windows: Vec::new(),
            window_ns: 0,
            write_keys: 0,
            failed_keys: 0,
            malformed: 0,
            read_ns: Sampler::new(LATENCY_SAMPLES, 0),
            write_ns: Sampler::new(LATENCY_SAMPLES, 0),
            normalize_ns: 0,
            normalize_keys: 0,
            spans: traced.then(|| Sampler::new(SPAN_SAMPLES, SpanRec::default())),
        }
    }

    /// Calls issued.
    pub fn calls(&self) -> usize {
        self.ok.len()
    }
}

/// When a client stops issuing calls.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the call that returns at or past this instant.
    At(Instant),
    /// After this many calls.
    Calls(u64),
}

/// Issues `gen`'s operations to `target` back to back (a closed loop)
/// until `stop`, recording every call into `log`.  Calls that start before
/// `epoch` are warm-up: checked, but neither timed nor counted as
/// throughput.
pub fn run_client<T: Target + ?Sized>(
    target: &T,
    gen: &mut dyn OpGen,
    log: &mut ClientLog,
    stop: Stop,
    epoch: Instant,
) {
    let mut out = Vec::new();
    let mut calls = 0u64;
    loop {
        let op = gen.next_op();
        let start = Instant::now();
        let (kind, batch, outcome) = match op {
            Op::Point(kind, key) => {
                let r = catch_unwind(AssertUnwindSafe(|| target.point(kind, key)));
                out.clear();
                if let Ok(Ok(flag)) = r {
                    out.push(flag);
                }
                (kind, None, r.map(|r| r.map(|_| ())))
            }
            Op::Batch(kind, keys) => {
                log.normalize_keys += keys.len() as u64;
                let batch = Batch::from_unsorted(keys);
                log.normalize_ns += start.elapsed().as_nanos() as u64;
                let r = catch_unwind(AssertUnwindSafe(|| target.batch(kind, &batch, &mut out)));
                (kind, Some(batch), r)
            }
        };
        let end = Instant::now();
        let timed = start >= epoch;
        let ns = u32::try_from((end - start).as_nanos()).unwrap_or(u32::MAX);
        if timed {
            if kind.is_write() {
                log.write_ns.push(ns);
            } else {
                log.read_ns.push(ns);
            }
        }
        if let (true, Some(spans)) = (timed, &mut log.spans) {
            spans.push(SpanRec {
                kind: kind as u8,
                client: log.client,
                start_ns: (start - epoch).as_nanos() as u64,
                end_ns: (end - epoch).as_nanos() as u64,
            });
        }
        let keys = batch.as_ref().map_or(1, Batch::len);
        log.keys += keys as u64;
        if kind.is_write() {
            log.write_keys += keys as u64;
        }
        let ok = matches!(outcome, Ok(Ok(())));
        log.ok.push(ok);
        if ok {
            let window = (end - epoch).as_nanos().checked_div(log.window_ns);
            if let (true, Some(count)) =
                (timed, window.and_then(|w| log.windows.get_mut(w as usize)))
            {
                *count += keys as u64;
            }
            if out.len() != keys {
                log.malformed += 1;
                out.resize(keys, false);
            }
            for &flag in &out {
                log.results.push(flag);
            }
        } else {
            log.failed_keys += keys as u64;
        }
        calls += 1;
        let done = match stop {
            Stop::At(until) => end >= until,
            Stop::Calls(n) => calls >= n,
        };
        if done {
            return;
        }
    }
}

/// Runs one client thread per generator against `target`, all released
/// together: `warmup` seconds of warm-up, then `seconds` timed, counted
/// in `windows` equal windows.
pub fn run_clients<T: Target + Sync + ?Sized>(
    target: &T,
    gens: &mut [Box<dyn OpGen>],
    logs: &mut [ClientLog],
    warmup: f64,
    seconds: f64,
    windows: usize,
) {
    let barrier = Barrier::new(gens.len());
    for log in logs.iter_mut() {
        log.windows = vec![0; windows];
        log.window_ns = Duration::from_secs_f64(seconds / windows as f64).as_nanos();
    }
    let epoch = Instant::now() + Duration::from_secs_f64(warmup);
    let until = epoch + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for (gen, log) in gens.iter_mut().zip(logs.iter_mut()) {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                run_client(target, gen.as_mut(), log, Stop::At(until), epoch);
            });
        }
    });
}

/// The checker's findings.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Results or contents that disagreed with the oracle.
    pub mismatches: u64,
    /// The first disagreement, described.
    pub first: Option<String>,
}

impl Verdict {
    fn miss(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.first.is_none() {
            self.first = Some(what());
        }
    }

    /// Folds another verdict into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.mismatches += other.mismatches;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

fn apply(oracle: &mut BTreeSet<u64>, kind: Kind, key: u64) -> bool {
    match kind {
        Kind::Contains => oracle.contains(&key),
        Kind::Insert => oracle.insert(key),
        Kind::Remove => oracle.remove(&key),
    }
}

/// Replays `gen` — a clone of the client's generator taken before it ran —
/// through the client's logs in order, against `oracle` (the client's
/// keys), and compares every reported result.  A failed call's effect is
/// unknown, so its keys join `uncertain` and are judged no further.
pub fn check_client(
    mut gen: Box<dyn OpGen>,
    logs: &[&ClientLog],
    oracle: &mut BTreeSet<u64>,
    uncertain: &mut BTreeSet<u64>,
) -> Verdict {
    let mut verdict = Verdict::default();
    for log in logs {
        let mut pos = 0;
        if log.malformed > 0 {
            let n = log.malformed;
            verdict.miss(|| {
                format!(
                    "client {}: {n} result vectors of the wrong length",
                    log.client
                )
            });
            verdict.mismatches += n - 1;
        }
        for call in 0..log.calls() {
            let (kind, keys) = match gen.next_op() {
                Op::Point(kind, key) => (kind, vec![key]),
                Op::Batch(kind, keys) => (kind, Batch::from_unsorted(keys).into_vec()),
            };
            if !log.ok.get(call) {
                for key in keys {
                    apply(oracle, kind, key);
                    uncertain.insert(key);
                }
                continue;
            }
            for key in keys {
                let want = apply(oracle, kind, key);
                let got = log.results.get(pos);
                pos += 1;
                if want != got && !uncertain.contains(&key) {
                    verdict.miss(|| {
                        format!(
                            "client {} call {call}: {}({key}) returned {got}, oracle says {want}",
                            log.client,
                            kind.name()
                        )
                    });
                }
            }
        }
    }
    verdict
}

/// Compares a tier's final contents (ascending) with the union of the
/// clients' oracles; client `i` owns the keys `≡ i (mod oracles.len())`.
pub fn check_contents(
    actual: &[u64],
    oracles: &[BTreeSet<u64>],
    uncertain: &BTreeSet<u64>,
) -> Verdict {
    let mut verdict = Verdict::default();
    let clients = oracles.len() as u64;
    if !actual.windows(2).all(|w| w[0] < w[1]) {
        verdict.miss(|| "contents are not strictly ascending".into());
    }
    let mut found = 0usize;
    for key in actual.iter().filter(|k| !uncertain.contains(k)) {
        if oracles[(key % clients) as usize].contains(key) {
            found += 1;
        } else {
            verdict.miss(|| format!("contents hold {key}, which the oracle lacks"));
        }
    }
    let want: usize = oracles
        .iter()
        .map(|o| o.iter().filter(|k| !uncertain.contains(k)).count())
        .sum();
    if found != want {
        verdict.miss(|| format!("contents hold {found} of the oracle's {want} keys"));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{PointMix, SetOps};
    use std::sync::Mutex;

    /// A `BTreeSet` behind a mutex that can be told to lie once or fail
    /// once — a planted wrong result or a planted `Err`.
    struct Faulty {
        set: Mutex<BTreeSet<u64>>,
        calls: Mutex<u64>,
        lie_at: Option<u64>,
        err_at: Option<u64>,
    }

    impl Faulty {
        fn new(keys: &[u64], lie_at: Option<u64>, err_at: Option<u64>) -> Faulty {
            Faulty {
                set: Mutex::new(keys.iter().copied().collect()),
                calls: Mutex::new(0),
                lie_at,
                err_at,
            }
        }

        fn tick(&self) -> u64 {
            let mut calls = self.calls.lock().unwrap();
            *calls += 1;
            *calls - 1
        }
    }

    impl Target for Faulty {
        fn layer(&self) -> &'static str {
            "faulty"
        }

        fn point(&self, kind: Kind, key: u64) -> Result<bool, String> {
            let call = self.tick();
            if Some(call) == self.err_at {
                return Err("planted error".into());
            }
            let flag = apply(&mut self.set.lock().unwrap(), kind, key);
            Ok(flag ^ (Some(call) == self.lie_at))
        }

        fn batch(&self, kind: Kind, batch: &Batch<u64>, out: &mut Vec<bool>) -> Result<(), String> {
            let call = self.tick();
            if Some(call) == self.err_at {
                panic!("planted panic");
            }
            let mut set = self.set.lock().unwrap();
            out.clear();
            out.extend(batch.iter().map(|&k| apply(&mut set, kind, k)));
            if Some(call) == self.lie_at {
                out[0] = !out[0];
            }
            Ok(())
        }
    }

    fn drive(target: &Faulty, gen: &dyn Fn() -> Box<dyn OpGen>, calls: u64) -> ClientLog {
        let mut log = ClientLog::new(0, true);
        run_client(
            target,
            gen().as_mut(),
            &mut log,
            Stop::Calls(calls),
            Instant::now(),
        );
        log
    }

    fn judge(
        prefill: &[u64],
        gen: &dyn Fn() -> Box<dyn OpGen>,
        log: &ClientLog,
        contents: &[u64],
    ) -> Verdict {
        let mut oracle: BTreeSet<u64> = prefill.iter().copied().collect();
        let mut uncertain = BTreeSet::new();
        let mut v = check_client(gen(), &[log], &mut oracle, &mut uncertain);
        v.absorb(check_contents(contents, &[oracle], &uncertain));
        v
    }

    fn contents(target: &Faulty) -> Vec<u64> {
        target.set.lock().unwrap().iter().copied().collect()
    }

    #[test]
    fn honest_point_target_passes() {
        let prefill: Vec<u64> = (0..100).collect();
        let gen = || Box::new(PointMix::new(1, 0, 1, (0..100).collect())) as Box<dyn OpGen>;
        let target = Faulty::new(&prefill, None, None);
        let log = drive(&target, &gen, 2000);
        assert_eq!(log.keys, 2000);
        assert_eq!(log.failed_keys, 0);
        let v = judge(&prefill, &gen, &log, &contents(&target));
        assert_eq!(v.mismatches, 0, "{:?}", v.first);
        assert_eq!(log.spans.as_ref().unwrap().seen(), 2000);
    }

    #[test]
    fn planted_wrong_point_result_fails_the_check() {
        let prefill: Vec<u64> = (0..100).collect();
        let gen = || Box::new(PointMix::new(2, 0, 1, (0..100).collect())) as Box<dyn OpGen>;
        let target = Faulty::new(&prefill, Some(777), None);
        let log = drive(&target, &gen, 2000);
        let v = judge(&prefill, &gen, &log, &contents(&target));
        assert_eq!(v.mismatches, 1);
        assert!(v.first.unwrap().contains("call 777"));
    }

    #[test]
    fn flipped_recorded_result_fails_the_check() {
        let prefill: Vec<u64> = (0..100).collect();
        let gen = || Box::new(PointMix::new(3, 0, 1, (0..100).collect())) as Box<dyn OpGen>;
        let target = Faulty::new(&prefill, None, None);
        let mut log = drive(&target, &gen, 500);
        log.results.flip(123);
        let v = judge(&prefill, &gen, &log, &contents(&target));
        assert_eq!(v.mismatches, 1);
    }

    #[test]
    fn planted_err_counts_as_failed_and_is_not_a_mismatch() {
        let prefill: Vec<u64> = (0..100).collect();
        let gen = || Box::new(PointMix::new(4, 0, 1, (0..100).collect())) as Box<dyn OpGen>;
        let target = Faulty::new(&prefill, None, Some(10));
        let log = drive(&target, &gen, 2000);
        assert_eq!(log.keys, 2000);
        assert_eq!(log.failed_keys, 1);
        let v = judge(&prefill, &gen, &log, &contents(&target));
        assert_eq!(v.mismatches, 0, "{:?}", v.first);
    }

    #[test]
    fn planted_batch_panic_and_lie_are_caught() {
        let prefill: Vec<u64> = (0..1000).map(|k| k * 7).collect();
        let gen =
            || Box::new(SetOps::new(5, 32, (0..1000).map(|k| k * 7).collect())) as Box<dyn OpGen>;
        let target = Faulty::new(&prefill, Some(40), Some(20));
        let log = drive(&target, &gen, 100);
        assert_eq!(log.failed_keys, 32, "the panicking call's keys fail");
        assert!(log.keys >= 99 * 30);
        let v = judge(&prefill, &gen, &log, &contents(&target));
        assert_eq!(v.mismatches, 1, "{:?}", v.first);
    }

    #[test]
    fn contents_check_sees_extra_and_missing_keys() {
        let oracles = [BTreeSet::from([0, 2, 4]), BTreeSet::from([1, 3])];
        let none = BTreeSet::new();
        assert_eq!(
            check_contents(&[0, 1, 2, 3, 4], &oracles, &none).mismatches,
            0
        );
        assert_eq!(check_contents(&[0, 1, 2, 3], &oracles, &none).mismatches, 1);
        assert_eq!(
            check_contents(&[0, 1, 2, 3, 4, 6], &oracles, &none).mismatches,
            1
        );
        assert_eq!(
            check_contents(&[0, 1, 3, 2, 4], &oracles, &none).mismatches,
            1
        );
        assert_eq!(
            check_contents(&[0, 1, 2, 3], &oracles, &BTreeSet::from([4])).mismatches,
            0
        );
    }
}
