//! Flat-combining concurrent front-end for batched sets.
//!
//! The paper's data structures consume *batches*: sorted runs of keys
//! processed wholesale through [`batchapi::BatchedSet`].  Real traffic does
//! not arrive that way — many client threads each issue *single* inserts,
//! removes and lookups.  [`ConcurrentSet`] is the ingress layer between the
//! two worlds: clients publish one operation each into a lock-free list, one
//! thread elects itself **combiner**, drains everything published so far
//! into one batch per operation kind, executes the three batched operations
//! on the backing set (inside a [`forkjoin::Pool`] when the round is large
//! enough to parallelise), and hands each client its individual result.
//!
//! This is the classic *flat combining* construction (Hendler, Incze,
//! Shavit & Tzafrir, SPAA '10) specialised to the batched-set API, where it
//! is a particularly good fit: combining does not just cut synchronisation
//! — the drained round *is* the sorted batch the backend is optimised for.
//!
//! # Protocol
//!
//! 0. **Fast path** — a client that finds the combiner flag free takes it
//!    directly (one CAS), flushes anything already published, runs its own
//!    operation against the backend's point path, and unlocks — no slot,
//!    no completion handshake.  Under no contention the front-end costs a
//!    CAS plus a load over a bare mutex; the published protocol below is
//!    the contended path, and an operation may go either way.
//! 1. **Publish** — the client embeds an op slot (`OpSlot`) on its own stack (the
//!    same single-word-pointer technique as `forkjoin`'s stack jobs: the
//!    slot never moves until its `done` flag is set) and pushes it onto the
//!    `ingress` Treiber stack with a `Release` CAS.  Push-only publishing
//!    makes the usual Treiber ABA hazard irrelevant: nothing is ever popped
//!    one-at-a-time, the combiner claims the whole list with one `swap`.
//! 2. **Elect** — any client with a pending op may become the combiner by
//!    CASing the `combiner` flag `false → true` (`Acquire`; the paired
//!    `Release` store on unlock carries the backing set's mutations from
//!    each combiner to the next).
//! 3. **Combine** — the combiner swaps the ingress head to null
//!    (`Acquire`, pairing with every publisher's `Release` CAS so slot
//!    fields are visible), splits the drained slots by kind, and builds one
//!    sorted [`Batch`] per kind.
//! 4. **Execute** — the three batched operations run in a fixed order:
//!    `batch_contains`, then `batch_insert`, then `batch_remove`.  That
//!    order is the round's linearisation order (see below).  Rounds of at
//!    least [`Options::pool_cutoff`] operations run inside the fork-join
//!    pool; smaller rounds execute inline on the combiner thread, where the
//!    batched operations degrade to their sequential paths — cheaper than a
//!    pool round-trip for a handful of keys.
//! 5. **Distribute** — per-key flags fan back out to per-op results (keys
//!    duplicated across ops of one kind are resolved as if the ops ran
//!    sequentially: the first insert/remove of a key in the round gets the
//!    batch's flag, later duplicates observe the first one's effect).  Each
//!    slot's result is written *before* its `done` flag is set (`Release`);
//!    after that store the combiner never touches the slot again, because
//!    the client — who pairs with an `Acquire` load — is free to pop it off
//!    its stack.
//! 6. **Wake** — the combiner releases the `combiner` flag and then wakes
//!    waiters through the same fenced Dekker handshake as the scheduler's
//!    sleep path (`SeqCst` fence, then a sleeper-count check; sleepers
//!    register with a `SeqCst` RMW, fence, and re-check before waiting), so
//!    a completion or an unlock can never be slept through.
//!
//! # Batched ingress
//!
//! Traffic that *already* arrives as sorted batches — a sharded service
//! tier routing per-shard sub-batches, a replayed log — skips the slot
//! machinery entirely: [`ConcurrentSet::batch_contains`] /
//! [`ConcurrentSet::batch_insert`] / [`ConcurrentSet::batch_remove`] make
//! the caller the combiner, flush any point ops published before it won
//! the flag, and execute the whole batch as one committed round (handed to
//! the sink, counted, and poison-checked like any other).
//!
//! # Linearisability
//!
//! Each round commits atomically between two combiner-lock critical
//! sections, and every operation in it was pending (published, not yet
//! completed) for the round's whole execution, so ordering the round's ops
//! `contains → insert → remove` (ties within a kind in publish order,
//! duplicates resolved first-wins) is a valid linearisation; rounds
//! themselves are ordered by combiner succession, which respects real time
//! (an op completed in round *r* was drained before *r* executed, so any op
//! starting later publishes after the drain and lands in a later round).
//! A [`RoundSink`] sees the committed order: a [`RoundLog`] records it so
//! tests can replay it against a sequential oracle —
//! `tests/combine_stress.rs` does exactly that.
//!
//! # Round sink
//!
//! [`ConcurrentSet::with_sink`] installs a [`RoundSink`], which the
//! combiner hands every committed round exactly once, in seq order: after
//! the round's snapshot is published and before any of its clients is
//! acknowledged, with the ops by reference in linearisation order (no key
//! cloned, no per-round buffer).  A durable sink thus appends in combining
//! order by construction.  A panicking sink poisons the front-end like a
//! panicking backend.
//!
//! # Round sequence numbers and the staleness contract
//!
//! Every committed round carries a sequence number: strictly increasing,
//! gap-free, starting at [`Options::first_seq`]` + 1` (the `seq` each
//! [`RoundSink::round`] call carries).  Because the seq order *is* the
//! linearisation order, a single `u64` names any prefix of the history,
//! which is what two consumers need:
//!
//! * **Durable replay is idempotent.**  A write-ahead log behind the
//!   [`RoundSink`] records each round under its seq; a snapshot taken via
//!   [`ConcurrentSet::snapshot_keys`] records the high-water mark it
//!   reflects.  Recovery loads the snapshot and applies
//!   only records with `seq >` the mark — records at or below it (or
//!   replayed twice across restarts) change nothing.
//! * **Read-your-writes for snapshot readers.**  The wait-free read path
//!   below serves lookups from an atomically published snapshot of the
//!   tree instead of entering a combiner round.  The contract such reads
//!   need is exactly this numbering: a client that completed a write in
//!   round *s* reads from a published snapshot whose mark is `>= s` — its
//!   own write is visible — because the combiner publishes the new root
//!   *before* it acknowledges any operation of the round that produced it.
//!
//! # Wait-free snapshot reads
//!
//! When [`Options::snapshot_reads`] is on (the default), the read-only
//! operations — [`ConcurrentSet::contains`], [`ConcurrentSet::batch_contains`],
//! [`ConcurrentSet::len`], [`ConcurrentSet::rank`], [`ConcurrentSet::min`] /
//! [`ConcurrentSet::max`] and [`ConcurrentSet::snapshot_keys`] — never elect
//! a combiner and never wait for one.  They load the last published
//! [`ReadSnapshot`]: an immutable root ([`batchapi::SetView`], shared
//! structurally with the live tree via copy-on-write) paired with the seq of
//! the round it reflects.
//!
//! **Publication protocol.**  At the end of every round that mutated the
//! backend, the combiner — still holding the combiner flag — asks the
//! backend for a fresh root (`publish_root`, O(1) for both `pbist::IstSet`
//! and `baselines::SortedArraySet`) and installs it in a two-slot
//! *left-right* cell: the new snapshot is written into the inactive slot
//! (after waiting out the readers still borrowing it), then the active-slot
//! index is flipped with a `SeqCst` store.  Readers increment the chosen
//! slot's borrow count, re-check the index, and clone the `Arc` out — a
//! handful of atomic ops, no allocation, no lock, regardless of combiner
//! activity.  Rounds that mutated nothing advance only the `committed`
//! high-water mark, so a snapshot's mark can trail
//! [`ConcurrentSet::committed_seq`] while its *contents* stay exact.
//!
//! **Staleness contract.**  A snapshot read observes some round
//! `seq >= ` the client's last acknowledged write (publish happens before
//! acknowledgement, see above) but possibly older than rounds still in
//! flight — reads are *read-your-writes*, not linearisable against other
//! clients' unacknowledged writes.  [`ConcurrentSet::read_at_least`] is the
//! escape hatch: it spins (joining combining rounds when it can) until the
//! published state covers a caller-supplied seq.
//!
//! **Poisoning.**  Snapshot reads still fail fast on a poisoned front-end:
//! they panic like every other operation rather than serve reads from a
//! history whose tail is indeterminate.  They never *block* on the flag —
//! poisoned or not, a snapshot read completes or panics in bounded steps.
//!
//! # Contract
//!
//! Operations must be called from threads *outside* the backing pool: a
//! pool worker blocking as a client could leave the combiner's own
//! `install` without a worker to run on.  The service pattern — client
//! threads in front, the pool as compute backend — satisfies this
//! naturally.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let pool = forkjoin::Pool::new(2).expect("pool");
//! let backing = pbist::IstSet::from_unsorted((0..1000u64).collect());
//! let set = Arc::new(combine::ConcurrentSet::new(backing, pool));
//!
//! let handles: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let set = Arc::clone(&set);
//!         std::thread::spawn(move || {
//!             assert!(set.contains(&t));          // 0..1000 pre-loaded
//!             set.insert(10_000 + t);             // distinct new keys
//!             assert!(!set.remove(&(20_000 + t))) // never present
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(set.len(), 1004);
//! ```

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::fmt;
use std::mem;
use std::ops::Bound;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use batchapi::{Batch, BatchedSet, SetView};
use forkjoin::Pool;
use obs::{Counter, Histogram, Registry, SpanRecord, TraceRing};

/// Iterations of the pure spin phase before a waiting client starts
/// yielding.  Kept short: the combiner usually finishes small rounds fast,
/// and on few-core machines long spins just steal its CPU.
const SPIN_LIMIT: u32 = 64;

/// Yields after the spin phase before falling back to the condvar.
const YIELD_LIMIT: u32 = 16;

/// What a single client operation does to the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Add a key; the result is `true` iff it was newly inserted.
    Insert,
    /// Remove a key; the result is `true` iff it was present.
    Remove,
    /// Membership test; the result is `true` iff the key is present.
    Contains,
}

/// One operation slot, embedded on the issuing client's stack.
///
/// Published by pointer into the ingress list; the client guarantees the
/// slot stays pinned until `done` is set, and the combiner guarantees it
/// never touches the slot after setting `done`.
struct OpSlot<K> {
    /// Ingress linkage, written before the publishing CAS.
    next: AtomicPtr<OpSlot<K>>,
    kind: OpKind,
    key: K,
    /// Written by the combiner strictly before the `done` store.
    result: UnsafeCell<bool>,
    /// Completion flag: `Release` store by the combiner (its last touch of
    /// the slot), `Acquire` load by the owning client.
    done: AtomicBool,
}

/// One operation as committed by a combining round.  A [`RoundSink`] sees
/// it as `RoundOp<&K>`, borrowing the key; a [`RoundLog`] keeps it as
/// `RoundOp<K>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundOp<K> {
    /// What the operation did.
    pub kind: OpKind,
    /// The key it applied to.
    pub key: K,
    /// The result handed back to the issuing client.
    pub result: bool,
}

/// One committed combining round as a [`RoundLog`] records it: its
/// operations in linearisation order (`Contains` ops first, then
/// `Insert`, then `Remove`; publish order within each kind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round<K> {
    /// The round's sequence number (see [`RoundSink::round`]).
    pub seq: u64,
    /// The committed operations, in linearisation order.
    pub ops: Vec<RoundOp<K>>,
}

/// A consumer of the committed round stream (see the module docs' *round
/// sink* section).
pub trait RoundSink<K>: Send + Sync {
    /// Takes committed round `seq` (strictly increasing and gap-free from
    /// [`Options::first_seq`]` + 1`, so one `u64` names any prefix of the
    /// history); `ops` yields its operations in linearisation order.
    fn round(&self, seq: u64, ops: &mut dyn Iterator<Item = RoundOp<&K>>);
}

/// A [`RoundSink`] that records every round, cloning its keys: the witness
/// the replay tests check against a sequential oracle.  Unbounded — a
/// testing sink, not one to leave installed in a service.
pub struct RoundLog<K> {
    rounds: Mutex<Vec<Round<K>>>,
}

impl<K> Default for RoundLog<K> {
    fn default() -> RoundLog<K> {
        RoundLog {
            rounds: Mutex::new(Vec::new()),
        }
    }
}

impl<K> RoundLog<K> {
    /// Drains the recorded rounds, in commit order.  Replaying them against
    /// a sequential set must reproduce every `result`.
    pub fn take(&self) -> Vec<Round<K>> {
        mem::take(&mut *self.rounds.lock().expect("round log poisoned"))
    }
}

impl<K: Clone + Send> RoundSink<K> for RoundLog<K> {
    fn round(&self, seq: u64, ops: &mut dyn Iterator<Item = RoundOp<&K>>) {
        let ops = ops
            .map(|op| RoundOp {
                kind: op.kind,
                key: op.key.clone(),
                result: op.result,
            })
            .collect();
        let mut rounds = self.rounds.lock().expect("round log poisoned");
        rounds.push(Round { seq, ops });
    }
}

/// Construction-time knobs for [`ConcurrentSet`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Rounds with at least this many operations execute inside the
    /// fork-join pool; smaller rounds run inline on the combiner thread
    /// (the batched ops degrade to their sequential paths, which beats
    /// paying a pool round-trip for a handful of keys).  `0` forces every
    /// round through the pool; `usize::MAX` keeps everything inline.
    pub pool_cutoff: usize,
    /// Capacity of the round-trace ring behind
    /// [`ConcurrentSet::take_trace`] / [`ConcurrentSet::trace_json`]:
    /// one span per committed round, begin/end timestamps plus op count.
    /// `0` (the default) disables tracing.  The ring is bounded — once
    /// full each new span evicts the oldest (the eviction count is
    /// reported alongside the spans), so it is safe to leave on in
    /// long-running services, unlike a [`RoundLog`].
    pub trace_capacity: usize,
    /// Sequence number the round counter starts *after*: the first
    /// committed round gets seq `first_seq + 1`.  `0` (the default) numbers
    /// a fresh history `1, 2, 3, …`; a durability tier recovering an
    /// existing history passes the highest sequence number it replayed, so
    /// new rounds continue the old numbering and replay stays idempotent
    /// across restarts.
    pub first_seq: u64,
    /// Serve read-only operations (`contains`, `batch_contains`, `len`,
    /// `rank`, `min`/`max`, `snapshot_keys`) wait-free from the last
    /// published [`ReadSnapshot`] instead of electing a combiner (see the
    /// module docs' *wait-free snapshot reads* section).  On by default.
    /// Turning it off routes every read through a combining round of its
    /// own — each read then linearises against concurrent writes and
    /// reaches the [`RoundSink`], which the linearisability replay suites
    /// rely on.
    pub snapshot_reads: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            pool_cutoff: 512,
            trace_capacity: 0,
            first_seq: 0,
            snapshot_reads: true,
        }
    }
}

/// Counters describing the combining behaviour so far (monotone; exact
/// once the set is quiescent).
///
/// Even while combiners run, every snapshot satisfies `ops >= rounds`
/// (each committed round carries at least one op — see the write-order
/// contract on the counter advance) and `pooled_rounds <= rounds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Combining rounds committed.
    pub rounds: u64,
    /// Operations completed across all rounds.
    pub ops: u64,
    /// Rounds large enough to execute inside the pool.
    pub pooled_rounds: u64,
}

/// Handles cloned out of the registry once at construction, so the hot
/// path hits the atomics directly and never touches the registry mutex.
struct CombineMetrics {
    /// `combine.rounds` — committed combining rounds (fast-path singletons
    /// included).
    rounds: Arc<Counter>,
    /// `combine.ops` — client operations completed across all rounds.
    ops: Arc<Counter>,
    /// `combine.pooled_rounds` — rounds that executed inside the pool.
    pooled_rounds: Arc<Counter>,
    /// `combine.fast_path_rounds` — ops that took the uncontended fast
    /// path (won the flag without publishing a slot).
    fast_path_rounds: Arc<Counter>,
    /// `combine.slow_path_ops` — ops that published a slot and went
    /// through the combining handshake.
    slow_path_ops: Arc<Counter>,
    /// `combine.poisoned` — combiner panics that poisoned the front-end.
    poisoned: Arc<Counter>,
    /// `combine.batch_rounds` — rounds that entered as a whole pre-sorted
    /// batch through the batched surface (a sharded tier's sub-batches),
    /// rather than being combined from published point ops.
    batch_rounds: Arc<Counter>,
    /// `combine.round_size` — ops per committed round.
    round_size: Arc<Histogram>,
    /// `combine.snapshot_reads` — read operations served wait-free from the
    /// published snapshot (each batched read counts once).
    snapshot_reads: Arc<Counter>,
    /// `combine.publish_clone_keys` — keys cloned by `publish_root` across
    /// all mutating rounds.  Stays zero for backends with an `O(1)`
    /// publication override (`pbist::IstSet`, `baselines::SortedArraySet`);
    /// a steadily climbing value exposes a backend silently paying the
    /// trait default's `O(n)`-per-round clone.
    publish_clone_keys: Arc<Counter>,
    /// `combine.snapshot_lag` — `committed_seq - snapshot seq` observed by
    /// snapshot-handle and batched snapshot reads: how many committed
    /// (necessarily read-only) rounds the served snapshot's mark trailed
    /// by.  Point reads skip the sample to stay cheaper than the combiner
    /// fast path.
    snapshot_lag: Arc<Histogram>,
}

impl CombineMetrics {
    fn new(registry: &Registry) -> CombineMetrics {
        CombineMetrics {
            rounds: registry.counter("combine.rounds"),
            ops: registry.counter("combine.ops"),
            pooled_rounds: registry.counter("combine.pooled_rounds"),
            fast_path_rounds: registry.counter("combine.fast_path_rounds"),
            slow_path_ops: registry.counter("combine.slow_path_ops"),
            poisoned: registry.counter("combine.poisoned"),
            batch_rounds: registry.counter("combine.batch_rounds"),
            round_size: registry.histogram("combine.round_size"),
            snapshot_reads: registry.counter("combine.snapshot_reads"),
            publish_clone_keys: registry.counter("combine.publish_clone_keys"),
            snapshot_lag: registry.histogram("combine.snapshot_lag"),
        }
    }
}

/// An immutable view of the set's contents paired with the seq of the
/// round it reflects — what the wait-free read path serves (see the module
/// docs' *wait-free snapshot reads* section).
///
/// The view shares structure with the live set (copy-on-write), so holding
/// one is cheap; its contents never change, no matter how many rounds
/// commit after it was published.
pub struct ReadSnapshot<K> {
    seq: u64,
    view: Arc<dyn SetView<K>>,
}

impl<K> fmt::Debug for ReadSnapshot<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadSnapshot")
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl<K> ReadSnapshot<K> {
    /// Sequence number of the last *mutating* round this snapshot reflects.
    /// May trail [`ConcurrentSet::committed_seq`] by read-only rounds —
    /// the contents are still exact for every seq in between.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The frozen contents.
    pub fn view(&self) -> &dyn SetView<K> {
        self.view.as_ref()
    }
}

/// [`ConcurrentSet::read_at_least`] was asked for a freshness mark that no
/// committed round carries and that no in-flight work can produce: the
/// front-end was idle with `committed < want`, so waiting longer would wait
/// on writers that need never arrive.
///
/// Seeing this error means `want` was not an *observed* mark (every
/// observed mark is already committed — rounds publish before they
/// acknowledge); the caller is asking about the future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshnessError {
    /// The freshness floor the caller asked for.
    pub want: u64,
    /// The committed high-water mark when the front-end went idle.
    pub committed: u64,
}

impl std::fmt::Display for FreshnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read_at_least({}) cannot be satisfied: the front-end is idle \
             at committed seq {} and no in-flight round can reach the mark",
            self.want, self.committed
        )
    }
}

impl std::error::Error for FreshnessError {}

/// One slot of the left-right snapshot cell: the snapshot plus the number
/// of readers currently borrowing it.
struct SnapSlot<K> {
    readers: AtomicUsize,
    snap: UnsafeCell<Arc<ReadSnapshot<K>>>,
}

/// A two-slot *left-right* cell holding the last published snapshot.
///
/// Readers ([`SnapCell::load`]) are lock-free and run concurrently with
/// each other and with the single writer; the writer ([`SnapCell::publish`],
/// always the combiner, serialised by the combiner flag) updates the
/// *inactive* slot after waiting out its borrowers, then flips the active
/// index.  `SeqCst` on the index and the borrow registration keeps the
/// classic left-right argument airtight (see the proof sketch on `load`);
/// the borrow release needs only `Release` (the writer's spin load pairs
/// with it).
struct SnapCell<K> {
    /// Index (0 or 1) of the slot readers should borrow.
    active: AtomicUsize,
    slots: [SnapSlot<K>; 2],
}

// SAFETY: the `UnsafeCell`s are governed by the left-right protocol — the
// single writer mutates a slot only while its reader count is zero and the
// slot is inactive, and readers only read while registered on a slot they
// re-verified as active — so shared references handed out never alias a
// mutation.  The payload is an `Arc<ReadSnapshot<K>>`, shared across
// threads, hence `K: Send + Sync`.
unsafe impl<K: Send + Sync> Sync for SnapCell<K> {}
unsafe impl<K: Send + Sync> Send for SnapCell<K> {}

impl<K> SnapCell<K> {
    fn new(initial: Arc<ReadSnapshot<K>>) -> SnapCell<K> {
        SnapCell {
            active: AtomicUsize::new(0),
            slots: [
                SnapSlot {
                    readers: AtomicUsize::new(0),
                    snap: UnsafeCell::new(Arc::clone(&initial)),
                },
                SnapSlot {
                    readers: AtomicUsize::new(0),
                    snap: UnsafeCell::new(initial),
                },
            ],
        }
    }

    /// Returns the last published snapshot.  Lock-free: a reader retries
    /// only when the writer flipped the active index between its first load
    /// and its re-check, which one `publish` does at most once.
    ///
    /// Why the re-check suffices (all index/registration ops are `SeqCst`,
    /// so they form one total order): a writer mutates slot `a` only after
    /// its zero-check of `readers[a]`.  If our registration precedes that
    /// check in the total order, the writer sees the count and spins until
    /// our release.  If it follows, the flip that made `a` inactive (the
    /// writer targets `1 - active`) also precedes our re-check, which
    /// therefore reads the flipped index, fails, and retries — we never
    /// dereference a slot the writer may be mutating.
    fn load(&self) -> Arc<ReadSnapshot<K>> {
        self.with_snap(Arc::clone)
    }

    /// Runs `read` against the last published snapshot *inside* the borrow
    /// window — no `Arc` clone, so a point read's whole synchronisation
    /// cost is the two borrow-count bumps.  The flip side: the window now
    /// spans the read itself, so a publishing combiner may wait out one
    /// in-flight read (still bounded — new readers land on the flipped
    /// slot).  Long reads (batch scans) should [`SnapCell::load`] and pay
    /// the clone instead.
    fn with_snap<T>(&self, read: impl FnOnce(&Arc<ReadSnapshot<K>>) -> T) -> T {
        loop {
            let idx = self.active.load(Ordering::SeqCst);
            let slot = &self.slots[idx];
            slot.readers.fetch_add(1, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) == idx {
                // SAFETY: registered on a slot re-verified active — the
                // left-right protocol (see `Sync` impl) keeps the writer
                // out until the release below.
                let result = read(unsafe { &*slot.snap.get() });
                slot.readers.fetch_sub(1, Ordering::Release);
                return result;
            }
            slot.readers.fetch_sub(1, Ordering::Release);
        }
    }

    /// Installs a new snapshot.  Caller must hold the combiner flag (single
    /// writer); waits out readers still borrowing the inactive slot, which
    /// hold it for at most one read — an `Arc` clone ([`SnapCell::load`])
    /// or a point query ([`SnapCell::with_snap`]).
    fn publish(&self, snap: Arc<ReadSnapshot<K>>) {
        let idx = 1 - self.active.load(Ordering::Relaxed);
        let slot = &self.slots[idx];
        while slot.readers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        // SAFETY: slot `idx` is inactive (readers registering now target the
        // other slot, or will fail their re-check) and drained of readers;
        // the combiner flag excludes other writers.
        unsafe { *slot.snap.get() = snap };
        // The flip publishes the write above to readers: their `SeqCst`
        // re-check of `active` pairs with this store.
        self.active.store(idx, Ordering::SeqCst);
    }
}

/// Per-kind scratch for the round being combined.  Only the combiner (the
/// thread holding the `combiner` flag) touches this; buffers are reused
/// across rounds so a steady-state round allocates nothing.
struct Lane<K> {
    /// Drained slots of this kind, in publish order.
    slots: Vec<*const OpSlot<K>>,
    /// Reusable key buffer; round-trips through [`Batch::into_vec`].
    keys: Vec<K>,
    /// Reusable per-key flag buffer for the `_report` batch variants.
    flags: Vec<bool>,
}

impl<K> Lane<K> {
    fn new() -> Lane<K> {
        Lane {
            slots: Vec::new(),
            keys: Vec::new(),
            flags: Vec::new(),
        }
    }
}

/// Combiner-only scratch state (guarded by the `combiner` flag).
struct Scratch<K> {
    contains: Lane<K>,
    insert: Lane<K>,
    remove: Lane<K>,
    /// Tracks which batch keys have already been claimed by an earlier
    /// duplicate op while distributing insert/remove results.
    claimed: Vec<bool>,
}

/// A concurrent ordered set serving per-operation traffic from any number
/// of client threads by flat-combining it into batches for a
/// [`BatchedSet`] backend.
///
/// See the [module docs](self) for the protocol and its memory-ordering
/// contract.  Shared by reference (typically `Arc`); all operations take
/// `&self`.
///
/// # Poisoning
///
/// If a backend batch operation panics while a combiner executes a round,
/// the set's state — and the results of every operation drained into that
/// round — are indeterminate.  The front-end then behaves like a poisoned
/// `Mutex`: the panic propagates on the combining thread, clients whose
/// operations were in that round panic instead of blocking forever, and
/// every subsequent operation panics immediately.
pub struct ConcurrentSet<K, S> {
    /// Head of the Treiber-stack ingress list of published op slots.
    ingress: AtomicPtr<OpSlot<K>>,
    /// The combiner flag: held (`true`) by at most one thread, which has
    /// exclusive access to `set`, `scratch` and the sink.
    combiner: AtomicBool,
    /// The backing batched set.  Touched only while holding `combiner`.
    set: UnsafeCell<S>,
    /// Reused round buffers.  Touched only while holding `combiner`.
    scratch: UnsafeCell<Scratch<K>>,
    /// The last published read snapshot (root + seq), republished by the
    /// combiner at the end of every mutating round.  Read lock-free by the
    /// snapshot read path; written only while holding `combiner`.
    snap: SnapCell<K>,
    /// Seq of the last committed round of *any* kind (read-only rounds
    /// included; starts at [`Options::first_seq`]; the next round's is this
    /// plus one), stored only by the combiner, after the round's snapshot
    /// (if any) is published.  Lets [`ConcurrentSet::read_at_least`] tell
    /// a stale snapshot *mark* from stale snapshot *contents*.
    committed: AtomicU64,
    /// See [`Options::snapshot_reads`].
    snapshot_reads: bool,
    /// Fork-join pool executing rounds of at least `pool_cutoff` ops.
    pool: Pool,
    /// See [`Options::pool_cutoff`].
    pool_cutoff: usize,
    /// Consumer of the committed rounds, installed by
    /// [`ConcurrentSet::with_sink`]; called only by the combiner.
    sink: Option<Arc<dyn RoundSink<K>>>,
    /// Guards `progress` (never the data — that is what `combiner` is for).
    sleep_mutex: Mutex<()>,
    /// Signalled after every round commit and combiner unlock.
    progress: Condvar,
    /// Clients currently blocked on `progress`.
    sleepers: AtomicUsize,
    /// Set when a combiner panicked mid-round (a backend batch op threw):
    /// the backing set's state — and the results of any op drained into
    /// that round — are indeterminate, so every subsequent operation
    /// panics instead of blocking forever.  Mutex-poisoning semantics.
    poisoned: AtomicBool,
    /// Named-metric registry behind [`ConcurrentSet::metrics`]; the hot
    /// path goes through the pre-cloned handles in `metrics` instead.
    registry: Registry,
    /// See [`CombineMetrics`].
    metrics: CombineMetrics,
    /// Round-trace ring, present when [`Options::trace_capacity`] was
    /// non-zero.  Internally locked; spans are recorded by the combiner.
    trace: Option<TraceRing>,
}

/// Releases the combiner flag (and wakes waiters) on every exit from a
/// combining critical section — **including unwinds**.  A panic while
/// combining marks the front-end poisoned before the flag is released, so
/// woken waiters observe the poison rather than re-electing themselves
/// onto a half-mutated set (or hanging on slots whose `done` will never
/// come).
struct CombinerGuard<'a, K, S> {
    set: &'a ConcurrentSet<K, S>,
}

impl<K, S> Drop for CombinerGuard<'_, K, S> {
    fn drop(&mut self) {
        let poisoning = std::thread::panicking();
        if poisoning {
            self.set.metrics.poisoned.inc();
            // SeqCst so the unlock below can never be observed before the
            // poison by a waiter's fenced re-check.
            self.set.poisoned.store(true, Ordering::SeqCst);
        }
        self.set.combiner.store(false, Ordering::Release);
        // Producer half of the Dekker handshake (see module docs): fence,
        // then look for registered sleepers.  The common no-sleeper case is
        // one fence and one load.  On poison, always notify: blocked
        // clients must wake to observe it.
        fence(Ordering::SeqCst);
        if poisoning || self.set.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.set.sleep_mutex.lock().unwrap();
            self.set.progress.notify_all();
        }
    }
}

// SAFETY: `ConcurrentSet` is a Mutex-like container.  `set` and `scratch`
// are accessed only by the thread holding the `combiner` flag
// (Acquire/Release on that flag sequences successive combiners), so they
// need `Send` but not `Sync`.  The ingress list holds pointers to `OpSlot`s
// pinned on client stacks; the publish CAS (Release) / drain swap (Acquire)
// pair transfers them to the combiner, which reads `key` by shared
// reference from another thread — hence `K: Sync` — and hands them back
// through the `done` Release/Acquire pair, after which only the owning
// client touches them.  The sink is `Send + Sync` by its trait bound.
unsafe impl<K: Send + Sync, S: Send> Sync for ConcurrentSet<K, S> {}
unsafe impl<K: Send, S: Send> Send for ConcurrentSet<K, S> {}

impl<K, S> ConcurrentSet<K, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    S: BatchedSet<K> + Send,
{
    /// Wraps `set` behind a flat-combining front-end with default
    /// [`Options`], executing large rounds on `pool`.
    pub fn new(set: S, pool: Pool) -> ConcurrentSet<K, S> {
        ConcurrentSet::with_options(set, pool, Options::default())
    }

    /// Wraps `set` with explicit [`Options`].
    pub fn with_options(set: S, pool: Pool, options: Options) -> ConcurrentSet<K, S> {
        let registry = Registry::new();
        let metrics = CombineMetrics::new(&registry);
        // Publish the initial contents so the read path has a snapshot
        // before any round commits; its mark is the pre-history seq.
        let snap = SnapCell::new(Arc::new(ReadSnapshot {
            seq: options.first_seq,
            view: set.publish_root(),
        }));
        ConcurrentSet {
            ingress: AtomicPtr::new(ptr::null_mut()),
            combiner: AtomicBool::new(false),
            set: UnsafeCell::new(set),
            snap,
            committed: AtomicU64::new(options.first_seq),
            snapshot_reads: options.snapshot_reads,
            scratch: UnsafeCell::new(Scratch {
                contains: Lane::new(),
                insert: Lane::new(),
                remove: Lane::new(),
                claimed: Vec::new(),
            }),
            pool,
            pool_cutoff: options.pool_cutoff,
            sink: None,
            sleep_mutex: Mutex::new(()),
            progress: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            registry,
            metrics,
            trace: (options.trace_capacity > 0).then(|| TraceRing::new(options.trace_capacity)),
        }
    }

    /// [`ConcurrentSet::with_options`], plus a [`RoundSink`] for every round.
    pub fn with_sink(
        set: S,
        pool: Pool,
        options: Options,
        sink: Arc<dyn RoundSink<K>>,
    ) -> ConcurrentSet<K, S> {
        ConcurrentSet {
            sink: Some(sink),
            ..ConcurrentSet::with_options(set, pool, options)
        }
    }

    /// Inserts `key`, returning `true` iff it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the front-end is [poisoned](ConcurrentSet#poisoning)
    /// (same for [`remove`](ConcurrentSet::remove),
    /// [`contains`](ConcurrentSet::contains) and
    /// [`len`](ConcurrentSet::len)).
    pub fn insert(&self, key: K) -> bool {
        match self.try_fast_op(OpKind::Insert, &key) {
            Some(result) => result,
            None => self.run_op_published(OpKind::Insert, key),
        }
    }

    /// Removes `key`, returning `true` iff it was present.
    pub fn remove(&self, key: &K) -> bool {
        match self.try_fast_op(OpKind::Remove, key) {
            Some(result) => result,
            None => self.run_op_published(OpKind::Remove, key.clone()),
        }
    }

    /// Returns `true` iff `key` is in the set.
    ///
    /// With [`Options::snapshot_reads`] on (the default) this is a
    /// wait-free snapshot read — see the module docs' staleness contract;
    /// otherwise it linearises through the combiner like a write.
    pub fn contains(&self, key: &K) -> bool {
        if self.snapshot_reads {
            return self.snap_read(|view| view.contains(key));
        }
        match self.try_fast_op(OpKind::Contains, key) {
            Some(result) => result,
            None => self.run_op_published(OpKind::Contains, key.clone()),
        }
    }

    /// Number of keys strictly smaller than `key` — a snapshot read (or a
    /// combining round of its own when [`Options::snapshot_reads`] is off).
    pub fn rank(&self, key: &K) -> usize {
        if self.snapshot_reads {
            return self.snap_read(|view| view.rank(key));
        }
        self.read_via_round(|set| set.rank(key))
    }

    /// The smallest key, or `None` for an empty set — a snapshot read (or
    /// a combining round of its own when [`Options::snapshot_reads`] is
    /// off).  Cloned out: the set's contents move on under concurrent
    /// writes, only a snapshot's view can hand out references.
    pub fn min(&self) -> Option<K> {
        if self.snapshot_reads {
            return self.snap_read(|view| view.min().cloned());
        }
        self.read_via_round(|set| set.min().cloned())
    }

    /// The largest key, or `None` for an empty set.  See
    /// [`ConcurrentSet::min`].
    pub fn max(&self) -> Option<K> {
        if self.snapshot_reads {
            return self.snap_read(|view| view.max().cloned());
        }
        self.read_via_round(|set| set.max().cloned())
    }

    /// Keys inside the `(lo, hi)` bound pair, in ascending order.
    ///
    /// With [`Options::snapshot_reads`] on (the default) the whole range is
    /// carved out of the last published [`ReadSnapshot`] — one consistent
    /// linearisation point, wait-free, under the module docs' staleness
    /// contract (the result reflects every *acknowledged* write, and may
    /// miss writes not yet acknowledged).  Counted in
    /// `combine.snapshot_reads`.  With snapshot reads off it linearises
    /// through a combining round like the other reads.
    pub fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        if self.snapshot_reads {
            self.check_poisoned();
            // A range scan can be long: hold an `Arc` (`read_snapshot`)
            // rather than the cell's borrow window (`snap_read`), so a
            // concurrent publisher never waits on our scan.
            return self.read_snapshot().view().range_keys(lo, hi);
        }
        self.read_via_round(|set| set.range_keys(lo, hi))
    }

    /// Number of keys inside the `(lo, hi)` bound pair — two rank descents
    /// against one snapshot.  Same linearisation and staleness contract as
    /// [`ConcurrentSet::range_keys`].
    pub fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        if self.snapshot_reads {
            return self.snap_read(|view| view.range_count(lo, hi));
        }
        self.read_via_round(|set| set.range_count(lo, hi))
    }

    /// The largest key strictly smaller than `key`, or `None`.  Same
    /// contract as [`ConcurrentSet::range_keys`].
    pub fn predecessor(&self, key: &K) -> Option<K> {
        if self.snapshot_reads {
            return self.snap_read(|view| view.predecessor(key));
        }
        self.read_via_round(|set| set.predecessor(key))
    }

    /// The smallest key strictly greater than `key`, or `None`.  Same
    /// contract as [`ConcurrentSet::range_keys`].
    pub fn successor(&self, key: &K) -> Option<K> {
        if self.snapshot_reads {
            return self.snap_read(|view| view.successor(key));
        }
        self.read_via_round(|set| set.successor(key))
    }

    /// The `k`-th smallest key (0-indexed), or `None` when `k >= len()`.
    /// Same contract as [`ConcurrentSet::range_keys`].
    pub fn kth(&self, k: usize) -> Option<K> {
        if self.snapshot_reads {
            return self.snap_read(|view| view.kth(k));
        }
        self.read_via_round(|set| set.kth(k))
    }

    /// Answers one membership query per key of a pre-sorted `batch`,
    /// executed as one combining round of its own.
    ///
    /// This is the batched ingress a sharded service tier routes sub-batches
    /// through: the caller becomes the combiner (flushing any point ops
    /// published before it won the flag — they were pending first, so they
    /// linearise first), runs the whole batch against the backend in one
    /// round, and commits it like any other round.  Batches of at least
    /// [`Options::pool_cutoff`] keys execute inside the pool.
    ///
    /// # Panics
    ///
    /// Panics if the front-end is [poisoned](ConcurrentSet#poisoning)
    /// (same for the other batched operations).
    pub fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.len());
        self.batch_contains_report(batch, &mut out);
        out
    }

    /// Inserts every key of `batch` as one combining round; `result[i]` is
    /// `true` iff `batch[i]` was newly inserted.  See
    /// [`ConcurrentSet::batch_contains`] for the linearisation contract.
    pub fn batch_insert(&self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.len());
        self.batch_insert_report(batch, &mut out);
        out
    }

    /// Removes every key of `batch` as one combining round; `result[i]` is
    /// `true` iff `batch[i]` was present.  See
    /// [`ConcurrentSet::batch_contains`] for the linearisation contract.
    pub fn batch_remove(&self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.len());
        self.batch_remove_report(batch, &mut out);
        out
    }

    /// Buffer-reusing variant of [`ConcurrentSet::batch_contains`]: flags
    /// land in `out` (cleared first), so a tier issuing many sub-batches
    /// can reuse one buffer per shard.
    ///
    /// With [`Options::snapshot_reads`] on the whole batch is answered from
    /// one snapshot — one consistent linearisation point, no round, no sink
    /// call; otherwise it commits as a combining round of its own.
    pub fn batch_contains_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        if self.snapshot_reads {
            self.check_poisoned();
            if batch.is_empty() {
                out.clear();
                return;
            }
            self.read_snapshot()
                .view()
                .batch_contains_report(batch, out);
            return;
        }
        self.run_batch_op(OpKind::Contains, batch, out);
    }

    /// Buffer-reusing variant of [`ConcurrentSet::batch_insert`].
    pub fn batch_insert_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        self.run_batch_op(OpKind::Insert, batch, out);
    }

    /// Buffer-reusing variant of [`ConcurrentSet::batch_remove`].
    pub fn batch_remove_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        self.run_batch_op(OpKind::Remove, batch, out);
    }

    /// Becomes the combiner (waiting out a concurrent one), flushes pending
    /// published ops, then executes `batch` as one `kind` round: the
    /// backend's batched op runs once, per-key flags land in `out`, and the
    /// round is committed and counted exactly like a combined one.
    /// Duplicate resolution never arises — a [`Batch`] holds each key at
    /// most once.
    fn run_batch_op(&self, kind: OpKind, batch: &Batch<K>, out: &mut Vec<bool>) {
        out.clear();
        if batch.is_empty() {
            // An empty round would break the `ops >= rounds` stats
            // invariant; there is nothing to linearise anyway.
            self.check_poisoned();
            return;
        }
        loop {
            self.check_poisoned();
            if self.lock_combiner() {
                let _unlock = CombinerGuard { set: self };
                // Same post-CAS re-check as `try_fast_op`: never execute
                // after a poisoning release.
                self.check_poisoned();
                // Ops published before we won the flag were pending before
                // this batch arrived; linearise them first, as the fast
                // path does.
                self.combine_round();
                let total = batch.len() as u64;
                let _span = self
                    .trace
                    .as_ref()
                    .map(|ring| obs::trace_round(ring, total));
                // SAFETY: we hold the combiner flag — exclusive set access.
                let set = unsafe { &mut *self.set.get() };
                let pooled = batch.len() >= self.pool_cutoff;
                let run = |set: &mut S, out: &mut Vec<bool>| match kind {
                    OpKind::Contains => set.batch_contains_report(batch, out),
                    OpKind::Insert => set.batch_insert_report(batch, out),
                    OpKind::Remove => set.batch_remove_report(batch, out),
                };
                if pooled {
                    self.pool.install(|| run(set, out));
                } else {
                    run(set, out);
                }
                debug_assert_eq!(out.len(), batch.len(), "one flag per batch key");
                let ops = batch.iter().zip(out.iter());
                self.commit_round(
                    !matches!(kind, OpKind::Contains),
                    ops.map(|(key, &result)| RoundOp { kind, key, result }),
                );
                self.metrics.batch_rounds.add_single_writer(1);
                self.bump_stats(total, pooled);
                return;
            }
            self.wait_until(|| {
                !self.combiner.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire)
            });
        }
    }

    /// Returns `true` when a combiner panic has
    /// [poisoned](ConcurrentSet#poisoning) the front-end.  Unlike the
    /// operations, this never panics — it is how a supervising layer (a
    /// sharded tier) inspects shard health without tripping the poison
    /// itself.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Number of keys in the set.
    ///
    /// A snapshot read under [`Options::snapshot_reads`] (the default);
    /// otherwise it linearises as a combining round of its own: pending
    /// published operations are flushed first, then the backing set is
    /// read under the combiner flag.
    pub fn len(&self) -> usize {
        if self.snapshot_reads {
            return self.snap_read(|view| view.len());
        }
        self.read_via_round(|set| set.len())
    }

    /// Becomes the combiner (waiting out a concurrent one), flushes pending
    /// published ops, and reads the backing set under the flag — the
    /// round-entering read path behind `len`/`rank`/`min`/`max` when
    /// snapshot reads are off.
    fn read_via_round<T>(&self, read: impl FnOnce(&S) -> T) -> T {
        let mut read = Some(read);
        loop {
            self.check_poisoned();
            if self.lock_combiner() {
                let _unlock = CombinerGuard { set: self };
                // Post-CAS re-check, as in `try_fast_op`.
                self.check_poisoned();
                self.combine_round();
                // SAFETY: we hold the combiner flag, the only licence to
                // touch `set`.
                return (read.take().expect("called once"))(unsafe { &*self.set.get() });
            }
            self.wait_until(|| {
                !self.combiner.load(Ordering::Acquire) || self.poisoned.load(Ordering::Acquire)
            });
        }
    }

    /// One wait-free point read against the published snapshot: the query
    /// runs inside the cell's borrow window (no `Arc` refcount traffic —
    /// the read-side cost is two borrow-count bumps plus the counter), so
    /// the snapshot path stays cheaper than electing a combiner even on
    /// the uncontended fast path.  Lag is *not* sampled here; it is
    /// recorded on the handle and batch reads, where its cost amortises.
    fn snap_read<T>(&self, read: impl FnOnce(&dyn SetView<K>) -> T) -> T {
        self.check_poisoned();
        let result = self.snap.with_snap(|snap| read(snap.view()));
        self.metrics.snapshot_reads.inc();
        result
    }

    /// The last published [`ReadSnapshot`]: contents plus the seq of the
    /// mutating round they reflect.  Lock-free; counts as a snapshot read
    /// in the metrics (and samples `combine.snapshot_lag`).  Unlike the
    /// read operations this does **not** check for poisoning — like
    /// [`ConcurrentSet::is_poisoned`] it is a supervisor-grade accessor
    /// (the snapshot predates the poisoned round: a panicking round never
    /// publishes).
    pub fn read_snapshot(&self) -> Arc<ReadSnapshot<K>> {
        let snap = self.snap.load();
        self.metrics.snapshot_reads.inc();
        let committed = self.committed.load(Ordering::Acquire);
        self.metrics
            .snapshot_lag
            .record(committed.saturating_sub(snap.seq));
        snap
    }

    /// Seq of the last committed round of any kind — the high-water mark a
    /// client passes to [`ConcurrentSet::read_at_least`] to read its own
    /// (and every earlier acknowledged) write.
    pub fn committed_seq(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Snapshot read with a freshness floor: returns a snapshot whose
    /// *contents* include every round with seq `<= want`, waiting (and
    /// combining pending rounds itself when it can) until one is published.
    ///
    /// The returned snapshot's [`ReadSnapshot::seq`] may still be below
    /// `want` when the rounds in between were read-only — they changed
    /// nothing, so the older root is content-identical.
    ///
    /// # Bounded wait
    ///
    /// Every legitimately *observed* mark is already committed (rounds
    /// publish before they acknowledge), so a caller passing a mark it
    /// observed — [`ConcurrentSet::committed_seq`], a
    /// [`ReadSnapshot::seq`], a durable log record — returns immediately.
    /// A `want` above the committed mark can only be satisfied by rounds
    /// still in flight; this call helps drain them, but the moment the
    /// front-end is idle (no combiner running, no published operations)
    /// with `committed` still short of `want`, no progress this call can
    /// make will ever commit `want`, and it returns
    /// [`FreshnessError`] instead of spinning forever.
    ///
    /// # Panics
    ///
    /// Panics if the front-end is poisoned (`want` may never arrive);
    /// the poison check repeats on every wait iteration.
    pub fn read_at_least(&self, want: u64) -> Result<Arc<ReadSnapshot<K>>, FreshnessError> {
        loop {
            self.check_poisoned();
            // `committed` is loaded *before* the snapshot: if rounds
            // `(snap.seq, want]` were all committed by then and none of
            // them published, none mutated — the snapshot loaded *after*
            // is content-exact through `want` (a later mutating publish
            // only makes it fresher).
            let committed = self.committed.load(Ordering::Acquire);
            let snap = self.snap.load();
            if snap.seq >= want || committed >= want {
                self.metrics.snapshot_reads.inc();
                self.metrics
                    .snapshot_lag
                    .record(committed.saturating_sub(snap.seq));
                return Ok(snap);
            }
            // Behind: help drain pending rounds (we may become the
            // combiner ourselves) rather than bust-waiting.
            self.try_combine();
            // Re-check after helping.  If the mark still trails `want`
            // with no combiner mid-round and nothing published, the seq
            // counter is frozen: `want` exceeds every seq that will be
            // committed without new writers arriving, and waiting on
            // writers that need never arrive is the unbounded spin this
            // contract forbids.
            let committed = self.committed.load(Ordering::Acquire);
            if committed >= want {
                continue;
            }
            if !self.combiner.load(Ordering::Acquire)
                && self.ingress.load(Ordering::Acquire).is_null()
            {
                return Err(FreshnessError { want, committed });
            }
            std::thread::yield_now();
        }
    }

    /// Returns `true` when the set holds no keys.  Same linearisation as
    /// [`ConcurrentSet::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collects every key of the last published snapshot (ascending)
    /// together with the sequence number it reflects — a consistent
    /// snapshot *and* its high-water mark, from one linearisation point.
    ///
    /// Served from the published [`ReadSnapshot`] (regardless of
    /// [`Options::snapshot_reads`]), so it never enters a round and never
    /// races a combiner: a round that panics mid-execution never publishes,
    /// so a half-applied round's view is structurally unreachable from
    /// here.  Pending published ops are *not* flushed — the pair reflects
    /// acknowledged rounds only (every acknowledged write is covered,
    /// because rounds publish before they acknowledge).  This is the
    /// durability tier's snapshot primitive: persist the keys, record the
    /// mark, and replay only log records with seq above it — rounds above
    /// the mark that mutated nothing are safe to replay anyway.
    pub fn snapshot_keys(&self) -> (Vec<K>, u64) {
        self.check_poisoned();
        let snap = self.snap.load();
        (snap.view().collect_keys(), snap.seq())
    }

    /// Snapshot of the combining counters.
    pub fn stats(&self) -> Stats {
        // `rounds` is Acquire-loaded FIRST: it pairs with the combiner's
        // Release store in `bump_stats`, whose write order guarantees the
        // `ops` (and `pooled_rounds`) advances of every visible round
        // happened-before — so `ops >= rounds` in any snapshot.
        let rounds = self.metrics.rounds.get_acquire();
        let ops = self.metrics.ops.get();
        // `pooled_rounds` advances before `rounds`, so a racing reader can
        // see the new pooled count with the old round count; clamping
        // keeps the documented `pooled_rounds <= rounds`.
        let pooled_rounds = self.metrics.pooled_rounds.get().min(rounds);
        Stats {
            rounds,
            ops,
            pooled_rounds,
        }
    }

    /// Snapshot of every named metric on the front-end's registry — the
    /// [`ConcurrentSet::stats`] counters plus the fast/slow path split,
    /// the poison count and the `combine.round_size` histogram.  Metric
    /// names follow the workspace `<subsystem>.<metric>` convention.
    pub fn metrics(&self) -> obs::Snapshot {
        self.registry.snapshot()
    }

    /// Scheduler telemetry of the backing fork-join pool (all zeros unless
    /// the pool was built with
    /// [`PoolBuilder::metrics`](forkjoin::PoolBuilder::metrics) enabled).
    /// Lets a service snapshot front-end and scheduler counters from one
    /// handle.
    pub fn pool_metrics(&self) -> forkjoin::PoolMetrics {
        self.pool.metrics()
    }

    /// Drains the round-trace ring (empty unless built with a non-zero
    /// [`Options::trace_capacity`]): one span per committed round, oldest
    /// first, each carrying begin/end timestamps and its op count.
    pub fn take_trace(&self) -> Vec<SpanRecord> {
        self.trace.as_ref().map(TraceRing::take).unwrap_or_default()
    }

    /// Renders the current trace ring as JSON without draining it.
    pub fn trace_json(&self) -> String {
        match &self.trace {
            Some(ring) => ring.to_json(),
            None => String::from("{\"dropped\": 0, \"spans\": []}"),
        }
    }

    /// Consumes the front-end, returning the backing set (and shutting the
    /// pool down).  Owning `self` proves no operation is in flight, so no
    /// published slot can be pending.
    pub fn into_inner(self) -> S {
        debug_assert!(self.ingress.load(Ordering::Relaxed).is_null());
        self.set.into_inner()
    }

    /// The uncontended fast path: if nobody is combining, become the
    /// combiner *without* publishing a slot — flush whatever is already
    /// published (ops pending longer than ours must not be starved, and
    /// linearising them first keeps the commit order honest), then run our
    /// own op directly against the backend's point path.  No slot, no
    /// `done` handshake, no key clone; under no contention the front-end
    /// costs one CAS + one load over a plain mutex.
    ///
    /// Returns `None` when the path does not apply — the combiner flag is
    /// taken, or the cutoff demands pooled rounds (`pool_cutoff <= 1`,
    /// which routes every op through the batch machinery) — and the caller
    /// must fall back to [`ConcurrentSet::run_op_published`].
    fn try_fast_op(&self, kind: OpKind, key: &K) -> Option<bool> {
        self.check_poisoned();
        if self.pool_cutoff <= 1 || !self.lock_combiner() {
            return None;
        }
        let _unlock = CombinerGuard { set: self };
        // Re-check *after* winning the flag: the pre-CAS check races a
        // poisoning combiner's release, and proceeding here would both
        // combine on the half-mutated set and dereference slots abandoned
        // by clients that already panicked out.  The Acquire CAS pairs
        // with the poisoner's Release unlock, which its poison store
        // preceded, so this load cannot miss the poison.
        self.check_poisoned();
        // A plain load dodges the swap's locked RMW in the common empty
        // case.  Missing a racing publish is harmless: its publisher
        // observes our unlock (spin recheck or the Dekker handshake)
        // and elects itself next.
        if !self.ingress.load(Ordering::Acquire).is_null() {
            self.combine_round();
        }
        self.metrics.fast_path_rounds.add_single_writer(1);
        Some(self.run_point_op(kind, key))
    }

    /// Executes one operation directly against the backend's point path,
    /// committing it as a round of its own and counting it.  Caller must
    /// hold the combiner flag.
    fn run_point_op(&self, kind: OpKind, key: &K) -> bool {
        // One span per point round; recorded when `_span` drops at return.
        let _span = self.trace.as_ref().map(|ring| obs::trace_round(ring, 1));
        // SAFETY: the caller holds the combiner flag — exclusive set access.
        let set = unsafe { &mut *self.set.get() };
        let result = match kind {
            OpKind::Insert => set.insert_one(key),
            OpKind::Remove => set.remove_one(key),
            OpKind::Contains => set.contains(key),
        };
        self.commit_round(
            !matches!(kind, OpKind::Contains),
            std::iter::once(RoundOp { kind, key, result }),
        );
        self.bump_stats(1, false);
        result
    }

    /// The contended path: publishes a slot, then combines or waits until
    /// the op completes.
    fn run_op_published(&self, kind: OpKind, key: K) -> bool {
        // Concurrent clients land here, so this is a real RMW, not the
        // combiner-only single-writer advance.
        self.metrics.slow_path_ops.inc();
        let slot = OpSlot {
            next: AtomicPtr::new(ptr::null_mut()),
            kind,
            key,
            result: UnsafeCell::new(false),
            done: AtomicBool::new(false),
        };
        // Pinned from here on: `slot` must not move until `done` is set.
        let slot_ptr = &slot as *const OpSlot<K> as *mut OpSlot<K>;
        let mut head = self.ingress.load(Ordering::Relaxed);
        loop {
            slot.next.store(head, Ordering::Relaxed);
            // Release publishes the slot's fields (kind/key/next) to the
            // combiner's Acquire drain-swap.  A successful CAS against a
            // re-seen head value is still correct (push-only ABA): whatever
            // lives at that address now is a live published slot, and our
            // `next` points at it.
            match self.ingress.compare_exchange_weak(
                head,
                slot_ptr,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        loop {
            if slot.done.load(Ordering::Acquire) {
                break;
            }
            // A poisoned front-end will never complete our slot; panicking
            // here (rather than blocking forever) also means the slot's
            // memory is abandoned exactly like every other poisoned path —
            // nothing dereferences it again, because every entry point
            // panics before touching the ingress list.
            self.check_poisoned();
            if self.try_combine() {
                continue; // a round committed; our op may be done now
            }
            // Someone else holds the combiner flag; they will either drain
            // our op or wake us when they release.
            self.wait_until(|| {
                slot.done.load(Ordering::Acquire)
                    || !self.combiner.load(Ordering::Acquire)
                    || self.poisoned.load(Ordering::Acquire)
            });
        }
        // SAFETY: `done` was set (Acquire above) after the combiner's final
        // write of `result`, and the combiner no longer touches the slot.
        unsafe { *slot.result.get() }
    }

    /// Attempts to become the combiner; on success runs one round, unlocks
    /// and wakes waiters.  Returns whether a round was run.
    fn try_combine(&self) -> bool {
        if !self.lock_combiner() {
            return false;
        }
        let _unlock = CombinerGuard { set: self };
        // Same post-CAS re-check as `try_fast_op`: never drain after a
        // poisoning release.
        self.check_poisoned();
        self.combine_round();
        true
    }

    /// Commits an executed round: numbers it, republishes the snapshot if
    /// the round could have mutated the backend, advances `committed`, and
    /// hands `ops` to the sink.  Caller holds the combiner flag and has
    /// stored no client's `done` flag yet — publish-before-acknowledge is
    /// the whole read-your-writes guarantee, sink-before-acknowledge lets a
    /// durable sink fsync a round before its clients return.  Runs on every
    /// round, even with [`Options::snapshot_reads`] off: `snapshot_keys`
    /// and `read_at_least` serve from the cell regardless.
    fn commit_round<'a>(&self, mutated: bool, mut ops: impl Iterator<Item = RoundOp<&'a K>>)
    where
        K: 'a,
    {
        // Only the combiner stores `committed`, and successive combiners
        // hand it off through the flag's Release/Acquire pair, so seqs are
        // strictly increasing and gap-free in commit order.
        let seq = self.committed.load(Ordering::Relaxed) + 1;
        if mutated {
            // SAFETY: combiner flag held — exclusive set access (the
            // round's own `&mut` borrow is dead by the time this runs).
            let set = unsafe { &*self.set.get() };
            let view = set.publish_root();
            // Make the publication cost visible: backends without an O(1)
            // `publish_root` override clone their whole contents here,
            // every mutating round.
            self.metrics
                .publish_clone_keys
                .add_single_writer(set.publish_clone_keys() as u64);
            self.snap.publish(Arc::new(ReadSnapshot { seq, view }));
        }
        self.committed.store(seq, Ordering::Release);
        if let Some(sink) = &self.sink {
            sink.round(seq, &mut ops);
        }
    }

    fn lock_combiner(&self) -> bool {
        // Acquire pairs with the Release unlock of the previous combiner,
        // carrying the backing set's state to this thread.
        self.combiner
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Panics if a combiner panicked mid-round (see the struct docs'
    /// poisoning section).
    fn check_poisoned(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!(
                "ConcurrentSet is poisoned: a combiner panicked mid-round, \
                 so the backing set's state is indeterminate"
            );
        }
    }

    /// Spin, then yield, then sleep until `ready` holds.  Sleeper half of
    /// the Dekker handshake: register, fence, re-check, and only then wait,
    /// so a concurrent round commit or unlock cannot be slept through.
    fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        for _ in 0..SPIN_LIMIT {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELD_LIMIT {
            if ready() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = self.sleep_mutex.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while !ready() {
            guard = self.progress.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Runs one combining round.  Caller must hold the combiner flag.
    fn combine_round(&self) {
        // Claim everything published so far.  Acquire pairs with the
        // publishers' Release CASes, making the slots' fields visible.
        let drained = self.ingress.swap(ptr::null_mut(), Ordering::Acquire);
        if drained.is_null() {
            return;
        }
        // Single-op round (the common case whenever clients do not outnumber
        // actual hardware concurrency): skip the batch machinery entirely
        // and hit the backend's point path.  Only when the cutoff would not
        // send a one-op round through the pool — `pool_cutoff <= 1` keeps
        // its documented "everything pooled" meaning.
        // SAFETY: the slot stays pinned until its `done` store below.
        if self.pool_cutoff > 1 && unsafe { (*drained).next.load(Ordering::Relaxed) }.is_null() {
            let slot = unsafe { &*drained };
            let result = self.run_point_op(slot.kind, &slot.key);
            // SAFETY: combiner-exclusive until the `done` store, which is
            // the last touch (Release publishes the result write).
            unsafe {
                *slot.result.get() = result;
                slot.done.store(true, Ordering::Release);
            }
            return;
        }
        // SAFETY: combiner flag held — exclusive access to the scratch.
        let scratch = unsafe { &mut *self.scratch.get() };
        let Scratch {
            contains: con,
            insert: ins,
            remove: rem,
            claimed,
        } = scratch;

        // Split by kind.  The Treiber stack yields newest-first; pushing
        // onto the lanes and reversing restores publish order.
        let mut total: u64 = 0;
        let mut cursor = drained;
        while !cursor.is_null() {
            // SAFETY: every published slot stays pinned until its `done`
            // flag is set, which this round has not done yet.
            let slot = unsafe { &*cursor };
            cursor = slot.next.load(Ordering::Relaxed);
            let lane = match slot.kind {
                OpKind::Contains => &mut *con,
                OpKind::Insert => &mut *ins,
                OpKind::Remove => &mut *rem,
            };
            lane.slots.push(slot);
            total += 1;
        }
        for lane in [&mut *con, &mut *ins, &mut *rem] {
            lane.slots.reverse();
            lane.keys.clear();
            // SAFETY: slots stay pinned (as above); `key` is read by shared
            // reference, which `K: Sync` licences across threads.
            lane.keys
                .extend(lane.slots.iter().map(|&s| unsafe { (*s).key.clone() }));
        }

        // One span for the whole batch round (build, execute, distribute,
        // complete); recorded when `_span` drops at return.
        let _span = self
            .trace
            .as_ref()
            .map(|ring| obs::trace_round(ring, total));

        // One sorted batch per kind; the key buffers come back via
        // `into_vec` below, so steady-state rounds do not allocate.
        let con_batch = Batch::from_unsorted(mem::take(&mut con.keys));
        let ins_batch = Batch::from_unsorted(mem::take(&mut ins.keys));
        let rem_batch = Batch::from_unsorted(mem::take(&mut rem.keys));

        // Execute in linearisation order: contains, insert, remove.
        // SAFETY: combiner flag held — exclusive access to the set.
        let set = unsafe { &mut *self.set.get() };
        let (con_flags, ins_flags, rem_flags) = (&mut con.flags, &mut ins.flags, &mut rem.flags);
        let mut run = |set: &mut S| {
            if !con_batch.is_empty() {
                set.batch_contains_report(&con_batch, con_flags);
            }
            if !ins_batch.is_empty() {
                set.batch_insert_report(&ins_batch, ins_flags);
            }
            if !rem_batch.is_empty() {
                set.batch_remove_report(&rem_batch, rem_flags);
            }
        };
        let pooled = (total as usize) >= self.pool_cutoff;
        if pooled {
            self.pool.install(|| run(set));
        } else {
            run(set);
        }

        // Fan per-key flags back out to per-op results.
        distribute(&con.slots, &con_batch, &con.flags, claimed, false);
        distribute(&ins.slots, &ins_batch, &ins.flags, claimed, true);
        distribute(&rem.slots, &rem_batch, &rem.flags, claimed, true);

        // Commit *before* releasing any client: a released client must
        // find its write in the next snapshot read, and in the sink.
        let ops = [&*con, &*ins, &*rem].into_iter().flat_map(|lane| {
            lane.slots.iter().map(|&slot| {
                // SAFETY: slots stay pinned until their `done` store below,
                // and until then `result` (written by `distribute` above) is
                // combiner-exclusive.
                let (slot, result) = unsafe { (&*slot, *(*slot).result.get()) };
                RoundOp {
                    kind: slot.kind,
                    key: &slot.key,
                    result,
                }
            })
        });
        self.commit_round(!ins_batch.is_empty() || !rem_batch.is_empty(), ops);

        // Completion: after each `done` store the owning client may pop the
        // slot off its stack, so this loop is the combiner's last touch.
        for lane in [&mut *con, &mut *ins, &mut *rem] {
            for &slot in &lane.slots {
                // SAFETY: Release publishes the result write above; the
                // slot is not accessed afterwards.
                unsafe { (*slot).done.store(true, Ordering::Release) };
            }
            lane.slots.clear();
        }

        // Reclaim the key buffers for the next round.
        con.keys = con_batch.into_vec();
        ins.keys = ins_batch.into_vec();
        rem.keys = rem_batch.into_vec();

        self.bump_stats(total, pooled);
    }

    /// Advances the counters for one committed round.  Combiner-only — the
    /// caller holds the combiner flag, and flag hand-off (Release unlock /
    /// Acquire lock) orders successive combiners — so the single-writer
    /// plain-load+store advance is exact without atomic RMWs.
    ///
    /// The *write order* is load-bearing for racing `stats()` readers,
    /// Loom-style:
    ///
    /// ```text
    /// combiner (this fn):              stats() reader:
    ///   ops      += n   (Release)        r = rounds (Acquire)  // FIRST
    ///   pooled   += 0|1 (Release)        o = ops    (Relaxed)
    ///   round_size.record(n)             p = pooled (Relaxed)
    ///   rounds   += 1   (Release)  // LAST
    /// ```
    ///
    /// A reader that observes `rounds = r` observed the Release store that
    /// published round *r*, so every write sequenced before it — the `ops`
    /// advances of all `r` rounds — is visible: `o >= r` holds in **every**
    /// snapshot, racing or quiescent, because each round carries at least
    /// one op.  (An earlier revision advanced `rounds` first with `Relaxed`
    /// stores, letting a racing reader see `ops < rounds`; the stress suite
    /// now hammers this invariant.)  `pooled` advances before `rounds` too,
    /// but a reader can still pair a new `pooled` with an old `rounds` —
    /// `stats()` clamps instead.
    fn bump_stats(&self, ops: u64, pooled: bool) {
        self.metrics.ops.add_single_writer(ops);
        if pooled {
            self.metrics.pooled_rounds.add_single_writer(1);
        }
        self.metrics.round_size.record(ops);
        self.metrics.rounds.add_single_writer(1);
    }
}

/// Writes one lane's per-op results from its batch's per-key flags.
///
/// `consume` is set for insert/remove lanes, where duplicated keys resolve
/// sequentially: the first op on a key gets the batch flag, later
/// duplicates observe the first one's effect (insert after insert → already
/// present; remove after remove → already gone), exactly as the replayed
/// linearisation does.
fn distribute<K: Ord>(
    slots: &[*const OpSlot<K>],
    batch: &Batch<K>,
    flags: &[bool],
    claimed: &mut Vec<bool>,
    consume: bool,
) {
    claimed.clear();
    claimed.resize(batch.len(), false);
    for &ptr in slots {
        // SAFETY: slots stay pinned until their `done` store, which happens
        // after all `distribute` calls of the round.
        let slot = unsafe { &*ptr };
        let idx = batch
            .binary_search(&slot.key)
            .expect("round batch is built from exactly these op keys");
        let result = if consume {
            let first = !claimed[idx];
            claimed[idx] = true;
            first && flags[idx]
        } else {
            flags[idx]
        };
        // SAFETY: combiner-exclusive until `done` is set; the owning client
        // reads `result` only after its Acquire load of `done`.
        unsafe { *slot.result.get() = result };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// A sequential reference backend: a sorted Vec driven through the
    /// default (allocating) trait paths.
    struct VecSet(Vec<u64>);

    impl BatchedSet<u64> for VecSet {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn contains(&self, key: &u64) -> bool {
            self.0.binary_search(key).is_ok()
        }
        fn rank(&self, key: &u64) -> usize {
            self.0.partition_point(|k| k < key)
        }
        fn min(&self) -> Option<&u64> {
            self.0.first()
        }
        fn max(&self) -> Option<&u64> {
            self.0.last()
        }
        fn batch_contains(&self, batch: &Batch<u64>) -> Vec<bool> {
            batch.iter().map(|q| self.contains(q)).collect()
        }
        fn batch_insert(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            let flags: Vec<bool> = batch.iter().map(|q| !self.contains(q)).collect();
            self.0.extend(
                batch
                    .iter()
                    .zip(&flags)
                    .filter(|(_, &f)| f)
                    .map(|(q, _)| *q),
            );
            self.0.sort_unstable();
            flags
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            let flags: Vec<bool> = batch.iter().map(|q| self.contains(q)).collect();
            self.0.retain(|k| batch.binary_search(k).is_err());
            flags
        }
        fn collect_keys(&self) -> Vec<u64> {
            self.0.clone()
        }
    }

    /// Round-path options: snapshot reads off, so every read linearises
    /// through the combiner and reaches the sink — what the replay
    /// assertions below count on.  Snapshot-path behaviour has its own
    /// tests.
    fn round_path() -> Options {
        Options {
            pool_cutoff: 4,
            snapshot_reads: false,
            ..Options::default()
        }
    }

    /// Round-path harness without a sink.
    fn fresh() -> ConcurrentSet<u64, VecSet> {
        ConcurrentSet::with_options(VecSet(Vec::new()), Pool::new(1).unwrap(), round_path())
    }

    /// A set built with `options` and a [`RoundLog`] sink.
    fn logged(options: Options) -> (ConcurrentSet<u64, VecSet>, Arc<RoundLog<u64>>) {
        let log = Arc::new(RoundLog::default());
        let set = ConcurrentSet::with_sink(
            VecSet(Vec::new()),
            Pool::new(1).unwrap(),
            options,
            log.clone(),
        );
        (set, log)
    }

    #[test]
    fn sequential_ops_have_set_semantics() {
        let set = fresh();
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.insert(9));
        assert!(set.contains(&5));
        assert!(!set.contains(&6));
        assert_eq!(set.len(), 2);
        assert!(set.remove(&5));
        assert!(!set.remove(&5));
        assert!(!set.is_empty());
        assert_eq!(set.into_inner().0, vec![9]);
    }

    #[test]
    fn round_log_records_sequential_history() {
        let (set, log) = logged(round_path());
        assert!(set.insert(1));
        assert!(set.contains(&1));
        assert!(set.remove(&1));
        let rounds = log.take();
        // Sequential clients combine themselves: one op per round.
        assert_eq!(rounds.len(), 3);
        let flat: Vec<RoundOp<u64>> = rounds.into_iter().flat_map(|r| r.ops).collect();
        assert_eq!(
            flat,
            vec![
                RoundOp {
                    kind: OpKind::Insert,
                    key: 1,
                    result: true
                },
                RoundOp {
                    kind: OpKind::Contains,
                    key: 1,
                    result: true
                },
                RoundOp {
                    kind: OpKind::Remove,
                    key: 1,
                    result: true
                },
            ]
        );
        // The log drains.
        assert!(log.take().is_empty());
        assert_eq!(set.stats().rounds, 3);
        assert_eq!(set.stats().ops, 3);
    }

    #[test]
    fn rounds_carry_gap_free_sequence_numbers() {
        let (set, log) = logged(round_path());
        assert!(set.insert(1));
        set.batch_insert(&Batch::from_unsorted(vec![2u64, 3]));
        assert!(set.contains(&2));
        assert!(set.remove(&1));
        let rounds = log.take();
        let seqs: Vec<u64> = rounds.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "fresh history numbers from 1");

        // Numbering continues across log drains.
        set.insert(9);
        assert_eq!(log.take()[0].seq, 5);

        // first_seq seeds the counter (the recovery path).
        let (resumed, resumed_log) = logged(Options {
            first_seq: 41,
            ..round_path()
        });
        resumed.insert(7);
        assert_eq!(resumed_log.take()[0].seq, 42);
    }

    #[test]
    fn snapshot_keys_pairs_contents_with_their_seq() {
        let (set, log) = logged(round_path());
        let (keys, seq) = set.snapshot_keys();
        assert!(keys.is_empty());
        assert_eq!(seq, 0, "no rounds committed yet");

        set.insert(5);
        set.batch_insert(&Batch::from_unsorted(vec![1u64, 9]));
        set.remove(&9);
        let (keys, seq) = set.snapshot_keys();
        assert_eq!(keys, vec![1, 5]);
        assert_eq!(seq, 3, "mark equals the last committed round's seq");
        assert_eq!(
            log.take().last().unwrap().seq,
            seq,
            "log agrees with the snapshot mark"
        );
        // Snapshot rounds commit no ops and consume no seq.
        set.insert(2);
        assert_eq!(log.take()[0].seq, 4);
    }

    #[test]
    fn stats_count_pooled_rounds() {
        // pool_cutoff 4 and single-op rounds: nothing goes through the pool.
        let set = fresh();
        for k in 0..10 {
            set.insert(k);
        }
        let stats = set.stats();
        assert_eq!(stats.ops, 10);
        assert_eq!(stats.pooled_rounds, 0);

        // pool_cutoff 0: every round is a pool round.
        let pooled = ConcurrentSet::with_options(
            VecSet(Vec::new()),
            Pool::new(1).unwrap(),
            Options {
                pool_cutoff: 0,
                ..Options::default()
            },
        );
        pooled.insert(1);
        pooled.insert(2);
        assert_eq!(pooled.stats().pooled_rounds, pooled.stats().rounds);
    }

    /// A backend that panics when asked to insert a magic key.
    struct BombSet(VecSet);

    impl BatchedSet<u64> for BombSet {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn contains(&self, key: &u64) -> bool {
            self.0.contains(key)
        }
        fn rank(&self, key: &u64) -> usize {
            self.0.rank(key)
        }
        fn min(&self) -> Option<&u64> {
            self.0.min()
        }
        fn max(&self) -> Option<&u64> {
            self.0.max()
        }
        fn batch_contains(&self, batch: &Batch<u64>) -> Vec<bool> {
            self.0.batch_contains(batch)
        }
        fn batch_insert(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            assert!(!batch.contains(&u64::MAX), "bomb");
            self.0.batch_insert(batch)
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            self.0.batch_remove(batch)
        }
        fn collect_keys(&self) -> Vec<u64> {
            self.0.collect_keys()
        }
    }

    #[test]
    fn backend_panic_poisons_instead_of_wedging() {
        // pool_cutoff 0 forces the batch path, whose `batch_insert` bombs.
        let set = ConcurrentSet::with_options(
            BombSet(VecSet(Vec::new())),
            Pool::new(1).unwrap(),
            Options {
                pool_cutoff: 0,
                ..Options::default()
            },
        );
        assert!(set.insert(1));
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.insert(u64::MAX);
        }));
        assert!(boom.is_err());
        // Subsequent operations fail fast with the poison message rather
        // than deadlocking on a combiner flag that never clears.
        let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.contains(&1);
        }));
        let payload = after.unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("str payload");
        assert!(msg.contains("poisoned"), "{msg}");
        let len_call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.len()));
        assert!(len_call.is_err());
    }

    #[test]
    fn registry_metrics_split_fast_and_slow_paths() {
        let set = fresh();
        for k in 0..10 {
            set.insert(k);
        }
        assert!(set.contains(&3));
        let m = set.metrics();
        // Sequential clients always win the flag: everything is fast path.
        assert_eq!(m.counter("combine.fast_path_rounds"), Some(11));
        assert_eq!(m.counter("combine.slow_path_ops"), Some(0));
        assert_eq!(m.counter("combine.rounds"), Some(11));
        assert_eq!(m.counter("combine.ops"), Some(11));
        assert_eq!(m.counter("combine.poisoned"), Some(0));
        let sizes = m.histogram("combine.round_size").unwrap();
        assert_eq!(sizes.count(), 11);
        assert_eq!(sizes.sum, 11, "all point rounds");
        // The registry snapshot agrees with the legacy Stats view.
        assert_eq!(set.stats().rounds, 11);
        let json = m.to_json();
        assert!(json.contains("\"combine.rounds\": 11"), "{json}");

        // pool_cutoff <= 1 forbids the fast path; everything publishes.
        let slow = ConcurrentSet::with_options(
            VecSet(Vec::new()),
            Pool::new(1).unwrap(),
            Options {
                pool_cutoff: 0,
                ..Options::default()
            },
        );
        slow.insert(1);
        slow.insert(2);
        let m = slow.metrics();
        assert_eq!(m.counter("combine.fast_path_rounds"), Some(0));
        assert_eq!(m.counter("combine.slow_path_ops"), Some(2));
    }

    #[test]
    fn batched_surface_commits_whole_batches_as_rounds() {
        let (set, log) = logged(round_path());
        assert!(set.insert(5));
        let ins = set.batch_insert(&Batch::from_unsorted(vec![1u64, 5, 9]));
        assert_eq!(ins, vec![true, false, true]);
        let con = set.batch_contains(&Batch::from_unsorted(vec![1u64, 2, 9]));
        assert_eq!(con, vec![true, false, true]);
        let rem = set.batch_remove(&Batch::from_unsorted(vec![2u64, 5]));
        assert_eq!(rem, vec![false, true]);
        assert_eq!(set.len(), 2);

        // The log holds the point round plus one round per batch, each
        // batch round carrying its keys in batch order.
        let rounds = log.take();
        assert_eq!(rounds.len(), 4);
        assert_eq!(rounds[1].ops.len(), 3);
        assert_eq!(
            rounds[1].ops[0],
            RoundOp {
                kind: OpKind::Insert,
                key: 1,
                result: true
            }
        );
        assert_eq!(rounds[3].ops.len(), 2);

        // Stats count batch keys as ops; the batched rounds are tallied.
        let m = set.metrics();
        assert_eq!(m.counter("combine.batch_rounds"), Some(3));
        assert_eq!(m.counter("combine.ops"), Some(1 + 3 + 3 + 2));
        assert_eq!(m.counter("combine.rounds"), Some(4));

        // Empty batches are no-ops: no round, no flags, nothing logged.
        let before = set.stats();
        assert!(set.batch_insert(&Batch::empty()).is_empty());
        let mut out = vec![true; 4];
        set.batch_remove_report(&Batch::empty(), &mut out);
        assert!(out.is_empty(), "report variant clears stale flags");
        assert_eq!(set.stats(), before);
        assert!(log.take().is_empty());
    }

    #[test]
    fn batched_surface_pools_large_batches() {
        // pool_cutoff 4: a 5-key batch must execute inside the pool.
        let set = fresh();
        set.batch_insert(&Batch::from_unsorted(vec![1u64, 2, 3, 4, 5]));
        assert_eq!(set.stats().pooled_rounds, 1);
        set.batch_contains(&Batch::from_unsorted(vec![1u64, 2]));
        assert_eq!(set.stats().pooled_rounds, 1, "below cutoff stays inline");
    }

    #[test]
    fn batched_surface_respects_poisoning() {
        let set = ConcurrentSet::with_options(
            BombSet(VecSet(Vec::new())),
            Pool::new(1).unwrap(),
            Options {
                pool_cutoff: 0,
                ..Options::default()
            },
        );
        assert!(!set.is_poisoned());
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.batch_insert(&Batch::from_unsorted(vec![1u64, u64::MAX]));
        }));
        assert!(boom.is_err());
        assert!(set.is_poisoned(), "is_poisoned reports without panicking");
        let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.batch_contains(&Batch::from_unsorted(vec![1u64]));
        }));
        let payload = after.unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("str payload");
        assert!(msg.contains("poisoned"), "{msg}");
    }

    #[test]
    fn trace_ring_records_round_spans() {
        let set = ConcurrentSet::with_options(
            VecSet(Vec::new()),
            Pool::new(1).unwrap(),
            Options {
                pool_cutoff: 4,
                trace_capacity: 2,
                ..Options::default()
            },
        );
        // Tracing off by default elsewhere:
        assert!(fresh().take_trace().is_empty());
        assert_eq!(fresh().trace_json(), "{\"dropped\": 0, \"spans\": []}");

        for k in 0..3 {
            set.insert(k);
        }
        let json = set.trace_json();
        assert!(
            json.contains("\"dropped\": 1"),
            "capacity 2, 3 rounds: {json}"
        );
        let spans = set.take_trace();
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert_eq!(span.label, "round");
            assert_eq!(span.ops, 1);
            assert!(span.end_ns >= span.start_ns);
        }
        assert!(set.take_trace().is_empty(), "take drains");
    }

    /// Snapshot-path harness: default `snapshot_reads: true`, with a
    /// [`RoundLog`] so the tests can prove reads *stay out* of the sink.
    fn fresh_snap() -> (ConcurrentSet<u64, VecSet>, Arc<RoundLog<u64>>) {
        logged(Options {
            pool_cutoff: 4,
            ..Options::default()
        })
    }

    #[test]
    fn snapshot_reads_bypass_the_combiner() {
        let (set, log) = fresh_snap();
        // Read-your-writes: every acknowledged insert is visible to the
        // very next snapshot read.
        for k in [5u64, 1, 9] {
            assert!(set.insert(k));
            assert!(set.contains(&k), "write to {k} not visible to read");
        }
        assert!(!set.contains(&2));
        assert_eq!(set.len(), 3);
        assert_eq!(set.rank(&9), 2);
        assert_eq!(set.min(), Some(1));
        assert_eq!(set.max(), Some(9));
        assert_eq!(
            set.batch_contains(&Batch::from_unsorted(vec![1u64, 2, 9])),
            vec![true, false, true]
        );
        assert!(set.remove(&9));
        assert!(!set.contains(&9), "remove not visible to read");
        let _handle = set.read_snapshot();

        // None of those reads entered a round: the log holds only the
        // four writes, and no Contains op anywhere.
        let rounds = log.take();
        assert_eq!(rounds.len(), 4);
        assert!(rounds
            .iter()
            .flat_map(|r| &r.ops)
            .all(|op| op.kind != OpKind::Contains));
        assert_eq!(set.committed_seq(), 4, "reads consume no seqs");

        let m = set.metrics();
        let snap_reads = m.counter("combine.snapshot_reads").unwrap();
        assert!(snap_reads >= 10, "every read served by snapshot");
        // Lag is sampled on handle and batch reads (point reads skip it
        // to stay cheaper than the combiner fast path): one sample for
        // the batch_contains above, one for the read_snapshot.
        assert_eq!(
            m.histogram("combine.snapshot_lag").unwrap().count(),
            2,
            "one lag sample per handle/batch read"
        );
        assert_eq!(m.counter("combine.ops"), Some(4), "writes only");
    }

    #[test]
    fn snapshots_are_frozen_at_their_seq() {
        let (set, _) = fresh_snap();
        set.batch_insert(&Batch::from_unsorted(vec![1u64, 2, 3]));
        let before = set.read_snapshot();
        assert!(set.insert(10));
        assert!(set.remove(&1));
        let after = set.read_snapshot();
        // The old snapshot still answers as of its own round.
        assert_eq!(before.seq(), 1);
        assert!(before.view().contains(&1) && !before.view().contains(&10));
        assert_eq!(before.view().collect_keys(), vec![1, 2, 3]);
        assert_eq!(after.seq(), 3);
        assert!(!after.view().contains(&1) && after.view().contains(&10));
        // `snapshot_keys` pairs the same way, without entering a round.
        let (keys, seq) = set.snapshot_keys();
        assert_eq!((keys, seq), (vec![2, 3, 10], 3));
        assert_eq!(set.committed_seq(), 3, "snapshot consumed no seq");
    }

    #[test]
    fn read_at_least_reads_the_named_write() {
        let (set, _) = fresh_snap();
        set.insert(7);
        let mark = set.committed_seq();
        assert_eq!(mark, 1);
        let snap = set.read_at_least(mark).unwrap();
        assert!(snap.seq() >= mark);
        assert!(snap.view().contains(&7));

        // With snapshot reads off, read-only rounds advance `committed`
        // without republishing: the mark trails, the contents do not.
        let set = fresh();
        set.insert(1);
        assert!(set.contains(&1)); // a combining round of its own
        assert_eq!(set.committed_seq(), 2);
        let snap = set.read_at_least(2).unwrap();
        assert_eq!(snap.seq(), 1, "mutating publish was round 1");
        assert!(
            snap.view().contains(&1),
            "contents exact through the wanted mark"
        );
    }

    #[test]
    fn read_at_least_errors_on_unreachable_marks() {
        // Regression: a `want` one past the last committed seq, with no
        // concurrent writers, used to spin forever — nothing would ever
        // commit it.  The bounded-wait contract returns an error instead.
        let (set, _) = fresh_snap();
        set.insert(7);
        let mark = set.committed_seq();
        let err = set.read_at_least(mark + 1).unwrap_err();
        assert_eq!(
            err,
            FreshnessError {
                want: mark + 1,
                committed: mark
            }
        );
        assert!(err.to_string().contains("idle"), "{err}");
        // The front-end is unharmed: observed marks still succeed, writes
        // still commit and are then reachable.
        assert!(set.read_at_least(mark).is_ok());
        set.insert(8);
        let snap = set.read_at_least(mark + 1).unwrap();
        assert!(snap.view().contains(&8));
        // An empty, never-written set errors for any positive mark.
        let (idle, _) = fresh_snap();
        assert!(idle.read_at_least(1).is_err());
    }

    #[test]
    fn range_reads_are_wait_free_snapshot_reads() {
        let (set, log) = fresh_snap();
        set.batch_insert(&Batch::from_unsorted((0..100u64).map(|i| i * 2).collect()));
        let before = set.metrics().counter("combine.snapshot_reads").unwrap();

        assert_eq!(
            set.range_keys(Bound::Included(&10), Bound::Excluded(&20)),
            vec![10, 12, 14, 16, 18]
        );
        assert_eq!(
            set.range_count(Bound::Included(&10), Bound::Excluded(&20)),
            5
        );
        assert_eq!(set.predecessor(&11), Some(10));
        assert_eq!(set.predecessor(&0), None);
        assert_eq!(set.successor(&196), Some(198));
        assert_eq!(set.successor(&198), None);
        assert_eq!(set.kth(0), Some(0));
        assert_eq!(set.kth(99), Some(198));
        assert_eq!(set.kth(100), None);

        // Every one of those was served from the snapshot: the counter
        // moved and the round log gained nothing.
        let after = set.metrics().counter("combine.snapshot_reads").unwrap();
        assert!(after >= before + 9, "{before} -> {after}");
        assert_eq!(log.take().len(), 1, "only the batch insert");

        // Staleness contract: a range read reflects acknowledged writes.
        set.insert(11);
        assert_eq!(
            set.range_keys(Bound::Included(&10), Bound::Included(&12)),
            vec![10, 11, 12]
        );

        // With snapshot reads off the same queries linearise via rounds
        // and agree.
        let set = fresh();
        set.batch_insert(&Batch::from_unsorted((0..50u64).collect()));
        assert_eq!(set.range_count(Bound::Unbounded, Bound::Excluded(&10)), 10);
        assert_eq!(set.kth(3), Some(3));
        assert_eq!(set.predecessor(&1), Some(0));
        assert_eq!(set.successor(&48), Some(49));
    }

    #[test]
    fn publish_clone_keys_stays_zero_for_shared_roots() {
        // VecSet has no publish_root override: every mutating round clones
        // the whole contents, and the counter makes that cost visible.
        let (set, _) = fresh_snap();
        set.insert(1);
        set.insert(2);
        set.insert(3);
        let cloned = set.metrics().counter("combine.publish_clone_keys").unwrap();
        assert_eq!(cloned, 1 + 2 + 3, "VecSet pays O(n) per mutating round");

        // The IST overrides publication to an Arc clone: zero keys cloned.
        let pool = Pool::new(2).unwrap();
        let ist = ConcurrentSet::new(pbist::IstSet::from_unsorted((0..1000u64).collect()), pool);
        ist.insert(5000);
        ist.batch_insert(&Batch::from_unsorted((2000..2100u64).collect()));
        assert_eq!(
            ist.metrics().counter("combine.publish_clone_keys"),
            Some(0),
            "IstSet publishes in O(1)"
        );
    }

    #[test]
    fn snapshot_reads_panic_on_poison_without_blocking() {
        let set = ConcurrentSet::with_options(
            BombSet(VecSet(Vec::new())),
            Pool::new(1).unwrap(),
            Options {
                pool_cutoff: 0,
                ..Options::default()
            },
        );
        assert!(set.insert(3));
        assert!(set.contains(&3), "snapshot read before poisoning");
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.insert(u64::MAX);
        }));
        assert!(boom.is_err());
        // Every snapshot-served entry point fails fast with the poison
        // message — no hang, no stale answer.
        let reads: Vec<Box<dyn Fn() + '_>> = vec![
            Box::new(|| {
                set.contains(&3);
            }),
            Box::new(|| {
                set.len();
            }),
            Box::new(|| {
                set.rank(&3);
            }),
            Box::new(|| {
                set.min();
            }),
            Box::new(|| {
                set.snapshot_keys();
            }),
            Box::new(|| {
                set.batch_contains(&Batch::from_unsorted(vec![3u64]));
            }),
            Box::new(|| {
                let _ = set.read_at_least(1);
            }),
        ];
        for read in reads {
            let after = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read));
            let payload = after.unwrap_err();
            let msg = payload.downcast_ref::<&str>().expect("str payload");
            assert!(msg.contains("poisoned"), "{msg}");
        }
        // The supervisor-grade accessor still answers: the last published
        // snapshot predates the poisoned round.
        assert!(set.read_snapshot().view().contains(&3));
    }

    #[test]
    fn concurrent_clients_agree_with_oracle_replay() {
        let (set, log) = logged(round_path());
        let set = Arc::new(set);
        let threads = 4;
        let per_thread = 300u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    // Overlapping key ranges force result races on purpose.
                    for i in 0..per_thread {
                        let k = (t * 7 + i) % 50;
                        match i % 3 {
                            0 => set.insert(k),
                            1 => set.remove(&k),
                            _ => set.contains(&k),
                        };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rounds = log.take();
        let total_ops: usize = rounds.iter().map(|r| r.ops.len()).sum();
        assert_eq!(total_ops as u64, threads * per_thread);
        // Replaying the committed rounds sequentially must reproduce every
        // per-op result.
        let mut oracle = BTreeSet::new();
        for (r, round) in rounds.iter().enumerate() {
            for op in &round.ops {
                let expect = match op.kind {
                    OpKind::Insert => oracle.insert(op.key),
                    OpKind::Remove => oracle.remove(&op.key),
                    OpKind::Contains => oracle.contains(&op.key),
                };
                assert_eq!(op.result, expect, "round {r}, op {op:?}");
            }
        }
        let final_keys: Vec<u64> = oracle.into_iter().collect();
        let backing = Arc::try_unwrap(set).ok().unwrap().into_inner();
        assert_eq!(backing.0, final_keys);
    }
}
