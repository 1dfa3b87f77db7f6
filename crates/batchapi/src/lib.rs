//! The batched-operations API shared by every set implementation in this
//! workspace.
//!
//! The paper's computational model is *batched*: operations arrive as sorted,
//! deduplicated batches, and a data structure processes one whole batch in
//! parallel before the next one starts.  This crate pins that model down as a
//! pair of types every backend agrees on:
//!
//! * [`Batch`] — a sorted, deduplicated batch of keys.  Validation and
//!   normalisation happen **once**, at the boundary; implementations of the
//!   trait may assume (and exploit) strict ascending order.
//! * [`BatchedSet`] — the trait tying `batch_contains` / `batch_insert` /
//!   `batch_remove` together with the shared point accessors (`len`, `rank`,
//!   `min`/`max`, …), so benchmark harnesses and tests drive any backend
//!   through one interface.
//! * [`KeyCodec`] — a fixed-width, order-preserving byte encoding for keys,
//!   the serialisation contract the durability tier writes its log records
//!   and snapshots in.
//! * [`SetView`] — an immutable, shareable (`Send + Sync`) read-only view
//!   of a set's contents at one linearisation point, published cheaply via
//!   [`BatchedSet::publish_root`].  A concurrent front-end swaps views
//!   atomically so lookups can run wait-free against the last published
//!   root instead of serialising behind a combiner.
//!
//! The crate is deliberately dependency-free (std only): it defines the
//! contract, while `pbist`, `baselines`, … provide the parallel
//! implementations on top of `parprim`/`forkjoin`.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Bound, Deref};
use std::sync::Arc;

/// A sorted, strictly-increasing (hence deduplicated) batch of keys.
///
/// All [`BatchedSet`] operations consume batches, never raw slices: the
/// sortedness invariant is established here, exactly once, so every
/// implementation can partition a batch with binary searches and merge it
/// into sorted storage without re-checking.
///
/// ```
/// use batchapi::Batch;
///
/// let batch = Batch::from_unsorted(vec![5u64, 1, 9, 1]);
/// assert_eq!(batch.as_slice(), &[1, 5, 9]);
/// assert!(Batch::from_sorted(vec![1u64, 2, 3]).is_ok());
/// assert!(Batch::from_sorted(vec![2u64, 1]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch<K> {
    keys: Vec<K>,
}

/// Why a key vector was rejected by [`Batch::from_sorted`].
///
/// Both variants name the offending position, and the rendered message
/// spells out *which* of the two ways the strict-increase invariant broke —
/// a duplicated key versus an out-of-order pair — so a failed ingest can be
/// traced to the exact input element without reproducing the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// `keys[index] == keys[index + 1]`: the key at `index` appears again
    /// immediately after itself.
    Duplicate {
        /// Position of the first of the two equal keys.
        index: usize,
    },
    /// `keys[index] > keys[index + 1]`: the input is out of order at
    /// `index`.
    OutOfOrder {
        /// Position of the first key that exceeds its successor.
        index: usize,
    },
}

impl BatchError {
    /// Position of the first adjacent pair violating the strict-increase
    /// invariant, whichever way it violated it.
    pub fn index(&self) -> usize {
        match self {
            BatchError::Duplicate { index } | BatchError::OutOfOrder { index } => *index,
        }
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Duplicate { index } => write!(
                f,
                "batch keys must be strictly increasing: keys[{index}] and \
                 keys[{}] are equal (duplicate key at index {index})",
                index + 1
            ),
            BatchError::OutOfOrder { index } => write!(
                f,
                "batch keys must be strictly increasing: keys[{index}] > \
                 keys[{}] (out of order at index {index})",
                index + 1
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl<K: Ord> Batch<K> {
    /// Builds a batch from arbitrary keys: sorts (unstable — keys are plain
    /// `Ord` values, there is no tie order to preserve) and deduplicates.
    pub fn from_unsorted(mut keys: Vec<K>) -> Batch<K> {
        keys.sort_unstable();
        keys.dedup();
        Batch { keys }
    }

    /// Wraps keys that are claimed to be sorted and deduplicated, after
    /// verifying the claim with one linear scan.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Duplicate`] at the first adjacent pair that is
    /// equal, or [`BatchError::OutOfOrder`] at the first that decreases.
    pub fn from_sorted(keys: Vec<K>) -> Result<Batch<K>, BatchError> {
        if let Some(index) = keys.windows(2).position(|w| w[0] >= w[1]) {
            return Err(if keys[index] == keys[index + 1] {
                BatchError::Duplicate { index }
            } else {
                BatchError::OutOfOrder { index }
            });
        }
        Ok(Batch { keys })
    }

    /// The empty batch.
    pub fn empty() -> Batch<K> {
        Batch { keys: Vec::new() }
    }

    /// The keys, strictly increasing.
    pub fn as_slice(&self) -> &[K] {
        &self.keys
    }

    /// Number of (distinct) keys in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when the batch holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Consumes the batch, returning the sorted key vector.
    pub fn into_vec(self) -> Vec<K> {
        self.keys
    }

    /// Splits the batch into `offsets.len() - 1` contiguous sub-batches:
    /// sub-batch `i` is `self[offsets[i]..offsets[i + 1]]` (possibly
    /// empty).  `offsets` is the exclusive scan of the per-segment key
    /// counts — exactly the shape `pbist`'s joint traversal produces when
    /// it partitions a batch at a node's routers, and what a sharded
    /// service tier produces when it carves a batch at shard boundaries.
    ///
    /// Every sub-batch is a contiguous slice of a strictly-increasing run,
    /// so it is itself a valid batch; no re-validation happens.
    ///
    /// # Panics
    ///
    /// Panics when `offsets` is not a valid exclusive scan over this batch:
    /// fewer than two entries, not non-decreasing, first entry not `0`, or
    /// last entry not `self.len()`.
    pub fn split_at_offsets(&self, offsets: &[usize]) -> Vec<Batch<K>>
    where
        K: Clone,
    {
        assert!(offsets.len() >= 2, "offsets needs at least [0, len]");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("len checked above"),
            self.keys.len(),
            "offsets must end at the batch length"
        );
        offsets
            .windows(2)
            .map(|w| {
                assert!(w[0] <= w[1], "offsets must be non-decreasing");
                Batch {
                    keys: self.keys[w[0]..w[1]].to_vec(),
                }
            })
            .collect()
    }

    /// Merges two batches into one sorted, deduplicated batch in
    /// `O(self.len() + other.len())` — the inverse of splitting, used to
    /// recombine per-shard key sets into one view.  Keys present in both
    /// inputs appear once.
    pub fn merge(&self, other: &Batch<K>) -> Batch<K>
    where
        K: Clone,
    {
        let mut keys = Vec::with_capacity(self.keys.len() + other.keys.len());
        let (mut a, mut b) = (self.keys.iter().peekable(), other.keys.iter().peekable());
        while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
            match x.cmp(y) {
                std::cmp::Ordering::Less => keys.push(a.next().expect("peeked").clone()),
                std::cmp::Ordering::Greater => keys.push(b.next().expect("peeked").clone()),
                std::cmp::Ordering::Equal => {
                    keys.push(a.next().expect("peeked").clone());
                    b.next();
                }
            }
        }
        keys.extend(a.cloned());
        keys.extend(b.cloned());
        Batch { keys }
    }
}

impl<K> Deref for Batch<K> {
    type Target = [K];

    fn deref(&self) -> &[K] {
        &self.keys
    }
}

/// A sorted batch of key/value pairs with strictly-increasing keys — the
/// map-flavoured counterpart of [`Batch`].
///
/// Keys and values live in two parallel arrays so the key run can be
/// partitioned with the exact same binary searches a [`Batch`] is (the
/// offsets carve both arrays).
///
/// # Duplicate policy: last wins
///
/// [`KvBatch::from_unsorted`] resolves duplicate keys by keeping the **last**
/// occurrence's value, mirroring the sequential semantics of applying the
/// pairs one `insert(k, v)` at a time in input order.  The sort is stable,
/// so "last occurrence" means last in the input vector.
///
/// ```
/// use batchapi::KvBatch;
///
/// let batch = KvBatch::from_unsorted(vec![(5u64, 'a'), (1, 'b'), (5, 'c')]);
/// assert_eq!(batch.keys(), &[1, 5]);
/// assert_eq!(batch.vals(), &['b', 'c'], "last write to key 5 wins");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvBatch<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K: Ord, V> KvBatch<K, V> {
    /// Builds a batch from arbitrary pairs: stable-sorts by key and
    /// deduplicates with the documented last-wins policy.
    pub fn from_unsorted(pairs: Vec<(K, V)>) -> KvBatch<K, V> {
        let mut pairs = pairs;
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        // `dedup_by` visits (later, earlier-kept) pairs; moving the later
        // value into the kept slot before discarding implements last-wins.
        pairs.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(&mut later.1, &mut kept.1);
                true
            } else {
                false
            }
        });
        let mut keys = Vec::with_capacity(pairs.len());
        let mut vals = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            keys.push(k);
            vals.push(v);
        }
        KvBatch { keys, vals }
    }

    /// Wraps pairs claimed to be sorted with strictly-increasing keys, after
    /// verifying the claim with one linear scan.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Duplicate`] / [`BatchError::OutOfOrder`] at the
    /// first offending adjacent key pair (same contract as
    /// [`Batch::from_sorted`]).
    pub fn from_sorted(pairs: Vec<(K, V)>) -> Result<KvBatch<K, V>, BatchError> {
        if let Some(index) = pairs.windows(2).position(|w| w[0].0 >= w[1].0) {
            return Err(if pairs[index].0 == pairs[index + 1].0 {
                BatchError::Duplicate { index }
            } else {
                BatchError::OutOfOrder { index }
            });
        }
        let mut keys = Vec::with_capacity(pairs.len());
        let mut vals = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            keys.push(k);
            vals.push(v);
        }
        Ok(KvBatch { keys, vals })
    }

    /// The empty batch.
    pub fn empty() -> KvBatch<K, V> {
        KvBatch {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The keys, strictly increasing.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The values, parallel to [`KvBatch::keys`].
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Number of (distinct) keys in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when the batch holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates the pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(self.vals.iter())
    }

    /// Consumes the batch, returning the parallel key and value vectors.
    pub fn into_parts(self) -> (Vec<K>, Vec<V>) {
        (self.keys, self.vals)
    }

    /// A [`Batch`] borrowing view of just the keys is not possible without
    /// a copy; this clones the key run into one (still sorted, so no
    /// re-validation happens).
    pub fn key_batch(&self) -> Batch<K>
    where
        K: Clone,
    {
        Batch {
            keys: self.keys.clone(),
        }
    }
}

/// Converts an ordered-query bound pair into the half-open rank interval
/// `[start, end)` it selects: `start` is the rank of the first key inside
/// the range, `end` the rank one past the last.  `end` is clamped to
/// `start`, so inverted bounds (`lo > hi`) select the empty interval rather
/// than panicking.
///
/// Because a set's `rank` is exactly a key's index in the sorted contents,
/// the interval doubles as the index range into any sorted materialisation
/// of the set — which is how the default `range_keys` implementations slice.
pub fn bounds_to_rank_interval<K>(
    len: usize,
    lo: Bound<&K>,
    hi: Bound<&K>,
    rank: impl Fn(&K) -> usize,
    contains: impl Fn(&K) -> bool,
) -> (usize, usize) {
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) => rank(k),
        Bound::Excluded(k) => rank(k) + contains(k) as usize,
    };
    let end = match hi {
        Bound::Unbounded => len,
        Bound::Included(k) => rank(k) + contains(k) as usize,
        Bound::Excluded(k) => rank(k),
    };
    (start, end.max(start))
}

/// A key type with a fixed-width, order-preserving byte encoding.
///
/// The durability tier serialises keys into write-ahead-log records and
/// snapshot files; a *fixed* width keeps records self-describing from their
/// length prefix alone (no per-key length bytes), and an *order-preserving*
/// encoding (`a < b` iff `encode(a) < encode(b)` bytewise) means on-disk
/// key runs stay sorted exactly when the in-memory batch was, so a snapshot
/// can be validated — and bulk-loaded — without re-sorting.
///
/// Unsigned integers encode big-endian; signed integers flip the sign bit
/// first (offset-binary), which maps the `i64` number line monotonically
/// onto the `u64` byte order.
///
/// ```
/// use batchapi::KeyCodec;
///
/// let mut buf = [0u8; 8];
/// 0x0102_0304_0506_0708u64.encode(&mut buf);
/// assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
/// assert_eq!(u64::decode(&buf), 0x0102_0304_0506_0708);
///
/// let mut neg = [0u8; 8];
/// let mut pos = [0u8; 8];
/// (-5i64).encode(&mut neg);
/// 5i64.encode(&mut pos);
/// assert!(neg < pos, "byte order follows key order");
/// ```
pub trait KeyCodec: Sized {
    /// Exact number of bytes [`KeyCodec::encode`] writes and
    /// [`KeyCodec::decode`] reads.
    const WIDTH: usize;

    /// Writes the key into `buf`, which is exactly [`KeyCodec::WIDTH`]
    /// bytes long.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `buf.len() != Self::WIDTH`.
    fn encode(&self, buf: &mut [u8]);

    /// Reads a key back out of a [`KeyCodec::WIDTH`]-byte buffer written by
    /// [`KeyCodec::encode`].
    ///
    /// # Panics
    ///
    /// Implementations may panic when `buf.len() != Self::WIDTH`.
    fn decode(buf: &[u8]) -> Self;
}

macro_rules! unsigned_key_codec {
    ($($ty:ty),*) => {$(
        impl KeyCodec for $ty {
            const WIDTH: usize = std::mem::size_of::<$ty>();

            fn encode(&self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_be_bytes());
            }

            fn decode(buf: &[u8]) -> $ty {
                <$ty>::from_be_bytes(buf.try_into().expect("WIDTH bytes"))
            }
        }
    )*};
}

unsigned_key_codec!(u8, u16, u32, u64, u128);

macro_rules! signed_key_codec {
    ($($ty:ty => $uty:ty),*) => {$(
        impl KeyCodec for $ty {
            const WIDTH: usize = std::mem::size_of::<$ty>();

            fn encode(&self, buf: &mut [u8]) {
                // Offset-binary: flipping the sign bit maps the signed
                // number line monotonically onto unsigned byte order.
                ((*self as $uty) ^ (1 << (<$ty>::BITS - 1))).encode(buf);
            }

            fn decode(buf: &[u8]) -> $ty {
                (<$uty>::decode(buf) ^ (1 << (<$ty>::BITS - 1))) as $ty
            }
        }
    )*};
}

signed_key_codec!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, i128 => u128);

/// The empty payload: zero bytes on the wire.  A set is a map with
/// `V = ()`, so a set's durable records carry no value bytes at all.
impl KeyCodec for () {
    const WIDTH: usize = 0;

    fn encode(&self, _buf: &mut [u8]) {}

    fn decode(_buf: &[u8]) {}
}

/// An ordered set of keys driven by sorted operation batches.
///
/// This is the workspace's unified set interface: the interpolation search
/// tree (`pbist::IstSet`), the flat sorted array (`baselines::SortedArraySet`)
/// and any future backend implement it, so harnesses compare them through one
/// API.  Batched methods answer **per batch element, in batch (sorted)
/// order**, and are expected to exploit a surrounding `forkjoin::Pool` when
/// one is installed; outside a pool they degrade to sequential loops.
pub trait BatchedSet<K: Ord> {
    /// Number of keys in the set.
    fn len(&self) -> usize;

    /// Returns `true` when the set holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when `key` is present.
    fn contains(&self, key: &K) -> bool;

    /// Number of keys strictly smaller than `key`.
    fn rank(&self, key: &K) -> usize;

    /// The smallest key, or `None` for an empty set.
    fn min(&self) -> Option<&K>;

    /// The largest key, or `None` for an empty set.
    fn max(&self) -> Option<&K>;

    /// Answers one membership query per batch element: `result[i]` is `true`
    /// iff `batch[i]` is in the set.
    fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool>;

    /// Inserts every batch element: `result[i]` is `true` iff `batch[i]` was
    /// **newly** inserted (`false` means it was already present).
    fn batch_insert(&mut self, batch: &Batch<K>) -> Vec<bool>;

    /// Removes every batch element: `result[i]` is `true` iff `batch[i]` was
    /// present (and has now been removed).
    fn batch_remove(&mut self, batch: &Batch<K>) -> Vec<bool>;

    /// Like [`BatchedSet::batch_contains`], but reports the flags through
    /// `out` (cleared first, then filled to exactly `batch.len()` entries),
    /// so a caller issuing many batches can reuse one buffer instead of
    /// allocating a fresh `Vec` per batch.  The flat-combining front-end's
    /// round loop is the motivating consumer.
    ///
    /// The default implementation delegates to the allocating variant;
    /// implementations that can write flags in place should override it.
    fn batch_contains_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        out.clear();
        out.append(&mut self.batch_contains(batch));
    }

    /// Result-reporting variant of [`BatchedSet::batch_insert`]: per-key
    /// "newly inserted?" flags land in `out` (cleared first), reusing its
    /// capacity across calls.
    fn batch_insert_report(&mut self, batch: &Batch<K>, out: &mut Vec<bool>) {
        out.clear();
        out.append(&mut self.batch_insert(batch));
    }

    /// Result-reporting variant of [`BatchedSet::batch_remove`]: per-key
    /// "was present?" flags land in `out` (cleared first), reusing its
    /// capacity across calls.
    fn batch_remove_report(&mut self, batch: &Batch<K>, out: &mut Vec<bool>) {
        out.clear();
        out.append(&mut self.batch_remove(batch));
    }

    /// Inserts a single key, returning `true` iff it was newly inserted —
    /// the degenerate batch.  The default wraps the key in a singleton
    /// [`Batch`]; backends with a cheaper point path should override (a
    /// combining front-end's rounds degenerate to single operations
    /// whenever clients outnumber actual concurrency).
    fn insert_one(&mut self, key: &K) -> bool
    where
        K: Clone,
    {
        self.batch_insert(&Batch::from_unsorted(vec![key.clone()]))[0]
    }

    /// Removes a single key, returning `true` iff it was present.  See
    /// [`BatchedSet::insert_one`].
    fn remove_one(&mut self, key: &K) -> bool
    where
        K: Clone,
    {
        self.batch_remove(&Batch::from_unsorted(vec![key.clone()]))[0]
    }

    /// Clones every key out of the set, in ascending order — the full
    /// contents as one sorted run, ready to become a [`Batch`] without
    /// re-validation.  The durability tier's snapshots are the motivating
    /// consumer: snapshot = `collect_keys`, recovery = rebuild from the
    /// collected batch and replay the log tail.  Implementations should
    /// flatten in parallel where their structure allows (`pbist` forks per
    /// subtree).
    fn collect_keys(&self) -> Vec<K>
    where
        K: Clone;

    /// Publishes an immutable [`SetView`] of the current contents, for a
    /// concurrent front-end to serve wait-free reads from.
    ///
    /// The view must answer every read-only query exactly as the set would
    /// at the moment of the call, and must stay valid (and unchanged) while
    /// later mutations run — i.e. mutations must be copy-on-write with
    /// respect to any outstanding view.  Backends whose update paths
    /// already produce fresh nodes (`pbist` path-copies on update and
    /// rebuilds drifted subtrees wholesale) publish in `O(1)` by handing
    /// out their current root; the default clones the full contents into a
    /// [`SortedVecView`], which is correct for any backend but `O(n)` per
    /// publication.
    ///
    /// **Override requirement**: a combining front-end calls this after
    /// *every mutating round*, so the default turns each round into a full
    /// scan — fine for toy backends and tests, a performance bug in
    /// production.  Any backend meant to sit behind `combine` should
    /// override `publish_root` with a structural share **and** override
    /// [`BatchedSet::publish_clone_keys`] to return `0` so the front-end's
    /// `combine.publish_clone_keys` counter stays silent.
    fn publish_root(&self) -> Arc<dyn SetView<K>>
    where
        K: Clone + Send + Sync + 'static,
    {
        Arc::new(SortedVecView::new(self.collect_keys()))
    }

    /// Number of keys [`BatchedSet::publish_root`] copies to build its view
    /// — the per-publication cost a combining front-end pays after every
    /// mutating round.  The default (`len()`) matches the default
    /// `publish_root`, which clones the full contents; backends that
    /// publish by structural sharing must override this to return `0`.
    /// The flat-combining front-end feeds this into its
    /// `combine.publish_clone_keys` counter, so an accidental O(n)-per-round
    /// publication is visible in telemetry rather than silently tanking
    /// write throughput.
    fn publish_clone_keys(&self) -> usize {
        self.len()
    }

    /// Keys inside the `(lo, hi)` bound pair, in ascending order.
    ///
    /// The default materialises the full contents and slices it — `O(n)`
    /// but correct for any backend; ordered backends override with a
    /// structure-aware carve (`pbist` descends once and concatenates whole
    /// subtrees between the two boundary leaves).
    fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K>
    where
        K: Clone,
    {
        let (start, end) =
            bounds_to_rank_interval(self.len(), lo, hi, |k| self.rank(k), |k| self.contains(k));
        let mut keys = self.collect_keys();
        keys.truncate(end);
        keys.drain(..start);
        keys
    }

    /// Number of keys inside the `(lo, hi)` bound pair — two rank queries,
    /// no materialisation.
    fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        let (start, end) =
            bounds_to_rank_interval(self.len(), lo, hi, |k| self.rank(k), |k| self.contains(k));
        end - start
    }

    /// The `k`-th smallest key (0-indexed), or `None` when `k >= len()`.
    /// Also known as `select` — the inverse of [`BatchedSet::rank`].
    ///
    /// The default materialises the contents (`O(n)`); ordered backends
    /// override with an indexed descent.
    fn kth(&self, k: usize) -> Option<K>
    where
        K: Clone,
    {
        if k >= self.len() {
            return None;
        }
        self.collect_keys().into_iter().nth(k)
    }

    /// The largest key strictly smaller than `key`, or `None` when no key
    /// precedes it.  Derived from [`BatchedSet::rank`] + [`BatchedSet::kth`].
    fn predecessor(&self, key: &K) -> Option<K>
    where
        K: Clone,
    {
        match self.rank(key) {
            0 => None,
            r => self.kth(r - 1),
        }
    }

    /// The smallest key strictly greater than `key`, or `None` when no key
    /// follows it.  Derived from [`BatchedSet::rank`] + [`BatchedSet::kth`].
    fn successor(&self, key: &K) -> Option<K>
    where
        K: Clone,
    {
        self.kth(self.rank(key) + self.contains(key) as usize)
    }
}

/// An ordered key→value map driven by sorted operation batches — the
/// store-flavoured sibling of [`BatchedSet`].
///
/// Same computational model: mutations arrive as sorted, deduplicated
/// batches ([`KvBatch`] for inserts, [`Batch`] for removals) and answer
/// **per batch element, in batch order**.  Backends are expected to share
/// machinery with their set implementation (`pbist`'s leaves carry a value
/// array parallel to the key run; the sorted-array baseline keeps a second
/// parallel vector).
///
/// # Duplicate / upsert policy
///
/// [`BatchedMap::batch_insert_kv`] is an **upsert with last-wins
/// semantics**: a key already present keeps its slot but takes the batch's
/// value (the flag reports `false` = not newly inserted), and duplicate
/// keys *within* one input are resolved at [`KvBatch`] construction by
/// keeping the last occurrence.  The net effect equals applying the raw
/// input pairs one `insert(k, v)` at a time in input order.
pub trait BatchedMap<K: Ord, V> {
    /// Number of keys in the map.
    fn len(&self) -> usize;

    /// Returns `true` when the map holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key`, or `None` when absent.
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone;

    /// Number of keys strictly smaller than `key`.
    fn rank(&self, key: &K) -> usize;

    /// One lookup per batch element: `result[i]` is `batch[i]`'s value, or
    /// `None` when absent.
    fn batch_get(&self, batch: &Batch<K>) -> Vec<Option<V>>
    where
        V: Clone;

    /// Upserts every pair (see the trait-level duplicate policy):
    /// `result[i]` is `true` iff key `i` was **newly** inserted; `false`
    /// means it was present and its value has been overwritten.
    fn batch_insert_kv(&mut self, batch: &KvBatch<K, V>) -> Vec<bool>;

    /// Removes every batch key: `result[i]` is `true` iff `batch[i]` was
    /// present (and its pair has now been removed).
    fn batch_remove(&mut self, batch: &Batch<K>) -> Vec<bool>;

    /// Clones every pair out of the map in ascending key order — the
    /// durability tier's snapshot source, mirroring
    /// [`BatchedSet::collect_keys`].
    fn collect_entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone;

    /// Pairs whose keys fall inside the `(lo, hi)` bound pair, ascending.
    /// Default materialises and slices (`O(n)`); ordered backends override.
    fn range_entries(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let (start, end) = bounds_to_rank_interval(
            self.len(),
            lo,
            hi,
            |k| self.rank(k),
            |k| self.contains_key(k),
        );
        let mut entries = self.collect_entries();
        entries.truncate(end);
        entries.drain(..start);
        entries
    }

    /// Keys inside the `(lo, hi)` bound pair, ascending (the key half of
    /// [`BatchedMap::range_entries`]).
    fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K>
    where
        K: Clone,
        V: Clone,
    {
        self.range_entries(lo, hi)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    /// Number of keys inside the `(lo, hi)` bound pair — two rank queries.
    fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize {
        let (start, end) = bounds_to_rank_interval(
            self.len(),
            lo,
            hi,
            |k| self.rank(k),
            |k| self.contains_key(k),
        );
        end - start
    }

    /// The `k`-th smallest pair (0-indexed), or `None` when `k >= len()`.
    fn kth(&self, k: usize) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        if k >= self.len() {
            return None;
        }
        self.collect_entries().into_iter().nth(k)
    }

    /// The largest key strictly smaller than `key`, or `None`.
    fn predecessor(&self, key: &K) -> Option<K>
    where
        K: Clone,
        V: Clone,
    {
        match self.rank(key) {
            0 => None,
            r => self.kth(r - 1).map(|(k, _)| k),
        }
    }

    /// The smallest key strictly greater than `key`, or `None`.
    fn successor(&self, key: &K) -> Option<K>
    where
        K: Clone,
        V: Clone,
    {
        self.kth(self.rank(key) + self.contains_key(key) as usize)
            .map(|(k, _)| k)
    }

    /// Membership without cloning the value — the `contains` the rank
    /// arithmetic above needs.
    fn contains_key(&self, key: &K) -> bool;
}
///
/// Produced by [`BatchedSet::publish_root`] and consumed by the
/// flat-combining front-end's wait-free read path: the combiner publishes a
/// fresh view at the end of every mutating round, readers clone the `Arc`
/// and query it with no further coordination.  Implementations must be
/// cheap to query from many threads at once (`Send + Sync`, interior
/// immutability).
pub trait SetView<K>: Send + Sync {
    /// Number of keys in the viewed set.
    fn len(&self) -> usize;

    /// Returns `true` when the viewed set holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when `key` is present.
    fn contains(&self, key: &K) -> bool;

    /// Number of keys strictly smaller than `key`.
    fn rank(&self, key: &K) -> usize;

    /// The smallest key, or `None` for an empty view.
    fn min(&self) -> Option<&K>;

    /// The largest key, or `None` for an empty view.
    fn max(&self) -> Option<&K>;

    /// Answers one membership query per batch element into `out` (cleared
    /// first, then filled to exactly `batch.len()` entries) — the buffer
    /// reuse mirrors [`BatchedSet::batch_contains_report`].
    fn batch_contains_report(&self, batch: &Batch<K>, out: &mut Vec<bool>);

    /// Allocating variant of [`SetView::batch_contains_report`].
    fn batch_contains(&self, batch: &Batch<K>) -> Vec<bool> {
        let mut out = Vec::new();
        self.batch_contains_report(batch, &mut out);
        out
    }

    /// Clones every key out of the view in ascending order (the same
    /// contract as [`BatchedSet::collect_keys`], frozen at the view's
    /// linearisation point).
    fn collect_keys(&self) -> Vec<K>;

    /// Keys inside the `(lo, hi)` bound pair, ascending — the view-side
    /// twin of [`BatchedSet::range_keys`], frozen at the view's
    /// linearisation point.  The default materialises and slices (`O(n)`);
    /// real views override with a structure-aware carve.
    fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K>
    where
        K: Ord + Clone,
    {
        let (start, end) =
            bounds_to_rank_interval(self.len(), lo, hi, |k| self.rank(k), |k| self.contains(k));
        let mut keys = self.collect_keys();
        keys.truncate(end);
        keys.drain(..start);
        keys
    }

    /// Number of keys inside the `(lo, hi)` bound pair — two rank queries.
    fn range_count(&self, lo: Bound<&K>, hi: Bound<&K>) -> usize
    where
        K: Ord,
    {
        let (start, end) =
            bounds_to_rank_interval(self.len(), lo, hi, |k| self.rank(k), |k| self.contains(k));
        end - start
    }

    /// The `k`-th smallest key (0-indexed), or `None` when `k >= len()`.
    /// Default is `O(n)`; real views override with an indexed descent.
    fn kth(&self, k: usize) -> Option<K>
    where
        K: Clone,
    {
        if k >= self.len() {
            return None;
        }
        self.collect_keys().into_iter().nth(k)
    }

    /// The largest key strictly smaller than `key`, or `None`.
    fn predecessor(&self, key: &K) -> Option<K>
    where
        K: Ord + Clone,
    {
        match self.rank(key) {
            0 => None,
            r => self.kth(r - 1),
        }
    }

    /// The smallest key strictly greater than `key`, or `None`.
    fn successor(&self, key: &K) -> Option<K>
    where
        K: Ord + Clone,
    {
        self.kth(self.rank(key) + self.contains(key) as usize)
    }
}

/// The fallback [`SetView`]: a shared sorted array, queried by binary
/// search.
///
/// [`BatchedSet::publish_root`]'s default implementation collects the set's
/// keys into one of these.  Backends that already keep their keys in a
/// sorted array (`baselines::SortedArraySet`) can share the allocation via
/// [`SortedVecView::from_arc`] and publish in `O(1)`.
pub struct SortedVecView<K> {
    keys: Arc<Vec<K>>,
}

impl<K: Ord> SortedVecView<K> {
    /// Wraps a sorted, deduplicated key vector (checked with a
    /// `debug_assert!`).
    pub fn new(keys: Vec<K>) -> SortedVecView<K> {
        SortedVecView::from_arc(Arc::new(keys))
    }

    /// Shares an already-`Arc`'d sorted, deduplicated key vector without
    /// copying it.
    pub fn from_arc(keys: Arc<Vec<K>>) -> SortedVecView<K> {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly increasing"
        );
        SortedVecView { keys }
    }
}

impl<K: Ord + Clone + Send + Sync> SetView<K> for SortedVecView<K> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    fn rank(&self, key: &K) -> usize {
        self.keys.partition_point(|k| k < key)
    }

    fn min(&self) -> Option<&K> {
        self.keys.first()
    }

    fn max(&self) -> Option<&K> {
        self.keys.last()
    }

    fn batch_contains_report(&self, batch: &Batch<K>, out: &mut Vec<bool>) {
        out.clear();
        out.extend(batch.iter().map(|q| self.contains(q)));
    }

    fn collect_keys(&self) -> Vec<K> {
        self.keys.as_ref().clone()
    }

    // Ordered queries on a sorted array are direct slice operations —
    // `O(log n)` to locate plus the output copy, no full materialisation.

    fn range_keys(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<K> {
        let (start, end) = bounds_to_rank_interval(
            self.keys.len(),
            lo,
            hi,
            |k| self.rank(k),
            |k| self.contains(k),
        );
        self.keys[start..end].to_vec()
    }

    fn kth(&self, k: usize) -> Option<K> {
        self.keys.get(k).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let batch = Batch::from_unsorted(vec![3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3]);
        assert_eq!(batch.as_slice(), &[1, 2, 3, 4, 5, 6, 9]);
        assert_eq!(batch.len(), 7);
        assert!(!batch.is_empty());
    }

    #[test]
    fn from_sorted_accepts_strictly_increasing() {
        let batch = Batch::from_sorted(vec![1u64, 2, 3]).unwrap();
        assert_eq!(batch.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn from_sorted_reports_first_violation() {
        assert_eq!(
            Batch::from_sorted(vec![1u64, 2, 2, 3]),
            Err(BatchError::Duplicate { index: 1 })
        );
        assert_eq!(
            Batch::from_sorted(vec![5u64, 4]),
            Err(BatchError::OutOfOrder { index: 0 })
        );
        // A mixed violation reports the *first* offending pair only.
        assert_eq!(
            Batch::from_sorted(vec![1u64, 3, 2, 2]),
            Err(BatchError::OutOfOrder { index: 1 })
        );
    }

    /// Regression test: the rendered message must name the offending index
    /// (and which way the invariant broke), not just carry it in the typed
    /// error — a failed ingest log line has the string, not the enum.
    #[test]
    fn from_sorted_error_message_names_the_offending_index() {
        let dup = Batch::from_sorted(vec![10u64, 20, 20]).unwrap_err();
        assert_eq!(dup.index(), 1);
        let msg = dup.to_string();
        assert!(msg.contains("keys[1]"), "{msg}");
        assert!(msg.contains("duplicate key at index 1"), "{msg}");

        let ooo = Batch::from_sorted(vec![10u64, 20, 15]).unwrap_err();
        assert_eq!(ooo.index(), 1);
        let msg = ooo.to_string();
        assert!(msg.contains("keys[1]"), "{msg}");
        assert!(msg.contains("out of order at index 1"), "{msg}");

        let deep = BatchError::Duplicate { index: 7 }.to_string();
        assert!(deep.contains("index 7"), "{deep}");
    }

    #[test]
    fn empty_batch_is_empty() {
        let batch: Batch<u64> = Batch::empty();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert_eq!(Batch::<u64>::default(), batch);
    }

    #[test]
    fn split_at_offsets_carves_contiguous_sub_batches() {
        let batch = Batch::from_unsorted(vec![1u64, 3, 5, 7, 9, 11]);
        let parts = batch.split_at_offsets(&[0, 2, 2, 5, 6]);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].as_slice(), &[1, 3]);
        assert!(parts[1].is_empty());
        assert_eq!(parts[2].as_slice(), &[5, 7, 9]);
        assert_eq!(parts[3].as_slice(), &[11]);
        // Degenerate scans are fine: one segment, or an empty batch.
        assert_eq!(batch.split_at_offsets(&[0, 6])[0], batch);
        let empty: Batch<u64> = Batch::empty();
        assert!(empty.split_at_offsets(&[0, 0])[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "offsets must end at the batch length")]
    fn split_at_offsets_rejects_short_scans() {
        Batch::from_unsorted(vec![1u64, 2, 3]).split_at_offsets(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "offsets must be non-decreasing")]
    fn split_at_offsets_rejects_decreasing_scans() {
        Batch::from_unsorted(vec![1u64, 2, 3]).split_at_offsets(&[0, 2, 1, 3]);
    }

    #[test]
    fn merge_recombines_disjoint_and_overlapping_batches() {
        let a = Batch::from_unsorted(vec![1u64, 3, 5]);
        let b = Batch::from_unsorted(vec![2u64, 3, 6]);
        assert_eq!(a.merge(&b).as_slice(), &[1, 2, 3, 5, 6]);
        assert_eq!(b.merge(&a), a.merge(&b), "merge is symmetric");
        let empty: Batch<u64> = Batch::empty();
        assert_eq!(a.merge(&empty), a);
        assert_eq!(empty.merge(&a), a);
        // Split-then-merge round-trips.
        let batch = Batch::from_unsorted((0..100u64).collect());
        let parts = batch.split_at_offsets(&[0, 33, 66, 100]);
        let rejoined = parts[0].merge(&parts[1]).merge(&parts[2]);
        assert_eq!(rejoined, batch);
    }

    #[test]
    fn deref_exposes_slice_methods() {
        let batch = Batch::from_unsorted(vec![10u64, 20, 30]);
        assert_eq!(batch.iter().sum::<u64>(), 60);
        assert_eq!(batch.binary_search(&20), Ok(1));
    }

    /// Minimal trait impl exercising only the *allocating* batch methods, so
    /// the `_report` defaults below are the trait's own delegation.
    struct ToySet(Vec<u64>);

    impl BatchedSet<u64> for ToySet {
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

    #[test]
    fn collect_keys_returns_sorted_contents() {
        let set = ToySet(vec![2, 4, 6]);
        let keys = set.collect_keys();
        assert_eq!(keys, vec![2, 4, 6]);
        assert!(Batch::from_sorted(keys).is_ok(), "collects a valid batch");
    }

    #[test]
    fn default_publish_root_freezes_the_contents() {
        let mut set = ToySet(vec![2, 4, 6]);
        let view = set.publish_root();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert!(view.contains(&4) && !view.contains(&5));
        assert_eq!(view.rank(&5), 2);
        assert_eq!(view.min(), Some(&2));
        assert_eq!(view.max(), Some(&6));
        assert_eq!(
            view.batch_contains(&Batch::from_unsorted(vec![1, 2, 6])),
            vec![false, true, true]
        );
        // Mutations after a publication must not reach the frozen view.
        set.insert_one(&5);
        assert!(!view.contains(&5), "published views are immutable");
        assert_eq!(view.collect_keys(), vec![2, 4, 6]);
        let fresh = set.publish_root();
        assert!(fresh.contains(&5));
        let mut out = vec![true; 8]; // stale contents must be cleared
        fresh.batch_contains_report(&Batch::empty(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn sorted_vec_view_shares_an_arc_without_copying() {
        let keys = Arc::new(vec![1u64, 3, 5]);
        let view = SortedVecView::from_arc(Arc::clone(&keys));
        assert_eq!(Arc::strong_count(&keys), 2, "from_arc must not copy");
        assert!(view.contains(&3));
        assert_eq!(view.rank(&4), 2);
        let empty: SortedVecView<u64> = SortedVecView::new(Vec::new());
        assert!(SetView::is_empty(&empty));
        assert_eq!(SetView::min(&empty), None);
        assert_eq!(SetView::max(&empty), None);
    }

    #[test]
    fn key_codec_round_trips_and_preserves_order() {
        fn check<K: KeyCodec + Ord + Copy + std::fmt::Debug>(samples: &[K]) {
            let mut encoded: Vec<(Vec<u8>, K)> = samples
                .iter()
                .map(|k| {
                    let mut buf = vec![0u8; K::WIDTH];
                    k.encode(&mut buf);
                    assert_eq!(K::decode(&buf), *k, "round trip of {k:?}");
                    (buf, *k)
                })
                .collect();
            // Bytewise order must agree with key order.
            encoded.sort();
            let mut keys: Vec<K> = encoded.into_iter().map(|(_, k)| k).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            keys.dedup();
            sorted.dedup();
            assert_eq!(keys, sorted, "byte order disagrees with key order");
        }
        check::<u64>(&[0, 1, 42, u64::MAX / 2, u64::MAX]);
        check::<u32>(&[0, 7, u32::MAX]);
        check::<i64>(&[i64::MIN, -5, -1, 0, 1, 5, i64::MAX]);
        check::<i32>(&[i32::MIN, -1, 0, i32::MAX]);
        check::<u8>(&[0, 128, 255]);
        check::<u128>(&[0, u128::from(u64::MAX) + 1, u128::MAX]);
        check::<i128>(&[i128::MIN, -1, 0, i128::MAX]);
        assert_eq!(<u64 as KeyCodec>::WIDTH, 8);
        assert_eq!(<i32 as KeyCodec>::WIDTH, 4);
    }

    #[test]
    fn unit_codec_round_trips_in_zero_bytes() {
        assert_eq!(<() as KeyCodec>::WIDTH, 0);
        let mut buf: [u8; 0] = [];
        ().encode(&mut buf);
        <() as KeyCodec>::decode(&buf);
    }

    #[test]
    fn default_report_variants_match_allocating_ones() {
        let mut set = ToySet(vec![2, 4, 6]);
        let batch = Batch::from_unsorted(vec![1u64, 2, 6, 9]);
        let mut out = vec![true; 32]; // stale contents must be cleared

        set.batch_contains_report(&batch, &mut out);
        assert_eq!(out, vec![false, true, true, false]);

        set.batch_insert_report(&batch, &mut out);
        assert_eq!(out, vec![true, false, false, true]);
        assert_eq!(set.0, vec![1, 2, 4, 6, 9]);

        set.batch_remove_report(&batch, &mut out);
        assert_eq!(out, vec![true, true, true, true]);
        assert_eq!(set.0, vec![4]);
    }

    #[test]
    fn default_point_mutators_match_singleton_batches() {
        let mut set = ToySet(vec![3, 5]);
        assert!(set.insert_one(&4));
        assert!(!set.insert_one(&4));
        assert!(set.remove_one(&3));
        assert!(!set.remove_one(&3));
        assert_eq!(set.0, vec![4, 5]);
    }

    #[test]
    fn kv_batch_from_unsorted_is_last_wins() {
        let batch =
            KvBatch::from_unsorted(vec![(5u64, "a"), (1, "b"), (5, "c"), (5, "d"), (3, "e")]);
        assert_eq!(batch.keys(), &[1, 3, 5]);
        assert_eq!(batch.vals(), &["b", "e", "d"]);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(
            batch.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            vec![(1, "b"), (3, "e"), (5, "d")]
        );
        assert_eq!(batch.key_batch().as_slice(), &[1, 3, 5]);
        let (keys, vals) = batch.into_parts();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(vals, vec!["b", "e", "d"]);
        assert!(KvBatch::<u64, ()>::empty().is_empty());
    }

    #[test]
    fn kv_batch_from_sorted_validates_keys() {
        assert!(KvBatch::from_sorted(vec![(1u64, 'x'), (2, 'y')]).is_ok());
        assert_eq!(
            KvBatch::from_sorted(vec![(1u64, 'x'), (1, 'y')]),
            Err(BatchError::Duplicate { index: 0 })
        );
        assert_eq!(
            KvBatch::from_sorted(vec![(2u64, 'x'), (1, 'y')]),
            Err(BatchError::OutOfOrder { index: 0 })
        );
    }

    #[test]
    fn bounds_to_rank_interval_covers_all_bound_shapes() {
        let keys = [10u64, 20, 30, 40];
        let interval = |lo, hi| {
            bounds_to_rank_interval(
                keys.len(),
                lo,
                hi,
                |k| keys.partition_point(|x| x < k),
                |k| keys.binary_search(k).is_ok(),
            )
        };
        assert_eq!(interval(Bound::Unbounded, Bound::Unbounded), (0, 4));
        assert_eq!(interval(Bound::Included(&20), Bound::Included(&30)), (1, 3));
        assert_eq!(interval(Bound::Excluded(&20), Bound::Excluded(&30)), (2, 2));
        assert_eq!(interval(Bound::Included(&15), Bound::Excluded(&35)), (1, 3));
        // Inverted bounds clamp to the empty interval instead of panicking.
        assert_eq!(interval(Bound::Included(&40), Bound::Excluded(&10)), (3, 3));
    }

    /// The `BatchedSet` ordered-query defaults, driven through `ToySet`
    /// (which overrides none of them), against a `BTreeSet` oracle.
    #[test]
    fn default_ordered_queries_match_btreeset() {
        use std::collections::BTreeSet;
        use std::ops::Bound::*;
        let keys: Vec<u64> = (0..40).map(|i| i * 5).collect();
        let set = ToySet(keys.clone());
        let oracle: BTreeSet<u64> = keys.iter().copied().collect();

        for lo in [
            Unbounded,
            Included(&25u64),
            Excluded(&25u64),
            Included(&27u64),
        ] {
            for hi in [
                Unbounded,
                Included(&150u64),
                Excluded(&150u64),
                Excluded(&152u64),
            ] {
                let expect: Vec<u64> = oracle.range((lo, hi)).copied().collect();
                assert_eq!(set.range_keys(lo, hi), expect, "{lo:?}..{hi:?}");
                assert_eq!(set.range_count(lo, hi), expect.len(), "{lo:?}..{hi:?}");
            }
        }
        assert_eq!(set.kth(0), Some(0));
        assert_eq!(set.kth(39), Some(195));
        assert_eq!(set.kth(40), None);
        assert_eq!(set.predecessor(&0), None);
        assert_eq!(set.predecessor(&1), Some(0));
        assert_eq!(set.predecessor(&25), Some(20));
        assert_eq!(set.successor(&195), None);
        assert_eq!(set.successor(&194), Some(195));
        assert_eq!(set.successor(&25), Some(30));
        // Views share the same defaults.
        let view = set.publish_root();
        assert_eq!(
            view.range_keys(Included(&25), Excluded(&150)),
            set.range_keys(Included(&25), Excluded(&150))
        );
        assert_eq!(view.range_count(Unbounded, Unbounded), 40);
        assert_eq!(view.kth(5), Some(25));
        assert_eq!(view.predecessor(&25), Some(20));
        assert_eq!(view.successor(&25), Some(30));
        // publish_clone_keys: ToySet keeps the O(n) default, so the cost
        // it reports is exactly its length.
        assert_eq!(set.publish_clone_keys(), 40);
    }

    /// Minimal `BatchedMap` impl exercising the trait's derived defaults.
    struct ToyMap(Vec<(u64, char)>);

    impl BatchedMap<u64, char> for ToyMap {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, key: &u64) -> Option<char> {
            self.0
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|i| self.0[i].1)
        }
        fn rank(&self, key: &u64) -> usize {
            self.0.partition_point(|(k, _)| k < key)
        }
        fn batch_get(&self, batch: &Batch<u64>) -> Vec<Option<char>> {
            batch.iter().map(|q| self.get(q)).collect()
        }
        fn batch_insert_kv(&mut self, batch: &KvBatch<u64, char>) -> Vec<bool> {
            batch
                .iter()
                .map(|(k, v)| match self.0.binary_search_by(|(x, _)| x.cmp(k)) {
                    Ok(i) => {
                        self.0[i].1 = *v;
                        false
                    }
                    Err(i) => {
                        self.0.insert(i, (*k, *v));
                        true
                    }
                })
                .collect()
        }
        fn batch_remove(&mut self, batch: &Batch<u64>) -> Vec<bool> {
            batch
                .iter()
                .map(|k| match self.0.binary_search_by(|(x, _)| x.cmp(k)) {
                    Ok(i) => {
                        self.0.remove(i);
                        true
                    }
                    Err(_) => false,
                })
                .collect()
        }
        fn collect_entries(&self) -> Vec<(u64, char)> {
            self.0.clone()
        }
        fn contains_key(&self, key: &u64) -> bool {
            self.get(key).is_some()
        }
    }

    #[test]
    fn map_trait_upserts_and_answers_ordered_queries() {
        use std::ops::Bound::*;
        let mut map = ToyMap(Vec::new());
        let ins = map.batch_insert_kv(&KvBatch::from_unsorted(vec![
            (3u64, 'a'),
            (1, 'b'),
            (3, 'c'),
        ]));
        assert_eq!(ins, vec![true, true], "two distinct keys after dedup");
        assert_eq!(map.get(&3), Some('c'), "last-wins within the batch");
        // Upsert: present key keeps its slot, takes the new value, flags false.
        let ins = map.batch_insert_kv(&KvBatch::from_unsorted(vec![(3u64, 'z'), (9, 'q')]));
        assert_eq!(ins, vec![false, true]);
        assert_eq!(map.get(&3), Some('z'));
        assert_eq!(
            map.batch_get(&Batch::from_unsorted(vec![1, 2, 9])),
            vec![Some('b'), None, Some('q')]
        );
        assert_eq!(map.len(), 3);
        assert!(!map.is_empty());
        assert_eq!(
            map.range_entries(Included(&1), Excluded(&9)),
            vec![(1, 'b'), (3, 'z')]
        );
        assert_eq!(map.range_keys(Unbounded, Unbounded), vec![1, 3, 9]);
        assert_eq!(map.range_count(Excluded(&1), Unbounded), 2);
        assert_eq!(map.kth(0), Some((1, 'b')));
        assert_eq!(map.kth(3), None);
        assert_eq!(map.predecessor(&3), Some(1));
        assert_eq!(map.predecessor(&1), None);
        assert_eq!(map.successor(&3), Some(9));
        assert_eq!(map.successor(&9), None);
        assert!(map.contains_key(&9));
        let gone = map.batch_remove(&Batch::from_unsorted(vec![1, 5]));
        assert_eq!(gone, vec![true, false]);
        assert_eq!(map.collect_entries(), vec![(3, 'z'), (9, 'q')]);
    }
}
