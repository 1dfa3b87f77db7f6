//! Seeded operation generators, one per workload.
//!
//! A generator is a pure function of its seed: the checker replays a clone
//! taken before the run to regenerate exactly the operations a client
//! issued.  Client `id` of `clients` only ever names keys `≡ id (mod
//! clients)`, so each client's history is sequential and checkable against
//! its own oracle.

use workloads::SplitMix64;

/// Keys of `point_mix` and `batch_setops` are uniform over `[0, 2^40)`.
pub const KEY_SPACE: u64 = 1 << 40;

/// What an operation does to the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Membership test (the read).
    Contains,
    /// Insert (a write).
    Insert,
    /// Remove (a write).
    Remove,
}

impl Kind {
    /// Every kind, in declaration order (`kind as usize` indexes it).
    pub const ALL: [Kind; 3] = [Kind::Contains, Kind::Insert, Kind::Remove];

    /// Lower-case name, as used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Contains => "contains",
            Kind::Insert => "insert",
            Kind::Remove => "remove",
        }
    }

    /// Whether the operation is a write.
    pub fn is_write(self) -> bool {
        self != Kind::Contains
    }
}

/// One call into the tier: a point operation or an unsorted batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A point operation on one key.
    Point(Kind, u64),
    /// A batch operation on unsorted keys (duplicates allowed; the caller
    /// normalises them with `Batch::from_unsorted`).
    Batch(Kind, Vec<u64>),
}

/// A client's operation stream.
pub trait OpGen: Send {
    /// The next operation.
    fn next_op(&mut self) -> Op;

    /// Makes the stream's own bookkeeping resident at its full size, so it
    /// is not counted as the program's memory when measured later.
    fn reserve(&mut self) {}
}

/// Doubles `live`'s capacity and writes the spare part once.
fn reserve_live(live: &mut Vec<u64>) {
    let len = live.len();
    live.resize(2 * len, 0);
    live.truncate(len);
}

/// A per-client stream seed derived from the run seed.
pub fn client_seed(seed: u64, salt: u64, client: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ salt.rotate_left(17) ^ client.rotate_left(41));
    rng.next_u64()
}

/// `point_mix`: 80% `contains` (half on a live key, half on a fresh one),
/// 10% `insert` of a fresh key, 10% `remove` of a live key, all uniform over
/// the client's share of [`KEY_SPACE`].
#[derive(Debug, Clone)]
pub struct PointMix {
    rng: SplitMix64,
    id: u64,
    clients: u64,
    live: Vec<u64>,
}

impl PointMix {
    /// Client `id`'s stream; `live` is its share of the prefill.
    pub fn new(seed: u64, id: u64, clients: u64, live: Vec<u64>) -> PointMix {
        PointMix {
            rng: SplitMix64::new(seed),
            id,
            clients,
            live,
        }
    }

    fn fresh(&mut self) -> u64 {
        self.rng.next_below(KEY_SPACE / self.clients) * self.clients + self.id
    }
}

impl OpGen for PointMix {
    fn reserve(&mut self) {
        reserve_live(&mut self.live);
    }

    fn next_op(&mut self) -> Op {
        let roll = self.rng.next_below(100);
        if roll < 80 {
            let key = if self.rng.next_u64() & 1 == 0 && !self.live.is_empty() {
                self.live[self.rng.next_below(self.live.len() as u64) as usize]
            } else {
                self.fresh()
            };
            Op::Point(Kind::Contains, key)
        } else if roll >= 90 && !self.live.is_empty() {
            let i = self.rng.next_below(self.live.len() as u64) as usize;
            Op::Point(Kind::Remove, self.live.swap_remove(i))
        } else {
            let key = self.fresh();
            self.live.push(key);
            Op::Point(Kind::Insert, key)
        }
    }
}

/// `batch_setops`: batches of `batch` keys.  50% intersection
/// (`batch_contains`: half live keys, half fresh), 25% union
/// (`batch_insert` of fresh keys), 25% difference (`batch_remove` of live
/// keys).  A write is a union while the set holds at most its prefill and
/// a difference otherwise, so the set size stays within one batch of the
/// prefill instead of random-walking away from it.
#[derive(Debug, Clone)]
pub struct SetOps {
    rng: SplitMix64,
    batch: usize,
    prefill: usize,
    live: Vec<u64>,
}

impl SetOps {
    /// The single caller's stream over the prefilled `live` keys.
    pub fn new(seed: u64, batch: usize, live: Vec<u64>) -> SetOps {
        SetOps {
            rng: SplitMix64::new(seed),
            batch,
            prefill: live.len(),
            live,
        }
    }
}

impl OpGen for SetOps {
    fn reserve(&mut self) {
        reserve_live(&mut self.live);
    }

    fn next_op(&mut self) -> Op {
        let roll = self.rng.next_below(2);
        let mut keys = Vec::with_capacity(self.batch);
        let kind = match roll {
            0 => {
                for i in 0..self.batch {
                    if i % 2 == 0 && !self.live.is_empty() {
                        keys.push(self.live[self.rng.next_below(self.live.len() as u64) as usize]);
                    } else {
                        keys.push(self.rng.next_below(KEY_SPACE));
                    }
                }
                Kind::Contains
            }
            _ if self.live.len() > self.prefill && self.live.len() >= self.batch => {
                for _ in 0..self.batch {
                    let i = self.rng.next_below(self.live.len() as u64) as usize;
                    keys.push(self.live.swap_remove(i));
                }
                Kind::Remove
            }
            _ => {
                for _ in 0..self.batch {
                    let key = self.rng.next_below(KEY_SPACE);
                    keys.push(key);
                    self.live.push(key);
                }
                Kind::Insert
            }
        };
        Op::Batch(kind, keys)
    }
}

/// How far back `durable_ingest`'s reads look, in the client's own keys.
const RECENT: u64 = 1024;

/// `durable_ingest`: a time-ordered sliding window.  40% insert the
/// client's next increasing key, 40% remove its oldest live key, 20%
/// `contains` one of its [`RECENT`] newest keys.
#[derive(Debug, Clone)]
pub struct Ingest {
    rng: SplitMix64,
    clients: u64,
    /// The client's next new key.
    next: u64,
    /// The client's oldest live key (`== next` when it holds none).
    oldest: u64,
}

impl Ingest {
    /// Client `id`'s stream over a prefill of the keys `0..prefill`
    /// (`prefill` a multiple of `clients`).
    pub fn new(seed: u64, id: u64, clients: u64, prefill: u64) -> Ingest {
        assert_eq!(prefill % clients, 0, "prefill must split evenly");
        Ingest {
            rng: SplitMix64::new(seed),
            clients,
            next: prefill + id,
            oldest: id,
        }
    }
}

impl OpGen for Ingest {
    fn next_op(&mut self) -> Op {
        let roll = self.rng.next_below(10);
        let live = (self.next - self.oldest) / self.clients;
        if roll < 2 && live > 0 {
            let back = 1 + self.rng.next_below(live.min(RECENT));
            Op::Point(Kind::Contains, self.next - back * self.clients)
        } else if roll < 6 && live > 0 {
            let key = self.oldest;
            self.oldest += self.clients;
            Op::Point(Kind::Remove, key)
        } else {
            let key = self.next;
            self.next += self.clients;
            Op::Point(Kind::Insert, key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(gen: &mut dyn OpGen, n: usize) -> Vec<Op> {
        (0..n).map(|_| gen.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_clients_stay_in_their_class() {
        let mut a = PointMix::new(7, 1, 2, vec![1, 3, 5]);
        let mut b = a.clone();
        let ops = take(&mut a, 5000);
        assert_eq!(ops, take(&mut b, 5000));
        for op in &ops {
            let Op::Point(_, key) = op else {
                panic!("point_mix issues point ops")
            };
            assert_eq!(key % 2, 1);
            assert!(*key < KEY_SPACE);
        }
        let mut ingest = Ingest::new(3, 0, 2, 10);
        for op in take(&mut ingest, 5000) {
            let Op::Point(_, key) = op else {
                panic!("durable_ingest issues point ops")
            };
            assert_eq!(key % 2, 0);
        }
    }

    #[test]
    fn setops_batches_have_the_requested_size_and_keep_the_set_size() {
        let mut gen = SetOps::new(5, 64, (0..1000).collect());
        let mut size = 1000i64;
        let mut reads = 0;
        for op in take(&mut gen, 400) {
            let Op::Batch(kind, keys) = op else {
                panic!("batch_setops issues batches")
            };
            assert_eq!(keys.len(), 64);
            match kind {
                Kind::Contains => reads += 1,
                Kind::Insert => size += 64,
                Kind::Remove => size -= 64,
            }
            assert!((1000..=1064).contains(&size), "size {size}");
        }
        assert!((150..250).contains(&reads), "{reads} reads of 400");
    }
}
