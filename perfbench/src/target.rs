//! The one interface the benchmark drives every layer through.
//!
//! Each implementation calls a layer's public API and nothing else; the
//! concurrent tiers are driven by several client threads, the raw backends
//! (single-threaded ladder rungs) from one.

use std::cell::RefCell;
use std::sync::Arc;

use batchapi::{Batch, BatchedSet, SetView};
use combine::ConcurrentSet;
use pbist::IstSet;
use service::{DurableTier, RangeRouter, ShardedSet};

use crate::gen::Kind;

/// The backend every tier is built on.
pub type Ist = IstSet<u64>;
/// `combine` over `pbist`.
pub type Front = ConcurrentSet<u64, Ist>;
/// `service` over `combine` over `pbist`.
pub type Sharded = ShardedSet<u64, Ist, RangeRouter<u64>>;
/// `service`'s durable tier: `durable` shards over `combine` over `pbist`.
pub type Tier = DurableTier<u64, Ist, RangeRouter<u64>>;

/// A set the benchmark can issue operations to.  `Err` is an error the
/// layer returned; a panic is caught by the caller.
pub trait Target {
    /// The layer this target's calls enter first (span names).
    fn layer(&self) -> &'static str;

    /// One point operation; the result flag as the layer reports it.
    fn point(&self, kind: Kind, key: u64) -> Result<bool, String>;

    /// One batch operation; one flag per key of `batch` into `out`.
    fn batch(&self, kind: Kind, batch: &Batch<u64>, out: &mut Vec<bool>) -> Result<(), String>;
}

impl Target for Front {
    fn layer(&self) -> &'static str {
        "combine"
    }

    fn point(&self, kind: Kind, key: u64) -> Result<bool, String> {
        Ok(match kind {
            Kind::Contains => self.contains(&key),
            Kind::Insert => self.insert(key),
            Kind::Remove => self.remove(&key),
        })
    }

    fn batch(&self, kind: Kind, batch: &Batch<u64>, out: &mut Vec<bool>) -> Result<(), String> {
        match kind {
            Kind::Contains => self.batch_contains_report(batch, out),
            Kind::Insert => self.batch_insert_report(batch, out),
            Kind::Remove => self.batch_remove_report(batch, out),
        }
        Ok(())
    }
}

impl Target for Sharded {
    fn layer(&self) -> &'static str {
        "service"
    }

    fn point(&self, kind: Kind, key: u64) -> Result<bool, String> {
        Ok(match kind {
            Kind::Contains => self.contains(&key),
            Kind::Insert => self.insert(key),
            Kind::Remove => self.remove(&key),
        })
    }

    fn batch(&self, kind: Kind, batch: &Batch<u64>, out: &mut Vec<bool>) -> Result<(), String> {
        match kind {
            Kind::Contains => self.batch_contains_report(batch, out),
            Kind::Insert => self.batch_insert_report(batch, out),
            Kind::Remove => self.batch_remove_report(batch, out),
        }
        Ok(())
    }
}

impl Target for Tier {
    fn layer(&self) -> &'static str {
        "durable"
    }

    fn point(&self, kind: Kind, key: u64) -> Result<bool, String> {
        match kind {
            Kind::Contains => self.contains(&key),
            Kind::Insert => self.insert(key),
            Kind::Remove => self.remove(&key),
        }
        .map_err(|e| e.to_string())
    }

    fn batch(&self, kind: Kind, batch: &Batch<u64>, out: &mut Vec<bool>) -> Result<(), String> {
        *out = match kind {
            Kind::Contains => self.batch_contains(batch),
            Kind::Insert => self.batch_insert(batch),
            Kind::Remove => self.batch_remove(batch),
        }
        .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// A bare backend driven through its `BatchedSet` API from one thread —
/// the bottom rungs of the cost ladder.  With `hold_view`, a
/// `publish_root()` view is taken after every write and held until the
/// next, so every write pays the copy-on-write a combining front-end pays
/// for its published snapshot.
pub struct Raw<S> {
    set: RefCell<S>,
    view: Option<RefCell<Arc<dyn SetView<u64>>>>,
}

impl<S: BatchedSet<u64>> Raw<S> {
    /// Wraps `set`.
    pub fn new(set: S, hold_view: bool) -> Raw<S> {
        let view = hold_view.then(|| RefCell::new(set.publish_root()));
        Raw {
            set: RefCell::new(set),
            view,
        }
    }

    fn republish(&self) {
        if let Some(view) = &self.view {
            *view.borrow_mut() = self.set.borrow().publish_root();
        }
    }
}

impl<S: BatchedSet<u64>> Target for Raw<S> {
    fn layer(&self) -> &'static str {
        "backend"
    }

    fn point(&self, kind: Kind, key: u64) -> Result<bool, String> {
        let result = match kind {
            Kind::Contains => return Ok(self.set.borrow().contains(&key)),
            Kind::Insert => self.set.borrow_mut().insert_one(&key),
            Kind::Remove => self.set.borrow_mut().remove_one(&key),
        };
        self.republish();
        Ok(result)
    }

    fn batch(&self, kind: Kind, batch: &Batch<u64>, out: &mut Vec<bool>) -> Result<(), String> {
        match kind {
            Kind::Contains => {
                self.set.borrow().batch_contains_report(batch, out);
                return Ok(());
            }
            Kind::Insert => self.set.borrow_mut().batch_insert_report(batch, out),
            Kind::Remove => self.set.borrow_mut().batch_remove_report(batch, out),
        }
        self.republish();
        Ok(())
    }
}
