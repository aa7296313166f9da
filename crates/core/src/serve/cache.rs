//! Pilot-artifact cache for the serving layer: a keyed LRU plus an
//! in-flight coalescing map.
//!
//! The cache stores the ε-independent pilot artifacts
//! ([`PilotState`](crate::coordinator::PilotState): the initial model
//! `m₀` and its Fisher statistics) keyed by
//! `(dataset_version, epoch, n₀, seed)` — exactly the inputs the pilot
//! phase depends on. Three invariants carry the serving layer's
//! correctness:
//!
//! * **No stale pilots.** The dataset version *and epoch* are part of
//!   the key, so a pilot trained on one pool state can never be served
//!   for another, and eviction only ever costs time (the pilot is
//!   retrained bit-identically on the next miss), never changes a
//!   result.
//! * **Eager retirement.** Streaming datasets carry a per-dataset
//!   epoch **floor** ([`PilotCache::retire`]): entries below it are
//!   dropped immediately, and — the mid-coalesce guarantee — a leader
//!   that *completes* a pilot for a below-floor epoch still publishes
//!   to its waiters (their responses honestly describe the snapshot
//!   they were computed on) but the pilot is **not** admitted to the
//!   LRU, so no later query can be served from it.
//! * **No leaked in-flight entries.** A miss registers the key in the
//!   coalescing map before training; every exit path — success, train
//!   error, worker panic — removes the entry and publishes a terminal
//!   result to the waiters. A failure therefore never wedges later
//!   queries for the same key: the next arrival simply becomes the new
//!   leader.

use crate::coordinator::PilotState;
use crate::serve::ServeError;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

/// Cache key for pilot artifacts:
/// `(dataset_version, epoch, n₀, seed)`.
///
/// `epoch` is the streaming pool's snapshot epoch (always 0 for frozen
/// shards). `n₀` is the *effective* initial sample size
/// (`min(initial_sample_size, N)`), matching what the coordinator
/// actually trains on, so two configured sizes that clamp to the same
/// `n₀` share one pilot — the same rule `Session` uses.
pub type PilotKey = (u64, u64, usize, u64);

/// A cache image crossing the warm-state sidecar boundary: every
/// entry in recency order (oldest first) plus the per-dataset epoch
/// floors.
pub type WarmImage = (Vec<(PilotKey, Arc<PilotState>)>, HashMap<u64, u64>);

/// A keyed LRU over pilot artifacts.
///
/// Eviction is least-recently-*used* (hits refresh recency), with a
/// hard capacity. Entries live in a `HashMap` stamped with a monotonic
/// use tick; a `BTreeMap` keyed by tick mirrors the recency order, so
/// the victim is an `O(log len)` pop of the smallest tick instead of a
/// full scan — with a grid sweep per query, servers now see pilot
/// traffic per *grid point*, and the old `O(len)` eviction scan turned
/// insert-heavy phases quadratic. Ticks are unique (one per operation),
/// so the ordered index names exactly one victim — the same entry the
/// scan used to pick.
#[derive(Debug)]
pub struct PilotLru {
    capacity: usize,
    tick: u64,
    entries: HashMap<PilotKey, (Arc<PilotState>, u64)>,
    /// Recency index: tick → key, mirroring `entries`' tick stamps.
    by_tick: BTreeMap<u64, PilotKey>,
    evictions: u64,
}

impl PilotLru {
    /// Empty LRU holding at most `capacity` pilots.
    ///
    /// # Panics
    /// Panics if `capacity` is 0 (validated away by
    /// [`ServeConfig::validate`](crate::config::ServeConfig::validate)).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pilot cache capacity must be at least 1");
        PilotLru {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            by_tick: BTreeMap::new(),
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &PilotKey) -> Option<Arc<PilotState>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        self.by_tick.remove(&entry.1);
        entry.1 = tick;
        self.by_tick.insert(tick, *key);
        Some(entry.0.clone())
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used
    /// entry when the cache is over capacity.
    pub fn insert(&mut self, key: PilotKey, pilot: Arc<PilotState>) {
        self.tick += 1;
        if let Some((_, old_tick)) = self.entries.insert(key, (pilot, self.tick)) {
            self.by_tick.remove(&old_tick);
        }
        self.by_tick.insert(self.tick, key);
        while self.entries.len() > self.capacity {
            let (_, oldest) = self
                .by_tick
                .pop_first()
                .expect("recency index mirrors entries");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Number of cached pilots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drop every entry of `dataset` with an epoch below `floor`,
    /// returning how many were retired. Retirements are counted
    /// separately from capacity evictions.
    pub fn retire(&mut self, dataset: u64, floor: u64) -> usize {
        let victims: Vec<PilotKey> = self
            .entries
            .keys()
            .filter(|k| k.0 == dataset && k.1 < floor)
            .copied()
            .collect();
        for key in &victims {
            if let Some((_, tick)) = self.entries.remove(key) {
                self.by_tick.remove(&tick);
            }
        }
        victims.len()
    }

    /// Drop every cached pilot (results are unaffected; subsequent
    /// queries retrain on demand).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_tick.clear();
    }

    /// Every entry in recency order, **oldest first** — replaying the
    /// list through [`PilotLru::insert`] reproduces the same eviction
    /// order, which is how the warm-state sidecar round-trips recency.
    pub fn export(&self) -> Vec<(PilotKey, Arc<PilotState>)> {
        self.by_tick
            .values()
            .map(|key| (*key, self.entries[key].0.clone()))
            .collect()
    }
}

/// The published terminal result of one in-flight pilot computation.
type PilotResult = Result<Arc<PilotState>, ServeError>;

/// One in-flight pilot computation: the leader publishes exactly one
/// terminal result; coalesced waiters block on the condvar.
#[derive(Debug, Default)]
pub struct Inflight {
    slot: Mutex<Option<PilotResult>>,
    cv: Condvar,
}

impl Inflight {
    /// Publish the terminal result and wake every waiter. Called once
    /// by the leader (on success, train error, or caught panic).
    pub fn publish(&self, result: PilotResult) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(slot.is_none(), "in-flight pilot published twice");
        *slot = Some(result);
        self.cv.notify_all();
    }

    /// Block until the leader publishes, then return a clone of the
    /// terminal result.
    pub fn wait(&self) -> PilotResult {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The serving layer's shared pilot-cache state: LRU + coalescing map
/// behind one mutex (both maps are touched together on every
/// resolution, so finer locking buys nothing).
#[derive(Debug)]
pub struct PilotCache {
    state: Mutex<CacheState>,
}

#[derive(Debug)]
struct CacheState {
    lru: PilotLru,
    inflight: HashMap<PilotKey, Arc<Inflight>>,
    /// Per-dataset epoch floor: entries (and completions) below it are
    /// never admitted. Monotone per dataset.
    floors: HashMap<u64, u64>,
    /// Entries dropped by [`PilotCache::retire`] (floor advances).
    retired: u64,
}

/// How a worker should obtain the pilot for its query — the outcome of
/// one [`PilotCache::resolve`] call.
#[derive(Debug)]
pub enum PilotTicket {
    /// Cache hit: use these artifacts directly.
    Cached(Arc<PilotState>),
    /// Another worker is training this pilot right now: wait on the
    /// in-flight entry.
    Wait(Arc<Inflight>),
    /// This worker is the leader: train the pilot, then call
    /// [`PilotCache::complete`] (or [`PilotCache::fail`]) with the key.
    Lead,
}

impl PilotCache {
    /// Empty cache with the given LRU capacity.
    pub fn new(capacity: usize) -> Self {
        PilotCache {
            state: Mutex::new(CacheState {
                lru: PilotLru::new(capacity),
                inflight: HashMap::new(),
                floors: HashMap::new(),
                retired: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolve `key` to a pilot source: a cached value, an in-flight
    /// computation to wait on, or leadership of a fresh computation
    /// (which registers the in-flight entry before returning, so every
    /// concurrent query for the same key coalesces onto it).
    pub fn resolve(&self, key: PilotKey) -> PilotTicket {
        let mut state = self.lock();
        if let Some(pilot) = state.lru.get(&key) {
            return PilotTicket::Cached(pilot);
        }
        if let Some(inflight) = state.inflight.get(&key) {
            return PilotTicket::Wait(inflight.clone());
        }
        state.inflight.insert(key, Arc::new(Inflight::default()));
        PilotTicket::Lead
    }

    /// Look up `key` in the LRU only (refreshing recency on a hit) —
    /// never registers leadership. The streaming drift ladder uses this
    /// to scan older epochs for a reusable pilot without committing to
    /// train one.
    pub fn lookup(&self, key: &PilotKey) -> Option<Arc<PilotState>> {
        self.lock().lru.get(key)
    }

    /// Leader success path: insert the pilot into the LRU (evicting if
    /// over capacity), retire the in-flight entry, and publish to the
    /// waiters.
    ///
    /// The mid-coalesce guarantee: when the dataset's epoch floor
    /// advanced past `key`'s epoch while this pilot was training, the
    /// waiters are still served (their responses are honest for the
    /// snapshot they asked about) but the pilot is **not** admitted to
    /// the LRU — a superseded epoch can never be served from cache
    /// afterwards.
    pub fn complete(&self, key: PilotKey, pilot: Arc<PilotState>) {
        let inflight = {
            let mut state = self.lock();
            let admit = state.floors.get(&key.0).is_none_or(|&floor| key.1 >= floor);
            if admit {
                state.lru.insert(key, pilot.clone());
            }
            state.inflight.remove(&key)
        };
        if let Some(inflight) = inflight {
            inflight.publish(Ok(pilot));
        }
    }

    /// Advance `dataset`'s epoch floor to `floor` (monotone: a lower
    /// value than the current floor is ignored) and eagerly drop every
    /// cached entry below it. Returns how many entries were retired.
    pub fn retire(&self, dataset: u64, floor: u64) -> usize {
        let mut state = self.lock();
        let entry = state.floors.entry(dataset).or_insert(0);
        if floor <= *entry {
            return 0;
        }
        *entry = floor;
        let dropped = state.lru.retire(dataset, floor);
        state.retired += dropped as u64;
        dropped
    }

    /// Entries dropped by floor advances so far.
    pub fn retired(&self) -> u64 {
        self.lock().retired
    }

    /// Leader failure path (train error or caught panic): retire the
    /// in-flight entry *without* caching anything and publish the error
    /// to the waiters. The next query for this key becomes a fresh
    /// leader — a failed pilot never poisons the cache or wedges the
    /// queue.
    pub fn fail(&self, key: PilotKey, error: ServeError) {
        let inflight = self.lock().inflight.remove(&key);
        if let Some(inflight) = inflight {
            inflight.publish(Err(error));
        }
    }

    /// Number of cached pilots.
    pub fn cached(&self) -> usize {
        self.lock().lru.len()
    }

    /// Number of live in-flight entries (0 whenever the server is
    /// idle — the leak invariant the proptests pin).
    pub fn inflight(&self) -> usize {
        self.lock().inflight.len()
    }

    /// Total LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.lock().lru.evictions()
    }

    /// Drop every cached pilot (in-flight entries are untouched).
    pub fn clear(&self) {
        self.lock().lru.clear();
    }

    /// Snapshot the cache for the warm-state sidecar: every entry in
    /// recency order (oldest first) plus the per-dataset epoch floors.
    pub fn export(&self) -> WarmImage {
        let state = self.lock();
        (state.lru.export(), state.floors.clone())
    }

    /// Seed the cache from a persisted sidecar: floors are applied
    /// first (monotone, like [`PilotCache::retire`]), then entries are
    /// inserted oldest-first so recency survives the roundtrip. An
    /// entry below its dataset's floor is never admitted. Returns how
    /// many entries were admitted.
    pub fn seed(
        &self,
        entries: Vec<(PilotKey, Arc<PilotState>)>,
        floors: HashMap<u64, u64>,
    ) -> usize {
        let mut state = self.lock();
        for (dataset, floor) in floors {
            let entry = state.floors.entry(dataset).or_insert(0);
            *entry = (*entry).max(floor);
        }
        let mut admitted = 0;
        for (key, pilot) in entries {
            if state.floors.get(&key.0).is_none_or(|&floor| key.1 >= floor) {
                state.lru.insert(key, pilot);
                admitted += 1;
            }
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::TrainedModel;

    fn pilot(n0: usize) -> Arc<PilotState> {
        Arc::new(PilotState {
            model: TrainedModel::new(vec![n0 as f64], n0, 0, true, 0.0),
            stats: None,
            n0,
            eps0: Default::default(),
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = PilotLru::new(2);
        lru.insert((0, 0, 10, 1), pilot(10));
        lru.insert((0, 0, 20, 1), pilot(20));
        // Touch the first entry so the second becomes the LRU victim.
        assert!(lru.get(&(0, 0, 10, 1)).is_some());
        lru.insert((0, 0, 30, 1), pilot(30));
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&(0, 0, 10, 1)).is_some(), "recently used survives");
        assert!(lru.get(&(0, 0, 20, 1)).is_none(), "LRU entry evicted");
        assert!(lru.get(&(0, 0, 30, 1)).is_some());
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn lru_capacity_one_holds_the_latest() {
        let mut lru = PilotLru::new(1);
        for n0 in [10, 20, 30] {
            lru.insert((0, 0, n0, 1), pilot(n0));
            assert_eq!(lru.len(), 1);
            assert_eq!(lru.get(&(0, 0, n0, 1)).unwrap().n0, n0);
        }
        assert_eq!(lru.evictions(), 2);
        lru.clear();
        assert!(lru.is_empty());
    }

    /// The ordered-index eviction must pick exactly the victim the old
    /// `O(len)` min-tick scan picked, on any interleaving of hits,
    /// refreshes, and inserts. A reference model (plain vector, scan
    /// eviction) replays a deterministic pseudo-random op sequence next
    /// to the real LRU; contents must stay identical after every op.
    #[test]
    fn eviction_order_matches_reference_scan() {
        struct Reference {
            capacity: usize,
            tick: u64,
            entries: Vec<(PilotKey, u64)>,
            evictions: u64,
        }
        impl Reference {
            fn get(&mut self, key: &PilotKey) -> bool {
                self.tick += 1;
                let tick = self.tick;
                if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == key) {
                    e.1 = tick;
                    true
                } else {
                    false
                }
            }
            fn insert(&mut self, key: PilotKey) {
                self.tick += 1;
                let tick = self.tick;
                if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
                    e.1 = tick;
                } else {
                    self.entries.push((key, tick));
                }
                while self.entries.len() > self.capacity {
                    let oldest = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, used))| *used)
                        .map(|(i, _)| i)
                        .expect("non-empty over capacity");
                    self.entries.remove(oldest);
                    self.evictions += 1;
                }
            }
        }

        let mut lru = PilotLru::new(3);
        let mut reference = Reference {
            capacity: 3,
            tick: 0,
            entries: Vec::new(),
            evictions: 0,
        };
        // Deterministic LCG op stream over a keyspace larger than the
        // capacity, so hits, misses, refreshes, and evictions all occur.
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key: PilotKey = (0, 0, (state >> 33) as usize % 7, 1);
            if state & 1 == 0 {
                assert_eq!(lru.get(&key).is_some(), reference.get(&key));
            } else {
                lru.insert(key, pilot(key.2));
                reference.insert(key);
            }
            assert_eq!(lru.len(), reference.entries.len());
            assert_eq!(lru.evictions(), reference.evictions);
            for (k, _) in &reference.entries {
                assert!(lru.entries.contains_key(k), "contents diverged at {k:?}");
            }
        }
        assert!(reference.evictions > 0, "sequence must exercise eviction");
    }

    #[test]
    fn keys_separate_dataset_versions() {
        let mut lru = PilotLru::new(4);
        lru.insert((1, 0, 10, 7), pilot(10));
        assert!(
            lru.get(&(2, 0, 10, 7)).is_none(),
            "other version never hits"
        );
        assert!(lru.get(&(1, 1, 10, 7)).is_none(), "other epoch never hits");
        assert!(lru.get(&(1, 0, 10, 7)).is_some());
    }

    #[test]
    fn resolve_coalesces_and_completes() {
        let cache = PilotCache::new(4);
        let key = (0, 0, 100, 5);
        assert!(matches!(cache.resolve(key), PilotTicket::Lead));
        // Second resolver for the same key coalesces.
        let waiter = match cache.resolve(key) {
            PilotTicket::Wait(w) => w,
            other => panic!("expected Wait, got {other:?}"),
        };
        assert_eq!(cache.inflight(), 1);
        cache.complete(key, pilot(100));
        assert_eq!(cache.inflight(), 0);
        assert_eq!(cache.cached(), 1);
        assert_eq!(waiter.wait().expect("published pilot").n0, 100);
        // Third resolver now hits the LRU.
        assert!(matches!(cache.resolve(key), PilotTicket::Cached(_)));
    }

    #[test]
    fn failure_retires_inflight_without_caching() {
        let cache = PilotCache::new(4);
        let key = (0, 0, 100, 5);
        assert!(matches!(cache.resolve(key), PilotTicket::Lead));
        let waiter = match cache.resolve(key) {
            PilotTicket::Wait(w) => w,
            other => panic!("expected Wait, got {other:?}"),
        };
        cache.fail(key, ServeError::WorkerPanicked("boom".into()));
        assert_eq!(cache.inflight(), 0, "failure must retire the entry");
        assert_eq!(cache.cached(), 0, "failure must not cache a pilot");
        assert!(matches!(waiter.wait(), Err(ServeError::WorkerPanicked(_))));
        // The key is free again: the next query leads a fresh attempt.
        assert!(matches!(cache.resolve(key), PilotTicket::Lead));
        cache.complete(key, pilot(100));
    }

    #[test]
    fn retire_drops_superseded_epochs_eagerly() {
        let cache = PilotCache::new(8);
        for epoch in 0..3u64 {
            let key = (7, epoch, 100, 5);
            assert!(matches!(cache.resolve(key), PilotTicket::Lead));
            cache.complete(key, pilot(100));
        }
        // Another dataset's entries are untouched by dataset 7's floor.
        let other = (8, 0, 100, 5);
        assert!(matches!(cache.resolve(other), PilotTicket::Lead));
        cache.complete(other, pilot(100));
        assert_eq!(cache.cached(), 4);

        assert_eq!(cache.retire(7, 2), 2);
        assert_eq!(cache.retired(), 2);
        assert_eq!(cache.cached(), 2);
        assert!(cache.lookup(&(7, 0, 100, 5)).is_none());
        assert!(cache.lookup(&(7, 1, 100, 5)).is_none());
        assert!(cache.lookup(&(7, 2, 100, 5)).is_some());
        assert!(cache.lookup(&(8, 0, 100, 5)).is_some());

        // The floor is monotone: a lower retire is a no-op.
        assert_eq!(cache.retire(7, 1), 0);
        assert!(cache.lookup(&(7, 2, 100, 5)).is_some());
    }

    #[test]
    fn mid_coalesce_completion_below_the_floor_serves_waiters_without_caching() {
        let cache = PilotCache::new(8);
        let key = (3, 5, 100, 9);
        // A leader starts training the epoch-5 pilot...
        assert!(matches!(cache.resolve(key), PilotTicket::Lead));
        let waiter = match cache.resolve(key) {
            PilotTicket::Wait(w) => w,
            other => panic!("expected Wait, got {other:?}"),
        };
        // ...the epoch advances past it while it trains...
        assert_eq!(cache.retire(3, 6), 0);
        // ...and its completion still serves the coalesced waiter but
        // is never admitted to the LRU.
        cache.complete(key, pilot(100));
        assert_eq!(waiter.wait().expect("published pilot").n0, 100);
        assert_eq!(cache.inflight(), 0);
        assert!(cache.lookup(&key).is_none(), "superseded pilot cached");
        assert_eq!(cache.cached(), 0);

        // At or above the floor, completions are admitted as usual.
        let fresh = (3, 6, 100, 9);
        assert!(matches!(cache.resolve(fresh), PilotTicket::Lead));
        cache.complete(fresh, pilot(100));
        assert!(cache.lookup(&fresh).is_some());
    }

    #[test]
    fn lookup_never_registers_leadership() {
        let cache = PilotCache::new(4);
        let key = (0, 2, 50, 1);
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.inflight(), 0, "lookup must not lead");
        assert!(matches!(cache.resolve(key), PilotTicket::Lead));
    }
}
