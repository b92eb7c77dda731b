//! The unified evaluator layer: one object that owns the network reference,
//! the batched gradient engine, the coverage criterion, the execution policy
//! and content-addressed caches.
//!
//! The paper's pipeline (coverage analysis → greedy selection → gradient
//! synthesis → fault detection) re-evaluates the same samples against the same
//! network at every stage: Fig. 3 sweeps budgets over one candidate pool,
//! Tables II/III evaluate nested prefixes of one suite, and the combined
//! generator re-scores its pending synthetic batch against a growing covered
//! set. [`Evaluator`] makes those repeats near-free: every covered-unit set it
//! computes is stored in a [`CoveredSetCache`] keyed by
//!
//! * the **network fingerprint** — a 128-bit digest of the serialized model
//!   ([`NetworkFingerprint`]), so any parameter change invalidates silently;
//! * the **sample content hash** — two independent FNV-1a streams over the
//!   sample's shape and exact `f32` bit patterns;
//! * the **criterion digest** — the coverage criterion's id and configuration
//!   ([`crate::criterion::criterion_digest`]), so two criteria (or two
//!   configurations of one criterion) never alias each other's sets.
//!
//! The cache holds clones of the computed [`Bitset`]s under an LRU byte
//! budget, with hit/miss/eviction counters kept both globally and **per
//! criterion**. Because covered-unit sets are bit-identical across execution
//! policies and chunkings (pinned by `tests/parallel_equivalence.rs`), a cache
//! hit returns exactly the bits a fresh computation would — serial, threaded,
//! cached and uncached results are all interchangeable.
//!
//! A second, structurally identical cache stores **golden forward outputs**
//! keyed by (fingerprint, sample hash) — the vendor-side suite construction of
//! [`crate::protocol::FunctionalTestSuite::from_evaluator`] routes through it,
//! so building suites for nested test prefixes replays no inference.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

use dnnip_faults::attacks::Attack;
use dnnip_faults::detection::{self, DetectionConfig, DetectionReport};
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_nn::Network;
use dnnip_tensor::{ops, Tensor};

use crate::bitset::Bitset;
use crate::combined::{self, CombinedConfig, CombinedResult};
use crate::coverage::{CoverageAnalyzer, CoverageConfig};
use crate::covered::CoveredSet;
use crate::criterion::{criterion_digest, CoverageCriterion};
use crate::generator::{self, GeneratedTests, GenerationConfig, GenerationMethod};
use crate::gradgen::{GradGenConfig, GradientGenerator};
use crate::persist::{DiskStats, DiskTier};
use crate::select::{self, SelectionResult};
use crate::{CoreError, Result};

/// Default LRU byte budget of an evaluator's covered-unit-set cache (64 MiB —
/// roughly 8k cached sets for a 65k-parameter model).
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Default LRU byte budget of an evaluator's golden forward-output cache
/// (outputs are `k` floats each, so 4 MiB holds on the order of 10k suites).
pub const DEFAULT_OUTPUT_CACHE_BYTES: usize = 4 * 1024 * 1024;

/// Fixed per-entry bookkeeping overhead charged against the byte budget
/// (key, LRU links, map slot) on top of the value's own bytes.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Cache key: network fingerprint × sample content hash × criterion digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) net: NetworkFingerprint,
    pub(crate) sample: (u64, u64),
    pub(crate) criterion: u64,
}

/// A value storable in a [`ContentCache`]: clonable, with a stable resident
/// byte estimate and a stable byte encoding for the persistent disk tier
/// ([`crate::persist::DiskTier`]).
pub trait CacheValue: Clone {
    /// One-byte payload-kind tag written into the persistent-entry header, so
    /// a covered-set file can never decode as a forward-output tensor (or
    /// vice versa) even under a hash collision of the path components.
    const KIND: u8;

    /// Approximate heap bytes of one resident value (excluding the fixed
    /// per-entry overhead, which the cache adds itself).
    fn resident_bytes(&self) -> usize;

    /// Bytes an *uncompressed* encoding of this value would occupy. Equal to
    /// [`CacheValue::resident_bytes`] for plain values; compressed values
    /// (see [`CoveredSet`]) override it, and the ratio of the two is the
    /// cache's compression ratio.
    fn logical_bytes(&self) -> usize {
        self.resident_bytes()
    }

    /// Append the value's stable on-disk payload to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a payload produced by [`CacheValue::encode`]; `None` on any
    /// structural mismatch (the persistent tier turns that into a miss).
    fn decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

impl CacheValue for Bitset {
    const KIND: u8 = 1;

    fn resident_bytes(&self) -> usize {
        self.len().div_ceil(64) * 8
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for &word in self.words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (len_bytes, rest) = bytes.split_at_checked(8)?;
        let len = u64::from_le_bytes(len_bytes.try_into().ok()?) as usize;
        if rest.len() != len.div_ceil(64) * 8 {
            return None;
        }
        let words = rest
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        Bitset::from_words(words, len)
    }
}

impl CacheValue for CoveredSet {
    /// Same kind tag as the dense [`Bitset`] it supersedes: both encode a
    /// covered-unit set, and [`CoveredSet::decode_bytes`] understands the
    /// legacy dense payload, so segments written by earlier releases still
    /// load.
    const KIND: u8 = 1;

    fn resident_bytes(&self) -> usize {
        self.resident_bytes()
    }

    fn logical_bytes(&self) -> usize {
        self.logical_bytes()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        CoveredSet::decode_bytes(bytes)
    }
}

impl CacheValue for Tensor {
    const KIND: u8 = 2;

    fn resident_bytes(&self) -> usize {
        self.len() * 4
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.shape().len() as u64).to_le_bytes());
        for &d in self.shape() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in self.data() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (rank_bytes, mut rest) = bytes.split_at_checked(8)?;
        let rank = u64::from_le_bytes(rank_bytes.try_into().ok()?) as usize;
        // Every header field is untrusted (the payload may be a corrupted
        // disk entry): bound the rank by the bytes actually present before
        // allocating, and refuse overflowing element counts — decode must
        // degrade to a miss, never abort or panic.
        if rank > rest.len() / 8 {
            return None;
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            let (dim, tail) = rest.split_at_checked(8)?;
            shape.push(u64::from_le_bytes(dim.try_into().ok()?) as usize);
            rest = tail;
        }
        let expected = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .and_then(|n| n.checked_mul(4))?;
        if rest.len() != expected {
            return None;
        }
        let data = rest
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
            .collect();
        Tensor::from_vec(data, &shape).ok()
    }
}

/// One cached value plus its LRU bookkeeping. The value is held behind an
/// `Arc` so a hit hands the caller a reference-count bump instead of a deep
/// copy of the payload.
#[derive(Debug)]
struct CacheEntry<V> {
    value: Arc<V>,
    bytes: usize,
    /// Dense-equivalent payload bytes ([`CacheValue::logical_bytes`]).
    logical: usize,
    tick: u64,
    /// Criterion id the entry is attributed to in the per-criterion counters.
    criterion: &'static str,
}

/// One slice of the cache counters. The whole-cache slice (`total`) only uses
/// the event counters — its entry/byte gauges are derived from the resident
/// map at read time; the per-criterion slices maintain their gauges
/// incrementally (attributed by each entry's criterion id).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    flight_hits: u64,
    insertions: u64,
    evictions: u64,
    entries: usize,
    bytes: usize,
    resident_bytes: usize,
    logical_bytes: usize,
}

#[derive(Debug)]
struct CacheInner<V> {
    map: HashMap<CacheKey, CacheEntry<V>>,
    /// LRU order: `tick -> key`, oldest first. Ticks are unique (monotone
    /// counter), so the BTreeMap is a total order over residents.
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
    bytes: usize,
    /// Resident value-payload bytes (no per-entry overhead) — the compressed
    /// footprint the stats report.
    resident_bytes: usize,
    /// Dense-equivalent payload bytes of the residents — the numerator of the
    /// compression ratio.
    logical_bytes: usize,
    total: Counters,
    /// Counters split by criterion id (insertion order preserved by sorting on
    /// read; the handful of criteria makes this map tiny).
    per_criterion: HashMap<&'static str, Counters>,
    /// Counters split by network fingerprint — the per-model view of a cache
    /// shared across a whole [`crate::workspace::Workspace`]. Eviction is
    /// still global (one LRU order over every model), but each model's share
    /// of the traffic and residency is observable here.
    per_model: HashMap<NetworkFingerprint, Counters>,
}

impl<V> Default for CacheInner<V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            resident_bytes: 0,
            logical_bytes: 0,
            total: Counters::default(),
            per_criterion: HashMap::new(),
            per_model: HashMap::new(),
        }
    }
}

/// Snapshot of a cache's counters (whole cache or one criterion's slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the in-memory cache.
    pub hits: u64,
    /// Lookups not answered from memory (served by the persistent tier, when
    /// one is attached, or freshly computed).
    pub misses: u64,
    /// Lookups that found their key **in flight** on another thread and were
    /// served by waiting for that computation instead of duplicating it (the
    /// single-flight path; each also counts as a hit once the value lands).
    pub flight_hits: u64,
    /// Values stored (hits never re-store).
    pub insertions: u64,
    /// Values dropped to stay under the byte budget.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Resident bytes (value bytes + per-entry overhead).
    pub bytes: usize,
    /// Resident value-payload bytes alone — for compressed values (see
    /// [`CoveredSet`]) this is the actual compressed footprint.
    pub resident_bytes: usize,
    /// Bytes the residents' dense (uncompressed) payloads would occupy;
    /// `logical_bytes / resident_bytes` is the compression ratio.
    pub logical_bytes: usize,
    /// Configured byte budget (0 disables the cache).
    pub max_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Dense-equivalent bytes per resident compressed byte (`1.0` for an
    /// empty cache or plain uncompressed values).
    pub fn compression_ratio(&self) -> f64 {
        if self.resident_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.resident_bytes as f64
        }
    }

    /// Mean budget-relevant bytes per resident entry (value + overhead;
    /// `0.0` for an empty cache).
    pub fn bytes_per_entry(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.bytes as f64 / self.entries as f64
        }
    }
}

impl Counters {
    fn stats(&self, max_bytes: usize) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            flight_hits: self.flight_hits,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.entries,
            bytes: self.bytes,
            resident_bytes: self.resident_bytes,
            logical_bytes: self.logical_bytes,
            max_bytes,
        }
    }
}

/// Registry of cache keys whose values are being computed **right now** by
/// some thread — the single-flight table.
///
/// A thread that misses on a key first tries to [`FlightTable::claim`] it;
/// losing the claim means another thread is already computing that exact
/// value, so the loser parks on the condvar instead of duplicating the work
/// (the thundering-herd fix for cold concurrent requests over shared
/// samples). Claims are always released through a [`FlightGuard`], so an
/// erroring — or even panicking — computation wakes its waiters, who re-probe
/// the cache and fall back to their own computation instead of hanging.
#[derive(Debug, Default)]
struct FlightTable {
    keys: Mutex<HashSet<CacheKey>>,
    wake: Condvar,
}

impl FlightTable {
    /// Claim `key` for this thread's computation; `false` when another
    /// thread's computation of it is already in flight.
    fn claim(&self, key: CacheKey) -> bool {
        self.keys.lock().expect("flight table lock").insert(key)
    }

    /// Release claims and wake every waiter.
    fn release(&self, keys: &[CacheKey]) {
        let mut set = self.keys.lock().expect("flight table lock");
        for key in keys {
            set.remove(key);
        }
        drop(set);
        self.wake.notify_all();
    }

    /// Block until `key` is not in flight (returns immediately when it never
    /// was).
    fn wait_idle(&self, key: &CacheKey) {
        let mut set = self.keys.lock().expect("flight table lock");
        while set.contains(key) {
            set = self.wake.wait(set).expect("flight table lock");
        }
    }
}

/// Unwind-safe ownership of in-flight claims: dropping the guard — on normal
/// completion, an error return, or a panic inside the compute closure —
/// releases every claimed key and wakes the waiters.
struct FlightGuard<'a> {
    table: &'a FlightTable,
    keys: Vec<CacheKey>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.keys.is_empty() {
            self.table.release(&self.keys);
        }
    }
}

/// Content-addressed LRU cache of criterion results.
///
/// Thread-safe behind one mutex; lookups and insertions are O(log n) in the
/// resident count. Keys are content digests, never references — two evaluators
/// over byte-identical networks share hits, and a tampered clone of a network
/// can never alias the original's entries. Counters are kept globally and per
/// criterion id. Fresh computations are **single-flight**: concurrent misses
/// of one key compute it once (see the private `FlightTable`).
#[derive(Debug)]
pub struct ContentCache<V: CacheValue> {
    max_bytes: usize,
    inner: Mutex<CacheInner<V>>,
    flight: FlightTable,
    /// Optional persistent tier consulted on in-memory misses and filled on
    /// fresh computations (shared across every cache of a workspace).
    disk: Option<Arc<DiskTier>>,
}

/// The evaluator's covered-unit-set cache (one block-compressed
/// [`CoveredSet`] per `(network, sample, criterion)`).
pub type CoveredSetCache = ContentCache<CoveredSet>;

impl<V: CacheValue> ContentCache<V> {
    /// Create a cache with the given LRU byte budget (0 disables caching).
    pub fn new(max_bytes: usize) -> Self {
        Self::with_disk(max_bytes, None)
    }

    /// Create a cache with an LRU byte budget and an optional persistent
    /// tier: in-memory misses probe the tier before recomputing, and fresh
    /// computations are spilled to it.
    pub fn with_disk(max_bytes: usize, disk: Option<Arc<DiskTier>>) -> Self {
        Self {
            max_bytes,
            inner: Mutex::new(CacheInner::default()),
            flight: FlightTable::default(),
            disk,
        }
    }

    /// The configured LRU byte budget (0 means the cache is disabled).
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Counters of the persistent tier, when one is attached.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner<V>> {
        self.inner.lock().expect("content cache lock")
    }

    fn get(&self, key: &CacheKey, criterion: &'static str) -> Option<Arc<V>> {
        let mut inner = self.lock();
        // Bump the entry to most-recently-used and record the hit. The map and
        // order structures are updated together under the same lock. Misses
        // are NOT counted here: a request's duplicate lookups of one pending
        // key trigger a single fresh computation, so the caller reports the
        // distinct-miss count via [`ContentCache::note_misses`].
        let entry = inner.map.get(key)?;
        let old_tick = entry.tick;
        let value = entry.value.clone();
        inner.tick += 1;
        let new_tick = inner.tick;
        inner.order.remove(&old_tick);
        inner.order.insert(new_tick, *key);
        inner.map.get_mut(key).expect("entry just observed").tick = new_tick;
        inner.total.hits += 1;
        inner.per_criterion.entry(criterion).or_default().hits += 1;
        inner.per_model.entry(key.net).or_default().hits += 1;
        Some(value)
    }

    fn insert(&self, key: CacheKey, value: &Arc<V>, criterion: &'static str) {
        let resident = value.resident_bytes();
        let logical = value.logical_bytes();
        let bytes = resident + ENTRY_OVERHEAD_BYTES;
        if bytes > self.max_bytes {
            // A single entry larger than the whole budget can never reside.
            return;
        }
        let mut inner = self.lock();
        if let Some(existing) = inner.map.remove(&key) {
            // Duplicate insert (e.g. the same sample twice in one batch):
            // replace, keeping the accounting exact.
            inner.order.remove(&existing.tick);
            inner.bytes -= existing.bytes;
            inner.resident_bytes -= existing.bytes - ENTRY_OVERHEAD_BYTES;
            inner.logical_bytes -= existing.logical;
            let prev = inner.per_criterion.entry(existing.criterion).or_default();
            prev.entries -= 1;
            prev.bytes -= existing.bytes;
            prev.resident_bytes -= existing.bytes - ENTRY_OVERHEAD_BYTES;
            prev.logical_bytes -= existing.logical;
            let model = inner.per_model.entry(key.net).or_default();
            model.entries -= 1;
            model.bytes -= existing.bytes;
            model.resident_bytes -= existing.bytes - ENTRY_OVERHEAD_BYTES;
            model.logical_bytes -= existing.logical;
        }
        while inner.bytes + bytes > self.max_bytes {
            let Some((&oldest_tick, &oldest_key)) = inner.order.iter().next() else {
                break;
            };
            inner.order.remove(&oldest_tick);
            let evicted = inner.map.remove(&oldest_key).expect("ordered key resident");
            inner.bytes -= evicted.bytes;
            inner.resident_bytes -= evicted.bytes - ENTRY_OVERHEAD_BYTES;
            inner.logical_bytes -= evicted.logical;
            inner.total.evictions += 1;
            let prev = inner.per_criterion.entry(evicted.criterion).or_default();
            prev.evictions += 1;
            prev.entries -= 1;
            prev.bytes -= evicted.bytes;
            prev.resident_bytes -= evicted.bytes - ENTRY_OVERHEAD_BYTES;
            prev.logical_bytes -= evicted.logical;
            let model = inner.per_model.entry(oldest_key.net).or_default();
            model.evictions += 1;
            model.entries -= 1;
            model.bytes -= evicted.bytes;
            model.resident_bytes -= evicted.bytes - ENTRY_OVERHEAD_BYTES;
            model.logical_bytes -= evicted.logical;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.order.insert(tick, key);
        inner.bytes += bytes;
        inner.resident_bytes += resident;
        inner.logical_bytes += logical;
        inner.total.insertions += 1;
        let per = inner.per_criterion.entry(criterion).or_default();
        per.insertions += 1;
        per.entries += 1;
        per.bytes += bytes;
        per.resident_bytes += resident;
        per.logical_bytes += logical;
        let model = inner.per_model.entry(key.net).or_default();
        model.insertions += 1;
        model.entries += 1;
        model.bytes += bytes;
        model.resident_bytes += resident;
        model.logical_bytes += logical;
        inner.map.insert(
            key,
            CacheEntry {
                value: Arc::clone(value),
                bytes,
                logical,
                tick,
                criterion,
            },
        );
    }

    /// Record `count` lookups (all for model `net`) that were not resident in
    /// memory.
    fn note_misses(&self, count: u64, criterion: &'static str, net: NetworkFingerprint) {
        let mut inner = self.lock();
        inner.total.misses += count;
        inner.per_criterion.entry(criterion).or_default().misses += count;
        inner.per_model.entry(net).or_default().misses += count;
    }

    /// Record `count` lookups served by waiting on another thread's in-flight
    /// computation instead of duplicating it.
    fn note_flight_hits(&self, count: u64, criterion: &'static str, net: NetworkFingerprint) {
        let mut inner = self.lock();
        inner.total.flight_hits += count;
        inner
            .per_criterion
            .entry(criterion)
            .or_default()
            .flight_hits += count;
        inner.per_model.entry(net).or_default().flight_hits += count;
    }

    /// Current counters over the whole cache. The entry/byte gauges are read
    /// straight off the resident map, so they can never drift from the budget
    /// accounting; only the per-criterion split is maintained incrementally.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            resident_bytes: inner.resident_bytes,
            logical_bytes: inner.logical_bytes,
            ..inner.total.stats(self.max_bytes)
        }
    }

    /// Counters attributed to one criterion id (zeroes when the criterion has
    /// never touched this cache).
    pub fn stats_for(&self, criterion: &str) -> CacheStats {
        self.lock()
            .per_criterion
            .get(criterion)
            .copied()
            .unwrap_or_default()
            .stats(self.max_bytes)
    }

    /// Per-criterion counter snapshots, sorted by criterion id.
    pub fn stats_by_criterion(&self) -> Vec<(&'static str, CacheStats)> {
        let inner = self.lock();
        let mut out: Vec<(&'static str, CacheStats)> = inner
            .per_criterion
            .iter()
            .map(|(&id, c)| (id, c.stats(self.max_bytes)))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Counters attributed to one model's fingerprint (zeroes when the model
    /// has never touched this cache).
    pub fn stats_for_model(&self, net: NetworkFingerprint) -> CacheStats {
        self.lock()
            .per_model
            .get(&net)
            .copied()
            .unwrap_or_default()
            .stats(self.max_bytes)
    }

    /// Per-model counter snapshots, sorted by fingerprint.
    pub fn stats_by_model(&self) -> Vec<(NetworkFingerprint, CacheStats)> {
        let inner = self.lock();
        let mut out: Vec<(NetworkFingerprint, CacheStats)> = inner
            .per_model
            .iter()
            .map(|(&net, c)| (net, c.stats(self.max_bytes)))
            .collect();
        out.sort_unstable_by_key(|(net, _)| *net);
        out
    }

    /// Serve `samples` through the cache: hits are returned directly, distinct
    /// misses (deduplicated by key within the request, so a sample repeated in
    /// one batch is computed and hashed exactly once) are computed in a single
    /// `compute` call and inserted. Both evaluator caches route through this,
    /// so the dedup/fill machinery exists exactly once.
    ///
    /// Fresh computations are **single-flight** across threads: a key another
    /// thread is already computing is not recomputed here — this request's
    /// slots for it park on the [`FlightTable`] (after this request's own
    /// misses are computed, inserted and released, so two requests can never
    /// deadlock waiting on each other's claims) and reuse the value the owner
    /// inserts. An owner whose computation fails releases its claims before
    /// returning the error; its waiters then re-probe, win the claim and run
    /// their own computation — a failed flight never poisons a waiter.
    pub(crate) fn get_or_compute<K, F>(
        &self,
        samples: &[Tensor],
        key_fn: K,
        label: &'static str,
        compute: F,
    ) -> Result<Vec<Arc<V>>>
    where
        K: Fn(&Tensor) -> CacheKey,
        F: Fn(&[Tensor]) -> Result<Vec<V>>,
    {
        let mut out: Vec<Option<Arc<V>>> = (0..samples.len()).map(|_| None).collect();
        // `miss_indices[p]` lists every output slot the `p`-th distinct miss
        // fills; keys computed here are kept for the insert pass. Claimed
        // keys live in the guard so an error or panic releases them.
        let mut guard = FlightGuard {
            table: &self.flight,
            keys: Vec::new(),
        };
        let mut miss_indices: Vec<Vec<usize>> = Vec::new();
        let mut miss_samples: Vec<Tensor> = Vec::new();
        let mut key_to_miss: HashMap<CacheKey, usize> = HashMap::new();
        // Keys some other thread is computing right now: (key, slots, sample).
        let mut waits: Vec<(CacheKey, Vec<usize>, Tensor)> = Vec::new();
        let mut key_to_wait: HashMap<CacheKey, usize> = HashMap::new();
        for (i, sample) in samples.iter().enumerate() {
            let key = key_fn(sample);
            if let Some(value) = self.get(&key, label) {
                out[i] = Some(value);
                continue;
            }
            if let Some(&pending) = key_to_miss.get(&key) {
                miss_indices[pending].push(i);
                continue;
            }
            if let Some(&parked) = key_to_wait.get(&key) {
                waits[parked].1.push(i);
                continue;
            }
            // First in-memory miss of this key in the request: probe the
            // persistent tier before scheduling a fresh computation. A disk
            // hit is promoted into memory, so later duplicates hit there.
            if let Some(value) = self.disk.as_ref().and_then(|d| d.load::<V>(&key)) {
                let value = Arc::new(value);
                self.note_misses(1, label, key.net);
                self.insert(key, &value, label);
                out[i] = Some(value);
                continue;
            }
            if self.flight.claim(key) {
                key_to_miss.insert(key, miss_samples.len());
                guard.keys.push(key);
                miss_indices.push(vec![i]);
                miss_samples.push(sample.clone());
            } else {
                key_to_wait.insert(key, waits.len());
                waits.push((key, vec![i], sample.clone()));
            }
        }
        if !miss_samples.is_empty() {
            // Every key of one request shares the evaluator's fingerprint, so
            // the distinct-miss count is attributed to the first key's net.
            self.note_misses(miss_samples.len() as u64, label, guard.keys[0].net);
            let computed: Vec<Arc<V>> = compute(&miss_samples)?.into_iter().map(Arc::new).collect();
            for ((indices, key), value) in miss_indices.iter().zip(&guard.keys).zip(&computed) {
                self.insert(*key, value, label);
                for &i in indices {
                    out[i] = Some(Arc::clone(value));
                }
            }
            if let Some(disk) = &self.disk {
                // One segment-packed write for the whole request's misses
                // (they all share this evaluator's fingerprint and criterion,
                // so the tier emits exactly one file).
                let batch: Vec<(CacheKey, &V)> = guard
                    .keys
                    .iter()
                    .copied()
                    .zip(computed.iter().map(|v| &**v))
                    .collect();
                disk.store_batch(&batch);
            }
        }
        // Our own claims are done: release them BEFORE parking on foreign
        // flights, so requests with interleaved miss sets can never deadlock.
        drop(guard);
        for (key, indices, sample) in waits {
            let value = self.await_flight(key, &sample, label, &compute)?;
            for i in indices {
                out[i] = Some(value.clone());
            }
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("every slot filled by hit or computation"))
            .collect())
    }

    /// Wait out another thread's in-flight computation of `key` and reuse its
    /// result; when the owner failed (or the value was already evicted),
    /// compute it here instead.
    fn await_flight<F>(
        &self,
        key: CacheKey,
        sample: &Tensor,
        label: &'static str,
        compute: &F,
    ) -> Result<Arc<V>>
    where
        F: Fn(&[Tensor]) -> Result<Vec<V>>,
    {
        loop {
            self.flight.wait_idle(&key);
            if let Some(value) = self.get(&key, label) {
                self.note_flight_hits(1, label, key.net);
                return Ok(value);
            }
            // The flight landed nothing (failed owner / instant eviction):
            // whoever wins the claim computes; losers go back to waiting.
            if !self.flight.claim(key) {
                continue;
            }
            let guard = FlightGuard {
                table: &self.flight,
                keys: vec![key],
            };
            self.note_misses(1, label, key.net);
            let computed = compute(std::slice::from_ref(sample))?;
            let value = Arc::new(computed.into_iter().next().expect("one value per sample"));
            self.insert(key, &value, label);
            if let Some(disk) = &self.disk {
                disk.store_batch(&[(key, &*value)]);
            }
            drop(guard);
            return Ok(value);
        }
    }

    /// Drop every resident entry (hit/miss/insertion/eviction counters are
    /// kept; entry/byte gauges reset).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
        inner.resident_bytes = 0;
        inner.logical_bytes = 0;
        for c in inner.per_criterion.values_mut() {
            c.entries = 0;
            c.bytes = 0;
            c.resident_bytes = 0;
            c.logical_bytes = 0;
        }
        for c in inner.per_model.values_mut() {
            c.entries = 0;
            c.bytes = 0;
            c.resident_bytes = 0;
            c.logical_bytes = 0;
        }
    }
}

/// The splitmix64 finalizer: a cheap bijective mixer with full avalanche.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Content hash of a sample tensor: shape and exact `f32` bit patterns
/// through two independent splitmix64-style streams (128 bits total). Also
/// the identity [`crate::workspace::Workspace::run_coalesced`] dedupes
/// cross-request candidate pools by, so "same content hash" always means
/// "same cache entry".
///
/// This runs on **every** cache probe — one hash per candidate per
/// `activation_sets` call — so it absorbs two `f32`s per mixing step
/// instead of byte-at-a-time FNV. Packing a trailing odd element as a lone
/// low word cannot collide with a `[x, 0.0]` pair: the data length is the
/// shape's element product and the shape is hashed first.
pub(crate) fn sample_hash(sample: &Tensor) -> (u64, u64) {
    const C_LO: u64 = 0x9e37_79b9_7f4a_7c15;
    const C_HI: u64 = 0xc2b2_ae3d_27d4_eb4f;
    let mut lo = mix64(0x2545_f491_4f6c_dd1d ^ sample.shape().len() as u64);
    let mut hi = mix64(0x6a09_e667_f3bc_c909 ^ sample.shape().len() as u64);
    for &d in sample.shape() {
        lo = mix64(lo ^ (d as u64).wrapping_mul(C_LO));
        hi = mix64(hi ^ (d as u64).wrapping_mul(C_HI));
    }
    let mut chunks = sample.data().chunks_exact(2);
    for pair in &mut chunks {
        let word = (pair[0].to_bits() as u64) | ((pair[1].to_bits() as u64) << 32);
        lo = mix64(lo ^ word.wrapping_mul(C_LO));
        hi = mix64(hi ^ word.wrapping_mul(C_HI));
    }
    if let [last] = chunks.remainder() {
        let word = last.to_bits() as u64;
        lo = mix64(lo ^ word.wrapping_mul(C_LO));
        hi = mix64(hi ^ word.wrapping_mul(C_HI));
    }
    (lo, hi)
}

/// Criterion-id label used for forward-output cache counters (outputs are
/// criterion-independent, so they get their own slice).
const FORWARD_OUTPUT_LABEL: &str = "forward-output";

/// The unified evaluation front-end: coverage analysis, test generation and
/// detection experiments over one network and one coverage criterion, with
/// every covered-unit set flowing through one content-addressed cache.
///
/// The evaluator owns a [`CoverageAnalyzer`] (which owns the shared
/// [`dnnip_nn::batch::BatchGradientEngine`] and the
/// [`crate::criterion::CoverageCriterion`]), the network's
/// [`NetworkFingerprint`], a [`CoveredSetCache`] and a golden forward-output
/// cache. All higher stages — [`crate::select`], [`crate::gradgen`],
/// [`crate::combined`], [`crate::generator`], the protocol's vendor side and
/// the detection harness — take an `&Evaluator`, so repeated sweeps over
/// overlapping sample pools (Fig. 3 budgets, Table II/III prefixes) pay for
/// each distinct `(network, sample, criterion)` evaluation exactly once.
///
/// An `Evaluator` is a `'static`, cheaply **clonable handle**: the network is
/// held by `Arc` (constructors accept `&Network`, cloned once, or an
/// `Arc<Network>`, shared) and the caches are `Arc`-shared, so clones of one
/// evaluator observe the same cache. The standalone constructors below give
/// each evaluator its own private caches; evaluators minted by a
/// [`crate::workspace::Workspace`] share **one** cache budget (and optionally
/// a persistent disk tier) across every registered model and criterion.
#[derive(Debug, Clone)]
pub struct Evaluator {
    inner: Arc<EvalInner>,
}

#[derive(Debug)]
struct EvalInner {
    analyzer: CoverageAnalyzer,
    fingerprint: NetworkFingerprint,
    criterion_key: u64,
    cache: Arc<CoveredSetCache>,
    output_cache: Arc<ContentCache<Tensor>>,
}

impl Evaluator {
    /// Create an evaluator under the paper's default parameter-gradient
    /// criterion with the default cache budget ([`DEFAULT_CACHE_BYTES`]).
    pub fn new(network: impl Into<Arc<Network>>, config: CoverageConfig) -> Self {
        Self::with_cache_bytes(network, config, DEFAULT_CACHE_BYTES)
    }

    /// Create an evaluator under an explicit coverage criterion with the
    /// default cache budget.
    pub fn with_criterion(
        network: impl Into<Arc<Network>>,
        config: CoverageConfig,
        criterion: Arc<dyn CoverageCriterion>,
    ) -> Self {
        Self::from_analyzer(
            CoverageAnalyzer::with_criterion(network, config, criterion),
            DEFAULT_CACHE_BYTES,
        )
    }

    /// Create an evaluator with an explicit cache byte budget (0 disables
    /// caching; every lookup then recomputes).
    pub fn with_cache_bytes(
        network: impl Into<Arc<Network>>,
        config: CoverageConfig,
        max_bytes: usize,
    ) -> Self {
        Self::from_analyzer(CoverageAnalyzer::new(network, config), max_bytes)
    }

    /// Create an evaluator under an explicit criterion and cache byte budget.
    pub fn with_criterion_cache_bytes(
        network: impl Into<Arc<Network>>,
        config: CoverageConfig,
        criterion: Arc<dyn CoverageCriterion>,
        max_bytes: usize,
    ) -> Self {
        Self::from_analyzer(
            CoverageAnalyzer::with_criterion(network, config, criterion),
            max_bytes,
        )
    }

    fn from_analyzer(analyzer: CoverageAnalyzer, max_bytes: usize) -> Self {
        // The output cache is disabled together with the set cache so a zero
        // budget really is the raw compute path end to end.
        let output_bytes = if max_bytes == 0 {
            0
        } else {
            DEFAULT_OUTPUT_CACHE_BYTES
        };
        Self::with_shared_caches(
            analyzer,
            Arc::new(CoveredSetCache::new(max_bytes)),
            Arc::new(ContentCache::new(output_bytes)),
        )
    }

    /// Build an evaluator around pre-existing (typically workspace-shared)
    /// caches. The cache keys carry the network fingerprint and criterion
    /// digest, so arbitrarily many evaluators can share one cache without any
    /// chance of aliasing each other's entries.
    pub(crate) fn with_shared_caches(
        analyzer: CoverageAnalyzer,
        cache: Arc<CoveredSetCache>,
        output_cache: Arc<ContentCache<Tensor>>,
    ) -> Self {
        let fingerprint = NetworkFingerprint::of(analyzer.network());
        // Sets computed on the int8 round-tripped network must never alias
        // cached full-precision sets: fold a fixed tag into the criterion key
        // when (and only when) the analyzer takes the quantized path, so every
        // full-precision key is exactly the plain criterion digest as before.
        const QUANT_KEY_TAG: u64 = 0x71a0_17f8_5eed_c0de;
        let mut criterion_key = criterion_digest(analyzer.criterion().as_ref());
        if analyzer.quantized_forward() {
            criterion_key ^= QUANT_KEY_TAG;
        }
        Self {
            inner: Arc::new(EvalInner {
                analyzer,
                fingerprint,
                criterion_key,
                cache,
                output_cache,
            }),
        }
    }

    /// The evaluated network.
    pub fn network(&self) -> &Network {
        self.inner.analyzer.network()
    }

    /// The shared handle to the evaluated network (reference-count bump only).
    pub fn network_arc(&self) -> Arc<Network> {
        self.inner.analyzer.network_arc()
    }

    /// The underlying coverage analyzer (compute layer, cache-unaware).
    pub fn analyzer(&self) -> &CoverageAnalyzer {
        &self.inner.analyzer
    }

    /// The coverage criterion this evaluator computes.
    pub fn criterion(&self) -> &Arc<dyn CoverageCriterion> {
        self.inner.analyzer.criterion()
    }

    /// The network's content fingerprint.
    pub fn fingerprint(&self) -> NetworkFingerprint {
        self.inner.fingerprint
    }

    /// Total number of parameters of the evaluated network.
    pub fn num_parameters(&self) -> usize {
        self.inner.analyzer.num_parameters()
    }

    /// Number of coverable units under this evaluator's criterion (the length
    /// of every covered-unit set).
    pub fn num_units(&self) -> usize {
        self.inner.analyzer.num_units()
    }

    /// Snapshot of the covered-unit-set cache counters (all criteria).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Covered-unit-set cache counters attributed to this evaluator's
    /// criterion.
    pub fn criterion_cache_stats(&self) -> CacheStats {
        self.inner.cache.stats_for(self.criterion().id())
    }

    /// Per-criterion covered-unit-set cache counters, sorted by criterion id.
    pub fn cache_stats_by_criterion(&self) -> Vec<(&'static str, CacheStats)> {
        self.inner.cache.stats_by_criterion()
    }

    /// Snapshot of the golden forward-output cache counters.
    pub fn output_cache_stats(&self) -> CacheStats {
        self.inner.output_cache.stats()
    }

    /// Drop all cached covered-unit sets and forward outputs (counters
    /// survive).
    pub fn clear_cache(&self) {
        self.inner.cache.clear();
        self.inner.output_cache.clear();
    }

    fn key_for(&self, sample: &Tensor) -> CacheKey {
        CacheKey {
            net: self.inner.fingerprint,
            sample: sample_hash(sample),
            criterion: self.inner.criterion_key,
        }
    }

    /// The effective cache-key criterion component: the criterion digest,
    /// XOR-tagged when this evaluator's forward path is quantized. Two
    /// evaluators whose `(fingerprint, criterion_key)` pairs agree address
    /// identical cache entries — the grouping identity
    /// [`crate::workspace::Workspace::run_coalesced`] buckets by.
    pub(crate) fn criterion_key(&self) -> u64 {
        self.inner.criterion_key
    }

    fn output_key_for(&self, sample: &Tensor) -> CacheKey {
        CacheKey {
            net: self.inner.fingerprint,
            sample: sample_hash(sample),
            criterion: 0,
        }
    }

    /// Covered-unit sets for a collection of inputs — the cache-aware version
    /// of [`CoverageAnalyzer::activation_sets`], returning shared handles to
    /// block-compressed [`CoveredSet`]s (a hit is a reference-count bump, not
    /// a deep copy of the words).
    ///
    /// Cached samples are served without touching the network; the misses run
    /// through the analyzer's batched, possibly multi-threaded path in one
    /// call, are compressed and are then inserted. Results are bit-identical
    /// to an uncached analyzer under every execution policy.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn activation_sets(&self, samples: &[Tensor]) -> Result<Vec<Arc<CoveredSet>>> {
        let compress = |sets: Vec<Bitset>| -> Vec<CoveredSet> {
            sets.iter().map(CoveredSet::from_bitset).collect()
        };
        if self.inner.cache.max_bytes == 0 {
            // Cache disabled: skip hashing and miss bookkeeping entirely so a
            // budget of zero really is the raw analyzer path.
            return Ok(compress(self.inner.analyzer.activation_sets(samples)?)
                .into_iter()
                .map(Arc::new)
                .collect());
        }
        self.inner.cache.get_or_compute(
            samples,
            |sample| self.key_for(sample),
            self.criterion().id(),
            |misses| Ok(compress(self.inner.analyzer.activation_sets(misses)?)),
        )
    }

    /// The covered-unit set of a single input (cache-aware).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn activation_set(&self, sample: &Tensor) -> Result<Arc<CoveredSet>> {
        let mut sets = self.activation_sets(std::slice::from_ref(sample))?;
        Ok(sets.pop().expect("one set per sample"))
    }

    /// Coverage of a single input (Eq. 3 under the default criterion),
    /// cache-aware.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn coverage_of_sample(&self, sample: &Tensor) -> Result<f32> {
        Ok(self.activation_set(sample)?.density())
    }

    /// Coverage of a test set (Eq. 4 under the default criterion),
    /// cache-aware: density of the exact bitwise union of the members'
    /// covered-unit sets.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn coverage_of_set(&self, samples: &[Tensor]) -> Result<f32> {
        let sets = self.activation_sets(samples)?;
        Ok(CoveredSet::union_of(self.num_units(), sets.iter().map(Arc::as_ref)).density())
    }

    /// Mean per-sample coverage (Fig. 2 comparison), cache-aware.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyCandidatePool`] for an empty collection, or a
    /// shape error for incompatible samples.
    pub fn mean_sample_coverage(&self, samples: &[Tensor]) -> Result<f32> {
        if samples.is_empty() {
            return Err(CoreError::EmptyCandidatePool);
        }
        let sets = self.activation_sets(samples)?;
        let total: f32 = sets.iter().map(|s| s.density()).sum();
        Ok(total / samples.len() as f32)
    }

    /// Golden forward outputs for `samples` (vendor-side suite construction),
    /// cached by (network fingerprint, sample content hash).
    ///
    /// Outputs come from the evaluator's batched engine, one forward pass per
    /// [`CoverageConfig::batch_size`] chunk of cache misses, with chunks fanned
    /// out over the evaluator's execution policy. A sample's logits do not
    /// depend on which samples share its chunk, so cached, fresh, serial and
    /// threaded golden outputs are bit-identical to each other and to
    /// [`crate::protocol::FunctionalTestSuite::from_network`]. Repeated suite
    /// construction over overlapping test prefixes replays no inference.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn forward_outputs(&self, samples: &[Tensor]) -> Result<Vec<Tensor>> {
        let analyzer = &self.inner.analyzer;
        let infer = |misses: &[Tensor]| -> Result<Vec<Tensor>> {
            let chunks: Vec<&[Tensor]> =
                misses.chunks(analyzer.config().batch_size.max(1)).collect();
            let per_chunk = crate::par::try_map(
                analyzer.config().exec,
                &chunks,
                |chunk| -> Result<Vec<Tensor>> {
                    Ok(ops::unstack(
                        analyzer.engine().forward_batch(chunk)?.output(),
                    )?)
                },
            )?;
            Ok(per_chunk.into_iter().flatten().collect())
        };
        if self.inner.output_cache.max_bytes == 0 {
            return infer(samples);
        }
        let outputs = self.inner.output_cache.get_or_compute(
            samples,
            |sample| self.output_key_for(sample),
            FORWARD_OUTPUT_LABEL,
            infer,
        )?;
        Ok(outputs.iter().map(|t| (**t).clone()).collect())
    }

    /// Algorithm 1 end to end: covered-unit sets for `candidates` (through the
    /// cache), then greedy max-coverage selection under this evaluator's
    /// criterion.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`crate::select::select_from_training_set`].
    pub fn select_from_training_set(
        &self,
        candidates: &[Tensor],
        max_tests: usize,
    ) -> Result<SelectionResult> {
        select::select_from_training_set(self, candidates, max_tests)
    }

    /// A gradient generator sharing this evaluator's batched engine (its
    /// precomputed per-layer weight matrices are cloned, not re-derived) and
    /// the criterion's synthesis objective, when it supplies one (criteria
    /// without a gradient hook fall back to the paper's cross-entropy
    /// objective).
    pub fn gradient_generator(&self, config: GradGenConfig) -> GradientGenerator {
        GradientGenerator::with_engine(self.inner.analyzer.engine().clone(), config)
            .with_objective(self.criterion().gradient_objective())
    }

    /// The combined generator (Section IV-D) through this evaluator.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`crate::combined::generate_combined`].
    pub fn generate_combined(
        &self,
        candidates: &[Tensor],
        config: &CombinedConfig,
    ) -> Result<CombinedResult> {
        combined::generate_combined(self, candidates, config)
    }

    /// Uniform generation front-end (every [`GenerationMethod`]) through this
    /// evaluator.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`crate::generator::generate_tests`].
    pub fn generate_tests(
        &self,
        training_pool: &[Tensor],
        method: GenerationMethod,
        config: &GenerationConfig,
    ) -> Result<GeneratedTests> {
        generator::generate_tests(self, training_pool, method, config)
    }

    /// Run a detection-rate experiment against this evaluator's network,
    /// honoring the caller's [`DetectionConfig`] as-is (including its `exec`
    /// fan-out policy — reports are bit-identical across policies either way).
    ///
    /// Use [`Evaluator::detection_config`] to derive a config that shares this
    /// evaluator's execution policy.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`dnnip_faults::detection::detection_rate`].
    pub fn detection_rate(
        &self,
        attack: &dyn Attack,
        probes: &[Tensor],
        tests: &[Tensor],
        config: &DetectionConfig,
    ) -> Result<DetectionReport> {
        Ok(detection::detection_rate(
            self.network(),
            attack,
            probes,
            tests,
            config,
        )?)
    }

    /// A copy of `config` whose trial fan-out uses this evaluator's execution
    /// policy — the one-knob convenience for callers that want coverage and
    /// detection to share thread settings.
    pub fn detection_config(&self, config: &DetectionConfig) -> DetectionConfig {
        DetectionConfig {
            exec: self.inner.analyzer.config().exec,
            ..*config
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::EpsilonPolicy;
    use crate::criterion::{NeuronActivation, ParamGradient, TopKNeuron};
    use crate::par::ExecPolicy;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(6, 12, 4, Activation::Relu, 3).unwrap()
    }

    fn samples(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 6 + j) as f32 * 0.37).sin()))
            .collect()
    }

    #[test]
    fn cached_sets_match_fresh_analyzer_sets() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let analyzer = CoverageAnalyzer::new(&network, CoverageConfig::default());
        let pool = samples(8);
        let first = evaluator.activation_sets(&pool).unwrap();
        let second = evaluator.activation_sets(&pool).unwrap();
        assert_eq!(first, second, "cache hit changed the bits");
        assert_eq!(first, analyzer.activation_sets(&pool).unwrap());
        let stats = evaluator.cache_stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 8);
        assert_eq!(stats.insertions, 8);
        assert_eq!(stats.entries, 8);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Per-criterion counters see the same traffic under the criterion id.
        let per = evaluator.criterion_cache_stats();
        assert_eq!(per.hits, 8);
        assert_eq!(per.misses, 8);
        assert_eq!(per.entries, 8);
        let by = evaluator.cache_stats_by_criterion();
        assert_eq!(by.len(), 1);
        assert_eq!(by[0].0, "param-gradient");
    }

    #[test]
    fn coverage_entry_points_agree_with_the_analyzer() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let analyzer = CoverageAnalyzer::new(&network, CoverageConfig::default());
        let pool = samples(5);
        assert_eq!(
            evaluator.coverage_of_set(&pool).unwrap(),
            analyzer.coverage_of_set(&pool).unwrap()
        );
        assert_eq!(
            evaluator.mean_sample_coverage(&pool).unwrap(),
            analyzer.mean_sample_coverage(&pool).unwrap()
        );
        assert_eq!(
            evaluator.coverage_of_sample(&pool[0]).unwrap(),
            analyzer.coverage_of_sample(&pool[0]).unwrap()
        );
        assert!(evaluator.mean_sample_coverage(&[]).is_err());
        assert!(evaluator.select_from_training_set(&[], 3).is_err());
    }

    #[test]
    fn tampering_the_network_changes_the_cache_key() {
        let network = net();
        let mut tampered = network.clone();
        tampered.perturb_parameter(0, 0.5).unwrap();
        let a = Evaluator::new(&network, CoverageConfig::default());
        let b = Evaluator::new(&tampered, CoverageConfig::default());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Different criterion configs address different entries too.
        let strict = Evaluator::new(
            &network,
            CoverageConfig {
                epsilon: EpsilonPolicy::Absolute(0.1),
                ..CoverageConfig::default()
            },
        );
        assert_ne!(a.inner.criterion_key, strict.inner.criterion_key);
        // And different criteria have different keys entirely.
        let neuron = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        let topk = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(TopKNeuron::default()),
        );
        assert_ne!(a.inner.criterion_key, neuron.inner.criterion_key);
        assert_ne!(neuron.inner.criterion_key, topk.inner.criterion_key);
    }

    #[test]
    fn quantized_forward_path_never_aliases_full_precision_cache_entries() {
        use crate::coverage::ForwardPrecision;
        let network = net();
        let quant_cfg = CoverageConfig {
            precision: ForwardPrecision::QuantizedInt8,
            ..CoverageConfig::default()
        };
        // Same criterion, different effective model → different cache keys.
        let full = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        let quant =
            Evaluator::with_criterion(&network, quant_cfg, Arc::new(NeuronActivation::default()));
        assert_ne!(full.inner.criterion_key, quant.inner.criterion_key);
        // A gradient criterion ignores the flag, so its key is unchanged and
        // its cached sets remain shared between the two configurations.
        let grad_full = Evaluator::new(&network, CoverageConfig::default());
        let grad_quant = Evaluator::new(&network, quant_cfg);
        assert_eq!(
            grad_full.inner.criterion_key,
            grad_quant.inner.criterion_key
        );
        // End to end: both evaluators produce their own (differing) sets.
        let pool = samples(4);
        let a = full.activation_sets(&pool).unwrap();
        let b = quant.activation_sets(&pool).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn eviction_under_a_tiny_budget_never_corrupts_results() {
        let network = net();
        let analyzer = CoverageAnalyzer::new(&network, CoverageConfig::default());
        let pool = samples(10);
        // Budget for roughly two entries (sized from the pool's real
        // compressed footprints): every new insert evicts.
        let entry = analyzer
            .activation_sets(&pool)
            .unwrap()
            .iter()
            .map(|b| CoveredSet::from_bitset(b).resident_bytes() + ENTRY_OVERHEAD_BYTES)
            .max()
            .unwrap();
        let evaluator = Evaluator::with_cache_bytes(&network, CoverageConfig::default(), entry * 2);
        for _ in 0..3 {
            let sets = evaluator.activation_sets(&pool).unwrap();
            assert_eq!(sets, analyzer.activation_sets(&pool).unwrap());
        }
        let stats = evaluator.cache_stats();
        assert!(stats.evictions > 0, "tiny budget must evict");
        assert!(stats.entries <= 2);
        assert!(stats.bytes <= entry * 2);
        // Per-criterion gauges track the same residency.
        let per = evaluator.criterion_cache_stats();
        assert_eq!(per.entries, stats.entries);
        assert_eq!(per.bytes, stats.bytes);
        assert_eq!(per.evictions, stats.evictions);
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let network = net();
        let evaluator = Evaluator::with_cache_bytes(&network, CoverageConfig::default(), 0);
        let pool = samples(4);
        let a = evaluator.activation_sets(&pool).unwrap();
        let b = evaluator.activation_sets(&pool).unwrap();
        assert_eq!(a, b);
        let stats = evaluator.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.entries, 0);
        // The forward-output cache is disabled alongside.
        let g1 = evaluator.forward_outputs(&pool).unwrap();
        let g2 = evaluator.forward_outputs(&pool).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(evaluator.output_cache_stats().hits, 0);
    }

    #[test]
    fn duplicate_samples_in_one_request_are_computed_once() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let one = samples(1).pop().unwrap();
        let pool = vec![one.clone(), one.clone(), one];
        let sets = evaluator.activation_sets(&pool).unwrap();
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
        // One fresh computation, one insertion; duplicates are not lookups.
        let stats = evaluator.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn exec_policy_does_not_change_cached_results() {
        let network = net();
        let serial = Evaluator::new(&network, CoverageConfig::default());
        let threaded = Evaluator::new(
            &network,
            CoverageConfig {
                exec: ExecPolicy::Threads(4),
                batch_size: 3,
                ..CoverageConfig::default()
            },
        );
        let pool = samples(9);
        // Warm both caches, then compare the cached reads.
        let a0 = serial.activation_sets(&pool).unwrap();
        let b0 = threaded.activation_sets(&pool).unwrap();
        let a1 = serial.activation_sets(&pool).unwrap();
        let b1 = threaded.activation_sets(&pool).unwrap();
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        assert_eq!(a0, a1);
    }

    #[test]
    fn criterion_evaluators_use_criterion_units_and_caches() {
        let network = net();
        let pool = samples(6);
        let neuron = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        assert_eq!(neuron.num_units(), 12);
        assert_eq!(neuron.criterion().id(), "neuron-activation");
        let fresh = CoverageAnalyzer::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        )
        .activation_sets(&pool)
        .unwrap();
        let cold = neuron.activation_sets(&pool).unwrap();
        let warm = neuron.activation_sets(&pool).unwrap();
        assert_eq!(cold, fresh);
        assert_eq!(warm, fresh);
        let per = neuron.criterion_cache_stats();
        assert_eq!(per.misses as usize, pool.len());
        assert_eq!(per.hits as usize, pool.len());
        // The param-gradient slice of this evaluator's cache is untouched.
        assert_eq!(
            neuron.inner.cache.stats_for("param-gradient"),
            CacheStats {
                max_bytes: neuron.inner.cache.max_bytes,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn same_criterion_different_config_never_aliases() {
        let network = net();
        let pool = samples(4);
        let loose = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation { threshold: 0.0 }),
        );
        let strict = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation { threshold: 1.5 }),
        );
        assert_ne!(loose.inner.criterion_key, strict.inner.criterion_key);
        let a = loose.activation_sets(&pool).unwrap();
        let b = strict.activation_sets(&pool).unwrap();
        // Different thresholds genuinely see different sets on this pool.
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.count_ones() != y.count_ones()));
    }

    #[test]
    fn forward_outputs_are_cached_and_match_direct_inference() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let pool = samples(5);
        let cold = evaluator.forward_outputs(&pool).unwrap();
        for (x, golden) in pool.iter().zip(&cold) {
            assert_eq!(golden, &network.forward_sample(x).unwrap());
        }
        // A prefix replay is answered entirely from the cache.
        let warm = evaluator.forward_outputs(&pool[..3]).unwrap();
        assert_eq!(warm, cold[..3].to_vec());
        let stats = evaluator.output_cache_stats();
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 3);
        // Duplicates within one request compute once.
        let dup = vec![pool[0].clone(), pool[0].clone()];
        evaluator.forward_outputs(&dup).unwrap();
        assert_eq!(evaluator.output_cache_stats().misses, 5);
    }

    #[test]
    fn criterion_gradient_generators_pick_up_the_objective() {
        let network = net();
        let pg = Evaluator::new(&network, CoverageConfig::default());
        let nk = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        let config = GradGenConfig {
            steps: 4,
            ..GradGenConfig::default()
        };
        assert_eq!(pg.gradient_generator(config).objective_name(), None);
        assert_eq!(
            nk.gradient_generator(config).objective_name(),
            Some("target-logit")
        );
        // ParamGradient evaluators produce exactly the plain generator's batch.
        let mut via_eval = pg.gradient_generator(config);
        let mut plain = GradientGenerator::new(&network, config);
        let a = via_eval.generate_batch().unwrap();
        let b = plain.generate_batch().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.input, y.input);
        }
        let _ = ParamGradient::default();
    }

    /// A key for the single-flight race tests: any distinct `(u64, u64)` pair
    /// works because the cache only compares digests.
    fn race_key(sample: (u64, u64)) -> CacheKey {
        CacheKey {
            net: NetworkFingerprint::of_bytes(b"single-flight-test"),
            sample,
            criterion: 7,
        }
    }

    fn one_bit_set() -> Bitset {
        let mut set = Bitset::new(64);
        set.set(3);
        set
    }

    #[test]
    fn racing_threads_on_one_cold_key_compute_it_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let cache: Arc<ContentCache<Bitset>> = Arc::new(ContentCache::new(1 << 20));
        let computes = Arc::new(AtomicUsize::new(0));
        let sample = samples(1).pop().unwrap();
        // The owner signals from inside its compute closure, then blocks until
        // the main thread confirms the second thread has parked on the flight.
        let (in_compute_tx, in_compute_rx) = mpsc::channel::<()>();
        let (proceed_tx, proceed_rx) = mpsc::channel::<()>();
        let owner = {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let sample = sample.clone();
            std::thread::spawn(move || {
                cache.get_or_compute(
                    std::slice::from_ref(&sample),
                    |_| race_key((1, 2)),
                    "race",
                    move |misses| {
                        computes.fetch_add(1, Ordering::SeqCst);
                        in_compute_tx.send(()).unwrap();
                        proceed_rx.recv().unwrap();
                        Ok(vec![one_bit_set(); misses.len()])
                    },
                )
            })
        };
        in_compute_rx.recv().unwrap();
        // The key is now claimed and mid-compute: a second lookup of it must
        // park on the flight table, not run its own computation.
        let waiter = {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            std::thread::spawn(move || {
                cache.get_or_compute(
                    std::slice::from_ref(&sample),
                    |_| race_key((1, 2)),
                    "race",
                    move |misses| {
                        computes.fetch_add(1, Ordering::SeqCst);
                        Ok(vec![one_bit_set(); misses.len()])
                    },
                )
            })
        };
        // Give the waiter time to reach the flight table, then let the owner
        // finish. (If the waiter instead lands after the insert, it scores a
        // plain hit and the assertions below still hold except `flight_hits`,
        // which the sleep makes effectively impossible to miss.)
        std::thread::sleep(std::time::Duration::from_millis(50));
        proceed_tx.send(()).unwrap();
        let a = owner.join().unwrap().unwrap();
        let b = waiter.join().unwrap().unwrap();
        assert_eq!(a, b);
        assert_eq!(computes.load(Ordering::SeqCst), 1, "duplicated compute");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.flight_hits, 1);
    }

    #[test]
    fn failed_flight_wakes_waiter_into_its_own_compute() {
        use std::sync::mpsc;

        let cache: Arc<ContentCache<Bitset>> = Arc::new(ContentCache::new(1 << 20));
        let sample = samples(1).pop().unwrap();
        let (in_compute_tx, in_compute_rx) = mpsc::channel::<()>();
        let (proceed_tx, proceed_rx) = mpsc::channel::<()>();
        let owner = {
            let cache = Arc::clone(&cache);
            let sample = sample.clone();
            std::thread::spawn(move || {
                cache.get_or_compute(
                    std::slice::from_ref(&sample),
                    |_| race_key((3, 4)),
                    "race",
                    move |_| -> Result<Vec<Bitset>> {
                        in_compute_tx.send(()).unwrap();
                        proceed_rx.recv().unwrap();
                        Err(CoreError::EmptyCandidatePool)
                    },
                )
            })
        };
        in_compute_rx.recv().unwrap();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(
                    std::slice::from_ref(&sample),
                    |_| race_key((3, 4)),
                    "race",
                    |misses| Ok(vec![one_bit_set(); misses.len()]),
                )
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        proceed_tx.send(()).unwrap();
        // The owner's failure must propagate to the owner only; the waiter
        // wakes, wins the abandoned claim, and computes its own value.
        assert!(owner.join().unwrap().is_err());
        let value = waiter.join().unwrap().unwrap();
        assert_eq!(value.len(), 1);
        assert_eq!(*value[0], one_bit_set());
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "owner and fallback each count one miss");
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.flight_hits, 0);
        assert_eq!(stats.entries, 1);
    }
}
