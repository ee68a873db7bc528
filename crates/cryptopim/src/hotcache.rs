//! Hot-operand transform cache: content-addressed reuse of forward-NTT
//! images across multiplies (ROADMAP item 2's "hot-key caching").
//!
//! Protocol workloads multiply many ciphertexts against a small set of
//! reused operands (public keys, evaluation keys, relinearization
//! digits). The forward transform of such an operand is recomputed on
//! every multiply even though its coefficients never change — on both
//! the engine datapath (ψ pre-multiply + `log n` stages for the `a`
//! side) and the `Recompute` referee's software datapath. [`HotCache`]
//! is a bounded, content-hashed LRU over those transforms: a multiply
//! whose `a` operand hits skips its forward transform on both paths.
//!
//! ## One image form serves both paths
//!
//! The cache stores a single [`Arc`]'d vector per operand: the
//! **merged-layout canonical spectrum** — spectrum value `X[k]` at index
//! `rev(k)`, reduced below `q`. That is the layout the vectorized merged
//! kernels ([`ntt::merged`]) leave behind, so the fused engine batch and
//! the `Recompute` referee splice a hit with a plain copy and capture a
//! miss with a copy plus one conditional subtraction (a canonical value
//! is a valid `< 2q` lazy input, and the products are independent of
//! representatives). Only the row-centric sequential, armed and parallel
//! engine datapaths, whose rows hold natural order, gather through `rev`
//! (pinned by the engine test
//! `engine_forward_image_is_the_merged_spectrum`).
//!
//! ## Keying, collisions, invalidation
//!
//! Keys are `(n, q, content_hash(coeffs))`, computed once per operand:
//! a miss hands its [`HotKey`] back to the caller, which passes it to
//! [`HotCache::insert`]. Hashing alone is not an identity check, so
//! every entry retains a copy of its coefficients and a lookup compares
//! them word for word before reporting a hit — a hash collision degrades
//! to a miss, never a wrong transform. The whole cache is invalidated by
//! [`HotCache::bump_epoch`] (the serving layer calls it when a bank is
//! quarantined): entries are dropped rather than epoch-tagged, so a
//! post-quarantine multiply can never replay a transform captured on
//! hardware that has since been declared bad.
//!
//! ## Soundness under faults
//!
//! A cached image is only as trustworthy as its producer, so insertion
//! policy — not lookup policy — carries the soundness argument (see
//! DESIGN.md §14): captures from an engine running under an armed fault
//! injector are never inserted, while the `Recompute` referee's own
//! forward spectra (computed in host memory, outside any fault path)
//! always are. Lookups stay allowed under faults: a hit lane's
//! downstream phases still route through the (possibly faulty) write
//! path, and the referee — which recomputes from content-verified
//! spectra — still rejects any corrupt product.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Odd 64-bit mixing multiplier (SeaHash's constant).
const MIX_K: u64 = 0x6eed_0e9d_a4d9_4a4f;

/// Per-lane seeds (SeaHash's four, then four more distinct constants).
const LANE_SEEDS: [u64; 8] = [
    0x16f1_1fe8_9b0d_677c,
    0xb480_a793_d8e6_c86c,
    0x6fe2_e5aa_f078_ebc9,
    0x14f9_94a4_c525_9381,
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];

/// One multiply by an odd constant and one xorshift: a bijection on
/// `u64`, so from a given lane state distinct words give distinct next
/// states.
#[inline(always)]
fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(MIX_K);
    x ^ (x >> 29)
}

/// Full avalanche for the final fold (multiply, data-dependent
/// xorshift, multiply; also a bijection).
#[inline]
fn diffuse(mut x: u64) -> u64 {
    x = x.wrapping_mul(MIX_K);
    x ^= (x >> 32) >> (x >> 60);
    x.wrapping_mul(MIX_K)
}

/// Content hash of a word slice (the coefficient vector), std-only.
///
/// Eight independent lanes, each absorbing every eighth word with one
/// multiply–xorshift, so the multiplier chains overlap instead of
/// serializing; the lanes then fold in order, seeded with the length.
/// Every per-word step is a bijection, so changing any single word
/// always changes its lane and therefore the hash. Used purely as a
/// content address — identity is always confirmed against the stored
/// coefficients, so the only property required here is a low collision
/// rate.
fn content_hash(words: &[u64]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut chunks = words.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &w) in lanes.iter_mut().zip(chunk) {
            *lane = mix(*lane ^ w);
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = mix(*lane ^ w);
    }
    lanes
        .iter()
        .fold(words.len() as u64, |h, &lane| diffuse(h ^ lane))
}

/// The cache key of one operand: `(n, q, content_hash(coeffs))`.
///
/// Computing it is the only hashing an operand needs: [`HotCache::lookup`]
/// returns it on a miss so the later [`HotCache::insert`] reuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HotKey {
    n: usize,
    q: u64,
    hash: u64,
}

impl HotKey {
    /// Hashes an operand's coefficients under its `(n, q)`.
    pub(crate) fn new(n: usize, q: u64, coeffs: &[u64]) -> Self {
        HotKey {
            n,
            q,
            hash: content_hash(coeffs),
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// Full operand copy: the collision-proof identity check.
    coeffs: Vec<u64>,
    /// Merged-layout canonical forward spectrum (see the module docs).
    image: Arc<Vec<u64>>,
    /// LRU clock stamp of the last touch.
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<HotKey, Entry>,
    clock: u64,
}

/// A bounded, content-hashed LRU of forward-NTT operand images.
///
/// Shared across serving workers behind an [`Arc`]; the interior mutex
/// is held only for the map operation itself (hash computation and the
/// image copy happen outside it), and hit/miss counters are lock-free.
#[derive(Debug)]
pub struct HotCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    epoch: AtomicU64,
    inner: Mutex<Inner>,
}

impl HotCache {
    /// Creates a cache holding at most `capacity` operand images
    /// (`capacity` 0 disables insertion, so every lookup misses).
    pub fn new(capacity: usize) -> Self {
        HotCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Maximum number of cached images.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of images currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("hot cache poisoned").map.len()
    }

    /// Whether the cache currently holds no images.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that returned an image since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (or a hash collision) since
    /// construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The invalidation epoch (bumped by [`HotCache::bump_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Invalidates every cached image and advances the epoch. Called by
    /// the serving layer when a bank is quarantined: images captured on
    /// hardware now declared bad must never be replayed.
    pub fn bump_epoch(&self) {
        let mut inner = self.inner.lock().expect("hot cache poisoned");
        self.epoch.fetch_add(1, Ordering::Relaxed);
        inner.map.clear();
    }

    /// Looks up the forward image of an operand, updating its LRU stamp
    /// and the hit/miss counters. A miss — including a hash collision
    /// (same key, different coefficients) — returns the operand's key,
    /// so inserting its image later costs no second hash.
    pub fn lookup(&self, n: usize, q: u64, coeffs: &[u64]) -> Result<Arc<Vec<u64>>, HotKey> {
        let key = HotKey::new(n, q, coeffs);
        let mut inner = self.inner.lock().expect("hot cache poisoned");
        let inner = &mut *inner;
        if let Some(entry) = inner.map.get_mut(&key) {
            if entry.coeffs == coeffs {
                inner.clock += 1;
                entry.stamp = inner.clock;
                let image = Arc::clone(&entry.image);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(image);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Err(key)
    }

    /// Inserts (or refreshes) an operand's forward image under the key
    /// its missed [`HotCache::lookup`] returned, evicting the least-recently-touched entry when at capacity. No-op
    /// when the capacity is zero.
    ///
    /// Callers own the soundness contract: only insert images that are
    /// the operand's true spectrum (engine captures taken with no armed
    /// write path, or referee-computed spectra — see the module docs).
    pub fn insert(&self, key: HotKey, coeffs: &[u64], image: &[u64]) {
        if self.capacity == 0 {
            return;
        }
        debug_assert_eq!(coeffs.len(), key.n);
        debug_assert_eq!(image.len(), key.n);
        let entry_coeffs = coeffs.to_vec();
        let entry_image = Arc::new(image.to_vec());
        let mut inner = self.inner.lock().expect("hot cache poisoned");
        let inner = &mut *inner;
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(entry) = inner.map.get_mut(&key) {
            // Same content (or a collision replacing the older victim):
            // refresh in place, never grow.
            entry.coeffs = entry_coeffs;
            entry.image = entry_image;
            entry.stamp = stamp;
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(
            key,
            Entry {
                coeffs: entry_coeffs,
                image: entry_image,
                stamp,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coeffs(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 32
            })
            .collect()
    }

    #[test]
    fn content_hash_is_deterministic_and_content_sensitive() {
        let a = coeffs(64, 1);
        let mut b = a.clone();
        assert_eq!(content_hash(&a), content_hash(&b));
        b[63] ^= 1;
        assert_ne!(
            content_hash(&a),
            content_hash(&b),
            "single-bit flip must change the hash"
        );
        assert_ne!(
            content_hash(&a[..63]),
            content_hash(&a),
            "length is part of the hash"
        );
    }

    #[test]
    fn lookup_roundtrip_counts_hits_and_misses() {
        let cache = HotCache::new(4);
        let c = coeffs(8, 3);
        let img = coeffs(8, 4);
        let key = cache.lookup(8, 7681, &c).unwrap_err();
        assert_eq!(key, HotKey::new(8, 7681, &c), "a miss returns the key");
        cache.insert(key, &c, &img);
        assert_eq!(cache.lookup(8, 7681, &c).unwrap().as_slice(), &img[..]);
        // Same coefficients under a different modulus are a different key.
        assert!(cache.lookup(8, 12289, &c).is_err());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_touched() {
        let cache = HotCache::new(2);
        let (a, b, c) = (coeffs(4, 10), coeffs(4, 11), coeffs(4, 12));
        let img = coeffs(4, 13);
        cache.insert(HotKey::new(4, 7681, &a), &a, &img);
        cache.insert(HotKey::new(4, 7681, &b), &b, &img);
        // Touch `a`, then insert `c`: `b` is the LRU victim.
        assert!(cache.lookup(4, 7681, &a).is_ok());
        cache.insert(HotKey::new(4, 7681, &c), &c, &img);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(4, 7681, &a).is_ok());
        assert!(cache.lookup(4, 7681, &b).is_err(), "b must be evicted");
        assert!(cache.lookup(4, 7681, &c).is_ok());
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let cache = HotCache::new(4);
        let c = coeffs(8, 20);
        cache.insert(HotKey::new(8, 7681, &c), &c, &c);
        assert_eq!(cache.epoch(), 0);
        cache.bump_epoch();
        assert_eq!(cache.epoch(), 1);
        assert!(cache.is_empty());
        assert!(cache.lookup(8, 7681, &c).is_err());
    }

    #[test]
    fn zero_capacity_disables_insertion() {
        let cache = HotCache::new(0);
        let c = coeffs(8, 30);
        cache.insert(HotKey::new(8, 7681, &c), &c, &c);
        assert!(cache.lookup(8, 7681, &c).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn refresh_updates_in_place_without_growth() {
        let cache = HotCache::new(2);
        let c = coeffs(8, 40);
        let img1 = coeffs(8, 41);
        let img2 = coeffs(8, 42);
        cache.insert(HotKey::new(8, 7681, &c), &c, &img1);
        cache.insert(HotKey::new(8, 7681, &c), &c, &img2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(8, 7681, &c).unwrap().as_slice(), &img2[..]);
    }
}
