//! Sharded cache of verification verdicts.
//!
//! The expensive part of serving an answer is the verifier's two
//! residual-graph BFS passes (the optimality certificates). When two
//! sessions present the *same* (challenge, answer) pair for the same
//! device — an honest device's answer is deterministic — the flow checks
//! can be served from cache. The issuer samples every challenge fresh,
//! so that happens only when a challenge repeats by chance — often on a
//! small device, practically never at paper scale, where every miss
//! pays for the two fingerprints. Only the *timeless* part of the report
//! is stored (feasibility, maximality, response consistency); the
//! deadline check depends on the individual session and is always
//! recomputed by the caller.
//!
//! Keys are `(device id, challenge fingerprint, answer fingerprint)`;
//! fingerprints are 64-bit [`SipHash`](std::collections::hash_map::DefaultHasher)
//! digests, so a false hit needs a ~2⁻⁶⁴ collision on a non-adversarial
//! hash of the full flow function. The map is split into shards, each
//! behind its own mutex, so dispatch threads do not serialize on one lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use ppuf_core::challenge::Challenge;
use ppuf_core::protocol::auth::{ProverAnswer, VerificationReport};

/// 64-bit digest of a challenge (terminals plus every control bit).
pub fn challenge_fingerprint(challenge: &Challenge) -> u64 {
    let mut hasher = DefaultHasher::new();
    challenge.hash(&mut hasher);
    hasher.finish()
}

/// 64-bit digest of an answer (response bit plus both full flow
/// functions, bit-exact).
pub fn answer_fingerprint(answer: &ProverAnswer) -> u64 {
    let mut hasher = DefaultHasher::new();
    answer.response.hash(&mut hasher);
    for flow in [&answer.flow_a, &answer.flow_b] {
        flow.value().to_bits().hash(&mut hasher);
        for f in flow.edge_flows() {
            f.to_bits().hash(&mut hasher);
        }
    }
    hasher.finish()
}

type CacheKey = (String, u64, u64);

/// Sharded `(device, challenge, answer) → verdict` map with bounded
/// per-shard size.
#[derive(Debug)]
pub struct VerificationCache {
    shards: Vec<Mutex<HashMap<CacheKey, VerificationReport>>>,
    shard_capacity: usize,
}

impl VerificationCache {
    /// Creates a cache with `shards` independent shards of at most
    /// `shard_capacity` entries each (both clamped to at least 1).
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        VerificationCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: shard_capacity.max(1),
        }
    }

    /// Looks up a stored verdict.
    pub fn get(
        &self,
        device_id: &str,
        challenge_fp: u64,
        answer_fp: u64,
    ) -> Option<VerificationReport> {
        let shard = self.shard(challenge_fp, answer_fp);
        let map = lock(&self.shards[shard]);
        map.get(&(device_id.to_string(), challenge_fp, answer_fp)).copied()
    }

    /// Stores a verdict. When the target shard is full its contents are
    /// discarded first — coarse, but eviction precision is irrelevant for
    /// a replay-style cache and it keeps the hot path allocation-free.
    /// Returns the number of entries evicted to make room, so callers can
    /// count `server.cache.evictions`.
    pub fn insert(
        &self,
        device_id: &str,
        challenge_fp: u64,
        answer_fp: u64,
        report: VerificationReport,
    ) -> usize {
        let shard = self.shard(challenge_fp, answer_fp);
        let mut map = lock(&self.shards[shard]);
        let mut evicted = 0;
        if map.len() >= self.shard_capacity
            && !map.contains_key(&(device_id.to_string(), challenge_fp, answer_fp))
        {
            evicted = map.len();
            map.clear();
        }
        map.insert((device_id.to_string(), challenge_fp, answer_fp), report);
        evicted
    }

    /// Drops every entry for one device (used on revocation so a
    /// re-registered id cannot inherit stale verdicts).
    pub fn invalidate_device(&self, device_id: &str) {
        for shard in &self.shards {
            lock(shard).retain(|(id, _, _), _| id != device_id);
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, challenge_fp: u64, answer_fp: u64) -> usize {
        // mix both fingerprints so shard choice is not challenge-only
        let mixed = challenge_fp ^ answer_fp.rotate_left(32);
        (mixed % self.shards.len() as u64) as usize
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppuf_core::protocol::auth::NetworkVerdict;
    use ppuf_maxflow::NodeId;

    fn challenge(bits: &[bool]) -> Challenge {
        Challenge { source: NodeId::new(0), sink: NodeId::new(1), control_bits: bits.to_vec() }
    }

    fn report(accepted: bool) -> VerificationReport {
        let verdict = NetworkVerdict { feasible: accepted, maximal: accepted };
        VerificationReport {
            network_a: verdict,
            network_b: verdict,
            response_consistent: accepted,
            within_deadline: true,
        }
    }

    #[test]
    fn hit_after_insert_per_device() {
        let cache = VerificationCache::new(4, 16);
        let cfp = challenge_fingerprint(&challenge(&[true, false]));
        let afp = 99;
        assert_eq!(cache.get("dev", cfp, afp), None);
        cache.insert("dev", cfp, afp, report(true));
        assert_eq!(cache.get("dev", cfp, afp), Some(report(true)));
        // same fingerprints, different device: miss
        assert_eq!(cache.get("other", cfp, afp), None);
    }

    #[test]
    fn distinct_challenges_have_distinct_fingerprints() {
        let a = challenge_fingerprint(&challenge(&[true, false, true]));
        let b = challenge_fingerprint(&challenge(&[true, true, true]));
        assert_ne!(a, b);
    }

    #[test]
    fn full_shard_is_recycled_not_grown() {
        let cache = VerificationCache::new(1, 8);
        let mut evicted = 0;
        for i in 0..100u64 {
            evicted += cache.insert("dev", i, i, report(true));
        }
        assert!(cache.len() <= 8, "bounded at shard capacity, got {}", cache.len());
        // 100 inserts through a size-8 shard must have recycled it 12
        // times at 8 entries apiece
        assert_eq!(evicted, 96);
    }

    #[test]
    fn invalidate_device_is_selective() {
        let cache = VerificationCache::new(4, 16);
        cache.insert("dev-a", 1, 1, report(true));
        cache.insert("dev-b", 2, 2, report(false));
        cache.invalidate_device("dev-a");
        assert_eq!(cache.get("dev-a", 1, 1), None);
        assert_eq!(cache.get("dev-b", 2, 2), Some(report(false)));
    }

    #[test]
    fn invalidate_device_drops_exactly_that_device_across_all_shards() {
        // regression: fingerprints 0..64 land in every one of the 8
        // shards, and both devices share every fingerprint pair, so a
        // per-shard retain that matched on anything but the device id
        // would either leave dev-a leftovers or eat dev-b entries
        let cache = VerificationCache::new(8, 64);
        for i in 0..64u64 {
            cache.insert("dev-a", i, i.rotate_left(17), report(true));
            cache.insert("dev-b", i, i.rotate_left(17), report(false));
        }
        assert_eq!(cache.len(), 128);
        cache.invalidate_device("dev-a");
        assert_eq!(cache.len(), 64, "exactly dev-a's entries must go");
        for i in 0..64u64 {
            assert_eq!(cache.get("dev-a", i, i.rotate_left(17)), None);
            assert_eq!(
                cache.get("dev-b", i, i.rotate_left(17)),
                Some(report(false)),
                "dev-b entry {i} must survive dev-a's invalidation"
            );
        }
    }

    #[test]
    fn poisoned_shard_recovers() {
        // regression: a worker panicking while holding a shard lock must
        // not take the cache down with it
        let cache = VerificationCache::new(1, 16);
        cache.insert("dev", 1, 1, report(true));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock(&cache.shards[0]);
            panic!("worker died holding the shard");
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.get("dev", 1, 1), Some(report(true)));
        cache.insert("dev", 2, 2, report(false));
        assert_eq!(cache.len(), 2);
    }
}
