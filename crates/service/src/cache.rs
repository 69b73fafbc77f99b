//! Sharded LRU response cache.
//!
//! Keys are canonicalized request documents (see
//! [`Request::cache_key`](crate::protocol::Request::cache_key)); values are
//! fully rendered response lines, so a hit costs one hash, one shard lock
//! and one `Arc` clone — no recomputation and no re-serialization. Sharding
//! keeps the lock uncontended under the thread-pool server's concurrency.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// One shard: an LRU map from canonical key to rendered response.
///
/// Recency is tracked with a monotone sequence number per entry and a
/// `BTreeMap` from sequence to key, making get/put `O(log n)` in the shard
/// size — plenty below the cost of hashing the key, and far simpler than an
/// intrusive list.
struct Shard {
    entries: HashMap<String, (Arc<String>, u64)>,
    by_recency: BTreeMap<u64, String>,
    next_seq: u64,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            entries: HashMap::new(),
            by_recency: BTreeMap::new(),
            next_seq: 0,
            capacity,
        }
    }

    fn touch(&mut self, key: &str) -> Option<Arc<String>> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (value, old_seq) = self.entries.get_mut(key)?;
        let value = Arc::clone(value);
        self.by_recency.remove(old_seq);
        *old_seq = seq;
        self.by_recency.insert(seq, key.to_string());
        Some(value)
    }

    fn insert(&mut self, key: String, value: Arc<String>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some((_, old_seq)) = self.entries.insert(key.clone(), (value, seq)) {
            self.by_recency.remove(&old_seq);
        }
        self.by_recency.insert(seq, key);
        while self.entries.len() > self.capacity {
            let (_, evicted) = self
                .by_recency
                .pop_first()
                .expect("recency map tracks every entry");
            self.entries.remove(&evicted);
        }
    }
}

/// A sharded LRU cache. It counts nothing: the server counts its hits and
/// misses per request kind ([`Metrics`](crate::metrics::Metrics)).
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
}

impl ResponseCache {
    /// A cache of `capacity` total entries spread over `shards` shards
    /// (both floored at 1; capacity is rounded up to a multiple of the
    /// shard count).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ResponseCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Look up a canonical key, refreshing its recency.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        self.shard_for(key).lock().expect("cache lock").touch(key)
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used
    /// entries of its shard beyond capacity.
    pub fn put(&self, key: String, value: Arc<String>) {
        self.shard_for(&key)
            .lock()
            .expect("cache lock")
            .insert(key, value);
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").entries.len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Single shard so the eviction order is fully observable.
        let cache = ResponseCache::new(2, 1);
        cache.put("a".into(), arc("va"));
        cache.put("b".into(), arc("vb"));
        cache.get("a"); // refresh a; b is now the LRU entry
        cache.put("c".into(), arc("vc"));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "LRU entry should be evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let cache = ResponseCache::new(4, 1);
        cache.put("k".into(), arc("v1"));
        cache.put("k".into(), arc("v2"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("k").as_deref().map(String::as_str), Some("v2"));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ResponseCache::new(64, 8));
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..500 {
                        let key = format!("k{}", (t * 31 + i) % 100);
                        if cache.get(&key).is_none() {
                            cache.put(key.clone(), Arc::new(format!("v{key}")));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 64);
    }
}
