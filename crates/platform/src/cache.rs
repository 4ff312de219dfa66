//! The kernel image cache (§3.1's rebuild-skip optimization).
//!
//! "The build task can be skipped if the differences between the current
//! configuration to explore and the previous one only relate to runtime
//! parameters": two configurations with equal compile+boot fingerprints
//! share an image. The cache is bounded (images are gigabytes on a real
//! platform) with least-recently-used eviction.

use std::collections::HashMap;
use wf_ossim::KernelImage;

/// A bounded LRU cache of built kernel images keyed by stage fingerprint.
#[derive(Debug)]
pub struct ImageCache {
    capacity: usize,
    map: HashMap<u64, (KernelImage, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ImageCache {
    /// Creates a cache holding at most `capacity` images.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ImageCache {
            capacity,
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks an image up, refreshing its recency on hit.
    pub fn get(&mut self, fingerprint: u64) -> Option<KernelImage> {
        self.tick += 1;
        match self.map.get_mut(&fingerprint) {
            Some((img, stamp)) => {
                *stamp = self.tick;
                self.hits += 1;
                Some(img.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly built image, evicting the least recently used
    /// entry when full.
    pub fn insert(&mut self, image: KernelImage) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&image.fingerprint) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(image.fingerprint, (image, self.tick));
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fp: u64) -> KernelImage {
        KernelImage {
            fingerprint: fp,
            image_mb: 100.0,
            enabled_options: 10,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = ImageCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(image(1));
        assert_eq!(c.get(1).unwrap().fingerprint, 1);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ImageCache::new(2);
        c.insert(image(1));
        c.insert(image(2));
        let _ = c.get(1); // refresh 1
        c.insert(image(3)); // evicts 2
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_same_fingerprint_does_not_evict() {
        let mut c = ImageCache::new(2);
        c.insert(image(1));
        c.insert(image(2));
        c.insert(image(2));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some());
    }
}
