//! The predicate *join index*: the engine-level analog of the hash join the
//! paper observes Saxon building for Bulk RPC (§4, Table 3).
//!
//! When a bulk request makes the same selection predicate — `//person[@id =
//! $pid]`, or the semi-join's `//closed_auction[./buyer/@person = $pid]` —
//! run once per call, a naive tree-walker rescans the whole document per
//! call (O(n·m)). This cache stores, per (document, element name, key-path)
//! combination, a hash map from key value to matching nodes, making each
//! subsequent probe O(1) — exactly the "selection becomes a join" effect of
//! Bulk RPC.
//!
//! The cache itself is key-agnostic: the evaluator builds the map (it knows
//! how to evaluate the key path per element) and registers it here.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use xmldom::{Document, NodeId};

/// Key: (document identity, element local name, key-path fingerprint).
type Key = (usize, String, String);

/// value → matching element ids, in document order.
pub type ValueIndex = HashMap<String, Vec<NodeId>>;

#[derive(Default)]
pub struct JoinIndexCache {
    maps: Mutex<HashMap<Key, Arc<ValueIndex>>>,
}

impl JoinIndexCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(doc: &Arc<Document>, elem_local: &str, fingerprint: &str) -> Key {
        (
            Arc::as_ptr(doc) as usize,
            elem_local.to_string(),
            fingerprint.to_string(),
        )
    }

    /// Fetch an existing index.
    pub fn get(
        &self,
        doc: &Arc<Document>,
        elem_local: &str,
        fingerprint: &str,
    ) -> Option<Arc<ValueIndex>> {
        self.maps
            .lock()
            .get(&Self::key(doc, elem_local, fingerprint))
            .cloned()
    }

    /// Register a freshly built index.
    pub fn insert(
        &self,
        doc: &Arc<Document>,
        elem_local: &str,
        fingerprint: &str,
        map: ValueIndex,
    ) -> Arc<ValueIndex> {
        let map = Arc::new(map);
        self.maps
            .lock()
            .insert(Self::key(doc, elem_local, fingerprint), map.clone());
        map
    }

    pub fn clear(&self) {
        self.maps.lock().clear();
    }

    pub fn len(&self) -> usize {
        self.maps.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.maps.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::parse;

    #[test]
    fn insert_then_get_by_identity_and_fingerprint() {
        let d1 = Arc::new(parse(r#"<db><p id="1"/></db>"#).unwrap());
        let d2 = Arc::new(parse(r#"<db><p id="1"/></db>"#).unwrap());
        let cache = JoinIndexCache::new();
        assert!(cache.get(&d1, "p", "@id").is_none());
        let mut m = ValueIndex::new();
        m.insert("1".into(), vec![d1.first_child(d1.root()).unwrap()]);
        cache.insert(&d1, "p", "@id", m);
        assert!(cache.get(&d1, "p", "@id").is_some());
        // different doc or fingerprint miss
        assert!(cache.get(&d2, "p", "@id").is_none());
        assert!(cache.get(&d1, "p", "buyer/@person").is_none());
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }
}
