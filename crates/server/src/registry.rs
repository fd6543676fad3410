//! Device registry: device ids to published models and their per-device
//! protocol state.
//!
//! Registration is interior-mutable — the registry is shared behind an
//! `Arc` by every connection thread, so insertion, lookup, and revocation
//! all take `&self` under an `RwLock`. Lookups (the hot path: every
//! challenge and every answer) take the read lock only long enough to
//! clone an `Arc<DeviceEntry>`.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use ppuf_core::protocol::auth::Verifier;
use ppuf_core::protocol::issuer::ChallengeIssuer;

/// Everything the service keeps per registered device.
#[derive(Debug)]
pub struct DeviceEntry {
    /// Registry key.
    pub device_id: String,
    /// Verifier over the published model, exactly as registered (the
    /// entry's only copy of it, at [`Verifier::model`]). Configured
    /// *without* a deadline: it produces timeless verdicts (so they can
    /// be cached) and the service applies the deadline to the measured
    /// session time itself.
    pub verifier: Verifier,
    /// Challenge minting and replay/expiry policing for this device.
    pub issuer: ChallengeIssuer,
}

/// Concurrent map of device id → [`DeviceEntry`].
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    devices: RwLock<HashMap<String, Arc<DeviceEntry>>>,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a device entry; returns the shared handle.
    ///
    /// Replacing drops the previous entry's outstanding sessions — a
    /// re-registered device starts from a clean slate.
    pub fn insert(&self, entry: DeviceEntry) -> Arc<DeviceEntry> {
        let entry = Arc::new(entry);
        self.write().insert(entry.device_id.clone(), Arc::clone(&entry));
        entry
    }

    /// Looks up a device.
    pub fn get(&self, device_id: &str) -> Option<Arc<DeviceEntry>> {
        self.read().get(device_id).cloned()
    }

    /// Revokes a device; returns whether it was registered.
    ///
    /// In-flight verifications keep their `Arc<DeviceEntry>` and finish,
    /// but no new challenge or answer is accepted for the id.
    pub fn remove(&self, device_id: &str) -> bool {
        self.write().remove(device_id).is_some()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Sorted ids of all registered devices.
    pub fn device_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.read().keys().cloned().collect();
        ids.sort();
        ids
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<DeviceEntry>>> {
        self.devices.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<DeviceEntry>>> {
        self.devices.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppuf_core::device::{Ppuf, PpufConfig};

    fn entry(device_id: &str) -> DeviceEntry {
        let ppuf = Ppuf::generate(PpufConfig::paper(6, 2), 7).unwrap();
        let model = ppuf.public_model().unwrap();
        let space = model.grid().challenge_space().unwrap();
        DeviceEntry {
            device_id: device_id.to_string(),
            verifier: Verifier::new(model),
            issuer: ChallengeIssuer::new(space, 1),
        }
    }

    #[test]
    fn insert_get_remove() {
        let registry = DeviceRegistry::new();
        assert!(registry.is_empty());
        registry.insert(entry("dev-a"));
        registry.insert(entry("dev-b"));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.device_ids(), vec!["dev-a".to_string(), "dev-b".to_string()]);
        assert!(registry.get("dev-a").is_some());
        assert!(registry.get("dev-c").is_none());
        assert!(registry.remove("dev-a"));
        assert!(!registry.remove("dev-a"), "second revocation finds nothing");
        assert!(registry.get("dev-a").is_none());
    }

    #[test]
    fn reinsert_replaces_and_clears_sessions() {
        let registry = DeviceRegistry::new();
        let first = registry.insert(entry("dev"));
        let issued = first.issuer.issue();
        assert_eq!(first.issuer.outstanding(), 1);
        let second = registry.insert(entry("dev"));
        assert_eq!(second.issuer.outstanding(), 0, "fresh entry, fresh sessions");
        assert!(second.issuer.redeem(issued.nonce).is_err());
    }

    #[test]
    fn lookups_share_one_entry() {
        let registry = DeviceRegistry::new();
        registry.insert(entry("dev"));
        let a = registry.get("dev").unwrap();
        let b = registry.get("dev").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
