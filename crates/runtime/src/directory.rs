//! The server certificate directory.
//!
//! A datagram session needs the recipient's static public key; servers
//! learn each other's keys, once per session, from certificates
//! published in a shared directory — the stand-in for the PKI / naming
//! service the paper abstracts away (Section 5.2 notes an on-line
//! authentication service "may not always be available", hence
//! certificates are also carried inside credentials and datagrams; the
//! directory is only a *bootstrap* for recipient keys).

use std::collections::BTreeMap;
use std::sync::Arc;

use ajanta_crypto::cert::Certificate;
use ajanta_crypto::sig::PublicKey;
use ajanta_crypto::RootOfTrust;
use ajanta_naming::Urn;
use parking_lot::RwLock;

/// A shared, thread-safe certificate directory. Cloning shares state.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    inner: Arc<RwLock<BTreeMap<Urn, Certificate>>>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes (or replaces) a server's certificate.
    pub fn publish(&self, name: Urn, cert: Certificate) {
        self.inner.write().insert(name, cert);
    }

    /// The raw certificate for `name`.
    pub fn certificate(&self, name: &Urn) -> Option<Certificate> {
        self.inner.read().get(name).cloned()
    }

    /// The **verified** public key for `name`, with the `not_after` of
    /// the certificate it came from: the certificate is checked against
    /// `roots` at time `now` and its subject must match. Callers should
    /// always prefer this over [`Directory::certificate`].
    pub fn verified(&self, name: &Urn, roots: &RootOfTrust, now: u64) -> Option<(PublicKey, u64)> {
        let cert = self.certificate(name)?;
        if cert.subject != name.to_string() {
            return None;
        }
        let not_after = cert.not_after;
        let chain = [cert];
        roots
            .verify_chain(&chain, now)
            .ok()
            .map(|(_, k)| (k, not_after))
    }

    /// The verified public key for `name` (see [`Directory::verified`]).
    pub fn verified_key(&self, name: &Urn, roots: &RootOfTrust, now: u64) -> Option<PublicKey> {
        self.verified(name, roots, now).map(|(key, _)| key)
    }

    /// Number of published certificates.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_crypto::{DetRng, KeyPair};

    #[test]
    fn publish_and_verify() {
        let mut rng = DetRng::new(8);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        let name = Urn::server("x.org", ["s1"]).unwrap();
        let keys = KeyPair::generate(&mut rng);
        let cert = Certificate::issue(name.to_string(), keys.public, "ca", &ca, 1_000, 1, &mut rng);

        let dir = Directory::new();
        dir.publish(name.clone(), cert);
        assert_eq!(dir.verified_key(&name, &roots, 500), Some(keys.public));
        // Expired at 1001.
        assert_eq!(dir.verified_key(&name, &roots, 1_001), None);
        // Unknown name.
        let other = Urn::server("x.org", ["s2"]).unwrap();
        assert_eq!(dir.verified_key(&other, &roots, 0), None);
    }

    #[test]
    fn subject_mismatch_rejected() {
        let mut rng = DetRng::new(9);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        let name = Urn::server("x.org", ["s1"]).unwrap();
        let keys = KeyPair::generate(&mut rng);
        // Certificate genuinely issued, but for a different subject.
        let cert = Certificate::issue("someone-else", keys.public, "ca", &ca, 1_000, 1, &mut rng);
        let dir = Directory::new();
        dir.publish(name.clone(), cert);
        assert_eq!(dir.verified_key(&name, &roots, 0), None);
    }

    #[test]
    fn clones_share_state() {
        let dir = Directory::new();
        let dir2 = dir.clone();
        let mut rng = DetRng::new(10);
        let keys = KeyPair::generate(&mut rng);
        let name = Urn::server("x.org", ["s"]).unwrap();
        let cert = Certificate::issue(name.to_string(), keys.public, "ca", &keys, 1, 1, &mut rng);
        dir.publish(name.clone(), cert);
        assert_eq!(dir2.len(), 1);
        assert!(dir2.certificate(&name).is_some());
    }
}
