//! One-shot sealed datagrams for server-to-server messages.
//!
//! The agent-transfer protocol wants *stateless* secure messaging: a
//! server should be able to hand an agent to a peer it has never spoken
//! to, without a session handshake in flight while its event loop is busy
//! hosting agents. A [`SealedDatagram`] is hybrid encryption against the
//! recipient's **static** certified key (ECIES-shaped):
//!
//! ```text
//! sender:   x ←$, epk = g^x, secret = recipient_pk ^ x
//!           k_enc/k_mac = H(label ‖ secret ‖ epk ‖ nonce)
//!           ciphertext  = payload ⊕ SHA-CTR(k_enc)
//!           tag         = HMAC(k_mac, header ‖ ciphertext)
//!           sig         = Sign_sender( H(header ‖ ciphertext ‖ tag) )
//! receiver: secret = epk ^ sk, re-derive keys, check tag, verify the
//!           sender's chain + signature, check recipient-name binding,
//!           reject stale timestamps and replayed nonces.
//! ```
//!
//! Replay protection is receiver-side: a [`ReplayGuard`] remembers nonces
//! within a freshness window; anything outside the window is stale by
//! timestamp alone.

use std::collections::BTreeMap;

use ajanta_crypto::cert::Certificate;
use ajanta_crypto::modmath::pow_mod;
use ajanta_crypto::sig::{self, KeyPair, Signature, G, P, Q};
use ajanta_crypto::{ctr_keystream_xor, DetRng, HmacSha256, RootOfTrust, Sha256};
use ajanta_naming::Urn;
use ajanta_wire::{decode_seq, encode_seq, Decoder, Encoder, Wire, WireError};

use crate::secure::ChannelIdentity;

/// Why a datagram failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatagramError {
    /// Structural decoding failed.
    Malformed(WireError),
    /// The datagram names a different recipient.
    WrongRecipient {
        /// Recipient named in the datagram.
        named: String,
        /// Us.
        us: String,
    },
    /// The ephemeral share is not a valid group element.
    BadGroupElement,
    /// Integrity tag mismatch — tampering.
    BadTag,
    /// The sender's certificate chain failed validation.
    BadCertificate(String),
    /// The sender's signature failed.
    BadSignature,
    /// Timestamp outside the freshness window.
    Stale {
        /// Datagram timestamp.
        sent_at: u64,
        /// Receiver's current time.
        now: u64,
    },
    /// Nonce already seen — replay.
    Replayed(u64),
}

impl DatagramError {
    /// Whether this rejection is in the **replay class** (a stale
    /// timestamp or a reused nonce) as opposed to tampering/decode
    /// failures. Telemetry uses this to file the event under
    /// `RejectKind::Replay` rather than `RejectKind::BadDatagram`.
    pub fn is_replay(&self) -> bool {
        matches!(
            self,
            DatagramError::Stale { .. } | DatagramError::Replayed(_)
        )
    }
}

impl std::fmt::Display for DatagramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatagramError::Malformed(e) => write!(f, "malformed datagram: {e}"),
            DatagramError::WrongRecipient { named, us } => {
                write!(f, "datagram for {named}, we are {us}")
            }
            DatagramError::BadGroupElement => f.write_str("bad ephemeral key"),
            DatagramError::BadTag => f.write_str("integrity tag mismatch"),
            DatagramError::BadCertificate(e) => write!(f, "sender certificate: {e}"),
            DatagramError::BadSignature => f.write_str("sender signature invalid"),
            DatagramError::Stale { sent_at, now } => {
                write!(f, "stale datagram: sent {sent_at}, now {now}")
            }
            DatagramError::Replayed(n) => write!(f, "replayed nonce {n}"),
        }
    }
}

impl std::error::Error for DatagramError {}

impl From<WireError> for DatagramError {
    fn from(e: WireError) -> Self {
        DatagramError::Malformed(e)
    }
}

/// A sealed, signed, one-shot message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedDatagram {
    /// Sender name.
    pub from: Urn,
    /// Recipient name (bound into the MAC and signature).
    pub to: Urn,
    /// Sender certificate chain, leaf first.
    pub chain: Vec<Certificate>,
    /// Ephemeral public share `g^x`.
    pub epk: u64,
    /// Anti-replay nonce.
    pub nonce: u64,
    /// Virtual send time.
    pub sent_at: u64,
    /// Encrypted payload.
    pub ciphertext: Vec<u8>,
    /// HMAC over header ‖ ciphertext.
    pub tag: [u8; 32],
    /// Sender signature over everything above.
    pub sig: Signature,
}

fn header_bytes(from: &Urn, to: &Urn, epk: u64, nonce: u64, sent_at: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    from.encode(&mut e);
    to.encode(&mut e);
    e.put_varint(epk);
    e.put_varint(nonce);
    e.put_varint(sent_at);
    e.finish()
}

fn derive(label: &[u8], secret: u64, epk: u64, nonce: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ajanta.dgram.v1");
    h.update(label);
    h.update(secret.to_be_bytes());
    h.update(epk.to_be_bytes());
    h.update(nonce.to_be_bytes());
    h.finalize().0
}

fn keystream_xor(key: &[u8; 32], data: &mut [u8]) {
    ctr_keystream_xor(&[b"dgram.stream".as_slice(), key].concat(), data);
}

fn signed_hash(header: &[u8], ciphertext: &[u8], tag: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ajanta.dgram.sig.v1");
    h.update(header);
    h.update(ciphertext);
    h.update(tag);
    h.finalize().0
}

impl SealedDatagram {
    /// Seals `payload` from `identity` to `to`, whose static public key is
    /// `recipient_key` (from its certificate, via the server directory).
    pub fn seal(
        identity: &ChannelIdentity,
        to: &Urn,
        recipient_key: sig::PublicKey,
        payload: &[u8],
        now: u64,
        rng: &mut DetRng,
    ) -> SealedDatagram {
        let x = rng.range_inclusive(1, Q - 1);
        let epk = pow_mod(G, x, P);
        let secret = pow_mod(recipient_key.0, x, P);
        let nonce = rng.next_u64();
        let k_enc = derive(b"enc", secret, epk, nonce);
        let k_mac = derive(b"mac", secret, epk, nonce);

        let mut ciphertext = payload.to_vec();
        keystream_xor(&k_enc, &mut ciphertext);

        let header = header_bytes(&identity.name, to, epk, nonce, now);
        let mut mac = HmacSha256::new(&k_mac);
        mac.update(&header);
        mac.update(&ciphertext);
        let tag = mac.finalize().0;

        let sig = identity
            .keys
            .sign(&signed_hash(&header, &ciphertext, &tag), rng);
        SealedDatagram {
            from: identity.name.clone(),
            to: to.clone(),
            chain: identity.chain.clone(),
            epk,
            nonce,
            sent_at: now,
            ciphertext,
            tag,
            sig,
        }
    }

    /// Opens a datagram addressed to `identity`. On success returns the
    /// authenticated sender name and the plaintext.
    ///
    /// `recipient_secret_exponent` is the discrete log of the recipient's
    /// static key — held by [`ChannelIdentity`] indirectly; we pass the
    /// keypair so the secret never leaves `ajanta-crypto` types.
    pub fn open(
        &self,
        identity: &ChannelIdentity,
        recipient_keys: &KeyPair,
        roots: &RootOfTrust,
        now: u64,
        guard: &mut ReplayGuard,
    ) -> Result<(Urn, Vec<u8>), DatagramError> {
        if self.to != identity.name {
            return Err(DatagramError::WrongRecipient {
                named: self.to.to_string(),
                us: identity.name.to_string(),
            });
        }
        if !sig::valid_public_key(&sig::PublicKey(self.epk)) {
            return Err(DatagramError::BadGroupElement);
        }
        // Freshness and replay first: they do not require crypto.
        guard.check(self.nonce, self.sent_at, now)?;

        let secret = recipient_keys.raise(self.epk);
        let k_enc = derive(b"enc", secret, self.epk, self.nonce);
        let k_mac = derive(b"mac", secret, self.epk, self.nonce);

        let header = header_bytes(&self.from, &self.to, self.epk, self.nonce, self.sent_at);
        let mut mac = HmacSha256::new(&k_mac);
        mac.update(&header);
        mac.update(&self.ciphertext);
        let expected = mac.finalize().0;
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(self.tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(DatagramError::BadTag);
        }

        // Authenticate the sender.
        let (subject, sender_key) = roots
            .verify_chain(&self.chain, now)
            .map_err(|e| DatagramError::BadCertificate(e.to_string()))?;
        if subject != self.from.to_string() {
            return Err(DatagramError::BadCertificate(format!(
                "chain certifies {subject}, datagram claims {}",
                self.from
            )));
        }
        sig::verify(
            &sender_key,
            &signed_hash(&header, &self.ciphertext, &self.tag),
            &self.sig,
        )
        .map_err(|_| DatagramError::BadSignature)?;

        // All checks passed: commit the nonce and decrypt.
        guard.commit(self.nonce, self.sent_at);
        let mut plaintext = self.ciphertext.clone();
        keystream_xor(&k_enc, &mut plaintext);
        Ok((self.from.clone(), plaintext))
    }
}

impl Wire for SealedDatagram {
    fn encode(&self, e: &mut Encoder) {
        self.from.encode(e);
        self.to.encode(e);
        encode_seq(&self.chain, e);
        e.put_varint(self.epk);
        e.put_varint(self.nonce);
        e.put_varint(self.sent_at);
        e.put_bytes(&self.ciphertext);
        e.put_raw(&self.tag);
        self.sig.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SealedDatagram {
            from: Urn::decode(d)?,
            to: Urn::decode(d)?,
            chain: decode_seq(d)?,
            epk: d.get_varint()?,
            nonce: d.get_varint()?,
            sent_at: d.get_varint()?,
            ciphertext: d.get_bytes()?,
            tag: d.get_raw(32)?.try_into().expect("fixed width"),
            sig: Signature::decode(d)?,
        })
    }
}

/// Receiver-side replay protection: remembers nonces whose timestamps are
/// still within the freshness window.
#[derive(Debug)]
pub struct ReplayGuard {
    /// Maximum accepted age (virtual ns). Also bounds memory: nonces older
    /// than the window are purged.
    window_ns: u64,
    seen: BTreeMap<u64, u64>, // nonce -> sent_at
}

impl ReplayGuard {
    /// A guard accepting datagrams at most `window_ns` old.
    pub fn new(window_ns: u64) -> Self {
        ReplayGuard {
            window_ns,
            seen: BTreeMap::new(),
        }
    }

    fn check(&self, nonce: u64, sent_at: u64, now: u64) -> Result<(), DatagramError> {
        if now > sent_at.saturating_add(self.window_ns) {
            return Err(DatagramError::Stale { sent_at, now });
        }
        if self.seen.contains_key(&nonce) {
            return Err(DatagramError::Replayed(nonce));
        }
        Ok(())
    }

    fn commit(&mut self, nonce: u64, sent_at: u64) {
        self.seen.insert(nonce, sent_at);
        // Opportunistic purge of expired entries. A zero horizon (a
        // window wider than the clock has run) expires nothing, so the
        // scan is skipped rather than visiting every nonce for nothing.
        let horizon = sent_at.saturating_sub(self.window_ns);
        if horizon > 0 && self.seen.len().is_multiple_of(64) {
            self.seen.retain(|_, &mut t| t >= horizon);
        }
    }

    /// Number of remembered nonces.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no nonces are remembered.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        roots: RootOfTrust,
        a: ChannelIdentity,
        a_keys: KeyPair,
        b: ChannelIdentity,
        b_keys: KeyPair,
        rng: DetRng,
    }

    fn world() -> World {
        let mut rng = DetRng::new(99);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        let mk = |name: &Urn, serial, rng: &mut DetRng| {
            let keys = KeyPair::generate(rng);
            let cert = Certificate::issue(
                name.to_string(),
                keys.public,
                "ca",
                &ca,
                u64::MAX,
                serial,
                rng,
            );
            (
                ChannelIdentity {
                    name: name.clone(),
                    keys: keys.clone(),
                    chain: vec![cert],
                },
                keys,
            )
        };
        let an = Urn::server("a.org", ["a"]).unwrap();
        let bn = Urn::server("b.org", ["b"]).unwrap();
        let (a, a_keys) = mk(&an, 1, &mut rng);
        let (b, b_keys) = mk(&bn, 2, &mut rng);
        World {
            roots,
            a,
            a_keys,
            b,
            b_keys,
            rng,
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut w = world();
        let d = SealedDatagram::seal(
            &w.a,
            &w.b.name,
            w.b_keys.public,
            b"agent image bytes",
            1_000,
            &mut w.rng,
        );
        let mut guard = ReplayGuard::new(1_000_000);
        let (from, payload) = d
            .open(&w.b, &w.b_keys, &w.roots, 1_500, &mut guard)
            .unwrap();
        assert_eq!(from, w.a.name);
        assert_eq!(payload, b"agent image bytes");
        let _ = &w.a_keys;
    }

    #[test]
    fn wire_roundtrip() {
        let mut w = world();
        let d = SealedDatagram::seal(&w.a, &w.b.name, w.b_keys.public, b"x", 0, &mut w.rng);
        assert_eq!(SealedDatagram::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn payload_is_confidential() {
        let mut w = world();
        let secret = b"credit card 4111";
        let d = SealedDatagram::seal(&w.a, &w.b.name, w.b_keys.public, secret, 0, &mut w.rng);
        let bytes = d.to_bytes();
        assert!(!bytes
            .windows(secret.len())
            .any(|wd| wd == secret.as_slice()));
    }

    #[test]
    fn replay_rejected_original_accepted_once() {
        let mut w = world();
        let d = SealedDatagram::seal(&w.a, &w.b.name, w.b_keys.public, b"pay", 0, &mut w.rng);
        let mut guard = ReplayGuard::new(1_000_000);
        d.open(&w.b, &w.b_keys, &w.roots, 10, &mut guard).unwrap();
        assert_eq!(
            d.open(&w.b, &w.b_keys, &w.roots, 20, &mut guard),
            Err(DatagramError::Replayed(d.nonce))
        );
    }

    #[test]
    fn stale_rejected_without_nonce_memory() {
        let mut w = world();
        let d = SealedDatagram::seal(&w.a, &w.b.name, w.b_keys.public, b"old", 0, &mut w.rng);
        let mut guard = ReplayGuard::new(100);
        assert_eq!(
            d.open(&w.b, &w.b_keys, &w.roots, 200, &mut guard),
            Err(DatagramError::Stale {
                sent_at: 0,
                now: 200
            })
        );
        assert!(guard.is_empty());
    }

    #[test]
    fn tampering_detected() {
        let mut w = world();
        let d = SealedDatagram::seal(&w.a, &w.b.name, w.b_keys.public, b"payload!", 0, &mut w.rng);
        let mut guard = ReplayGuard::new(1_000_000);
        // Flip a ciphertext byte.
        let mut bad = d.clone();
        bad.ciphertext[0] ^= 1;
        assert_eq!(
            bad.open(&w.b, &w.b_keys, &w.roots, 0, &mut guard),
            Err(DatagramError::BadTag)
        );
        // Flip a header field (recipient swap is caught by name check;
        // change sent_at instead).
        let mut bad = d.clone();
        bad.sent_at += 1;
        assert_eq!(
            bad.open(&w.b, &w.b_keys, &w.roots, 1, &mut guard),
            Err(DatagramError::BadTag)
        );
        // Flip the tag itself.
        let mut bad = d;
        bad.tag[5] ^= 4;
        assert_eq!(
            bad.open(&w.b, &w.b_keys, &w.roots, 0, &mut guard),
            Err(DatagramError::BadTag)
        );
    }

    #[test]
    fn signature_binds_sender() {
        let mut w = world();
        // Mallory (with a valid cert of her own) re-signs A's datagram as
        // herself but keeps A's `from` — signature check fails; claiming
        // her own name breaks nothing else but then the chain subject
        // matches her, yet the MAC'd header contains A, so the tag fails
        // first. Test both paths.
        let d = SealedDatagram::seal(&w.a, &w.b.name, w.b_keys.public, b"m", 0, &mut w.rng);
        let mut guard = ReplayGuard::new(1_000_000);

        // Path 1: swap signature for garbage.
        let mut bad = d.clone();
        bad.sig = Signature { e: 1, s: 1 };
        assert_eq!(
            bad.open(&w.b, &w.b_keys, &w.roots, 0, &mut guard),
            Err(DatagramError::BadSignature)
        );

        // Path 2: present a chain for a different subject.
        let mut bad = d;
        bad.chain = w.b.chain.clone(); // certifies b, not a
        assert!(matches!(
            bad.open(&w.b, &w.b_keys, &w.roots, 0, &mut guard),
            Err(DatagramError::BadCertificate(_))
        ));
    }

    #[test]
    fn wrong_recipient_rejected() {
        let mut w = world();
        let d = SealedDatagram::seal(&w.a, &w.a.name, w.a_keys.public, b"m", 0, &mut w.rng);
        let mut guard = ReplayGuard::new(1_000_000);
        assert!(matches!(
            d.open(&w.b, &w.b_keys, &w.roots, 0, &mut guard),
            Err(DatagramError::WrongRecipient { .. })
        ));
    }

    #[test]
    fn untrusted_sender_rejected() {
        let w = world();
        let mut rng = DetRng::new(123);
        let mallory_keys = KeyPair::generate(&mut rng);
        let mname = Urn::server("evil.org", ["m"]).unwrap();
        let self_cert = Certificate::issue(
            mname.to_string(),
            mallory_keys.public,
            "ca.evil",
            &mallory_keys,
            u64::MAX,
            1,
            &mut rng,
        );
        let mallory = ChannelIdentity {
            name: mname,
            keys: mallory_keys,
            chain: vec![self_cert],
        };
        let d = SealedDatagram::seal(&mallory, &w.b.name, w.b_keys.public, b"m", 0, &mut rng);
        let mut guard = ReplayGuard::new(1_000_000);
        assert!(matches!(
            d.open(&w.b, &w.b_keys, &w.roots, 0, &mut guard),
            Err(DatagramError::BadCertificate(_))
        ));
    }

    #[test]
    fn guard_purges_expired_entries() {
        let mut guard = ReplayGuard::new(10);
        for i in 0..256u64 {
            guard.check(i, i, i).unwrap();
            guard.commit(i, i);
        }
        // Purge happens opportunistically; old entries within (latest -
        // window) are dropped.
        assert!(guard.len() < 256);
    }
}
