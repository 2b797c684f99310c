//! Mutually authenticated, confidential, integrity- and replay-protected
//! sessions — the paper's "privacy and integrity of communication" and
//! "mutual authentication of the agent and server" requirements
//! (Section 2), as a channel between agent servers.
//!
//! Protocol (`ajanta.sc.v1`):
//!
//! ```text
//! A → B : Hello    { a_name, a_chain, nonce_a, dh_a = g^xa, sig_a }
//! B → A : HelloAck { b_name, b_chain, nonce_b, dh_b = g^xb, sig_b }
//!
//! sig_a  = Sign_A( H("hs1" ‖ a_name ‖ b_name ‖ nonce_a ‖ dh_a) )
//! sig_b  = Sign_B( H("hs2" ‖ hello_bytes ‖ b_name ‖ nonce_b ‖ dh_b) )
//! secret = dh_peer ^ x  (ephemeral Diffie–Hellman in the crypto group)
//! k_enc  = SHA256("enc" ‖ secret ‖ nonce_a ‖ nonce_b)
//! k_mac  = SHA256("mac" ‖ secret ‖ nonce_a ‖ nonce_b)
//! ```
//!
//! Frames carry `(dir, seq, ciphertext, tag)`:
//! * ciphertext = plaintext ⊕ SHA-CTR keystream(k_enc, dir, seq);
//! * tag = HMAC(k_mac, dir ‖ seq ‖ ciphertext);
//! * receivers require exact in-order sequence numbers, so replays and
//!   drops surface as explicit errors.
//!
//! B's signature covers A's complete Hello, so a man-in-the-middle cannot
//! splice handshakes. (With the simulation-grade 62-bit group this is
//! structurally, not computationally, secure — see `ajanta-crypto`.)
//!
//! The socket transport runs the handshake to admit each connection
//! and then carries frames unsealed: everything the runtime sends is a
//! [`crate::datagram::SealedDatagram`] already. The frame API stays for
//! callers that want a sealed stream of their own.

use ajanta_crypto::cert::Certificate;
use ajanta_crypto::modmath::pow_mod;
use ajanta_crypto::sig::{self, KeyPair, Signature, G, P, Q};
use ajanta_crypto::{ctr_keystream_xor, DetRng, HmacSha256, RootOfTrust, Sha256};
use ajanta_naming::Urn;
use ajanta_wire::{
    decode_seq, encode_seq, varint_len, write_varint, Decoder, Encoder, Wire, WireError, MAX_LEN,
};

/// What a party needs to authenticate itself.
#[derive(Clone)]
pub struct ChannelIdentity {
    /// Our global name; must equal the leaf subject of `chain`.
    pub name: Urn,
    /// Our long-term signing keys.
    pub keys: KeyPair,
    /// Certificate chain, leaf first.
    pub chain: Vec<Certificate>,
}

/// Why a channel operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// A handshake or frame failed to parse.
    Malformed(WireError),
    /// Peer's certificate chain did not validate.
    BadCertificate(String),
    /// Peer's handshake signature did not verify.
    BadHandshakeSignature,
    /// The Diffie–Hellman share was not a valid group element.
    BadGroupElement,
    /// The claimed name does not match the certified subject.
    NameMismatch {
        /// Name claimed in the handshake message.
        claimed: String,
        /// Subject certified by the chain.
        certified: String,
    },
    /// Frame MAC verification failed — tampering or forgery.
    BadMac,
    /// Frame sequence number was already consumed — replay.
    Replay {
        /// Sequence number expected next.
        expected: u64,
        /// Sequence number found on the frame.
        got: u64,
    },
    /// Frame sequence number skipped ahead — a frame was lost.
    Gap {
        /// Sequence number expected next.
        expected: u64,
        /// Sequence number found on the frame.
        got: u64,
    },
    /// Frame direction bit was ours, not the peer's (reflection attack).
    Reflected,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Malformed(e) => write!(f, "malformed message: {e}"),
            ChannelError::BadCertificate(e) => write!(f, "certificate invalid: {e}"),
            ChannelError::BadHandshakeSignature => f.write_str("handshake signature invalid"),
            ChannelError::BadGroupElement => f.write_str("bad Diffie-Hellman share"),
            ChannelError::NameMismatch { claimed, certified } => {
                write!(f, "claimed {claimed} but certified {certified}")
            }
            ChannelError::BadMac => f.write_str("frame MAC invalid (tampering detected)"),
            ChannelError::Replay { expected, got } => {
                write!(f, "replayed frame: expected seq {expected}, got {got}")
            }
            ChannelError::Gap { expected, got } => {
                write!(f, "sequence gap: expected {expected}, got {got}")
            }
            ChannelError::Reflected => f.write_str("frame reflected back to its sender"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<WireError> for ChannelError {
    fn from(e: WireError) -> Self {
        ChannelError::Malformed(e)
    }
}

/// First handshake message (initiator → responder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Initiator's claimed name.
    pub from: Urn,
    /// Responder's name (binds the handshake to its target).
    pub to: Urn,
    /// Initiator certificate chain, leaf first.
    pub chain: Vec<Certificate>,
    /// Anti-replay nonce.
    pub nonce: u64,
    /// Ephemeral DH share `g^xa`.
    pub dh: u64,
    /// Signature over the handshake transcript.
    pub sig: Signature,
}

impl Wire for Hello {
    fn encode(&self, e: &mut Encoder) {
        self.from.encode(e);
        self.to.encode(e);
        encode_seq(&self.chain, e);
        e.put_varint(self.nonce);
        e.put_varint(self.dh);
        self.sig.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Hello {
            from: Urn::decode(d)?,
            to: Urn::decode(d)?,
            chain: decode_seq(d)?,
            nonce: d.get_varint()?,
            dh: d.get_varint()?,
            sig: Signature::decode(d)?,
        })
    }
}

/// Second handshake message (responder → initiator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// Responder's claimed name.
    pub from: Urn,
    /// Responder certificate chain, leaf first.
    pub chain: Vec<Certificate>,
    /// Responder nonce.
    pub nonce: u64,
    /// Ephemeral DH share `g^xb`.
    pub dh: u64,
    /// Signature over the transcript **including the full Hello bytes**.
    pub sig: Signature,
}

impl Wire for HelloAck {
    fn encode(&self, e: &mut Encoder) {
        self.from.encode(e);
        encode_seq(&self.chain, e);
        e.put_varint(self.nonce);
        e.put_varint(self.dh);
        self.sig.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(HelloAck {
            from: Urn::decode(d)?,
            chain: decode_seq(d)?,
            nonce: d.get_varint()?,
            dh: d.get_varint()?,
            sig: Signature::decode(d)?,
        })
    }
}

fn hello_transcript(from: &Urn, to: &Urn, nonce: u64, dh: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ajanta.sc.v1.hs1");
    h.update(from.to_string().as_bytes());
    h.update(to.to_string().as_bytes());
    h.update(nonce.to_be_bytes());
    h.update(dh.to_be_bytes());
    h.finalize().0
}

fn ack_transcript(hello_bytes: &[u8], from: &Urn, nonce: u64, dh: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ajanta.sc.v1.hs2");
    h.update((hello_bytes.len() as u64).to_be_bytes());
    h.update(hello_bytes);
    h.update(from.to_string().as_bytes());
    h.update(nonce.to_be_bytes());
    h.update(dh.to_be_bytes());
    h.finalize().0
}

fn derive_key(label: &[u8], secret: u64, nonce_a: u64, nonce_b: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(label);
    h.update(secret.to_be_bytes());
    h.update(nonce_a.to_be_bytes());
    h.update(nonce_b.to_be_bytes());
    h.finalize().0
}

/// Validates a peer chain and checks the certified subject matches the
/// claimed name. Returns the certified public key.
fn authenticate_peer(
    roots: &RootOfTrust,
    chain: &[Certificate],
    claimed: &Urn,
    now: u64,
) -> Result<sig::PublicKey, ChannelError> {
    let (subject, key) = roots
        .verify_chain(chain, now)
        .map_err(|e| ChannelError::BadCertificate(e.to_string()))?;
    let claimed_str = claimed.to_string();
    if subject != claimed_str {
        return Err(ChannelError::NameMismatch {
            claimed: claimed_str,
            certified: subject.to_string(),
        });
    }
    Ok(key)
}

/// An established session (one party's half).
///
/// Debug output never includes the session keys.
pub struct SecureChannel {
    peer: Urn,
    k_enc: [u8; 32],
    k_mac: [u8; 32],
    /// Our direction bit: initiator sends dir=0 frames, responder dir=1.
    dir: u8,
    send_seq: u64,
    recv_seq: u64,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("peer", &self.peer)
            .field("dir", &self.dir)
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish_non_exhaustive()
    }
}

/// In-flight state for an initiator between `initiate` and `finish`.
pub struct PendingInitiation {
    hello_bytes: Vec<u8>,
    to: Urn,
    nonce: u64,
    dh_secret: u64,
}

impl SecureChannel {
    /// Initiator step 1: produce the `Hello` bytes to send and the pending
    /// state for [`PendingInitiation::finish`].
    pub fn initiate(
        identity: &ChannelIdentity,
        to: &Urn,
        rng: &mut DetRng,
    ) -> (Vec<u8>, PendingInitiation) {
        let nonce = rng.next_u64();
        let x = rng.range_inclusive(1, Q - 1);
        let dh = pow_mod(G, x, P);
        let tbs = hello_transcript(&identity.name, to, nonce, dh);
        let sig = identity.keys.sign(&tbs, rng);
        let hello = Hello {
            from: identity.name.clone(),
            to: to.clone(),
            chain: identity.chain.clone(),
            nonce,
            dh,
            sig,
        };
        let hello_bytes = hello.to_bytes();
        (
            hello_bytes.clone(),
            PendingInitiation {
                hello_bytes,
                to: to.clone(),
                nonce,
                dh_secret: x,
            },
        )
    }

    /// Responder: consume a `Hello`, authenticate the initiator, and
    /// produce the `HelloAck` bytes plus the established channel.
    pub fn respond(
        identity: &ChannelIdentity,
        roots: &RootOfTrust,
        hello_bytes: &[u8],
        now: u64,
        rng: &mut DetRng,
    ) -> Result<(Vec<u8>, SecureChannel), ChannelError> {
        let hello = Hello::from_bytes(hello_bytes)?;
        if hello.to != identity.name {
            return Err(ChannelError::NameMismatch {
                claimed: identity.name.to_string(),
                certified: hello.to.to_string(),
            });
        }
        let peer_key = authenticate_peer(roots, &hello.chain, &hello.from, now)?;
        // DH share must be a valid subgroup element (small-subgroup guard).
        if !sig::valid_public_key(&sig::PublicKey(hello.dh)) {
            return Err(ChannelError::BadGroupElement);
        }
        let tbs = hello_transcript(&hello.from, &hello.to, hello.nonce, hello.dh);
        sig::verify(&peer_key, &tbs, &hello.sig)
            .map_err(|_| ChannelError::BadHandshakeSignature)?;

        // Our ephemeral share.
        let nonce_b = rng.next_u64();
        let y = rng.range_inclusive(1, Q - 1);
        let dh_b = pow_mod(G, y, P);
        let ack_tbs = ack_transcript(hello_bytes, &identity.name, nonce_b, dh_b);
        let sig_b = identity.keys.sign(&ack_tbs, rng);
        let ack = HelloAck {
            from: identity.name.clone(),
            chain: identity.chain.clone(),
            nonce: nonce_b,
            dh: dh_b,
            sig: sig_b,
        };

        let secret = pow_mod(hello.dh, y, P);
        let channel = SecureChannel {
            peer: hello.from,
            k_enc: derive_key(b"enc", secret, hello.nonce, nonce_b),
            k_mac: derive_key(b"mac", secret, hello.nonce, nonce_b),
            dir: 1,
            send_seq: 0,
            recv_seq: 0,
        };
        Ok((ack.to_bytes(), channel))
    }

    /// The authenticated peer name.
    pub fn peer(&self) -> &Urn {
        &self.peer
    }

    /// Exact byte length `seal_into` will append for the *next* frame
    /// carrying `plaintext_len` payload bytes: `dir(1) ‖ varint(seq) ‖
    /// varint(len) ‖ ciphertext ‖ tag(32)`. Knowing this up front lets a
    /// caller write the outer frame's length header before sealing, so
    /// seal + frame is a single pass over one buffer.
    pub fn sealed_len(&self, plaintext_len: usize) -> usize {
        1 + varint_len(self.send_seq) + varint_len(plaintext_len as u64) + plaintext_len + 32
    }

    /// Encrypt-and-MAC one payload into a frame.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.sealed_len(plaintext.len()));
        self.seal_into(plaintext, &mut out);
        out
    }

    /// Encrypt-and-MAC one payload, appending the frame to `out`.
    ///
    /// Byte-identical to `seal`, but the ciphertext is produced in place
    /// on `out`'s tail: no intermediate `Vec` per frame, and a reused
    /// `out` amortises to zero allocations on the steady-state send path.
    pub fn seal_into(&mut self, plaintext: &[u8], out: &mut Vec<u8>) {
        out.reserve(self.sealed_len(plaintext.len()));
        let seq = self.send_seq;
        self.send_seq += 1;
        out.push(self.dir);
        write_varint(out, seq);
        write_varint(out, plaintext.len() as u64);
        let ct_start = out.len();
        out.extend_from_slice(plaintext);
        apply_keystream(&self.k_enc, self.dir, seq, &mut out[ct_start..]);
        let tag = frame_mac(&self.k_mac, self.dir, seq, &out[ct_start..]);
        out.extend_from_slice(&tag);
    }

    /// Verify-and-decrypt one frame from the peer.
    pub fn open(&mut self, frame: &[u8]) -> Result<Vec<u8>, ChannelError> {
        let mut out = Vec::new();
        self.open_into(frame, &mut out)?;
        Ok(out)
    }

    /// Verify-and-decrypt one frame, appending the plaintext to `out`.
    ///
    /// `out` is untouched unless the frame authenticates and carries the
    /// expected sequence number; a reused `out` gives the receive path
    /// the same zero-allocation steady state as `seal_into`.
    pub fn open_into(&mut self, frame: &[u8], out: &mut Vec<u8>) -> Result<(), ChannelError> {
        let mut d = Decoder::new(frame);
        let dir = d.get_u8()?;
        let seq = d.get_varint()?;
        let ct_len = d.get_varint()?;
        if ct_len > MAX_LEN {
            return Err(ChannelError::Malformed(WireError::TooLong(ct_len)));
        }
        let ciphertext = d.get_raw(ct_len as usize)?;
        let tag: [u8; 32] = d
            .get_raw(32)?
            .try_into()
            .expect("get_raw returns requested length");
        d.expect_end()?;

        if dir == self.dir {
            return Err(ChannelError::Reflected);
        }
        let expected_tag = frame_mac(&self.k_mac, dir, seq, ciphertext);
        // Non-short-circuit comparison, consistent with HmacSha256::verify.
        let mut diff = 0u8;
        for (a, b) in expected_tag.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(ChannelError::BadMac);
        }
        // MAC valid: now interpret the sequence number.
        match seq.cmp(&self.recv_seq) {
            std::cmp::Ordering::Less => Err(ChannelError::Replay {
                expected: self.recv_seq,
                got: seq,
            }),
            std::cmp::Ordering::Greater => Err(ChannelError::Gap {
                expected: self.recv_seq,
                got: seq,
            }),
            std::cmp::Ordering::Equal => {
                self.recv_seq += 1;
                let pt_start = out.len();
                out.extend_from_slice(ciphertext);
                apply_keystream(&self.k_enc, dir, seq, &mut out[pt_start..]);
                Ok(())
            }
        }
    }

    /// Frames sealed so far.
    pub fn frames_sent(&self) -> u64 {
        self.send_seq
    }

    /// Frames accepted so far.
    pub fn frames_received(&self) -> u64 {
        self.recv_seq
    }
}

impl PendingInitiation {
    /// Initiator step 2: consume the responder's `HelloAck`, authenticate
    /// it, and establish the channel.
    pub fn finish(
        self,
        roots: &RootOfTrust,
        ack_bytes: &[u8],
        now: u64,
    ) -> Result<SecureChannel, ChannelError> {
        let ack = HelloAck::from_bytes(ack_bytes)?;
        if ack.from != self.to {
            return Err(ChannelError::NameMismatch {
                claimed: ack.from.to_string(),
                certified: self.to.to_string(),
            });
        }
        let peer_key = authenticate_peer(roots, &ack.chain, &ack.from, now)?;
        if !sig::valid_public_key(&sig::PublicKey(ack.dh)) {
            return Err(ChannelError::BadGroupElement);
        }
        let tbs = ack_transcript(&self.hello_bytes, &ack.from, ack.nonce, ack.dh);
        sig::verify(&peer_key, &tbs, &ack.sig).map_err(|_| ChannelError::BadHandshakeSignature)?;

        let secret = pow_mod(ack.dh, self.dh_secret, P);
        Ok(SecureChannel {
            peer: ack.from,
            k_enc: derive_key(b"enc", secret, self.nonce, ack.nonce),
            k_mac: derive_key(b"mac", secret, self.nonce, ack.nonce),
            dir: 0,
            send_seq: 0,
            recv_seq: 0,
        })
    }
}

/// SHA-CTR keystream XOR, 32 bytes per block.
fn apply_keystream(key: &[u8; 32], dir: u8, seq: u64, data: &mut [u8]) {
    let prefix = [b"stream".as_slice(), key, &[dir], &seq.to_be_bytes()].concat();
    ctr_keystream_xor(&prefix, data);
}

fn frame_mac(key: &[u8; 32], dir: u8, seq: u64, ciphertext: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update([dir]);
    mac.update(seq.to_be_bytes());
    mac.update(ciphertext);
    mac.finalize().0
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        roots: RootOfTrust,
        alice: ChannelIdentity,
        bob: ChannelIdentity,
        rng: DetRng,
    }

    fn identity(
        name: &Urn,
        ca: &KeyPair,
        ca_name: &str,
        rng: &mut DetRng,
        serial: u64,
    ) -> ChannelIdentity {
        let keys = KeyPair::generate(rng);
        let cert = Certificate::issue(
            name.to_string(),
            keys.public,
            ca_name,
            ca,
            u64::MAX,
            serial,
            rng,
        );
        ChannelIdentity {
            name: name.clone(),
            keys,
            chain: vec![cert],
        }
    }

    fn world() -> World {
        let mut rng = DetRng::new(0xC0FFEE);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca.root", ca.public);
        let alice_name = Urn::server("a.org", ["alice"]).unwrap();
        let bob_name = Urn::server("b.org", ["bob"]).unwrap();
        let alice = identity(&alice_name, &ca, "ca.root", &mut rng, 1);
        let bob = identity(&bob_name, &ca, "ca.root", &mut rng, 2);
        World {
            roots,
            alice,
            bob,
            rng,
        }
    }

    fn establish(w: &mut World) -> (SecureChannel, SecureChannel) {
        let (hello, pending) = SecureChannel::initiate(&w.alice, &w.bob.name, &mut w.rng);
        let (ack, chan_b) =
            SecureChannel::respond(&w.bob, &w.roots, &hello, 0, &mut w.rng).unwrap();
        let chan_a = pending.finish(&w.roots, &ack, 0).unwrap();
        (chan_a, chan_b)
    }

    #[test]
    fn handshake_authenticates_both_sides() {
        let mut w = world();
        let (chan_a, chan_b) = establish(&mut w);
        assert_eq!(chan_a.peer(), &w.bob.name);
        assert_eq!(chan_b.peer(), &w.alice.name);
    }

    #[test]
    fn sealed_frames_roundtrip_both_directions() {
        let mut w = world();
        let (mut a, mut b) = establish(&mut w);
        for i in 0..10u64 {
            let msg = format!("frame {i} from a");
            let frame = a.seal(msg.as_bytes());
            assert_eq!(b.open(&frame).unwrap(), msg.as_bytes());

            let msg = format!("frame {i} from b");
            let frame = b.seal(msg.as_bytes());
            assert_eq!(a.open(&frame).unwrap(), msg.as_bytes());
        }
        assert_eq!(a.frames_sent(), 10);
        assert_eq!(a.frames_received(), 10);
    }

    fn clone_chan(c: &SecureChannel) -> SecureChannel {
        SecureChannel {
            peer: c.peer.clone(),
            k_enc: c.k_enc,
            k_mac: c.k_mac,
            dir: c.dir,
            send_seq: c.send_seq,
            recv_seq: c.recv_seq,
        }
    }

    #[test]
    fn seal_into_is_byte_identical_to_seal_and_reuses_the_buffer() {
        let mut w = world();
        let (a, mut b) = establish(&mut w);
        let mut via_seal = clone_chan(&a);
        let mut via_into = clone_chan(&a);
        // Push the sequence number across a varint width boundary too.
        via_seal.send_seq = 126;
        via_into.send_seq = 126;
        b.recv_seq = 126;

        let mut out = Vec::new();
        for len in [0usize, 1, 31, 32, 33, 100, 1000] {
            let payload = vec![0xA5u8; len];
            let expect = via_seal.seal(&payload);
            out.clear();
            let cap_before = out.capacity();
            via_into.seal_into(&payload, &mut out);
            assert_eq!(out, expect, "len {len}");
            if cap_before >= out.len() {
                assert_eq!(out.capacity(), cap_before, "no realloc for len {len}");
            }
            assert_eq!(b.open(&out).unwrap(), payload);
        }
    }

    #[test]
    fn sealed_len_predicts_exact_frame_length() {
        let mut w = world();
        let (mut a, _b) = establish(&mut w);
        for seq in [0u64, 1, 127, 128, 16_383, 16_384] {
            a.send_seq = seq;
            for len in [0usize, 5, 127, 128, 4096] {
                let predicted = a.sealed_len(len);
                let frame = a.seal(&vec![7u8; len]);
                assert_eq!(frame.len(), predicted, "seq {seq} len {len}");
                a.send_seq = seq; // rewind for the next payload size
            }
        }
    }

    #[test]
    fn open_into_appends_after_existing_bytes_and_skips_output_on_error() {
        let mut w = world();
        let (mut a, mut b) = establish(&mut w);
        let frame = a.seal(b"payload");
        let mut tampered = frame.clone();
        *tampered.last_mut().unwrap() ^= 1;

        let mut out = b"prefix:".to_vec();
        let mut b_probe = clone_chan(&b);
        assert_eq!(
            b_probe.open_into(&tampered, &mut out),
            Err(ChannelError::BadMac)
        );
        assert_eq!(out, b"prefix:", "failed open must not touch the buffer");

        b.open_into(&frame, &mut out).unwrap();
        assert_eq!(out, b"prefix:payload");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let mut w = world();
        let (mut a, _b) = establish(&mut w);
        let secret = b"credit card 4111-1111";
        let frame = a.seal(secret);
        // The plaintext must not appear anywhere in the frame.
        assert!(!frame
            .windows(secret.len())
            .any(|wnd| wnd == secret.as_slice()));
    }

    #[test]
    fn identical_plaintexts_encrypt_differently_per_seq() {
        let mut w = world();
        let (mut a, mut b) = establish(&mut w);
        let f1 = a.seal(b"same");
        let f2 = a.seal(b"same");
        assert_ne!(f1, f2);
        assert_eq!(b.open(&f1).unwrap(), b"same");
        assert_eq!(b.open(&f2).unwrap(), b"same");
    }

    #[test]
    fn tampering_detected_on_every_byte() {
        let mut w = world();
        let (mut a, mut b) = establish(&mut w);
        let frame = a.seal(b"important payload");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let mut b_clone = SecureChannel {
                peer: b.peer.clone(),
                k_enc: b.k_enc,
                k_mac: b.k_mac,
                dir: b.dir,
                send_seq: b.send_seq,
                recv_seq: b.recv_seq,
            };
            assert!(
                b_clone.open(&bad).is_err(),
                "byte {i} flip must not be accepted"
            );
        }
        // Original still fine.
        assert!(b.open(&frame).is_ok());
    }

    #[test]
    fn replay_detected() {
        let mut w = world();
        let (mut a, mut b) = establish(&mut w);
        let frame = a.seal(b"pay me once");
        b.open(&frame).unwrap();
        assert_eq!(
            b.open(&frame),
            Err(ChannelError::Replay {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn gaps_detected() {
        let mut w = world();
        let (mut a, mut b) = establish(&mut w);
        let _lost = a.seal(b"lost in transit");
        let second = a.seal(b"arrives first");
        assert_eq!(
            b.open(&second),
            Err(ChannelError::Gap {
                expected: 0,
                got: 1
            })
        );
    }

    #[test]
    fn reflection_detected() {
        let mut w = world();
        let (mut a, _b) = establish(&mut w);
        let frame = a.seal(b"to bob");
        // Attacker bounces A's own frame back at A.
        assert_eq!(a.open(&frame), Err(ChannelError::Reflected));
    }

    #[test]
    fn forged_frames_rejected() {
        let mut w = world();
        let (_a, mut b) = establish(&mut w);
        let mut forged = Encoder::new();
        forged.put_u8(0);
        forged.put_varint(0);
        forged.put_bytes(b"fake ciphertext");
        forged.put_raw(&[0u8; 32]);
        assert_eq!(b.open(&forged.finish()), Err(ChannelError::BadMac));
    }

    #[test]
    fn untrusted_initiator_rejected() {
        let mut w = world();
        // Mallory self-signs a certificate chain.
        let mallory_keys = KeyPair::generate(&mut w.rng);
        let mallory_name = Urn::server("evil.org", ["mallory"]).unwrap();
        let cert = Certificate::issue(
            mallory_name.to_string(),
            mallory_keys.public,
            "ca.evil",
            &mallory_keys,
            u64::MAX,
            1,
            &mut w.rng,
        );
        let mallory = ChannelIdentity {
            name: mallory_name,
            keys: mallory_keys,
            chain: vec![cert],
        };
        let (hello, _pending) = SecureChannel::initiate(&mallory, &w.bob.name, &mut w.rng);
        assert!(matches!(
            SecureChannel::respond(&w.bob, &w.roots, &hello, 0, &mut w.rng),
            Err(ChannelError::BadCertificate(_))
        ));
    }

    #[test]
    fn stolen_certificate_fails_signature_check() {
        let mut w = world();
        // Mallory presents Alice's genuine chain but signs with her own key.
        let mallory_keys = KeyPair::generate(&mut w.rng);
        let mallory = ChannelIdentity {
            name: w.alice.name.clone(),
            keys: mallory_keys,
            chain: w.alice.chain.clone(),
        };
        let (hello, _) = SecureChannel::initiate(&mallory, &w.bob.name, &mut w.rng);
        assert_eq!(
            SecureChannel::respond(&w.bob, &w.roots, &hello, 0, &mut w.rng).unwrap_err(),
            ChannelError::BadHandshakeSignature
        );
    }

    #[test]
    fn hello_meant_for_someone_else_rejected() {
        let mut w = world();
        let carol_name = Urn::server("c.org", ["carol"]).unwrap();
        let (hello, _) = SecureChannel::initiate(&w.alice, &carol_name, &mut w.rng);
        // Bob receives a Hello addressed to Carol.
        assert!(matches!(
            SecureChannel::respond(&w.bob, &w.roots, &hello, 0, &mut w.rng),
            Err(ChannelError::NameMismatch { .. })
        ));
    }

    #[test]
    fn tampered_hello_rejected() {
        let mut w = world();
        let (hello, _) = SecureChannel::initiate(&w.alice, &w.bob.name, &mut w.rng);
        for i in 0..hello.len() {
            let mut bad = hello.clone();
            bad[i] ^= 0x01;
            let mut rng = w.rng.fork("tamper-branch");
            assert!(
                SecureChannel::respond(&w.bob, &w.roots, &bad, 0, &mut rng).is_err(),
                "hello byte {i}"
            );
        }
    }

    #[test]
    fn spliced_ack_rejected() {
        // The responder's signature covers the initiator's Hello, so an
        // ack from a different session cannot be spliced in.
        let mut w = world();
        let (hello1, pending1) = SecureChannel::initiate(&w.alice, &w.bob.name, &mut w.rng);
        let (_hello2, pending2) = SecureChannel::initiate(&w.alice, &w.bob.name, &mut w.rng);
        let (ack1, _) = SecureChannel::respond(&w.bob, &w.roots, &hello1, 0, &mut w.rng).unwrap();
        // ack1 finishes session 1 but not session 2.
        assert!(pending2.finish(&w.roots, &ack1, 0).is_err());
        assert!(pending1.finish(&w.roots, &ack1, 0).is_ok());
    }

    #[test]
    fn invalid_dh_share_rejected() {
        let mut w = world();
        let (hello_bytes, _) = SecureChannel::initiate(&w.alice, &w.bob.name, &mut w.rng);
        let mut hello = Hello::from_bytes(&hello_bytes).unwrap();
        hello.dh = 1; // identity element: degenerate shared secret
                      // Re-sign so only the group check can complain.
        let tbs = hello_transcript(&hello.from, &hello.to, hello.nonce, hello.dh);
        hello.sig = w.alice.keys.sign(&tbs, &mut w.rng);
        assert_eq!(
            SecureChannel::respond(&w.bob, &w.roots, &hello.to_bytes(), 0, &mut w.rng).unwrap_err(),
            ChannelError::BadGroupElement
        );
    }

    #[test]
    fn expired_certificate_rejected_at_handshake_time() {
        let mut rng = DetRng::new(99);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca.root", ca.public);
        let name = Urn::server("a.org", ["stale"]).unwrap();
        let keys = KeyPair::generate(&mut rng);
        let cert = Certificate::issue(
            name.to_string(),
            keys.public,
            "ca.root",
            &ca,
            100,
            1,
            &mut rng,
        );
        let stale = ChannelIdentity {
            name: name.clone(),
            keys,
            chain: vec![cert],
        };
        let bob_name = Urn::server("b.org", ["bob"]).unwrap();
        let bob_keys = KeyPair::generate(&mut rng);
        let bob_cert = Certificate::issue(
            bob_name.to_string(),
            bob_keys.public,
            "ca.root",
            &ca,
            u64::MAX,
            2,
            &mut rng,
        );
        let bob = ChannelIdentity {
            name: bob_name,
            keys: bob_keys,
            chain: vec![bob_cert],
        };
        let (hello, _) = SecureChannel::initiate(&stale, &bob.name, &mut rng);
        // At now=500 the certificate (expiry 100) is stale.
        assert!(matches!(
            SecureChannel::respond(&bob, &roots, &hello, 500, &mut rng),
            Err(ChannelError::BadCertificate(_))
        ));
    }
}
