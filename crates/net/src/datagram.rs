//! Sealed datagrams for server-to-server messages, on per-peer sessions.
//!
//! The agent-transfer protocol wants messaging that never waits: a
//! server hands an agent to a peer without a handshake in flight while
//! its loop is busy, and any frame may be lost, duplicated or
//! reordered. So a sender sets a [`Session`] up on its own, once per
//! peer, against the recipient's **static** certified key
//! (ECIES-shaped), and every frame carries the signed ticket from which
//! the receiver sets up the same session, whichever frame arrives first:
//!
//! ```text
//! ticket:   from, to, chain, epk = g^x, born, session,
//!           sig = Sign_sender( H(from ‖ to ‖ epk ‖ born ‖ session) )
//! sender, once per session:
//!           x ←$, secret = recipient_pk ^ x
//!           k_enc/k_mac = H(label ‖ secret ‖ H(from ‖ to ‖ epk ‖ born ‖ session))
//! sender, per frame n:
//!           ciphertext = payload ⊕ SHA-CTR(k_enc ‖ n)
//!           tag        = HMAC(k_mac, n ‖ sent_at ‖ ciphertext)
//! receiver, once per session:
//!           secret = epk ^ sk, re-derive the keys, check the tag, verify
//!           the sender's chain and the ticket signature, cache the keys
//! receiver, per frame:
//!           find the cached session whose ticket equals the frame's,
//!           check the tag, check n against the session's replay window
//! ```
//!
//! After a session's first frame, neither side runs a modular
//! exponentiation, a signature or a certificate check: a frame costs a
//! counter, one keystream pass and one HMAC per side. The cached ticket
//! must equal the frame's field for field (the codec is canonical, so
//! that is byte for byte); a frame whose ticket differs in any byte is
//! checked in full, so every byte a frame carries is authenticated on
//! every frame.
//!
//! Replay defence is receiver-side, in a [`ReplayGuard`], and its memory
//! is O(peers):
//! - each session has a window over its frame numbers, RFC 4303's
//!   anti-replay bitmap, 1,024 frames wide;
//! - per sender the guard keeps the two newest sessions by session
//!   number and refuses any session at or below one it evicted, so an
//!   evicted ticket never opens again;
//! - a guard for an incarnation that started at `born`
//!   ([`ReplayGuard::since`]) refuses every session numbered below it.
//!   Session numbers are no less than the sender's clock when the
//!   session began, so no frame sealed before a receiver restarted opens
//!   after it.
//!
//! A session never outlives a certificate: the receiver drops a cached
//! session at the earliest `not_after` of the chain it verified, and the
//! sender asks [`Session::live`] against the recipient certificate's.
//! [`SealedDatagram::seal`] is a session of one frame, on the same frame
//! code.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ajanta_crypto::cert::Certificate;
use ajanta_crypto::modmath::pow_mod;
use ajanta_crypto::sig::{self, KeyPair, PublicKey, Signature, G, P, Q};
use ajanta_crypto::{ctr_keystream_xor, DetRng, HmacSha256, RootOfTrust, Sha256};
use ajanta_naming::Urn;
use ajanta_wire::{decode_seq, encode_seq, Decoder, Encoder, Wire, WireError};

use crate::secure::ChannelIdentity;

/// How many frame numbers a session's replay window spans: a frame
/// numbered this far below the session's newest is refused.
const WINDOW: u64 = 1024;

/// Sessions a receiver keeps per sender: the current and the previous.
const SESSIONS_PER_PEER: usize = 2;

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
    /// Frame number already seen on its session, or below its window —
    /// replay.
    Replayed(u64),
    /// The frame's session is closed here: it is numbered below this
    /// receiver's incarnation or below the sender's sessions the
    /// receiver keeps — replay.
    OldSession {
        /// The frame's session number.
        session: u64,
        /// The lowest session number the receiver still opens from this
        /// sender.
        bar: u64,
    },
}

impl DatagramError {
    /// Whether this rejection is in the **replay class** (a stale
    /// timestamp, a reused frame number or a closed session) as opposed
    /// to tampering/decode failures. Telemetry uses this to file the
    /// event under `RejectKind::Replay` rather than
    /// `RejectKind::BadDatagram`.
    pub fn is_replay(&self) -> bool {
        matches!(
            self,
            DatagramError::Stale { .. }
                | DatagramError::Replayed(_)
                | DatagramError::OldSession { .. }
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
            DatagramError::Replayed(n) => write!(f, "replayed frame {n}"),
            DatagramError::OldSession { session, bar } => {
                write!(f, "closed session {session}: none below {bar} opens here")
            }
        }
    }
}

impl std::error::Error for DatagramError {}

impl From<WireError> for DatagramError {
    fn from(e: WireError) -> Self {
        DatagramError::Malformed(e)
    }
}

/// One sealed frame: its session's signed ticket, then the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedDatagram {
    /// Sender name.
    pub from: Urn,
    /// Recipient name (bound into the session keys and the signature).
    pub to: Urn,
    /// Sender certificate chain, leaf first.
    pub chain: Vec<Certificate>,
    /// The session's ephemeral public share `g^x`.
    pub epk: u64,
    /// When the sender's incarnation started, on its clock.
    pub born: u64,
    /// The session number: no less than the sender's clock when the
    /// session began, and above every session number the sender used
    /// before.
    pub session: u64,
    /// Sender signature over the ticket.
    pub sig: Signature,
    /// The frame's number within its session, used once.
    pub nonce: u64,
    /// Send time.
    pub sent_at: u64,
    /// Encrypted payload.
    pub ciphertext: Vec<u8>,
    /// HMAC over the frame number, send time and ciphertext.
    pub tag: [u8; 32],
}

/// What the ticket signature covers and the session keys derive from.
fn ticket_digest(from: &Urn, to: &Urn, epk: u64, born: u64, session: u64) -> [u8; 32] {
    let mut e = Encoder::new();
    from.encode(&mut e);
    to.encode(&mut e);
    e.put_varint(epk);
    e.put_varint(born);
    e.put_varint(session);
    let mut h = Sha256::new();
    h.update(b"ajanta.dgram.v2.ticket");
    h.update(e.finish());
    h.finalize().0
}

/// One session's frame keys. Never printed.
struct Keys {
    k_enc: [u8; 32],
    /// HMAC keyed with `k_mac`, cloned per frame.
    mac: HmacSha256,
}

impl Keys {
    fn derive(secret: u64, digest: &[u8; 32]) -> Keys {
        let key = |label: &[u8]| {
            let mut h = Sha256::new();
            h.update(b"ajanta.dgram.v2");
            h.update(label);
            h.update(secret.to_be_bytes());
            h.update(digest);
            h.finalize().0
        };
        Keys {
            k_enc: key(b"enc"),
            mac: HmacSha256::new(&key(b"mac")),
        }
    }

    fn keystream_xor(&self, nonce: u64, data: &mut [u8]) {
        let mut prefix = [0u8; 45];
        prefix[..5].copy_from_slice(b"dgram");
        prefix[5..37].copy_from_slice(&self.k_enc);
        prefix[37..].copy_from_slice(&nonce.to_be_bytes());
        ctr_keystream_xor(&prefix, data);
    }

    fn tag(&self, nonce: u64, sent_at: u64, ciphertext: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(nonce.to_be_bytes());
        mac.update(sent_at.to_be_bytes());
        mac.update(ciphertext);
        mac.finalize().0
    }

    fn check_tag(&self, d: &SealedDatagram) -> Result<(), DatagramError> {
        let expected = self.tag(d.nonce, d.sent_at, &d.ciphertext);
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(d.tag.iter()) {
            diff |= a ^ b;
        }
        if diff == 0 {
            Ok(())
        } else {
            Err(DatagramError::BadTag)
        }
    }

    fn decrypt(&self, d: &SealedDatagram) -> Vec<u8> {
        let mut plaintext = d.ciphertext.clone();
        self.keystream_xor(d.nonce, &mut plaintext);
        plaintext
    }
}

/// A session's signed ticket, as every one of its frames carries it.
struct Ticket {
    from: Urn,
    to: Urn,
    chain: Vec<Certificate>,
    epk: u64,
    born: u64,
    session: u64,
    sig: Signature,
}

impl Ticket {
    fn of(d: &SealedDatagram) -> Ticket {
        Ticket {
            from: d.from.clone(),
            to: d.to.clone(),
            chain: d.chain.clone(),
            epk: d.epk,
            born: d.born,
            session: d.session,
            sig: d.sig,
        }
    }

    /// Whether `d` carries this ticket, every field equal.
    fn carried_by(&self, d: &SealedDatagram) -> bool {
        self.session == d.session
            && self.epk == d.epk
            && self.born == d.born
            && self.sig == d.sig
            && self.from == d.from
            && self.to == d.to
            && self.chain == d.chain
    }
}

/// The sending half of a session from one server to one peer: set up
/// with one Diffie–Hellman share and one signature, then sealing each
/// frame with a counter, one keystream pass and one HMAC. Frames may be
/// sealed from several threads at once.
pub struct Session {
    ticket: Ticket,
    keys: Keys,
    next: AtomicU64,
    expires: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("to", &self.ticket.to)
            .field("session", &self.ticket.session)
            .field("frames", &self.next.load(Ordering::Relaxed))
            .field("expires", &self.expires)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session from `identity` to `to`, whose certified static
    /// key is `recipient_key`. `born` is when the sender's incarnation
    /// started and `session` the session number (see
    /// [`SealedDatagram::session`]); `expires` is the earliest
    /// `not_after` of the certificates `recipient_key` was verified
    /// with.
    pub fn new(
        identity: &ChannelIdentity,
        to: &Urn,
        recipient_key: PublicKey,
        born: u64,
        session: u64,
        expires: u64,
        rng: &mut DetRng,
    ) -> Session {
        let x = rng.range_inclusive(1, Q - 1);
        let epk = pow_mod(G, x, P);
        let secret = pow_mod(recipient_key.0, x, P);
        let digest = ticket_digest(&identity.name, to, epk, born, session);
        let sig = identity.keys.sign(&digest, rng);
        Session {
            ticket: Ticket {
                from: identity.name.clone(),
                to: to.clone(),
                chain: identity.chain.clone(),
                epk,
                born,
                session,
                sig,
            },
            keys: Keys::derive(secret, &digest),
            next: AtomicU64::new(0),
            expires,
        }
    }

    /// The session number.
    pub fn number(&self) -> u64 {
        self.ticket.session
    }

    /// Whether the recipient's certificate still holds at `now`; a
    /// sender opens a fresh session (and checks the certificate again)
    /// once it does not.
    pub fn live(&self, now: u64) -> bool {
        now <= self.expires
    }

    /// Seals `payload` as the session's next frame, sent at `now`.
    pub fn seal(&self, payload: &[u8], now: u64) -> SealedDatagram {
        let nonce = self.next.fetch_add(1, Ordering::Relaxed);
        let mut ciphertext = payload.to_vec();
        self.keys.keystream_xor(nonce, &mut ciphertext);
        let tag = self.keys.tag(nonce, now, &ciphertext);
        let t = &self.ticket;
        SealedDatagram {
            from: t.from.clone(),
            to: t.to.clone(),
            chain: t.chain.clone(),
            epk: t.epk,
            born: t.born,
            session: t.session,
            sig: t.sig,
            nonce,
            sent_at: now,
            ciphertext,
            tag,
        }
    }
}

/// Numbers the sessions [`SealedDatagram::seal`] opens: no less than
/// `now`, and above every number it handed out before in this process,
/// so one sender's one-shot frames stay in session order.
fn one_shot_number(now: u64) -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let next = |last: u64| now.max(last.saturating_add(1));
    let last = LAST
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
            Some(next(last))
        })
        .expect("the update never declines");
    next(last)
}

impl SealedDatagram {
    /// Seals `payload` from `identity` to `to`, whose static public key is
    /// `recipient_key` (from its certificate, via the server directory),
    /// as a session of one frame.
    pub fn seal(
        identity: &ChannelIdentity,
        to: &Urn,
        recipient_key: sig::PublicKey,
        payload: &[u8],
        now: u64,
        rng: &mut DetRng,
    ) -> SealedDatagram {
        let session = one_shot_number(now);
        Session::new(identity, to, recipient_key, now, session, u64::MAX, rng).seal(payload, now)
    }

    /// Opens a datagram addressed to `identity` through `guard` (see
    /// [`ReplayGuard::open`]). On success returns the authenticated
    /// sender name and the plaintext.
    ///
    /// `recipient_keys` is the recipient's key pair, passed so the
    /// secret never leaves `ajanta-crypto` types.
    pub fn open(
        &self,
        identity: &ChannelIdentity,
        recipient_keys: &KeyPair,
        roots: &RootOfTrust,
        now: u64,
        guard: &mut ReplayGuard,
    ) -> Result<(Urn, Vec<u8>), DatagramError> {
        guard
            .open(self, identity, recipient_keys, roots, now)
            .map(|o| (o.from, o.payload))
    }
}

impl Wire for SealedDatagram {
    fn encode(&self, e: &mut Encoder) {
        self.from.encode(e);
        self.to.encode(e);
        encode_seq(&self.chain, e);
        e.put_varint(self.epk);
        e.put_varint(self.born);
        e.put_varint(self.session);
        self.sig.encode(e);
        e.put_varint(self.nonce);
        e.put_varint(self.sent_at);
        e.put_bytes(&self.ciphertext);
        e.put_raw(&self.tag);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SealedDatagram {
            from: Urn::decode(d)?,
            to: Urn::decode(d)?,
            chain: decode_seq(d)?,
            epk: d.get_varint()?,
            born: d.get_varint()?,
            session: d.get_varint()?,
            sig: Signature::decode(d)?,
            nonce: d.get_varint()?,
            sent_at: d.get_varint()?,
            ciphertext: d.get_bytes()?,
            tag: d.get_raw(32)?.try_into().expect("fixed width"),
        })
    }
}

/// The earliest `not_after` among the certificates `verify_chain`
/// checks: the leaf up to the first one a trusted root issued.
fn chain_expiry(roots: &RootOfTrust, chain: &[Certificate]) -> u64 {
    let mut expiry = u64::MAX;
    for cert in chain {
        expiry = expiry.min(cert.not_after);
        if roots.key_of(&cert.issuer).is_some() {
            break;
        }
    }
    expiry
}

/// RFC 4303's anti-replay bitmap over one session's frame numbers.
#[derive(Default)]
struct Window {
    newest: Option<u64>,
    /// Bit `n % WINDOW` is set once frame `n` opened.
    seen: [u64; (WINDOW / 64) as usize],
}

impl Window {
    fn bit(n: u64) -> (usize, u64) {
        let i = n % WINDOW;
        ((i / 64) as usize, 1 << (i % 64))
    }

    /// Records frame `n`, or refuses it as a replay when it has opened
    /// before or lies below the window.
    fn admit(&mut self, n: u64) -> Result<(), DatagramError> {
        match self.newest {
            Some(top) if n <= top => {
                let (word, mask) = Self::bit(n);
                if top - n >= WINDOW || self.seen[word] & mask != 0 {
                    return Err(DatagramError::Replayed(n));
                }
            }
            Some(top) if n - top >= WINDOW => {
                self.seen = Default::default();
                self.newest = Some(n);
            }
            Some(top) => {
                // The slots the window slides over held frames that are
                // now below it.
                for m in top + 1..n {
                    let (word, mask) = Self::bit(m);
                    self.seen[word] &= !mask;
                }
                self.newest = Some(n);
            }
            None => self.newest = Some(n),
        }
        let (word, mask) = Self::bit(n);
        self.seen[word] |= mask;
        Ok(())
    }
}

/// A session a receiver has verified once.
struct Inbound {
    ticket: Ticket,
    keys: Keys,
    /// The earliest `not_after` of the chain verified for it.
    expires: u64,
    window: Window,
}

/// What a receiver keeps about one sender.
#[derive(Default)]
struct Peer {
    /// At most [`SESSIONS_PER_PEER`] sessions.
    sessions: Vec<Inbound>,
    /// The newest session evicted: it and every one below stay closed.
    evicted: Option<u64>,
    /// When a frame from this sender last opened.
    opened_at: u64,
}

/// A frame [`ReplayGuard::open`] accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opened {
    /// The authenticated sender.
    pub from: Urn,
    /// The plaintext.
    pub payload: Vec<u8>,
    /// Whether the frame began a session the guard had not cached.
    pub new_session: bool,
}

/// A receiver's sessions and replay defence (see the module docs): per
/// sender at most two verified sessions, each with a 1,024-frame replay
/// window.
pub struct ReplayGuard {
    /// Maximum accepted frame age (virtual ns), if any.
    window_ns: Option<u64>,
    /// Sessions numbered below this are refused.
    since: u64,
    peers: HashMap<Urn, Peer>,
}

impl std::fmt::Debug for ReplayGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayGuard")
            .field("window_ns", &self.window_ns)
            .field("since", &self.since)
            .field("peers", &self.peers.len())
            .field("sessions", &self.len())
            .finish()
    }
}

impl ReplayGuard {
    /// A guard refusing frames sent more than `window_ns` before they
    /// open. It opens sessions of any number.
    pub fn new(window_ns: u64) -> Self {
        ReplayGuard {
            window_ns: Some(window_ns),
            since: 0,
            peers: HashMap::new(),
        }
    }

    /// The guard of a receiver whose incarnation started at `born`: it
    /// refuses every session numbered below `born`, so no frame sealed
    /// before the receiver started opens. Frames do not age out.
    pub fn since(born: u64) -> Self {
        ReplayGuard {
            window_ns: None,
            since: born,
            peers: HashMap::new(),
        }
    }

    /// Opens `d`, addressed to `identity`, at `now`. A frame of a cached
    /// session costs its tag and its window; any other frame has its
    /// ticket verified in full (Diffie–Hellman, chain, signature) and,
    /// once it opens, caches its session.
    pub fn open(
        &mut self,
        d: &SealedDatagram,
        identity: &ChannelIdentity,
        recipient_keys: &KeyPair,
        roots: &RootOfTrust,
        now: u64,
    ) -> Result<Opened, DatagramError> {
        if d.to != identity.name {
            return Err(DatagramError::WrongRecipient {
                named: d.to.to_string(),
                us: identity.name.to_string(),
            });
        }
        if let Some(window) = self.window_ns {
            if now > d.sent_at.saturating_add(window) {
                return Err(DatagramError::Stale {
                    sent_at: d.sent_at,
                    now,
                });
            }
        }
        if let Some(peer) = self.peers.get_mut(&d.from) {
            if let Some(i) = peer.sessions.iter().position(|s| s.ticket.carried_by(d)) {
                let s = &mut peer.sessions[i];
                if now <= s.expires {
                    s.keys.check_tag(d)?;
                    s.window.admit(d.nonce)?;
                    peer.opened_at = now;
                    return Ok(Opened {
                        from: d.from.clone(),
                        payload: s.keys.decrypt(d),
                        new_session: false,
                    });
                }
                // Its chain has expired: the full check refuses the frame.
                peer.sessions.swap_remove(i);
            }
        }
        self.open_ticket(d, recipient_keys, roots, now)
    }

    /// Verifies `d`'s ticket in full, then opens the frame and caches
    /// its session, unless the session is closed here.
    fn open_ticket(
        &mut self,
        d: &SealedDatagram,
        recipient_keys: &KeyPair,
        roots: &RootOfTrust,
        now: u64,
    ) -> Result<Opened, DatagramError> {
        if !sig::valid_public_key(&PublicKey(d.epk)) {
            return Err(DatagramError::BadGroupElement);
        }
        let digest = ticket_digest(&d.from, &d.to, d.epk, d.born, d.session);
        let keys = Keys::derive(recipient_keys.raise(d.epk), &digest);
        keys.check_tag(d)?;

        // Authenticate the sender.
        let (subject, sender_key) = roots
            .verify_chain(&d.chain, now)
            .map_err(|e| DatagramError::BadCertificate(e.to_string()))?;
        if subject != d.from.to_string() {
            return Err(DatagramError::BadCertificate(format!(
                "chain certifies {subject}, datagram claims {}",
                d.from
            )));
        }
        sig::verify(&sender_key, &digest, &d.sig).map_err(|_| DatagramError::BadSignature)?;

        // Only now is a closed session a replay: a tampered or forged
        // ticket has failed above, whatever number it claims.
        let bar = self.bar(&d.from, d.session);
        if d.session < bar {
            return Err(DatagramError::OldSession {
                session: d.session,
                bar,
            });
        }
        let payload = keys.decrypt(d);
        let peer = self.peers.entry(d.from.clone()).or_default();
        let new_session = match peer
            .sessions
            .iter_mut()
            .find(|s| s.ticket.session == d.session)
        {
            // The same session under a second valid ticket: its window
            // still holds.
            Some(s) => {
                s.window.admit(d.nonce)?;
                false
            }
            None => {
                let mut window = Window::default();
                window.admit(d.nonce)?;
                peer.sessions.push(Inbound {
                    ticket: Ticket::of(d),
                    keys,
                    expires: chain_expiry(roots, &d.chain),
                    window,
                });
                if peer.sessions.len() > SESSIONS_PER_PEER {
                    let (i, oldest) = peer
                        .sessions
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (i, s.ticket.session))
                        .min_by_key(|&(_, n)| n)
                        .expect("sessions are not empty");
                    peer.sessions.swap_remove(i);
                    peer.evicted = Some(oldest);
                }
                true
            }
        };
        peer.opened_at = now;
        Ok(Opened {
            from: d.from.clone(),
            payload,
            new_session,
        })
    }

    /// The lowest session number that may still open from `from`, for a
    /// frame of session `session`: none below this incarnation, none at
    /// or below an evicted session, and, while [`SESSIONS_PER_PEER`] are
    /// cached, no new one below the oldest of them.
    fn bar(&self, from: &Urn, session: u64) -> u64 {
        let mut bar = self.since;
        if let Some(peer) = self.peers.get(from) {
            if let Some(evicted) = peer.evicted {
                bar = bar.max(evicted.saturating_add(1));
            }
            let cached = |n| peer.sessions.iter().any(|s| s.ticket.session == n);
            if peer.sessions.len() >= SESSIONS_PER_PEER && !cached(session) {
                let oldest = peer.sessions.iter().map(|s| s.ticket.session).min();
                bar = bar.max(oldest.unwrap_or(0));
            }
        }
        bar
    }

    /// When a frame from `peer` last opened, if one has.
    pub fn last_opened(&self, peer: &Urn) -> Option<u64> {
        self.peers.get(peer).map(|p| p.opened_at)
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.peers.values().map(|p| p.sessions.len()).sum()
    }

    /// Whether no session is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// After its first frame a session costs no public-key operation:
    /// the receiver opens the other 9,999 frames with no trust roots and
    /// a wrong key pair, which a chain check or a Diffie–Hellman would
    /// trip on, and holds one session.
    #[test]
    fn ten_thousand_frames_keep_one_session() {
        let mut w = world();
        let session = Session::new(&w.a, &w.b.name, w.b_keys.public, 0, 1, u64::MAX, &mut w.rng);
        let mut guard = ReplayGuard::since(0);
        let first = session.seal(b"frame 0", 10);
        let opened = guard.open(&first, &w.b, &w.b_keys, &w.roots, 10).unwrap();
        assert!(opened.new_session);
        let no_roots = RootOfTrust::new();
        let wrong_keys = KeyPair::generate(&mut w.rng);
        for i in 1..10_000u64 {
            let payload = format!("frame {i}");
            let wire = session.seal(payload.as_bytes(), 10 + i).to_bytes();
            let d = SealedDatagram::from_bytes(&wire).unwrap();
            let opened = guard
                .open(&d, &w.b, &wrong_keys, &no_roots, 10 + i)
                .unwrap();
            assert_eq!(opened.payload, payload.as_bytes());
            assert!(!opened.new_session);
        }
        assert_eq!(guard.len(), 1);
    }

    /// Every byte a frame on a cached session carries is authenticated:
    /// each single flip is refused, and the genuine frame still opens.
    #[test]
    fn every_byte_of_a_cached_session_frame_is_authenticated() {
        let mut w = world();
        let session = Session::new(&w.a, &w.b.name, w.b_keys.public, 0, 1, u64::MAX, &mut w.rng);
        let mut guard = ReplayGuard::since(0);
        let first = session.seal(b"first", 5);
        guard.open(&first, &w.b, &w.b_keys, &w.roots, 5).unwrap();
        let frame = session.seal(b"second frame", 6).to_bytes();
        let mut checked = 0;
        for i in 0..frame.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = frame.clone();
                bad[i] ^= flip;
                if let Ok(d) = SealedDatagram::from_bytes(&bad) {
                    checked += 1;
                    assert!(
                        guard.open(&d, &w.b, &w.b_keys, &w.roots, 6).is_err(),
                        "byte {i} flipped by {flip:#04x} was accepted"
                    );
                }
            }
        }
        assert!(
            checked > frame.len(),
            "most flips must decode to be checked"
        );
        let d = SealedDatagram::from_bytes(&frame).unwrap();
        let opened = guard.open(&d, &w.b, &w.b_keys, &w.roots, 6).unwrap();
        assert_eq!(opened.payload, b"second frame");
        assert_eq!(guard.len(), 1);
    }

    /// A session never outlives a certificate. The receiver drops it at
    /// the sender chain's `not_after`: a frame sent before opens, one
    /// sent after on the same session is refused as without a session.
    /// The sender's session ends at the recipient's `not_after`.
    #[test]
    fn a_session_ends_with_its_certificates() {
        let mut rng = DetRng::new(7);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        let mut mk = |name: &Urn, not_after, serial| {
            let keys = KeyPair::generate(&mut rng);
            let cert = Certificate::issue(
                name.to_string(),
                keys.public,
                "ca",
                &ca,
                not_after,
                serial,
                &mut rng,
            );
            ChannelIdentity {
                name: name.clone(),
                keys,
                chain: vec![cert],
            }
        };
        let a = mk(&Urn::server("a.org", ["a"]).unwrap(), 1_000, 1);
        let b = mk(&Urn::server("b.org", ["b"]).unwrap(), 2_000, 2);
        let mut rng = DetRng::new(8);
        let session = Session::new(&a, &b.name, b.keys.public, 0, 1, 2_000, &mut rng);
        let mut guard = ReplayGuard::since(0);

        let before = session.seal(b"before", 500);
        guard.open(&before, &b, &b.keys, &roots, 500).unwrap();
        let after = session.seal(b"after", 1_500);
        assert!(matches!(
            guard.open(&after, &b, &b.keys, &roots, 1_500),
            Err(DatagramError::BadCertificate(_))
        ));
        assert!(guard.is_empty(), "the expired session is dropped");

        assert!(session.live(2_000));
        assert!(!session.live(2_001));
    }

    /// A receiver refuses sessions numbered before its incarnation, and
    /// an evicted session never opens again, even one begun at the same
    /// instant as those it keeps.
    #[test]
    fn closed_sessions_stay_closed() {
        let mut w = world();
        let mut guard = ReplayGuard::since(100);
        let early = Session::new(
            &w.a,
            &w.b.name,
            w.b_keys.public,
            0,
            99,
            u64::MAX,
            &mut w.rng,
        );
        let err = guard
            .open(&early.seal(b"x", 150), &w.b, &w.b_keys, &w.roots, 150)
            .unwrap_err();
        assert_eq!(
            err,
            DatagramError::OldSession {
                session: 99,
                bar: 100
            }
        );
        assert!(err.is_replay());

        let sessions: Vec<Session> = (100..103)
            .map(|n| {
                Session::new(
                    &w.a,
                    &w.b.name,
                    w.b_keys.public,
                    100,
                    n,
                    u64::MAX,
                    &mut w.rng,
                )
            })
            .collect();
        let held = sessions[0].seal(b"held back", 200);
        for s in &sessions {
            guard
                .open(&s.seal(b"m", 200), &w.b, &w.b_keys, &w.roots, 200)
                .unwrap();
        }
        assert_eq!(guard.len(), SESSIONS_PER_PEER);
        for d in [held, sessions[0].seal(b"again", 200)] {
            assert!(matches!(
                guard.open(&d, &w.b, &w.b_keys, &w.roots, 200),
                Err(DatagramError::OldSession { session: 100, .. })
            ));
        }
        for s in &sessions[1..] {
            guard
                .open(&s.seal(b"n", 201), &w.b, &w.b_keys, &w.roots, 201)
                .unwrap();
        }
    }

    /// Frames of one session may arrive in any order within the window;
    /// each opens once, and frames below the window are refused.
    #[test]
    fn reordered_frames_open_once_within_the_window() {
        let mut w = world();
        let session = Session::new(&w.a, &w.b.name, w.b_keys.public, 0, 1, u64::MAX, &mut w.rng);
        let frames: Vec<SealedDatagram> = (0..WINDOW + 10)
            .map(|i| session.seal(&i.to_be_bytes(), 0))
            .collect();
        let mut guard = ReplayGuard::since(0);
        let mut open = |n: u64| {
            guard
                .open(&frames[n as usize], &w.b, &w.b_keys, &w.roots, 0)
                .map(|o| o.payload)
        };
        assert!(open(5).is_ok());
        for n in (0..5).rev() {
            assert_eq!(open(n).unwrap(), n.to_be_bytes());
        }
        assert_eq!(open(3), Err(DatagramError::Replayed(3)));
        assert!(open(WINDOW + 9).is_ok());
        assert_eq!(open(9), Err(DatagramError::Replayed(9)));
        assert!(open(10).is_ok());
        assert_eq!(open(10), Err(DatagramError::Replayed(10)));
    }

    /// One sender's one-shot datagrams, opened in order through one
    /// guard, each open once and leave at most two sessions cached.
    #[test]
    fn one_shot_frames_keep_two_sessions() {
        let mut w = world();
        let mut guard = ReplayGuard::new(u64::MAX / 4);
        for i in 0..50u8 {
            let d = SealedDatagram::seal(&w.a, &w.b.name, w.b_keys.public, &[i], 7, &mut w.rng);
            assert_eq!(
                d.open(&w.b, &w.b_keys, &w.roots, 7, &mut guard).unwrap().1,
                [i]
            );
            assert!(d.open(&w.b, &w.b_keys, &w.roots, 7, &mut guard).is_err());
        }
        assert_eq!(guard.len(), SESSIONS_PER_PEER);
    }
}
