//! Durable agent state: the serialized bundle and the store it spills to.
//!
//! An [`AgentBundle`] is everything a server needs to re-host one agent
//! it already admitted: the signed credentials, the agent image (code +
//! globals + entry — the itinerary cursor travels inside the globals,
//! exactly as it does over the wire), the `(run_as, hop)` admission
//! identity, the admission span context, and — for an agent captured
//! mid-run — the suspended interpreter state from
//! [`ajanta_vm::InterpState`]. Bundles are version-tagged canonical
//! bytes with a round-trip guarantee and total decoding.
//!
//! Two consumers:
//!
//! * **Hibernation** ([`BundleStore`]): an idle agent is serialized,
//!   its live interpreter and environment dropped, and only the bytes
//!   retained until a message or tour resume wakes it.
//! * **The admission WAL** (`runtime::wal`): every admission is logged
//!   as a bundle so a restarted server can re-admit in-flight agents.
//!
//! Bundles never cross the trust boundary: a server only ever decodes
//! bundles it encoded itself.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ajanta_core::telemetry::SpanContext;
use ajanta_core::Credentials;
use ajanta_naming::Urn;
use ajanta_vm::{AgentImage, InterpState};
use ajanta_wire::{Decoder, Encoder, Wire, WireError};

/// Version tag leading every [`AgentBundle`] encoding. Bump on any
/// layout change; decoders reject versions they do not understand.
pub const BUNDLE_VERSION: u8 = 1;

/// The mid-run half of a bundle: the suspended interpreter plus the
/// agent-environment session state that must survive hibernation for
/// the resumed run to be indistinguishable from an uninterrupted one
/// (the deterministic RNG cursor, the child-dispatch counter, and the
/// last mail sender the agent may still query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmState {
    /// The suspended call stack, globals, and quota meters.
    pub interp: InterpState,
    /// The environment's deterministic RNG cursor.
    pub rng_state: u64,
    /// Children dispatched so far (names child agents derive from).
    pub children: u64,
    /// Sender of the most recently received mail.
    pub last_sender: Vec<u8>,
}

impl Wire for WarmState {
    fn encode(&self, e: &mut Encoder) {
        self.interp.encode(e);
        e.put_varint(self.rng_state);
        e.put_varint(self.children);
        e.put_bytes(&self.last_sender);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(WarmState {
            interp: InterpState::decode(d)?,
            rng_state: d.get_varint()?,
            children: d.get_varint()?,
            last_sender: d.get_bytes()?,
        })
    }
}

/// One agent's durable state, as defined in the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentBundle {
    /// The executing identity (the dedup key's name half).
    pub agent: Urn,
    /// The hop this agent was admitted at (the dedup key's sequence
    /// half).
    pub hop: u64,
    /// The agent's signed credentials, re-verified on every restore.
    pub credentials: Credentials,
    /// Code + globals-at-capture + entry. For a cold agent these are
    /// the globals it arrived with; for a warm capture they are
    /// superseded by `interp`'s globals on restore.
    pub image: AgentImage,
    /// Entry argument from the original transfer.
    pub arg: Vec<u8>,
    /// The span anchoring the agent's causal tree: the delivering
    /// transfer leg for WAL admissions, the stay's admission span for
    /// hibernation — either way a woken or replayed agent's spans
    /// rejoin the same trace.
    pub ctx: SpanContext,
    /// Suspended mid-run state, or `None` for an agent that never
    /// started (cold) — it restarts from its entry function.
    pub warm: Option<WarmState>,
}

impl Wire for AgentBundle {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(BUNDLE_VERSION);
        self.agent.encode(e);
        e.put_varint(self.hop);
        self.credentials.encode(e);
        self.image.encode(e);
        e.put_bytes(&self.arg);
        self.ctx.encode(e);
        self.warm.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let version = d.get_u8()?;
        if version != BUNDLE_VERSION {
            return Err(WireError::BadTag {
                ty: "AgentBundle version",
                tag: version,
            });
        }
        Ok(AgentBundle {
            agent: Urn::decode(d)?,
            hop: d.get_varint()?,
            credentials: Credentials::decode(d)?,
            image: AgentImage::decode(d)?,
            arg: d.get_bytes()?,
            ctx: SpanContext::decode(d)?,
            warm: Option::<WarmState>::decode(d)?,
        })
    }
}

/// Where hibernated bundles live: their encoded bytes, in memory. `take`
/// is atomic — exactly one caller gets the bundle, which is what makes
/// the wake path race-free (hibernate-then-wake can never schedule two
/// copies of an agent).
#[derive(Debug)]
pub struct BundleStore {
    /// agent → encoded bundle.
    index: Mutex<HashMap<Urn, Vec<u8>>>,
    bytes: AtomicUsize,
}

impl BundleStore {
    /// An empty store.
    pub fn in_memory() -> Self {
        BundleStore {
            index: Mutex::new(HashMap::new()),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Stores `bundle`, replacing any previous entry for the same agent.
    /// Returns the encoded size in bytes.
    pub fn put(&self, bundle: &AgentBundle) -> usize {
        let bytes = bundle.to_bytes();
        let len = bytes.len();
        let mut index = self.index.lock().expect("bundle index poisoned");
        if let Some(old) = index.insert(bundle.agent.clone(), bytes) {
            self.bytes.fetch_sub(old.len(), Ordering::Relaxed);
        }
        self.bytes.fetch_add(len, Ordering::Relaxed);
        len
    }

    /// Removes and decodes the bundle for `agent`, if present. Exactly
    /// one concurrent caller observes `Some`.
    pub fn take(&self, agent: &Urn) -> Option<AgentBundle> {
        let bytes = self
            .index
            .lock()
            .expect("bundle index poisoned")
            .remove(agent)?;
        self.bytes.fetch_sub(bytes.len(), Ordering::Relaxed);
        AgentBundle::from_bytes(&bytes).ok()
    }

    /// Names of every hibernated agent, sorted — the control plane's
    /// inventory of the store.
    pub fn list(&self) -> Vec<Urn> {
        let mut agents: Vec<Urn> = self
            .index
            .lock()
            .expect("bundle index poisoned")
            .keys()
            .cloned()
            .collect();
        agents.sort();
        agents
    }

    /// Whether a bundle for `agent` is currently stored.
    pub fn contains(&self, agent: &Urn) -> bool {
        self.index
            .lock()
            .expect("bundle index poisoned")
            .contains_key(agent)
    }

    /// Number of hibernated agents.
    pub fn len(&self) -> usize {
        self.index.lock().expect("bundle index poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded bytes currently stored.
    pub fn stored_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}
