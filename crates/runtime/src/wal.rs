//! The admission write-ahead log: crash-safe agent custody.
//!
//! Once a server acks a `Transfer`, it owns that agent — the sender
//! stops retrying and deletes its copy. If the server process then dies,
//! the agent is gone. The WAL closes that window: every admission is
//! appended (as an [`AgentBundle`]) *before* the admission ack leaves
//! the process, and every resolution (the agent completed, failed, or
//! was forwarded on) is appended when custody ends. A restarted server
//! replays the log: resolved `(agent, hop)` keys seed the duplicate-
//! admission filter (so a peer retrying an old frame is acked and
//! dropped, exactly as if the server had never restarted), and
//! unresolved admissions are re-admitted through the normal pipeline —
//! idempotently, because admission dedups on the same `(agent, hop)`
//! key. Replaying the same log twice therefore admits each key once.
//!
//! Records are length-prefixed canonical bytes. Appends flush to the OS
//! before returning, which survives `SIGKILL` (only the machine dying
//! can lose a buffered record). Replay is total: a torn final record —
//! the normal result of a crash mid-append — ends the scan cleanly.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ajanta_naming::Urn;
use ajanta_wire::{Decoder, Encoder, Wire, WireError};

use crate::bundle::AgentBundle;

/// One WAL entry: custody taken or custody ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The server admitted this agent (logged before the ack flushes).
    Admit(Box<AgentBundle>),
    /// The server resolved `(agent, hop)`: the agent reported, was
    /// forwarded to its next hop, or was refused — custody ended.
    Resolve {
        /// The resolved agent.
        agent: Urn,
        /// The hop whose admission is now settled.
        hop: u64,
    },
}

impl Wire for WalRecord {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WalRecord::Admit(bundle) => {
                e.put_u8(0);
                bundle.encode(e);
            }
            WalRecord::Resolve { agent, hop } => {
                e.put_u8(1);
                agent.encode(e);
                e.put_varint(*hop);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(WalRecord::Admit(Box::new(AgentBundle::decode(d)?))),
            1 => Ok(WalRecord::Resolve {
                agent: Urn::decode(d)?,
                hop: d.get_varint()?,
            }),
            tag => Err(WireError::BadTag {
                ty: "WalRecord",
                tag,
            }),
        }
    }
}

/// An append-only admission log at a fixed path.
#[derive(Debug)]
pub struct AdmissionWal {
    file: Mutex<File>,
    path: PathBuf,
}

impl AdmissionWal {
    /// Opens (creating if missing) the log at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(AdmissionWal {
            file: Mutex::new(file),
            path,
        })
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS. The record is
    /// length-prefixed so replay can detect a torn tail.
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        let mut e = Encoder::new();
        e.put_bytes(&record.to_bytes());
        let mut file = self.file.lock().expect("wal file poisoned");
        file.write_all(e.as_slice())?;
        file.flush()
    }

    /// Reads every intact record from the log at `path`. A missing file
    /// is an empty log. A torn or corrupt tail ends the scan at the last
    /// intact record — replay never fails on a crash artifact.
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Vec<WalRecord>> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        let mut d = Decoder::new(&bytes);
        while d.remaining() > 0 {
            let Ok(frame) = d.get_bytes() else { break };
            let Ok(record) = WalRecord::from_bytes(&frame) else {
                break;
            };
            records.push(record);
        }
        Ok(records)
    }

    /// Splits replayed records into settled keys and still-open
    /// admissions: every resolved `(agent, hop)` once, in the order of
    /// its first resolution, plus the admissions with no later matching
    /// resolution, in log order (a re-admitted key keeps its newest
    /// bundle, at that bundle's position). One pass over the log.
    pub fn recover(records: Vec<WalRecord>) -> WalRecovery {
        // Open admissions by key: the newest Admit's log position and
        // bundle.
        let mut open: HashMap<(Urn, u64), (usize, AgentBundle)> = HashMap::new();
        let mut settled: HashSet<(Urn, u64)> = HashSet::new();
        let mut resolved: Vec<(Urn, u64)> = Vec::new();
        for (pos, record) in records.into_iter().enumerate() {
            match record {
                WalRecord::Admit(bundle) => {
                    open.insert((bundle.agent.clone(), bundle.hop), (pos, *bundle));
                }
                WalRecord::Resolve { agent, hop } => {
                    let key = (agent, hop);
                    open.remove(&key);
                    if settled.insert(key.clone()) {
                        resolved.push(key);
                    }
                }
            }
        }
        let mut unresolved: Vec<(usize, AgentBundle)> = open.into_values().collect();
        unresolved.sort_unstable_by_key(|(pos, _)| *pos);
        WalRecovery {
            resolved,
            unresolved: unresolved.into_iter().map(|(_, bundle)| bundle).collect(),
        }
    }
}

/// What a restarted server learns from its log (see
/// [`AdmissionWal::recover`]).
#[derive(Debug)]
pub struct WalRecovery {
    /// Keys whose custody ended — seed the duplicate-admission filter
    /// with these so peer retries are acked and dropped.
    pub resolved: Vec<(Urn, u64)>,
    /// Admissions still in flight at the crash — re-admit these.
    pub unresolved: Vec<AgentBundle>,
}
