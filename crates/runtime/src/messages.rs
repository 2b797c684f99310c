//! Server-to-server protocol messages.
//!
//! Every message travels as the plaintext of a
//! [`ajanta_net::SealedDatagram`], so confidentiality, integrity, sender
//! authentication and replay protection are already guaranteed by the
//! time one of these is decoded.

use ajanta_core::telemetry::SpanContext;
use ajanta_core::Credentials;
use ajanta_naming::Urn;
use ajanta_vm::AgentImage;
use ajanta_wire::{Decoder, Encoder, Wire, WireError};

/// How an agent's stay at a server ended, as reported to its home site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportStatus {
    /// The agent's entry function returned this value (rendered).
    Completed(String),
    /// The agent trapped or was denied; human-readable reason.
    Failed(String),
    /// The agent exceeded a quota.
    QuotaExceeded(String),
    /// The server refused the agent at admission (bad credentials,
    /// unverifiable code, duplicate name, ...).
    Refused(String),
}

impl ReportStatus {
    /// The outcome's one-word label, as journaled.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ReportStatus::Completed(_) => "completed",
            ReportStatus::Failed(_) => "failed",
            ReportStatus::QuotaExceeded(_) => "quota",
            ReportStatus::Refused(_) => "refused",
        }
    }
}

impl Wire for ReportStatus {
    fn encode(&self, e: &mut Encoder) {
        match self {
            ReportStatus::Completed(s) => {
                e.put_u8(0);
                e.put_str(s);
            }
            ReportStatus::Failed(s) => {
                e.put_u8(1);
                e.put_str(s);
            }
            ReportStatus::QuotaExceeded(s) => {
                e.put_u8(2);
                e.put_str(s);
            }
            ReportStatus::Refused(s) => {
                e.put_u8(3);
                e.put_str(s);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let tag = d.get_u8()?;
        let s = d.get_str()?;
        Ok(match tag {
            0 => ReportStatus::Completed(s),
            1 => ReportStatus::Failed(s),
            2 => ReportStatus::QuotaExceeded(s),
            3 => ReportStatus::Refused(s),
            tag => {
                return Err(WireError::BadTag {
                    ty: "ReportStatus",
                    tag,
                })
            }
        })
    }
}

/// A status report sent to an agent's home site (Section 4: the domain
/// database "responds to status queries from their owners"; completion
/// reports close the loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The agent this report concerns.
    pub agent: Urn,
    /// The server reporting.
    pub server: Urn,
    /// What happened.
    pub status: ReportStatus,
    /// Virtual time of the event.
    pub at: u64,
}

impl Wire for Report {
    fn encode(&self, e: &mut Encoder) {
        self.agent.encode(e);
        self.server.encode(e);
        self.status.encode(e);
        e.put_varint(self.at);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Report {
            agent: Urn::decode(d)?,
            server: Urn::decode(d)?,
            status: ReportStatus::decode(d)?,
            at: d.get_varint()?,
        })
    }
}

/// A snapshot of one agent's domain-database record, for status queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentStatus {
    /// The agent is currently resident at the queried server.
    Resident {
        /// Owner recorded at admission.
        owner: Urn,
        /// Creator recorded at admission.
        creator: Urn,
        /// Fuel charged against its quota so far.
        fuel_used: u64,
        /// Resources it currently holds proxies to.
        bindings: Vec<Urn>,
    },
    /// The agent is not (or no longer) resident there.
    NotResident,
}

impl Wire for AgentStatus {
    fn encode(&self, e: &mut Encoder) {
        match self {
            AgentStatus::Resident {
                owner,
                creator,
                fuel_used,
                bindings,
            } => {
                e.put_u8(0);
                owner.encode(e);
                creator.encode(e);
                e.put_varint(*fuel_used);
                ajanta_wire::encode_seq(bindings, e);
            }
            AgentStatus::NotResident => e.put_u8(1),
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(AgentStatus::Resident {
                owner: Urn::decode(d)?,
                creator: Urn::decode(d)?,
                fuel_used: d.get_varint()?,
                bindings: ajanta_wire::decode_seq(d)?,
            }),
            1 => Ok(AgentStatus::NotResident),
            tag => Err(WireError::BadTag {
                ty: "AgentStatus",
                tag,
            }),
        }
    }
}

/// The server-to-server protocol.
///
/// `Transfer` dwarfs the other variants by design — it carries whole
/// agents. Messages are built once and serialized immediately, so the
/// size skew has no practical cost and boxing would only add noise.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Message {
    /// An agent in flight: its tamper-evident credentials and its image.
    /// `hop` counts migrations (loop/self-forwarding diagnostics).
    Transfer {
        /// The agent's signed credentials.
        credentials: Credentials,
        /// Code + mobile state + entry point.
        image: AgentImage,
        /// Migration count so far.
        hop: u64,
        /// The executing identity: `credentials.agent` itself, or — for a
        /// child dispatched by the agent (paper Section 2: "the agent
        /// itself may be created by ... another agent") — a name within
        /// its subtree. Receivers enforce the subtree rule.
        run_as: Urn,
        /// Entry argument. Empty = the convention of passing the current
        /// server's name; non-empty = a parent-chosen payload for a
        /// child.
        arg: Vec<u8>,
        /// The sender's transfer span — trace id, this leg's span id, and
        /// the causing span. Carried in the frame so the receiver's
        /// admission span joins the same causal tree.
        ctx: SpanContext,
        /// Virtual time of the **first** send of this leg (not updated by
        /// retries), so the receiver can compute end-to-end hop latency.
        sent_ns: u64,
    },
    /// A status report for the home site. `seq` is the sender-chosen
    /// delivery sequence the home site echoes in its [`Message::Ack`] and
    /// dedupes retried copies by.
    Report {
        /// The report itself.
        report: Report,
        /// Per-sending-server delivery sequence number.
        seq: u64,
        /// The sender's report span, so the home site's record of the
        /// report joins the tour's causal tree.
        ctx: SpanContext,
    },
    /// Mail from one agent to another hosted on the destination server.
    AgentMail {
        /// Sending agent.
        from: Urn,
        /// Receiving agent (must be resident at the destination).
        to: Urn,
        /// Opaque payload.
        data: Vec<u8>,
    },
    /// A status query against the destination's domain database
    /// (Section 4: it "responds to status queries from their owners").
    StatusQuery {
        /// Correlation id chosen by the asker.
        query_id: u64,
        /// The agent being asked about.
        agent: Urn,
    },
    /// The answer to a [`Message::StatusQuery`].
    StatusReply {
        /// Echoed correlation id.
        query_id: u64,
        /// The agent asked about.
        agent: Urn,
        /// Its status at the replying server.
        status: AgentStatus,
    },
    /// Delivery acknowledgment for a reliable frame ([`Message::Transfer`]
    /// or [`Message::Report`]): "I processed (or had already processed)
    /// `(agent, seq)`". The sender stops retrying on receipt. `kind`
    /// disambiguates the two sequence spaces ([`Ack::TRANSFER`] uses the
    /// hop number, [`Ack::REPORT`] the report sequence).
    Ack {
        /// Which sequence space `seq` lives in.
        kind: u8,
        /// The agent the acknowledged frame concerned.
        agent: Urn,
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// Namespacing constants for [`Message::Ack::kind`].
pub struct Ack;

impl Ack {
    /// The acked frame was a [`Message::Transfer`]; `seq` is its hop.
    pub const TRANSFER: u8 = 0;
    /// The acked frame was a [`Message::Report`]; `seq` is its sequence.
    pub const REPORT: u8 = 1;
}

impl Wire for Message {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Message::Transfer {
                credentials,
                image,
                hop,
                run_as,
                arg,
                ctx,
                sent_ns,
            } => {
                e.put_u8(0);
                credentials.encode(e);
                image.encode(e);
                e.put_varint(*hop);
                run_as.encode(e);
                e.put_bytes(arg);
                ctx.encode(e);
                e.put_varint(*sent_ns);
            }
            Message::Report { report, seq, ctx } => {
                e.put_u8(1);
                report.encode(e);
                e.put_varint(*seq);
                ctx.encode(e);
            }
            Message::AgentMail { from, to, data } => {
                e.put_u8(2);
                from.encode(e);
                to.encode(e);
                e.put_bytes(data);
            }
            Message::StatusQuery { query_id, agent } => {
                e.put_u8(3);
                e.put_varint(*query_id);
                agent.encode(e);
            }
            Message::StatusReply {
                query_id,
                agent,
                status,
            } => {
                e.put_u8(4);
                e.put_varint(*query_id);
                agent.encode(e);
                status.encode(e);
            }
            Message::Ack { kind, agent, seq } => {
                e.put_u8(5);
                e.put_u8(*kind);
                agent.encode(e);
                e.put_varint(*seq);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Message::Transfer {
                credentials: Credentials::decode(d)?,
                image: AgentImage::decode(d)?,
                hop: d.get_varint()?,
                run_as: Urn::decode(d)?,
                arg: d.get_bytes()?,
                ctx: SpanContext::decode(d)?,
                sent_ns: d.get_varint()?,
            }),
            1 => Ok(Message::Report {
                report: Report::decode(d)?,
                seq: d.get_varint()?,
                ctx: SpanContext::decode(d)?,
            }),
            2 => Ok(Message::AgentMail {
                from: Urn::decode(d)?,
                to: Urn::decode(d)?,
                data: d.get_bytes()?,
            }),
            3 => Ok(Message::StatusQuery {
                query_id: d.get_varint()?,
                agent: Urn::decode(d)?,
            }),
            4 => Ok(Message::StatusReply {
                query_id: d.get_varint()?,
                agent: Urn::decode(d)?,
                status: AgentStatus::decode(d)?,
            }),
            5 => Ok(Message::Ack {
                kind: d.get_u8()?,
                agent: Urn::decode(d)?,
                seq: d.get_varint()?,
            }),
            tag => Err(WireError::BadTag { ty: "Message", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_core::telemetry::{SpanId, TraceId};
    use ajanta_core::{CredentialsBuilder, Rights};
    use ajanta_crypto::{DetRng, KeyPair};
    use ajanta_vm::{ModuleBuilder, Op, Ty};

    fn sample_ctx() -> SpanContext {
        SpanContext {
            trace: TraceId(0xDEAD_BEEF_0000_0001),
            span: SpanId(0xCAFE_0000_0000_0002),
            parent: Some(SpanId(3)),
        }
    }

    fn sample_image() -> AgentImage {
        let mut b = ModuleBuilder::new("m");
        b.global(Ty::Int);
        b.function("run", [Ty::Bytes], [], Ty::Int, vec![Op::PushI(0), Op::Ret]);
        let module = b.build();
        let globals = module.initial_globals();
        AgentImage {
            module,
            globals,
            entry: "run".into(),
        }
    }

    fn sample_credentials() -> Credentials {
        let mut rng = DetRng::new(5);
        let keys = KeyPair::generate(&mut rng);
        CredentialsBuilder::new(
            Urn::agent("x.org", ["a"]).unwrap(),
            Urn::owner("x.org", ["o"]).unwrap(),
        )
        .delegate(Rights::all())
        .sign(&keys, &mut rng)
    }

    #[test]
    fn transfer_roundtrips() {
        let creds = sample_credentials();
        let m = Message::Transfer {
            run_as: creds.agent.child("c1").unwrap(),
            credentials: creds,
            image: sample_image(),
            hop: 3,
            arg: b"payload".to_vec(),
            ctx: sample_ctx(),
            sent_ns: 123_456_789,
        };
        assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn transfer_carries_trace_context_across_the_wire() {
        // A root-context transfer (launch: no parent) round-trips too.
        let creds = sample_credentials();
        let m = Message::Transfer {
            run_as: creds.agent.clone(),
            credentials: creds,
            image: sample_image(),
            hop: 0,
            arg: Vec::new(),
            ctx: SpanContext::root(TraceId(7), SpanId(8)),
            sent_ns: 0,
        };
        let decoded = Message::from_bytes(&m.to_bytes()).unwrap();
        let Message::Transfer { ctx, sent_ns, .. } = decoded else {
            panic!("expected transfer");
        };
        assert_eq!(ctx.trace, TraceId(7));
        assert_eq!(ctx.parent, None);
        assert_eq!(sent_ns, 0);
    }

    #[test]
    fn status_messages_roundtrip() {
        let q = Message::StatusQuery {
            query_id: 9,
            agent: Urn::agent("x.org", ["a"]).unwrap(),
        };
        assert_eq!(Message::from_bytes(&q.to_bytes()).unwrap(), q);
        for status in [
            AgentStatus::NotResident,
            AgentStatus::Resident {
                owner: Urn::owner("x.org", ["o"]).unwrap(),
                creator: Urn::owner("x.org", ["c"]).unwrap(),
                fuel_used: 123,
                bindings: vec![Urn::resource("x.org", ["r"]).unwrap()],
            },
        ] {
            let r = Message::StatusReply {
                query_id: 9,
                agent: Urn::agent("x.org", ["a"]).unwrap(),
                status,
            };
            assert_eq!(Message::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn report_roundtrips() {
        for status in [
            ReportStatus::Completed("42".into()),
            ReportStatus::Failed("trap".into()),
            ReportStatus::QuotaExceeded("fuel".into()),
            ReportStatus::Refused("bad credentials".into()),
        ] {
            let m = Message::Report {
                report: Report {
                    agent: Urn::agent("x.org", ["a"]).unwrap(),
                    server: Urn::server("x.org", ["s"]).unwrap(),
                    status,
                    at: 777,
                },
                seq: 12,
                ctx: sample_ctx(),
            };
            assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn mail_roundtrips() {
        let m = Message::AgentMail {
            from: Urn::agent("x.org", ["a"]).unwrap(),
            to: Urn::agent("y.org", ["b"]).unwrap(),
            data: vec![1, 2, 3],
        };
        assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn ack_roundtrips() {
        for kind in [Ack::TRANSFER, Ack::REPORT] {
            let m = Message::Ack {
                kind,
                agent: Urn::agent("x.org", ["a"]).unwrap(),
                seq: 42,
            };
            assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(Message::from_bytes(&[99, 1, 2]).is_err());
        assert!(Message::from_bytes(&[]).is_err());
    }
}
