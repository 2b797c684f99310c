//! One-call world construction for tests, examples and experiments: a
//! certificate authority, a network (simulated or real sockets), N
//! agent servers with published certificates, and owner principals.

use std::sync::Arc;

use ajanta_core::{
    HistoPath, HistoSnapshot, PrincipalPattern, Rights, SecurityPolicy, UsageLimits,
};
use ajanta_crypto::cert::Certificate;
use ajanta_crypto::{DetRng, KeyPair, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_net::secure::ChannelIdentity;
use ajanta_net::{Adversary, LinkModel, NetAddr, SimNet, SocketConfig, SocketTransport, Transport};
use ajanta_vm::Limits;

use crate::custody::RetryPolicy;
use crate::directory::Directory;
use crate::owner::Owner;
use crate::sched::{self, Scheduler};
use crate::server::{AgentServer, ServerConfig, ServerHandle};

/// Per-server policy factory: (server index, server name) → policy.
type PolicyFactory = Box<dyn Fn(usize, &Urn) -> SecurityPolicy>;

/// Which network a world's servers communicate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// One in-process [`SimNet`] shared by every server (the default;
    /// deterministic virtual time, link models, injectable adversaries).
    #[default]
    Sim,
    /// Real TCP sockets on localhost: one [`SocketTransport`] per
    /// server, ephemeral ports, routes cross-registered at build time.
    Tcp,
    /// Real Unix-domain sockets in the system temp directory.
    Uds,
}

/// Builder for a [`World`].
pub struct WorldBuilder {
    servers: usize,
    link: LinkModel,
    seed: u64,
    transport: TransportMode,
    policy_fn: PolicyFactory,
    agent_limits: UsageLimits,
    vm_limits: Limits,
    agents_may_dispatch: bool,
    system_modules: Vec<std::sync::Arc<ajanta_vm::VerifiedModule>>,
    journal_capacity: usize,
    retry: RetryPolicy,
    workers: usize,
    hibernate_after_misses: Option<u32>,
    wal_dir: Option<std::path::PathBuf>,
}

impl WorldBuilder {
    /// Starts a builder for `servers` servers.
    pub fn new(servers: usize) -> Self {
        WorldBuilder {
            servers,
            link: LinkModel::default(),
            seed: 0x0A14_A17A,
            transport: TransportMode::Sim,
            // Default policy: every authenticated principal may use every
            // resource — examples override with real policies; the
            // delegation intersection still applies.
            policy_fn: Box::new(|_, _| {
                SecurityPolicy::new().allow(PrincipalPattern::Anyone, Rights::all())
            }),
            agent_limits: UsageLimits::default(),
            vm_limits: Limits::default(),
            agents_may_dispatch: true,
            system_modules: Vec::new(),
            journal_capacity: ajanta_core::telemetry::DEFAULT_CAPACITY,
            retry: RetryPolicy::default(),
            workers: sched::default_workers(),
            hibernate_after_misses: None,
            wal_dir: None,
        }
    }

    /// Enables hibernation on every server: agents that yield with
    /// `misses` consecutive empty mail polls (and no bindings or pending
    /// migration) spill to the bundle store until mail or an explicit
    /// wake revives them.
    pub fn hibernation(mut self, misses: u32) -> Self {
        self.hibernate_after_misses = Some(misses);
        self
    }

    /// Gives every server an admission write-ahead log under `dir`
    /// (`<dir>/site<i>.wal`), enabling crash recovery via replay.
    pub fn wal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Sets how many scheduler worker threads the world's shared pool
    /// runs (default: the machine's available parallelism). Every agent
    /// on every server executes on this pool, so the whole world costs
    /// `workers + servers` OS threads regardless of agent count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the transfer retry policy for every server.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets how many telemetry records each server's journal retains
    /// (aggregate counters stay exact past the bound).
    pub fn journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// Sets the default link model.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Selects the network the servers communicate over (default:
    /// [`TransportMode::Sim`]). Socket modes give every server its own
    /// transport with routes to all its peers; link models do not apply
    /// (the real wire is the link).
    pub fn transport(mut self, mode: TransportMode) -> Self {
        self.transport = mode;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-server policy factory (index, server name) → policy.
    pub fn policy(mut self, f: impl Fn(usize, &Urn) -> SecurityPolicy + 'static) -> Self {
        self.policy_fn = Box::new(f);
        self
    }

    /// Sets per-agent quotas.
    pub fn agent_limits(mut self, limits: UsageLimits) -> Self {
        self.agent_limits = limits;
        self
    }

    /// Sets interpreter limits.
    pub fn vm_limits(mut self, limits: Limits) -> Self {
        self.vm_limits = limits;
        self
    }

    /// Pre-loads these modules into every agent name-space (they can
    /// never be shadowed by agent code).
    pub fn system_modules(
        mut self,
        modules: Vec<std::sync::Arc<ajanta_vm::VerifiedModule>>,
    ) -> Self {
        self.system_modules = modules;
        self
    }

    /// Forbids agent-initiated dispatch on all servers.
    pub fn no_agent_dispatch(mut self) -> Self {
        self.agents_may_dispatch = false;
        self
    }

    /// Builds and starts the world.
    pub fn build(self) -> World {
        let names: Vec<Urn> = (0..self.servers)
            .map(|i| {
                Urn::server(format!("site{i}.org"), ["s".to_string()])
                    .expect("generated name is canonical")
            })
            .collect();
        let Minted {
            net_seed,
            roots,
            directory,
            servers: identities,
            authority,
        } = mint(self.seed, &names);
        let sched = Scheduler::new(self.workers);

        let configs: Vec<ServerConfig> = identities
            .into_iter()
            .enumerate()
            .map(|(i, (identity, seed))| ServerConfig {
                name: identity.name.clone(),
                policy: (self.policy_fn)(i, &identity.name),
                identity,
                roots: roots.clone(),
                directory: directory.clone(),
                system_modules: self.system_modules.clone(),
                agent_limits: self.agent_limits,
                vm_limits: self.vm_limits,
                agents_may_dispatch: self.agents_may_dispatch,
                retry: self.retry.clone(),
                seed,
                journal_capacity: self.journal_capacity,
                scheduler: Arc::clone(&sched),
                wal: self
                    .wal_dir
                    .as_ref()
                    .map(|d| d.join(format!("site{i}.wal"))),
                hibernate_after_misses: self.hibernate_after_misses,
            })
            .collect();

        let mut servers = Vec::with_capacity(self.servers);
        let transports: Vec<Arc<dyn Transport>> = match self.transport {
            TransportMode::Sim => {
                let net: Arc<dyn Transport> = Arc::new(SimNet::new(self.link, net_seed));
                for config in &configs {
                    servers.push(AgentServer::spawn(Arc::clone(&net), config.clone()));
                }
                vec![net]
            }
            mode @ (TransportMode::Tcp | TransportMode::Uds) => {
                // One transport (listener) per server. Socket seeds are
                // derived from the net seed without consuming `rng`, so
                // the rng stream stays mode-independent.
                let names: Vec<Urn> = configs.iter().map(|c| c.name.clone()).collect();
                let transports: Vec<Arc<SocketTransport>> = configs
                    .iter()
                    .enumerate()
                    .map(|(i, config)| {
                        let addr = match mode {
                            TransportMode::Tcp => "tcp:127.0.0.1:0".parse().unwrap(),
                            _ => NetAddr::Uds(unique_uds_path(net_seed, i)),
                        };
                        let t = SocketTransport::bind(
                            &addr,
                            SocketConfig {
                                identity: config.identity.clone(),
                                roots: config.roots.clone(),
                                seed: net_seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            },
                        )
                        .expect("binding world socket transport");
                        Arc::new(t)
                    })
                    .collect();
                for (i, t) in transports.iter().enumerate() {
                    for (j, peer) in transports.iter().enumerate() {
                        if i != j {
                            t.add_route(names[j].clone(), peer.local_addr());
                        }
                    }
                }
                for (config, t) in configs.iter().zip(&transports) {
                    let net: Arc<dyn Transport> = Arc::clone(t) as Arc<dyn Transport>;
                    servers.push(AgentServer::spawn(net, config.clone()));
                }
                transports
                    .into_iter()
                    .map(|t| t as Arc<dyn Transport>)
                    .collect()
            }
        };

        World {
            net: Arc::clone(&transports[0]),
            directory,
            roots,
            authority,
            servers,
            configs,
            transports,
            sched,
        }
    }
}

/// A certificate authority issuing CA-certified key pairs off one
/// deterministic RNG stream.
pub(crate) struct Authority {
    ca: KeyPair,
    rng: DetRng,
    /// Serial of the last certificate issued.
    serial: u64,
}

impl Authority {
    /// A fresh key pair for `name` and its CA-issued certificate.
    fn certify(&mut self, name: &Urn) -> (KeyPair, Certificate) {
        let keys = KeyPair::generate(&mut self.rng);
        self.serial += 1;
        let cert = Certificate::issue(
            name.to_string(),
            keys.public,
            "ca.world",
            &self.ca,
            u64::MAX,
            self.serial,
            &mut self.rng,
        );
        (keys, cert)
    }

    /// Mints the owner `users.org/owner/<tag>` with a CA-issued
    /// certificate.
    pub(crate) fn owner(&mut self, tag: &str) -> Owner {
        let name = Urn::owner("users.org", [tag]).expect("canonical owner tag");
        let (keys, cert) = self.certify(&name);
        Owner::new(name, keys, vec![cert], self.rng.next_u64())
    }
}

/// A world's identities, minted from one seed.
pub(crate) struct Minted {
    /// The first draw; seeds the network.
    pub(crate) net_seed: u64,
    /// Trust roots naming the CA.
    pub(crate) roots: RootOfTrust,
    /// A directory publishing every server's certificate.
    pub(crate) directory: Directory,
    /// Each server's certified identity and config seed, in name order.
    pub(crate) servers: Vec<(ChannelIdentity, u64)>,
    /// The CA, positioned to mint owners after the servers.
    pub(crate) authority: Authority,
}

/// Mints a world's identities from `seed`: the network seed, the CA,
/// then for each name its key pair, certificate and config seed, in that
/// draw order. [`WorldBuilder::build`] and
/// [`derive_world`](crate::multiproc::derive_world) both mint here, so
/// one seed yields the same CA and server keys in one process or many.
pub(crate) fn mint(seed: u64, names: &[Urn]) -> Minted {
    let mut rng = DetRng::new(seed);
    // The net seed is always the first draw, whatever the transport
    // mode, so identities (and everything minted after build) are
    // identical across modes for the same world seed — the loopback
    // equivalence tests rely on this.
    let net_seed = rng.next_u64();
    let ca = KeyPair::generate(&mut rng);
    let mut roots = RootOfTrust::new();
    roots.trust("ca.world", ca.public);
    let mut authority = Authority { ca, rng, serial: 0 };
    let directory = Directory::new();
    let servers = names
        .iter()
        .map(|name| {
            let (keys, cert) = authority.certify(name);
            directory.publish(name.clone(), cert.clone());
            let identity = ChannelIdentity {
                name: name.clone(),
                keys,
                chain: vec![cert],
            };
            (identity, authority.rng.next_u64())
        })
        .collect();
    Minted {
        net_seed,
        roots,
        directory,
        servers,
        authority,
    }
}

/// A collision-free Unix-socket path in the temp directory: seed and
/// server index make concurrent worlds in one process distinct; the pid
/// and a process-wide counter make repeated builds (bench trials, test
/// binaries sharing a machine) distinct.
fn unique_uds_path(seed: u64, index: usize) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "ajanta-{:08x}-{}-{n}-{index}.sock",
        seed as u32,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// A running multi-server world.
pub struct World {
    /// The network. In [`TransportMode::Sim`] this is the one shared
    /// [`SimNet`]; in socket modes it is server 0's transport (use
    /// [`World::transports`] or [`World::set_adversary`] to reach all
    /// of them).
    pub net: Arc<dyn Transport>,
    /// The shared certificate directory.
    pub directory: Directory,
    /// The trust roots every party uses.
    pub roots: RootOfTrust,
    /// Issues owner and rogue identities after the servers'.
    authority: Authority,
    /// The running servers, in creation order.
    pub servers: Vec<ServerHandle>,
    /// What each server was started with, for [`World::restart_server`].
    configs: Vec<ServerConfig>,
    /// Every transport backing the world, in server order (one element
    /// in sim mode).
    transports: Vec<Arc<dyn Transport>>,
    /// The shared scheduler every server's agents execute on.
    sched: std::sync::Arc<Scheduler>,
}

impl World {
    /// A world with `n` servers, default links, default seed.
    pub fn new(n: usize) -> World {
        WorldBuilder::new(n).build()
    }

    /// A builder for customized worlds.
    pub fn builder(n: usize) -> WorldBuilder {
        WorldBuilder::new(n)
    }

    /// Server `i`'s handle.
    pub fn server(&self, i: usize) -> &ServerHandle {
        &self.servers[i]
    }

    /// Restarts server `i` as a new incarnation, as a killed and
    /// restarted process would be: its loop stops and its in-memory
    /// state (journal, replay guard, sessions, custody memory) goes; a
    /// fresh server with the same name, keys and configuration starts on
    /// the same transport and replays its WAL, when the world has one
    /// ([`WorldBuilder::wal_dir`]). Agents the old incarnation was still
    /// running are not stopped, so restart a server its agents have left.
    pub fn restart_server(&mut self, i: usize) {
        self.servers.remove(i).shutdown();
        // A simulated world's servers share transport 0.
        let net = Arc::clone(&self.transports[i.min(self.transports.len() - 1)]);
        let server = AgentServer::spawn(net, self.configs[i].clone());
        self.servers.insert(i, server);
    }

    /// Control-plane views of every server in this world — what a
    /// [`crate::control::ControlServer`] serves to expose the whole
    /// world over one socket.
    pub fn control_views(&self) -> Vec<crate::server::ControlView> {
        self.servers.iter().map(|s| s.control_view()).collect()
    }

    /// Mints an owner with a CA-issued certificate.
    pub fn owner(&mut self, tag: &str) -> Owner {
        self.authority.owner(tag)
    }

    /// Mints a CA-certified *server* identity that is published in the
    /// directory but runs no server loop — a rogue-but-certified peer for
    /// attack tests (it can seal datagrams other servers will
    /// authenticate, then misbehave at the protocol layer).
    pub fn certified_rogue(&mut self, tag: &str) -> (ChannelIdentity, KeyPair) {
        let name = Urn::server("rogue.org", [tag]).expect("canonical rogue tag");
        let (keys, cert) = self.authority.certify(&name);
        self.directory.publish(name.clone(), cert.clone());
        (
            ChannelIdentity {
                name,
                keys: keys.clone(),
                chain: vec![cert],
            },
            keys,
        )
    }

    /// Merges every server's trace-relevant journal records into one
    /// JSONL document — the input `ajanta_core::trace::parse_jsonl` (and
    /// `ajantactl trace`) reconstructs causal trace trees from.
    pub fn export_traces(&self) -> String {
        let mut out = String::new();
        for server in &self.servers {
            out.push_str(&server.export_jsonl());
        }
        out
    }

    /// Latency histograms merged across every server in the world, per
    /// path — the tour-wide view of transfer RTTs, retry backoffs, and
    /// hop latencies that no single server's journal can give.
    pub fn merged_histos(&self, path: HistoPath) -> HistoSnapshot {
        let mut merged = HistoSnapshot::empty();
        for server in &self.servers {
            merged.merge(&server.journal().histos().get(path).snapshot());
        }
        merged
    }

    /// The world's shared scheduler (for queue-depth inspection).
    pub fn scheduler(&self) -> &std::sync::Arc<Scheduler> {
        &self.sched
    }

    /// Every transport backing the world, in server order. Sim mode has
    /// one; socket modes have one per server.
    pub fn transports(&self) -> &[Arc<dyn Transport>] {
        &self.transports
    }

    /// Installs (or clears) the network adversary on *every* transport
    /// in the world — on the simulation that is the one shared net; on
    /// socket worlds it reaches each server's send path.
    pub fn set_adversary(&self, adversary: Option<Arc<dyn Adversary>>) {
        for t in &self.transports {
            t.set_adversary(adversary.clone());
        }
    }

    /// Shuts the world down: first the scheduler drains — every queued
    /// agent runs to completion while all server loops are still alive
    /// to admit onward hops and record reports — then each server loop
    /// is stopped and joined, and finally the transports release their
    /// sockets and threads.
    pub fn shutdown(self) {
        self.sched.stop();
        for server in self.servers {
            server.shutdown();
        }
        for t in &self.transports {
            t.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_spins_up_and_down() {
        let world = World::new(3);
        assert_eq!(world.servers.len(), 3);
        assert_eq!(world.directory.len(), 3);
        // Names are distinct and resolvable.
        let keys: Vec<_> = world
            .servers
            .iter()
            .map(|s| {
                world
                    .directory
                    .verified_key(s.name(), &world.roots, 0)
                    .expect("published key verifies")
            })
            .collect();
        assert_eq!(keys.len(), 3);
        world.shutdown();
    }

    /// The in-process builder and the multi-process derivation mint
    /// through one function: the same seed gives the same CA and the
    /// same server keys.
    #[test]
    fn builder_and_derive_world_agree_on_keys() {
        for seed in [1, 7, 0xDEAD] {
            let world = World::builder(3).seed(seed).build();
            let derived = crate::multiproc::derive_world(seed, 3);
            assert_eq!(
                world.roots.key_of("ca.world"),
                derived.roots.key_of("ca.world"),
                "seed {seed}: CA"
            );
            for (i, identity) in derived.identities.iter().enumerate() {
                let key = world
                    .directory
                    .verified_key(world.server(i).name(), &world.roots, 0);
                assert_eq!(key, Some(identity.keys.public), "seed {seed}: server {i}");
            }
            world.shutdown();
        }
    }

    #[test]
    fn owners_are_certified() {
        let mut world = World::new(1);
        let owner = world.owner("alice");
        assert_eq!(owner.name().to_string(), "ajn://users.org/owner/alice");
        world.shutdown();
    }
}
