//! Internet-service search engines: Censys and Shodan.
//!
//! §4.3's causal chain needs real moving parts: an **indexer agent** scans
//! the world with benign probes, learns service banners from completed
//! handshakes, and publishes entries into a **search index** that miner
//! agents query. The leak experiment's knobs are (a) per-honeypot source
//! blocking (the engines never see blocked services, so they never index
//! them) and (b) pre-seeded *historical* entries for the previously-leaked
//! group.

use crate::identity::ActorIdentity;
use cw_netsim::engine::{Agent, Network};
use cw_netsim::flow::{ConnectionIntent, FlowSpec};
use cw_netsim::intern::Blob;
use cw_netsim::rng::SimRng;
use cw_netsim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Which search engine an index belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SearchEngine {
    /// Censys.
    Censys,
    /// Shodan.
    Shodan,
}

impl SearchEngine {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SearchEngine::Censys => "Censys",
            SearchEngine::Shodan => "Shodan",
        }
    }
}

/// One indexed service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Service address.
    pub ip: Ipv4Addr,
    /// Service port.
    pub port: u16,
    /// True for stale entries from a previous service life (the
    /// previously-leaked group's state).
    pub historical: bool,
}

/// A queryable service index.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    entries: BTreeMap<(Ipv4Addr, u16), IndexEntry>,
}

impl SearchIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish (or refresh) a live entry. A live observation upgrades a
    /// historical entry.
    pub fn publish_live(&mut self, ip: Ipv4Addr, port: u16) {
        self.insert(ip, port, false);
    }

    /// Seed a historical entry (a past service life still in the index).
    pub fn seed_historical(&mut self, ip: Ipv4Addr, port: u16) {
        self.insert(ip, port, true);
    }

    fn insert(&mut self, ip: Ipv4Addr, port: u16, historical: bool) {
        let entry = IndexEntry {
            ip,
            port,
            historical,
        };
        self.entries.insert((ip, port), entry);
    }

    /// Entry for an (ip, port), if any.
    pub fn get(&self, ip: Ipv4Addr, port: u16) -> Option<&IndexEntry> {
        self.entries.get(&(ip, port))
    }

    /// Is this (ip, port) listed with a *live* entry?
    pub fn has_live(&self, ip: Ipv4Addr, port: u16) -> bool {
        self.get(ip, port).map(|e| !e.historical).unwrap_or(false)
    }

    /// All entries on a port (live and historical).
    pub fn entries_on_port(&self, port: u16) -> Vec<&IndexEntry> {
        self.entries.values().filter(|e| e.port == port).collect()
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shared handle to an index.
pub type SharedIndex = Rc<RefCell<SearchIndex>>;

/// The scanning indexer agent for one engine.
pub struct IndexerAgent {
    identity: ActorIdentity,
    rng: SimRng,
    index: SharedIndex,
    /// Ports swept per pass.
    ports: Vec<u16>,
    /// All addresses the indexer sweeps (services + a telescope sample).
    targets: Vec<Ipv4Addr>,
    /// Seconds between full sweeps.
    sweep_interval: SimDuration,
    /// Per-wake slice of the sweep.
    batch: usize,
    cursor: usize,
    /// Probability of also probing HTTP ports with a TLS hello — this is
    /// how Censys finds unexpected services (§6: "scanners from Censys are
    /// the leading benign organization to find unexpected services").
    unexpected_probe_rate: f64,
    /// The HTTP banner-grab request, built once.
    http_get: Blob,
}

impl IndexerAgent {
    /// Create an indexer that sweeps `targets` × `ports` repeatedly.
    pub fn new(
        identity: ActorIdentity,
        rng: SimRng,
        index: SharedIndex,
        targets: Vec<Ipv4Addr>,
        ports: Vec<u16>,
        sweep_interval: SimDuration,
        unexpected_probe_rate: f64,
    ) -> Self {
        IndexerAgent {
            identity,
            rng,
            index,
            ports,
            targets,
            sweep_interval,
            batch: 200,
            cursor: 0,
            unexpected_probe_rate,
            http_get: crate::exploits::benign_get("Mozilla/5.0 (compatible; CensysInspect/1.1)")
                .into(),
        }
    }

    fn probe_intent(&mut self, port: u16) -> ConnectionIntent {
        use cw_protocols::ProtocolId;
        match cw_protocols::assigned_protocol(port) {
            Some(ProtocolId::Http) => {
                if self.rng.chance(self.unexpected_probe_rate) {
                    ConnectionIntent::Payload(
                        cw_protocols::tls::build_client_hello(self.rng.next_u64(), None).into(),
                    )
                } else {
                    ConnectionIntent::Payload(self.http_get.clone())
                }
            }
            // Server-first or binary protocols: complete the handshake and
            // listen for the banner.
            _ => ConnectionIntent::ProbeOnly,
        }
    }
}

impl Agent for IndexerAgent {
    fn name(&self) -> &str {
        &self.identity.name
    }

    fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime> {
        let total = self.targets.len() * self.ports.len();
        if total == 0 {
            return None;
        }
        let end = (self.cursor + self.batch).min(total);
        while self.cursor < end {
            let ip = self.targets[self.cursor / self.ports.len()];
            let port = self.ports[self.cursor % self.ports.len()];
            self.cursor += 1;
            let src = *self.rng.choose(&self.identity.ips);
            let intent = self.probe_intent(port);
            let outcome = net.send(FlowSpec {
                src,
                src_asn: self.identity.asn,
                dst: ip,
                dst_port: port,
                intent,
            });
            // Only a reply that names its protocol gets the service listed.
            if outcome.reply.is_some_and(|r| r.protocol.is_some()) {
                self.index.borrow_mut().publish_live(ip, port);
            }
        }
        if self.cursor >= total {
            // Sweep complete: rest, then start over.
            self.cursor = 0;
            Some(now + self.sweep_interval)
        } else {
            Some(now + SimDuration::from_secs(30))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::framework::{HoneypotListener, Persona, PortPolicy};
    use cw_netsim::asn::Asn;
    use cw_netsim::engine::Engine;

    #[test]
    fn index_publish_and_lookup() {
        let mut idx = SearchIndex::new();
        let ip = Ipv4Addr::new(171, 64, 10, 1);
        idx.seed_historical(ip, 80);
        assert!(!idx.has_live(ip, 80));
        assert!(idx.get(ip, 80).unwrap().historical);
        idx.publish_live(ip, 80);
        assert!(idx.has_live(ip, 80));
        assert_eq!(idx.entries_on_port(80).len(), 1);
        assert_eq!(idx.entries_on_port(22).len(), 0);
    }

    #[test]
    fn indexer_learns_banners_from_replies() {
        let mut engine = Engine::new();
        let hp_ip = Ipv4Addr::new(10, 0, 0, 5);
        let hp = HoneypotListener::new("svc", [hp_ip], PortPolicy::FirstPayload)
            .with_persona(80, Persona::http());
        engine.add_listener(Rc::new(RefCell::new(hp)));

        let index: SharedIndex = Rc::new(RefCell::new(SearchIndex::new()));
        let agent = IndexerAgent::new(
            ActorIdentity::new(
                "censys",
                Asn(398_324),
                "US",
                vec![Ipv4Addr::new(100, 0, 0, 1)],
            ),
            SimRng::seed_from_u64(1),
            index.clone(),
            vec![hp_ip],
            vec![80, 22],
            SimDuration::DAY,
            0.0,
        );
        engine.add_agent(Box::new(agent), SimTime(0));
        engine.run(SimTime(3600));

        let idx = index.borrow();
        assert!(idx.has_live(hp_ip, 80), "HTTP service should be indexed");
        // Port 22 had no persona/policy → no reply → not indexed.
        assert!(!idx.has_live(hp_ip, 22));
    }

    #[test]
    fn blocked_indexer_learns_nothing() {
        let mut engine = Engine::new();
        let hp_ip = Ipv4Addr::new(10, 0, 0, 5);
        let censys_src = Ipv4Addr::new(100, 0, 0, 1);
        let mut hp = HoneypotListener::new("svc", [hp_ip], PortPolicy::FirstPayload)
            .with_persona(80, Persona::http());
        hp.block_source(censys_src);
        engine.add_listener(Rc::new(RefCell::new(hp)));

        let index: SharedIndex = Rc::new(RefCell::new(SearchIndex::new()));
        let agent = IndexerAgent::new(
            ActorIdentity::new("censys", Asn(398_324), "US", vec![censys_src]),
            SimRng::seed_from_u64(2),
            index.clone(),
            vec![hp_ip],
            vec![80],
            SimDuration::DAY,
            0.0,
        );
        engine.add_agent(Box::new(agent), SimTime(0));
        engine.run(SimTime(3600));
        assert!(index.borrow().is_empty());
    }

    #[test]
    fn engine_names() {
        assert_eq!(SearchEngine::Censys.name(), "Censys");
        assert_eq!(SearchEngine::Shodan.name(), "Shodan");
    }
}
