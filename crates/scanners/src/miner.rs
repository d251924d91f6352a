//! Search-engine miners: attackers who query Censys/Shodan and burst
//! traffic at listed services.
//!
//! §4.3: "attackers are more likely to increase the number of 'spikes' of
//! traffic towards leaked services … scanners and attackers are more likely
//! to only briefly scan a leaked service, likely after it has been found by
//! the attacker on a search engine" and "attackers will attempt on average
//! 3 times more unique SSH passwords on leaked compared to non-leaked
//! services". A [`MinerAgent`] polls one engine's index for services on its
//! protocol and, on discovery, fires a short burst of protocol-appropriate
//! attacks.

use crate::identity::ActorIdentity;
use crate::search_engine::SharedIndex;
use cw_netsim::engine::{Agent, Network};
use cw_netsim::flow::{ConnectionIntent, FlowSpec, LoginService};
use cw_netsim::rng::SimRng;
use cw_netsim::time::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// What a miner sends at a discovered service.
#[derive(Debug, Clone)]
pub enum MinerAttack {
    /// SSH credential burst (unique passwords per burst).
    SshBruteforce {
        /// Number of distinct credentials per burst.
        attempts: usize,
    },
    /// Telnet credential burst.
    TelnetBruteforce {
        /// Number of distinct credentials per burst.
        attempts: usize,
    },
    /// HTTP exploit burst from the corpus.
    HttpExploits {
        /// Number of requests per burst.
        attempts: usize,
    },
}

impl MinerAttack {
    /// The port this attack mines for.
    pub fn port(&self) -> u16 {
        match self {
            MinerAttack::SshBruteforce { .. } => 22,
            MinerAttack::TelnetBruteforce { .. } => 23,
            MinerAttack::HttpExploits { .. } => 80,
        }
    }

    /// Every intent a burst draws from, built once: one login per
    /// dictionary credential, or one request per corpus exploit.
    fn pool(&self) -> Vec<ConnectionIntent> {
        fn logins(service: LoginService, dictionary: &[(&str, &str)]) -> Vec<ConnectionIntent> {
            crate::campaign::shared_credentials(dictionary)
                .into_iter()
                .map(|(username, password)| ConnectionIntent::Login {
                    service,
                    username,
                    password,
                })
                .collect()
        }
        match self {
            MinerAttack::SshBruteforce { .. } => {
                logins(LoginService::Ssh, crate::credentials::SSH_MINER)
            }
            MinerAttack::TelnetBruteforce { .. } => {
                logins(LoginService::Telnet, crate::credentials::TELNET_GLOBAL)
            }
            MinerAttack::HttpExploits { .. } => [
                crate::exploits::log4shell("198.51.100.9:1389"),
                crate::exploits::boaform_login("aerocontrol"),
                crate::exploits::thinkphp_rce(),
                crate::exploits::api_user_login("admin", "admin123"),
            ]
            .into_iter()
            .map(|p| ConnectionIntent::Payload(p.into()))
            .collect(),
        }
    }
}

/// A miner polling one search index.
pub struct MinerAgent {
    identity: ActorIdentity,
    rng: SimRng,
    index: SharedIndex,
    attack: MinerAttack,
    /// What a burst draws from ([`MinerAttack`]'s pool, built once).
    pool: Vec<ConnectionIntent>,
    /// Seconds between index polls.
    poll_interval: SimDuration,
    /// Include stale (historical) index entries — most miners do not check
    /// freshness, which is why previously-leaked services keep drawing fire.
    use_historical: bool,
    attacked: BTreeSet<(Ipv4Addr, u16)>,
    /// Only attack targets in this allowlist, if set (keeps scenario miners
    /// focused on the leak fleet).
    scope: Option<BTreeSet<Ipv4Addr>>,
    /// Probability of re-bursting an already-attacked listing on a later
    /// poll — this is what makes leaked services accumulate repeated
    /// "spikes" over the week (§4.3).
    repeat_probability: f64,
    /// Probability of attacking a newly discovered listing at all (miners
    /// do not chase every search result; skipped listings are never
    /// revisited).
    attack_probability: f64,
    /// Listings the miner decided never to attack.
    skipped: BTreeSet<(Ipv4Addr, u16)>,
}

impl MinerAgent {
    /// Create a miner.
    pub fn new(
        identity: ActorIdentity,
        rng: SimRng,
        index: SharedIndex,
        attack: MinerAttack,
        poll_interval: SimDuration,
        use_historical: bool,
    ) -> Self {
        MinerAgent {
            identity,
            rng,
            index,
            pool: attack.pool(),
            attack,
            poll_interval,
            use_historical,
            attacked: BTreeSet::new(),
            scope: None,
            repeat_probability: 0.0,
            attack_probability: 1.0,
            skipped: BTreeSet::new(),
        }
    }

    /// Restrict the miner to a set of target addresses (builder style).
    pub fn with_scope(mut self, scope: impl IntoIterator<Item = Ipv4Addr>) -> Self {
        self.scope = Some(scope.into_iter().collect());
        self
    }

    /// Set the per-poll re-burst probability (builder style).
    pub fn with_repeat_probability(mut self, p: f64) -> Self {
        self.repeat_probability = p;
        self
    }

    /// Set the probability of attacking a fresh listing (builder style).
    pub fn with_attack_probability(mut self, p: f64) -> Self {
        self.attack_probability = p;
        self
    }

    fn burst(&mut self, net: &mut dyn Network, ip: Ipv4Addr, port: u16) {
        let pool = &self.pool;
        let intents: Vec<ConnectionIntent> = match self.attack {
            // Miners dig into the dictionary, sampling a fresh random subset
            // per burst so repeated spikes keep adding unique passwords
            // (§4.3).
            MinerAttack::SshBruteforce { attempts }
            | MinerAttack::TelnetBruteforce { attempts } => {
                let picks = sample_distinct(&mut self.rng, pool.len(), attempts.min(pool.len()));
                picks.into_iter().map(|i| pool[i].clone()).collect()
            }
            MinerAttack::HttpExploits { attempts } => (0..attempts)
                .map(|_| self.rng.choose(pool).clone())
                .collect(),
        };
        for intent in intents {
            let src = *self.rng.choose(&self.identity.ips);
            net.send(FlowSpec {
                src,
                src_asn: self.identity.asn,
                dst: ip,
                dst_port: port,
                intent,
            });
        }
    }
}

/// Sample `n` distinct indices from `0..len` (partial Fisher–Yates).
fn sample_distinct(rng: &mut SimRng, len: usize, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    rng.shuffle(&mut idx);
    idx.truncate(n);
    idx
}

impl Agent for MinerAgent {
    fn name(&self) -> &str {
        &self.identity.name
    }

    fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime> {
        let port = self.attack.port();
        let discovered: Vec<Ipv4Addr> = {
            let idx = self.index.borrow();
            idx.entries_on_port(port)
                .into_iter()
                .filter(|e| self.use_historical || !e.historical)
                .map(|e| e.ip)
                .filter(|ip| self.scope.as_ref().map(|s| s.contains(ip)).unwrap_or(true))
                .collect()
        };
        for ip in discovered {
            let fresh = !self.attacked.contains(&(ip, port));
            if fresh {
                self.attacked.insert((ip, port));
                if self.rng.chance(self.attack_probability) {
                    self.burst(net, ip, port);
                } else {
                    // Passed over for good.
                    self.skipped.insert((ip, port));
                }
            } else if !self.skipped.contains(&(ip, port))
                && self.rng.chance(self.repeat_probability)
            {
                self.burst(net, ip, port);
            }
        }
        // Poll forever (the engine's horizon ends the run).
        Some(now + self.poll_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search_engine::SearchIndex;
    use cw_honeypot::framework::{HoneypotListener, PortPolicy};
    use cw_netsim::asn::Asn;
    use cw_netsim::engine::Engine;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn identity() -> ActorIdentity {
        ActorIdentity::new("miner", Asn(4134), "CN", vec![Ipv4Addr::new(100, 1, 0, 1)])
    }

    #[test]
    fn miner_bursts_at_indexed_services_only() {
        let listed = Ipv4Addr::new(10, 0, 0, 1);
        let unlisted = Ipv4Addr::new(10, 0, 0, 2);
        let mut engine = Engine::new();
        let hp = HoneypotListener::new(
            "svc",
            [listed, unlisted],
            PortPolicy::Interactive(LoginService::Ssh),
        );
        let cap = hp.capture();
        engine.add_listener(Rc::new(RefCell::new(hp)));

        let index = Rc::new(RefCell::new(SearchIndex::new()));
        index.borrow_mut().publish_live(listed, 22);

        let miner = MinerAgent::new(
            identity(),
            SimRng::seed_from_u64(1),
            index,
            MinerAttack::SshBruteforce { attempts: 5 },
            SimDuration::HOUR,
            false,
        );
        engine.add_agent(Box::new(miner), SimTime(10));
        engine.run(SimTime(SimDuration::DAY.secs()));

        let cap = cap.borrow();
        assert_eq!(cap.events_for_ip(listed).count(), 5);
        assert_eq!(cap.events_for_ip(unlisted).count(), 0);
        // All events in one burst instant: a spike.
        let times: BTreeSet<_> = cap.events_for_ip(listed).map(|e| e.time).collect();
        assert_eq!(times.len(), 1);
    }

    #[test]
    fn historical_entries_respected_per_config() {
        let prev = Ipv4Addr::new(10, 0, 0, 3);
        let index = Rc::new(RefCell::new(SearchIndex::new()));
        index.borrow_mut().seed_historical(prev, 80);

        for (use_hist, expect) in [(false, 0usize), (true, 3usize)] {
            let mut engine = Engine::new();
            let hp = HoneypotListener::new("svc", [prev], PortPolicy::FirstPayload);
            let cap = hp.capture();
            engine.add_listener(Rc::new(RefCell::new(hp)));
            let miner = MinerAgent::new(
                identity(),
                SimRng::seed_from_u64(2),
                index.clone(),
                MinerAttack::HttpExploits { attempts: 3 },
                SimDuration::HOUR,
                use_hist,
            );
            engine.add_agent(Box::new(miner), SimTime(0));
            engine.run(SimTime(7200));
            assert_eq!(cap.borrow().len(), expect, "use_historical={use_hist}");
        }
    }

    #[test]
    fn scope_restricts_targets() {
        let inside = Ipv4Addr::new(10, 0, 0, 4);
        let outside = Ipv4Addr::new(10, 0, 0, 5);
        let index = Rc::new(RefCell::new(SearchIndex::new()));
        index.borrow_mut().publish_live(inside, 22);
        index.borrow_mut().publish_live(outside, 22);

        let mut engine = Engine::new();
        let hp = HoneypotListener::new(
            "svc",
            [inside, outside],
            PortPolicy::Interactive(LoginService::Ssh),
        );
        let cap = hp.capture();
        engine.add_listener(Rc::new(RefCell::new(hp)));
        let miner = MinerAgent::new(
            identity(),
            SimRng::seed_from_u64(3),
            index,
            MinerAttack::SshBruteforce { attempts: 2 },
            SimDuration::HOUR,
            true,
        )
        .with_scope([inside]);
        engine.add_agent(Box::new(miner), SimTime(0));
        engine.run(SimTime(7200));
        let cap = cap.borrow();
        assert!(cap.events_for_ip(inside).count() > 0);
        assert_eq!(cap.events_for_ip(outside).count(), 0);
    }
}
