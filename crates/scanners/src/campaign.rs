//! The generic paced scan campaign.
//!
//! Most archetypes reduce to: a fixed identity, a pre-planned (shuffled)
//! list of `(address, port)` targets, a pacing policy spreading the scan
//! over the collection window, and an intent factory crafting the wire
//! behavior per connection. Archetype modules build configured [`Campaign`]s;
//! only the agents that need run-time feedback (search-engine indexers and
//! miners) implement [`Agent`] themselves.

use crate::identity::ActorIdentity;
use cw_netsim::asn::Asn;
use cw_netsim::engine::{Agent, Network};
use cw_netsim::flow::{ConnectionIntent, FlowSpec, LoginService};
use cw_netsim::intern::Blob;
use cw_netsim::rng::SimRng;
use cw_netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// How a campaign spreads its probes over the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacing {
    /// First wake.
    pub start: SimTime,
    /// Time between wakes.
    pub interval: SimDuration,
    /// Flows sent per wake.
    pub batch: usize,
}

impl Pacing {
    /// Spread `total` probes roughly uniformly over `window`, starting at a
    /// random offset within the first tenth of the window.
    pub fn spread(rng: &mut SimRng, total: usize, window: SimDuration) -> Pacing {
        let start = SimTime(rng.below((window.secs() / 10).max(1)));
        // Aim for ~100-target batches, waking often enough to finish.
        let batch = total.clamp(1, 100);
        let wakes = (total / batch).max(1) as u64;
        let remaining = window.secs().saturating_sub(start.secs());
        let interval = SimDuration::from_secs((remaining / (wakes + 1)).max(1));
        Pacing {
            start,
            interval,
            batch,
        }
    }

    /// A burst: everything at once at `start`.
    pub fn burst_at(start: SimTime, total: usize) -> Pacing {
        Pacing {
            start,
            interval: SimDuration::SECOND,
            batch: total.max(1),
        }
    }
}

/// Per-connection client behavior factory.
pub type IntentFn = Box<dyn FnMut(&mut SimRng, Ipv4Addr, u16) -> ConnectionIntent>;

/// A paced scanning campaign.
pub struct Campaign {
    identity: ActorIdentity,
    rng: SimRng,
    targets: Vec<(Ipv4Addr, u16)>,
    cursor: usize,
    pacing: Pacing,
    intent_fn: IntentFn,
}

impl Campaign {
    /// Create a campaign over explicit `(address, port)` targets. The target
    /// order is preserved (shuffle beforehand when order shouldn't matter).
    pub fn new(
        identity: ActorIdentity,
        rng: SimRng,
        targets: Vec<(Ipv4Addr, u16)>,
        pacing: Pacing,
        intent_fn: IntentFn,
    ) -> Self {
        Campaign {
            identity,
            rng,
            targets,
            cursor: 0,
            pacing,
            intent_fn,
        }
    }

    /// Convenience: targets = every listed IP on every listed port.
    pub fn cross(ips: &[Ipv4Addr], ports: &[u16]) -> Vec<(Ipv4Addr, u16)> {
        let mut out = Vec::with_capacity(ips.len() * ports.len());
        for &ip in ips {
            for &port in ports {
                out.push((ip, port));
            }
        }
        out
    }

    /// The campaign's identity.
    pub fn identity(&self) -> &ActorIdentity {
        &self.identity
    }

    /// First scheduled wake.
    pub fn start_time(&self) -> SimTime {
        self.pacing.start
    }

    /// Remaining targets.
    pub fn remaining(&self) -> usize {
        self.targets.len() - self.cursor
    }
}

impl Agent for Campaign {
    fn name(&self) -> &str {
        &self.identity.name
    }

    fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime> {
        let end = (self.cursor + self.pacing.batch).min(self.targets.len());
        while self.cursor < end {
            let (dst, dst_port) = self.targets[self.cursor];
            self.cursor += 1;
            let src = *self.rng.choose(&self.identity.ips);
            let intent = (self.intent_fn)(&mut self.rng, dst, dst_port);
            net.send(FlowSpec {
                src,
                src_asn: self.identity.asn,
                dst,
                dst_port,
                intent,
            });
        }
        if self.cursor >= self.targets.len() {
            None
        } else {
            Some(now + self.pacing.interval)
        }
    }
}

/// Intent factory: always probe (SYN-scan style).
pub fn probe_only() -> IntentFn {
    Box::new(|_, _, _| ConnectionIntent::ProbeOnly)
}

/// Intent factory: a fixed payload for every connection. The payload is
/// built (and hashed) once; each flow shares it.
pub fn fixed_payload(payload: impl Into<Blob>) -> IntentFn {
    let payload = payload.into();
    Box::new(move |_, _, _| ConnectionIntent::Payload(payload.clone()))
}

/// Intent factory: pick a payload per connection from a weighted corpus.
pub fn weighted_payloads(corpus: Vec<(Vec<u8>, f64)>) -> IntentFn {
    assert!(!corpus.is_empty(), "corpus must be non-empty");
    let (payloads, weights): (Vec<Blob>, Vec<f64>) =
        corpus.into_iter().map(|(p, w)| (Blob::from(p), w)).unzip();
    Box::new(move |rng, _, _| {
        let i = rng.choose_weighted(&weights);
        ConnectionIntent::Payload(payloads[i].clone())
    })
}

/// A credential list as shared strings: built once per campaign, so each
/// login attempt clones two handles instead of allocating two strings.
pub(crate) fn shared_credentials<S: AsRef<str>>(credentials: &[(S, S)]) -> Vec<(Rc<str>, Rc<str>)> {
    credentials
        .iter()
        .map(|(u, p)| (Rc::from(u.as_ref()), Rc::from(p.as_ref())))
        .collect()
}

/// Intent factory: login attempts drawn uniformly from a credential
/// dictionary (one `SimRng::choose` per flow).
pub(crate) fn login_uniform(
    service: LoginService,
    dictionary: &'static [(&'static str, &'static str)],
) -> IntentFn {
    let credentials = shared_credentials(dictionary);
    Box::new(move |rng, _, _| {
        let (username, password) = rng.choose(&credentials).clone();
        ConnectionIntent::Login {
            service,
            username,
            password,
        }
    })
}

/// Intent factory: login attempts drawn from a credential dictionary.
pub fn login_from_dictionary(
    service: LoginService,
    dictionary: &'static [(&'static str, &'static str)],
) -> IntentFn {
    login_from_credentials(service, dictionary)
}

/// Intent factory: login attempts drawn from a credential list (a
/// campaign's personal slice of a dictionary).
pub fn login_from_credentials<S: AsRef<str>>(
    service: LoginService,
    credentials: &[(S, S)],
) -> IntentFn {
    assert!(!credentials.is_empty(), "credential list must be non-empty");
    let credentials = shared_credentials(credentials);
    // The first entry is the campaign's signature credential: real
    // brute-force tools hammer one default far more than the rest, which is
    // what makes neighboring honeypots' top usernames diverge (§4.1).
    let weights: Vec<f64> = (0..credentials.len())
        .map(|i| if i == 0 { 3.0 } else { 1.0 })
        .collect();
    Box::new(move |rng, _, _| {
        let (username, password) = credentials[rng.choose_weighted(&weights)].clone();
        ConnectionIntent::Login {
            service,
            username,
            password,
        }
    })
}

/// A dummy identity for tests and simple examples.
pub fn test_identity(name: &str, ip: Ipv4Addr) -> ActorIdentity {
    ActorIdentity::new(name, Asn(64_512), "US", vec![ip])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_netsim::engine::{Engine, FlowOutcome, Listener};
    use cw_netsim::flow::Flow;
    use cw_netsim::ip::Cidr;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct CountSink {
        flows: Vec<Flow>,
    }
    impl Listener for CountSink {
        fn name(&self) -> &str {
            "sink"
        }
        fn coverage(&self) -> Vec<Cidr> {
            vec![Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)]
        }
        fn on_flow(&mut self, flow: &Flow) -> FlowOutcome {
            self.flows.push(flow.clone());
            FlowOutcome::accepted()
        }
    }

    fn run_campaign(c: Campaign) -> Vec<Flow> {
        let mut e = Engine::new();
        let sink = Rc::new(RefCell::new(CountSink { flows: vec![] }));
        e.add_listener(sink.clone());
        let start = c.start_time();
        e.add_agent(Box::new(c), start);
        e.run(SimTime(SimDuration::WEEK.secs()));
        let flows = sink.borrow().flows.clone();
        flows
    }

    #[test]
    fn campaign_covers_all_targets_exactly_once() {
        let mut rng = SimRng::seed_from_u64(1);
        let ips: Vec<Ipv4Addr> = (0..50).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
        let targets = Campaign::cross(&ips, &[22, 80]);
        let pacing = Pacing::spread(&mut rng, targets.len(), SimDuration::WEEK);
        let c = Campaign::new(
            test_identity("t", Ipv4Addr::new(100, 0, 0, 1)),
            rng,
            targets.clone(),
            pacing,
            probe_only(),
        );
        let flows = run_campaign(c);
        assert_eq!(flows.len(), 100);
        let mut seen: Vec<(Ipv4Addr, u16)> = flows.iter().map(|f| (f.dst, f.dst_port)).collect();
        seen.sort();
        let mut expect = targets;
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn pacing_spreads_over_window() {
        let mut rng = SimRng::seed_from_u64(2);
        let ips: Vec<Ipv4Addr> = (0..200)
            .map(|i| Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8))
            .collect();
        let targets = Campaign::cross(&ips, &[23]);
        let pacing = Pacing::spread(&mut rng, targets.len(), SimDuration::WEEK);
        let c = Campaign::new(
            test_identity("t", Ipv4Addr::new(100, 0, 0, 1)),
            rng,
            targets,
            pacing,
            probe_only(),
        );
        let flows = run_campaign(c);
        let first = flows.first().unwrap().time;
        let last = flows.last().unwrap().time;
        assert!(last.secs() > first.secs(), "no time spread");
    }

    #[test]
    fn burst_sends_everything_at_once() {
        let rng = SimRng::seed_from_u64(3);
        let targets = vec![(Ipv4Addr::new(10, 0, 0, 1), 80); 10];
        let c = Campaign::new(
            test_identity("t", Ipv4Addr::new(100, 0, 0, 1)),
            rng,
            targets,
            Pacing::burst_at(SimTime(500), 10),
            probe_only(),
        );
        let flows = run_campaign(c);
        assert_eq!(flows.len(), 10);
        assert!(flows.iter().all(|f| f.time == SimTime(500)));
    }

    #[test]
    fn login_intent_factory_uses_dictionary() {
        let rng = SimRng::seed_from_u64(4);
        let targets = vec![(Ipv4Addr::new(10, 0, 0, 1), 23); 30];
        let c = Campaign::new(
            test_identity("t", Ipv4Addr::new(100, 0, 0, 1)),
            rng,
            targets,
            Pacing::burst_at(SimTime(0), 30),
            login_from_dictionary(LoginService::Telnet, crate::credentials::TELNET_GLOBAL),
        );
        let flows = run_campaign(c);
        for f in &flows {
            match &f.intent {
                ConnectionIntent::Login { username, .. } => {
                    assert!(crate::credentials::TELNET_GLOBAL
                        .iter()
                        .any(|(u, _)| *u == &**username));
                }
                other => panic!("expected login, got {other:?}"),
            }
        }
    }

    #[test]
    fn weighted_payload_factory_respects_weights() {
        let mut f = weighted_payloads(vec![(b"a".to_vec(), 0.0), (b"b".to_vec(), 1.0)]);
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..20 {
            match f(&mut rng, Ipv4Addr::new(10, 0, 0, 1), 80) {
                ConnectionIntent::Payload(p) => assert_eq!(&*p, b"b"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn multi_ip_identity_rotates_sources() {
        let rng = SimRng::seed_from_u64(6);
        let srcs: Vec<Ipv4Addr> = (0..8).map(|i| Ipv4Addr::new(100, 0, 0, i)).collect();
        let identity = ActorIdentity::new("bot", Asn(1), "CN", srcs.clone());
        let targets = vec![(Ipv4Addr::new(10, 0, 0, 1), 23); 100];
        let c = Campaign::new(
            identity,
            rng,
            targets,
            Pacing::burst_at(SimTime(0), 100),
            probe_only(),
        );
        let flows = run_campaign(c);
        let distinct: std::collections::BTreeSet<Ipv4Addr> = flows.iter().map(|f| f.src).collect();
        assert!(
            distinct.len() >= 6,
            "only {} distinct sources",
            distinct.len()
        );
    }
}
