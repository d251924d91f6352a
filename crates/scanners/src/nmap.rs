//! The nmap campaigns that consult Censys before scanning.
//!
//! §4.3: "while three ASes — Avast (ASN 198605), M247 (ASN 9009), and
//! CDN77 (ASN 60068) — conduct nmap scans against our non-Censys-leaked
//! HTTP/80 honeypots, they actively *avoid* all Censys-leaked HTTP/80
//! honeypots. Interestingly, the nmap scanners also target the previously
//! leaked honeypots, implying that the nmap scanners source only up-to-date
//! information from Censys." The agent therefore skips only *live* Censys
//! entries, not historical ones.

use crate::identity::ActorIdentity;
use crate::search_engine::SharedIndex;
use cw_netsim::engine::{Agent, Network};
use cw_netsim::flow::{ConnectionIntent, FlowSpec};
use cw_netsim::intern::Blob;
use cw_netsim::rng::SimRng;
use cw_netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// An nmap fingerprinting campaign that re-checks Censys each sweep.
pub struct NmapCampaign {
    identity: ActorIdentity,
    rng: SimRng,
    censys: SharedIndex,
    /// The candidate HTTP targets (the leak fleet + other honeypots).
    candidates: Vec<Ipv4Addr>,
    /// Time between sweeps.
    sweep_interval: SimDuration,
    sweeps_left: u32,
    /// The nmap HTTP probe, built once.
    probe: Blob,
}

impl NmapCampaign {
    /// Create a campaign sweeping `candidates` on port 80, `sweeps` times.
    pub fn new(
        identity: ActorIdentity,
        rng: SimRng,
        censys: SharedIndex,
        candidates: Vec<Ipv4Addr>,
        sweep_interval: SimDuration,
        sweeps: u32,
    ) -> Self {
        NmapCampaign {
            identity,
            rng,
            censys,
            candidates,
            sweep_interval,
            sweeps_left: sweeps,
            probe: crate::exploits::nmap_probe().into(),
        }
    }
}

impl Agent for NmapCampaign {
    fn name(&self) -> &str {
        &self.identity.name
    }

    fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime> {
        if self.sweeps_left == 0 {
            return None;
        }
        self.sweeps_left -= 1;
        // Re-query Censys at sweep time: skip live-listed services only.
        let targets: Vec<Ipv4Addr> = {
            let idx = self.censys.borrow();
            self.candidates
                .iter()
                .copied()
                .filter(|ip| !idx.has_live(*ip, 80))
                .collect()
        };
        for ip in targets {
            let src = *self.rng.choose(&self.identity.ips);
            net.send(FlowSpec {
                src,
                src_asn: self.identity.asn,
                dst: ip,
                dst_port: 80,
                intent: ConnectionIntent::Payload(self.probe.clone()),
            });
        }
        if self.sweeps_left == 0 {
            None
        } else {
            Some(now + self.sweep_interval)
        }
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

    #[test]
    fn avoids_live_censys_entries_but_hits_historical() {
        let live = Ipv4Addr::new(10, 0, 0, 1);
        let historical = Ipv4Addr::new(10, 0, 0, 2);
        let unlisted = Ipv4Addr::new(10, 0, 0, 3);
        let index = Rc::new(RefCell::new(SearchIndex::new()));
        index.borrow_mut().publish_live(live, 80);
        index.borrow_mut().seed_historical(historical, 80);

        let mut engine = Engine::new();
        let hp = HoneypotListener::new(
            "fleet",
            [live, historical, unlisted],
            PortPolicy::FirstPayload,
        );
        let cap = hp.capture();
        engine.add_listener(Rc::new(RefCell::new(hp)));

        let campaign = NmapCampaign::new(
            ActorIdentity::new(
                "avast",
                Asn(198_605),
                "CZ",
                vec![Ipv4Addr::new(100, 2, 0, 1)],
            ),
            SimRng::seed_from_u64(1),
            index,
            vec![live, historical, unlisted],
            SimDuration::DAY,
            2,
        );
        engine.add_agent(Box::new(campaign), SimTime(0));
        engine.run(SimTime(SimDuration::WEEK.secs()));

        let cap = cap.borrow();
        assert_eq!(cap.events_for_ip(live).count(), 0);
        assert_eq!(cap.events_for_ip(historical).count(), 2);
        assert_eq!(cap.events_for_ip(unlisted).count(), 2);
        // And the probe is the nmap fingerprint.
        let e = cap.events_for_ip(unlisted).next().unwrap();
        let pid = e.observed.payload().unwrap();
        let interner_rc = cap.interner();
        let interner = interner_rc.borrow();
        assert!(String::from_utf8_lossy(interner.payload(pid)).contains("Trinity.txt.bak"));
    }

    #[test]
    fn reacts_to_index_changes_between_sweeps() {
        let target = Ipv4Addr::new(10, 0, 0, 9);
        let index = Rc::new(RefCell::new(SearchIndex::new()));

        let mut engine = Engine::new();
        let hp = HoneypotListener::new("fleet", [target], PortPolicy::FirstPayload);
        let cap = hp.capture();
        engine.add_listener(Rc::new(RefCell::new(hp)));
        let campaign = NmapCampaign::new(
            ActorIdentity::new("m247", Asn(9009), "GB", vec![Ipv4Addr::new(100, 2, 0, 2)]),
            SimRng::seed_from_u64(2),
            index.clone(),
            vec![target],
            SimDuration::DAY,
            3,
        );
        engine.add_agent(Box::new(campaign), SimTime(0));
        // First sweep happens, then the service gets listed.
        engine.run(SimTime(3600));
        assert_eq!(cap.borrow().len(), 1);
        index.borrow_mut().publish_live(target, 80);
        engine.run(SimTime(SimDuration::WEEK.secs()));
        // No further probes once live-listed.
        assert_eq!(cap.borrow().len(), 1);
    }
}
