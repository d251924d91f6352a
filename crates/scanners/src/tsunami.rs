//! Single-target-latching botnets.
//!
//! §4.1: "Thousands of scanner IP addresses belonging to the Tsunami botnet
//! only target a single IP address in the Hurricane Electric /24 honeypot
//! network", and Figure 1d shows an analogous latch on a set of four
//! telescope addresses on port 17128. Random IP assignment therefore
//! "leaves some services unknowingly more vulnerable to botnet attacks than
//! others".

use crate::campaign::{login_uniform, probe_only, Campaign, Pacing};
use crate::identity::ActorIdentity;
use cw_netsim::asn::Asn;
use cw_netsim::flow::LoginService;
use cw_netsim::rng::SimRng;
use cw_netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// The Tsunami botnet: many bot IPs, one victim, Telnet logins all week.
pub fn build_tsunami(
    rng: &mut SimRng,
    bot_ips: Vec<Ipv4Addr>,
    asn: Asn,
    victim: Ipv4Addr,
    attempts: usize,
) -> Campaign {
    let mut crng = rng.derive("tsunami");
    let targets = vec![(victim, 23); attempts];
    let identity = ActorIdentity::new("tsunami", asn, "BR", bot_ips);
    let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
    Campaign::new(
        identity,
        crng,
        targets,
        pacing,
        login_uniform(LoginService::Telnet, crate::credentials::TELNET_GLOBAL),
    )
}

/// The Figure 1d latch: a campaign with many source IPs hammering a fixed
/// small set of telescope addresses on one port (17128 in the paper).
pub fn build_telescope_latch(
    rng: &mut SimRng,
    bot_ips: Vec<Ipv4Addr>,
    asn: Asn,
    victims: Vec<Ipv4Addr>,
    port: u16,
    contacts_per_victim: usize,
) -> Campaign {
    assert!(!victims.is_empty());
    let mut crng = rng.derive("telescope-latch");
    let mut targets = Vec::with_capacity(victims.len() * contacts_per_victim);
    for &v in &victims {
        for _ in 0..contacts_per_victim {
            targets.push((v, port));
        }
    }
    crng.shuffle(&mut targets);
    let identity = ActorIdentity::new("telescope-latch", asn, "RU", bot_ips);
    let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
    Campaign::new(identity, crng, targets, pacing, probe_only())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsunami_targets_single_victim() {
        let mut rng = SimRng::seed_from_u64(1);
        let bots: Vec<Ipv4Addr> = (0..100).map(|i| Ipv4Addr::new(100, 8, 0, i)).collect();
        let victim = Ipv4Addr::new(20, 9, 0, 77);
        let c = build_tsunami(&mut rng, bots, Asn(64_999), victim, 500);
        assert_eq!(c.remaining(), 500);
    }

    #[test]
    fn latch_spreads_over_victims() {
        let mut rng = SimRng::seed_from_u64(2);
        let victims: Vec<Ipv4Addr> = (0..4).map(|i| Ipv4Addr::new(10, 3, 7, 40 + i)).collect();
        let c = build_telescope_latch(
            &mut rng,
            vec![Ipv4Addr::new(100, 8, 1, 1)],
            Asn(64_998),
            victims,
            17_128,
            50,
        );
        assert_eq!(c.remaining(), 200);
    }

    #[test]
    #[should_panic]
    fn latch_requires_victims() {
        let mut rng = SimRng::seed_from_u64(3);
        build_telescope_latch(
            &mut rng,
            vec![Ipv4Addr::new(100, 8, 1, 1)],
            Asn(1),
            vec![],
            17_128,
            10,
        );
    }
}
