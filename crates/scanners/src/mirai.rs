//! Mirai-style botnets.
//!
//! Two behaviors from the paper:
//!
//! 1. The classic Telnet-credential botnet, which "historically has not
//!    avoided unused IP address space" (§5.2) — it sweeps clouds, education
//!    networks *and* the telescope on 23/2323, attempting dictionary logins
//!    where a service answers.
//! 2. The §4.2 port-22 structure preference: "the Mirai botnet and scanners
//!    from the bulletproof hosting provider PonyNet (ASN 53667) are one
//!    order of magnitude more likely to choose the first address of a /16
//!    (e.g., x.B.0.0) as its first scanning target" — Figure 1a's spikes.

use crate::campaign::{fixed_payload, login_uniform, Campaign, Pacing};
use crate::identity::ActorIdentity;
use crate::targets::TargetUniverse;
use cw_netsim::asn::Asn;
use cw_netsim::flow::LoginService;
use cw_netsim::ip::IpExt;
use cw_netsim::rng::SimRng;
use cw_netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// Build the Telnet botnet: one campaign with `bot_count` source IPs that
/// sweeps every service network and the telescope on ports 23/2323.
pub fn build_telnet_botnet(
    universe: &TargetUniverse,
    rng: &mut SimRng,
    bot_ips: Vec<Ipv4Addr>,
    asn: Asn,
    telescope_sample: usize,
) -> Campaign {
    let mut crng = rng.derive("mirai/telnet");
    // Every bot scans broadly: services are hit several times (different
    // bots), so an individual bot IP shows up at clouds, EDUs *and* the
    // telescope — the §5.2 "botnets do not avoid unused space" signature.
    let mut ips = Vec::new();
    for _ in 0..4 {
        ips.extend(universe.all_service_ips());
    }
    ips.extend(universe.sample_telescope(&mut crng, telescope_sample, |_| true));
    crng.shuffle(&mut ips);
    let mut targets = Vec::with_capacity(ips.len() * 2);
    for ip in ips {
        targets.push((ip, 23));
        if crng.chance(0.4) {
            targets.push((ip, 2323));
        }
    }
    let identity = ActorIdentity::new("mirai/telnet", asn, "CN", bot_ips);
    let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
    Campaign::new(
        identity,
        crng,
        targets,
        pacing,
        login_uniform(LoginService::Telnet, crate::credentials::TELNET_GLOBAL),
    )
}

/// Build the port-22 /16-first botnet (Mirai SSH variant + PonyNet): for
/// every /16 inside the telescope, the first address is targeted with high
/// probability while other addresses are sampled an order of magnitude more
/// sparsely. Also probes cloud SSH lightly.
pub fn build_ssh_slash16_botnet(
    universe: &TargetUniverse,
    rng: &mut SimRng,
    bot_ips: Vec<Ipv4Addr>,
    asn: Asn,
    per_slash16_sample: usize,
    cloud_rate: f64,
) -> Campaign {
    let mut crng = rng.derive("mirai/ssh-slash16");
    let mut targets: Vec<(Ipv4Addr, u16)> = Vec::new();

    // Enumerate the /16s covered by the telescope block: its CIDRs are /16
    // or coarser-than-/16 aligned, so stepping 65,536 addresses at a time
    // lands on each /16 base (the final /18 contributes its /16's base).
    let mut slash16s: Vec<Ipv4Addr> = Vec::new();
    let mut i = 0u64;
    while i < universe.telescope.size() {
        let base = universe.telescope.nth(i).slash16();
        if slash16s.last() != Some(&base) {
            slash16s.push(base);
        }
        i += 65_536;
    }

    for base in slash16s {
        // The first address, with high probability (the latch).
        if crng.chance(0.9) {
            targets.push((base, 22));
        }
        // Sparse sample of the rest of the /16.
        for _ in 0..per_slash16_sample {
            let off = crng.range(1, 65_536);
            let ip = Ipv4Addr::from(u32::from(base) + off as u32);
            if universe.telescope.contains(ip) {
                targets.push((ip, 22));
            }
        }
    }
    // Light cloud SSH probing.
    targets.extend(
        universe
            .sample_services(&mut crng, cloud_rate, |_| true)
            .into_iter()
            .map(|ip| (ip, 22)),
    );
    crng.shuffle(&mut targets);

    let identity = ActorIdentity::new("mirai/ssh-slash16", asn, "US", bot_ips);
    let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
    Campaign::new(
        identity,
        crng,
        targets,
        pacing,
        fixed_payload(cw_protocols::ssh::build_banner("dropbear_2019.78")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::deployment::Deployment;

    fn universe() -> TargetUniverse {
        TargetUniverse::from_deployment(Deployment::standard())
    }

    #[test]
    fn telnet_botnet_covers_services_and_telescope() {
        let u = universe();
        let mut rng = SimRng::seed_from_u64(1);
        let bots: Vec<Ipv4Addr> = (0..50).map(|i| Ipv4Addr::new(100, 9, 0, i)).collect();
        let c = build_telnet_botnet(&u, &mut rng, bots, Asn(4134), 500);
        // At least all service IPs on port 23 plus the telescope sample.
        assert!(c.remaining() >= u.all_service_ips().len() + 500);
    }

    #[test]
    fn slash16_botnet_prefers_first_addresses() {
        let u = universe();
        let mut rng = SimRng::seed_from_u64(2);
        let bots = vec![Ipv4Addr::new(100, 9, 1, 1)];
        let c = build_ssh_slash16_botnet(&u, &mut rng, bots, Asn(53_667), 20, 0.05);
        assert!(c.remaining() > 0);
    }

    #[test]
    fn builders_are_deterministic() {
        let u = universe();
        let bots = vec![Ipv4Addr::new(100, 9, 1, 1)];
        let mut r1 = SimRng::seed_from_u64(3);
        let mut r2 = SimRng::seed_from_u64(3);
        let a = build_telnet_botnet(&u, &mut r1, bots.clone(), Asn(4134), 100);
        let b = build_telnet_botnet(&u, &mut r2, bots, Asn(4134), 100);
        assert_eq!(a.remaining(), b.remaining());
    }
}
