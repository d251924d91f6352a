//! Address-structure-filtering scanners (§4.2, Figures 1b–c).
//!
//! "Scanners are 3.5 times less likely to target an IP address structure
//! that is likely reserved for broadcasting purposes (i.e., ending in a
//! '.255')" and, for some campaigns, any address with a 255 octet at all —
//! "incorrect filtering of broadcast addresses, in which the position of
//! the '255' octet is not checked". The same bias appears in the cloud on
//! port 445 (1.2–3.5× less likely to target a trailing .255).

use crate::campaign::{Campaign, IntentFn, Pacing};
use crate::identity::ActorIdentity;
use crate::targets::TargetUniverse;
use cw_netsim::asn::Asn;
use cw_netsim::ip::IpExt;
use cw_netsim::rng::SimRng;
use cw_netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// Which broadcast-shape filter a campaign applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureFilter {
    /// Skip addresses ending in `.255` (correct-ish broadcast filtering).
    TrailingOnly,
    /// Skip addresses with a 255 in *any* octet (the sloppy variant).
    AnyOctet,
}

impl StructureFilter {
    /// Does the filter admit this address?
    pub fn admits(&self, ip: Ipv4Addr) -> bool {
        match self {
            StructureFilter::TrailingOnly => !ip.ends_in_255(),
            StructureFilter::AnyOctet => !ip.has_255_octet(),
        }
    }
}

/// Build a structure-filtering campaign on one port: a telescope sweep plus
/// a service sweep, where filtered addresses are kept only with
/// `leak_through` probability (so avoidance is a strong bias, not an
/// absolute rule — matching the 3.5×/61×/9× ratios rather than zeros).
#[allow(clippy::too_many_arguments)]
pub fn build(
    universe: &TargetUniverse,
    rng: &mut SimRng,
    name: &str,
    src: Vec<Ipv4Addr>,
    asn: Asn,
    port: u16,
    filter: StructureFilter,
    leak_through: f64,
    telescope_sample: usize,
    service_rate: f64,
    intent: IntentFn,
) -> Campaign {
    let mut crng = rng.derive(name);
    let mut ips: Vec<Ipv4Addr> = Vec::new();
    // Telescope sweep with the leaky structure filter.
    {
        let mut count = 0usize;
        let size = universe.telescope.size();
        while count < telescope_sample {
            let ip = universe.telescope.nth(crng.below(size));
            if filter.admits(ip) || crng.chance(leak_through) {
                ips.push(ip);
                count += 1;
            }
        }
    }
    // Service sweep with the same bias.
    for ip in universe.sample_services(&mut crng, service_rate, |_| true) {
        if filter.admits(ip) || crng.chance(leak_through) {
            ips.push(ip);
        }
    }
    crng.shuffle(&mut ips);
    let targets: Vec<(Ipv4Addr, u16)> = ips.into_iter().map(|ip| (ip, port)).collect();
    let identity = ActorIdentity::new(name, asn, "US", src);
    let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
    Campaign::new(identity, crng, targets, pacing, intent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::probe_only;
    use cw_honeypot::deployment::Deployment;

    #[test]
    fn filters_admit_correctly() {
        let trailing = Ipv4Addr::new(10, 1, 2, 255);
        let middle = Ipv4Addr::new(10, 255, 2, 3);
        let clean = Ipv4Addr::new(10, 1, 2, 3);
        assert!(!StructureFilter::TrailingOnly.admits(trailing));
        assert!(StructureFilter::TrailingOnly.admits(middle));
        assert!(!StructureFilter::AnyOctet.admits(trailing));
        assert!(!StructureFilter::AnyOctet.admits(middle));
        assert!(StructureFilter::AnyOctet.admits(clean));
    }

    #[test]
    fn zero_leak_excludes_filtered_shapes() {
        let u = TargetUniverse::from_deployment(Deployment::standard());
        let mut rng = SimRng::seed_from_u64(1);
        let c = build(
            &u,
            &mut rng,
            "s445",
            vec![Ipv4Addr::new(100, 7, 0, 1)],
            Asn(65_100),
            445,
            StructureFilter::AnyOctet,
            0.0,
            3_000,
            0.0,
            probe_only(),
        );
        assert_eq!(c.remaining(), 3_000);
    }

    #[test]
    fn builds_service_targets_too() {
        let u = TargetUniverse::from_deployment(Deployment::standard());
        let mut rng = SimRng::seed_from_u64(2);
        let c = build(
            &u,
            &mut rng,
            "s445b",
            vec![Ipv4Addr::new(100, 7, 0, 2)],
            Asn(65_101),
            445,
            StructureFilter::TrailingOnly,
            0.3,
            100,
            1.0,
            probe_only(),
        );
        // 100 telescope + most of the service fleet.
        assert!(c.remaining() > 100 + 500);
    }
}
