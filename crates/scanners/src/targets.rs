//! Target planning: the slice of the simulated Internet a campaign scans.
//!
//! Real scanners pick targets from the whole IPv4 space; our simulation
//! only materializes the space that instruments observe (honeypot blocks +
//! telescope), so a campaign's target plan is a filtered, sampled view of
//! that space. The filters implemented here are exactly the targeting
//! biases under study: network-kind selection (telescope avoidance, §5.2),
//! geographic selection (§5.1), and address-structure filtering (§4.2).

use cw_honeypot::deployment::{CollectorKind, Deployment, NetworkKind, Provider, VantagePoint};
use cw_netsim::geo::Region;
use cw_netsim::ip::IpExt;
use cw_netsim::rng::SimRng;
use cw_netsim::topology::AddressBlock;
use std::net::Ipv4Addr;

/// One scannable service address with its deployment metadata (the scanner
/// does not *know* this metadata — it reflects where the address happens to
/// be, which is what geographically- or network-biased scanners key on via
/// routing/geo databases in the real world).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceTarget {
    /// The address.
    pub ip: Ipv4Addr,
    /// Hosting operator.
    pub provider: Provider,
    /// Network type.
    pub kind: NetworkKind,
    /// Geographic region.
    pub region: Region,
}

/// The target universe derived from a deployment.
#[derive(Debug, Clone)]
pub struct TargetUniverse {
    /// Every service (honeypot) address.
    pub services: Vec<ServiceTarget>,
    /// The telescope block.
    pub telescope: AddressBlock,
    /// The leak-experiment block (§4.3).
    pub leak_block: AddressBlock,
}

impl TargetUniverse {
    /// Build the universe from a deployment.
    pub fn from_deployment(d: &Deployment) -> Self {
        let services = d
            .vantages
            .iter()
            .filter(|v| v.collector != CollectorKind::Telescope)
            .map(|v: &VantagePoint| ServiceTarget {
                ip: v.ip,
                provider: v.provider,
                kind: v.kind,
                region: v.region.clone(),
            })
            .collect();
        let block = |name| d.topology.block(name).expect("a layout block").clone();
        let telescope = block("telescope");
        let leak_block = block("leak/stanford");
        TargetUniverse {
            services,
            telescope,
            leak_block,
        }
    }

    /// Service addresses passing a filter.
    pub fn service_ips<F: Fn(&ServiceTarget) -> bool>(&self, f: F) -> Vec<Ipv4Addr> {
        self.services
            .iter()
            .filter(|t| f(t))
            .map(|t| t.ip)
            .collect()
    }

    /// All service addresses.
    pub fn all_service_ips(&self) -> Vec<Ipv4Addr> {
        self.service_ips(|_| true)
    }

    /// Cloud-network service addresses.
    pub fn cloud_ips(&self) -> Vec<Ipv4Addr> {
        self.service_ips(|t| t.kind == NetworkKind::Cloud)
    }

    /// Education-network service addresses.
    pub fn edu_ips(&self) -> Vec<Ipv4Addr> {
        self.service_ips(|t| t.kind == NetworkKind::Education)
    }

    /// Sub-sample service addresses: include each with probability `rate`
    /// (the "majority of scanning campaigns conduct sub-sampled
    /// Internet-wide scans" behavior, §4.4).
    pub fn sample_services<F: Fn(&ServiceTarget) -> bool>(
        &self,
        rng: &mut SimRng,
        rate: f64,
        f: F,
    ) -> Vec<Ipv4Addr> {
        self.services
            .iter()
            .filter(|t| f(t))
            .filter(|_| rng.chance(rate))
            .map(|t| t.ip)
            .collect()
    }

    /// Sample `n` telescope addresses uniformly (with replacement across
    /// calls, deduplicated within the call), keeping only those passing
    /// `keep` — the hook for §4.2 structure filters.
    pub fn sample_telescope<F: Fn(Ipv4Addr) -> bool>(
        &self,
        rng: &mut SimRng,
        n: usize,
        keep: F,
    ) -> Vec<Ipv4Addr> {
        let size = self.telescope.size();
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0usize;
        // Rejection-sample; bail out if the filter is pathologically tight.
        while out.len() < n && attempts < n * 20 {
            attempts += 1;
            let ip = self.telescope.nth(rng.below(size));
            if keep(ip) {
                out.push(ip);
            }
        }
        out
    }
}

/// §4.2 structure filter: keep addresses that do not end in `.255`.
pub fn not_ending_255(ip: Ipv4Addr) -> bool {
    !ip.ends_in_255()
}

/// §4.2 sloppy-broadcast filter: keep addresses with no 255 octet at all.
pub fn no_255_octet(ip: Ipv4Addr) -> bool {
    !ip.has_255_octet()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::deployment::Deployment;

    fn universe() -> TargetUniverse {
        TargetUniverse::from_deployment(Deployment::standard())
    }

    #[test]
    fn universe_splits_by_network_kind() {
        let u = universe();
        let cloud = u.cloud_ips();
        let edu = u.edu_ips();
        // 444 GreyNoise + 64 aws-west + 64 google-west + 2 google-east.
        assert_eq!(cloud.len(), 444 + 64 + 64 + 2);
        assert_eq!(edu.len(), 128);
        assert_eq!(u.all_service_ips().len(), cloud.len() + edu.len());
    }

    #[test]
    fn sampling_rate_is_respected() {
        let u = universe();
        let mut rng = SimRng::seed_from_u64(1);
        let half = u.sample_services(&mut rng, 0.5, |_| true);
        let n = u.all_service_ips().len() as f64;
        assert!((half.len() as f64) > n * 0.35 && (half.len() as f64) < n * 0.65);
        let none = u.sample_services(&mut rng, 0.0, |_| true);
        assert!(none.is_empty());
    }

    #[test]
    fn telescope_sampling_respects_filters() {
        let u = universe();
        let mut rng = SimRng::seed_from_u64(2);
        let ips = u.sample_telescope(&mut rng, 2000, no_255_octet);
        assert_eq!(ips.len(), 2000);
        assert!(ips.iter().all(|ip| !ip.has_255_octet()));
        for ip in &ips {
            assert!(u.telescope.contains(*ip));
        }
    }

    #[test]
    fn region_filter_works() {
        let u = universe();
        let sg = u.service_ips(|t| t.region.code == "AP-SG");
        // AWS + Azure + Google + Linode Singapore regions × 4 honeypots.
        assert_eq!(sg.len(), 16);
    }

    #[test]
    fn structure_predicates() {
        assert!(not_ending_255(Ipv4Addr::new(10, 0, 0, 254)));
        assert!(!not_ending_255(Ipv4Addr::new(10, 0, 0, 255)));
        assert!(no_255_octet(Ipv4Addr::new(10, 254, 0, 1)));
        assert!(!no_255_octet(Ipv4Addr::new(10, 255, 0, 1)));
    }
}
