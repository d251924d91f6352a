//! Uniform sub-sampled Internet-wide scanners (ZMap-style).
//!
//! This is the bulk of the unsolicited traffic: campaigns that pick a port,
//! sub-sample the address space, and probe. Per-port knobs control the
//! §5.2 network preferences: the probability that a campaign also sweeps
//! the telescope is what generates the Table 8 per-port overlap fractions
//! (e.g. Telnet scanners almost never avoid dark space; SSH scanners almost
//! always do), with a boost for EDU-scanning campaigns (Merit and Orion
//! share an AS, so EDU-targeting scanners see the telescope "nearby").

use crate::campaign::{fixed_payload, probe_only, Campaign, IntentFn, Pacing};
use crate::identity::ActorIdentity;
use crate::targets::TargetUniverse;
use cw_netsim::rng::SimRng;
use cw_netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// Per-port configuration of the uniform-scanner population.
#[derive(Debug, Clone, Copy)]
pub struct ZmapProfile {
    /// Destination port.
    pub port: u16,
    /// Number of independent campaigns.
    pub count: usize,
    /// Per-vantage-IP inclusion probability (sub-sampling).
    pub service_rate: f64,
    /// Probability a campaign skips education networks entirely.
    pub p_skip_edu: f64,
    /// Probability a cloud-only campaign also sweeps the telescope.
    pub p_telescope: f64,
    /// Additional telescope probability for campaigns that scan EDU.
    pub p_telescope_edu_boost: f64,
    /// Telescope addresses sampled by a telescope-sweeping campaign.
    pub telescope_sample: usize,
    /// Fraction of campaigns that send a benign payload (vs bare probes).
    pub payload_fraction: f64,
}

/// Source of (ASN, country) assignments for generated campaigns.
pub type AsnPicker<'a> = &'a mut dyn FnMut(&mut SimRng) -> (cw_netsim::asn::Asn, String);

/// Build the campaigns for one profile.
pub fn build(
    profile: &ZmapProfile,
    universe: &TargetUniverse,
    rng: &mut SimRng,
    mut alloc: impl FnMut(usize) -> Vec<Ipv4Addr>,
    asn_picker: AsnPicker,
) -> Vec<Campaign> {
    let mut out = Vec::with_capacity(profile.count);
    for i in 0..profile.count {
        let mut crng = rng.derive(&format!("zmap/{}/{}", profile.port, i));
        let (asn, country) = asn_picker(&mut crng);
        let identity = ActorIdentity::new(
            &format!("zmap/{}/{}", profile.port, i),
            asn,
            &country,
            alloc(1),
        );

        let scans_edu = !crng.chance(profile.p_skip_edu);
        let p_tel = if scans_edu {
            (profile.p_telescope + profile.p_telescope_edu_boost).min(1.0)
        } else {
            profile.p_telescope
        };
        let scans_telescope = crng.chance(p_tel);

        let service_ips = universe.sample_services(&mut crng, profile.service_rate, |t| {
            scans_edu || t.kind != cw_honeypot::deployment::NetworkKind::Education
        });
        // Campaign volumes are heavy-tailed: a big campaign hammers the
        // honeypots it sampled while skipping the ones it didn't — the §4.1
        // source of neighbor asymmetry. HTTP research scanning is steadier
        // (one GET per service), so its tail is softer — this keeps
        // neighboring port-80 payload mixes similar (Table 2's 15%) while
        // ASes still diverge.
        let volume = crng.pareto_volume(1.3, 7) as usize;
        let mut targets: Vec<(Ipv4Addr, u16)> = Vec::new();
        for ip in &service_ips {
            for _ in 0..volume {
                targets.push((*ip, profile.port));
            }
        }
        if scans_telescope {
            for ip in universe.sample_telescope(&mut crng, profile.telescope_sample, |_| true) {
                targets.push((ip, profile.port));
            }
        }
        crng.shuffle(&mut targets);

        let intent: IntentFn = if crng.chance(profile.payload_fraction) {
            benign_intent_for_port(profile.port, &mut crng)
        } else {
            probe_only()
        };
        let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
        out.push(Campaign::new(identity, crng, targets, pacing, intent));
    }
    out
}

/// User-Agent strings of real scanning tools; each benign campaign uses
/// one, giving the distinct-payload diversity of real traffic (the §3.2
/// "6% of distinct HTTP payloads are malicious" denominator).
pub const SCANNER_USER_AGENTS: [&str; 16] = [
    "Mozilla/5.0 zgrab/0.x",
    "Mozilla/5.0 (compatible; CensysInspect/1.1)",
    "Mozilla/5.0 (compatible; InternetMeasurement/1.0)",
    "masscan/1.3",
    "python-requests/2.26.0",
    "curl/7.81.0",
    "Go-http-client/1.1",
    "Mozilla/5.0 (compatible; Nmap Scripting Engine)",
    "HTTP Banner Detection (https://security.ipip.net)",
    "Mozilla/5.0 (compatible; NetSystemsResearch)",
    "Expanse, a Palo Alto Networks company",
    "Mozilla/5.0 (compatible; Odin; https://docs.getodin.com)",
    "fasthttp",
    "okhttp/3.12.1",
    "Mozilla/5.0 (compatible; Researchscan/t13rl)",
    "libwww-perl/6.43",
];

/// Paths benign scanners fetch.
pub const SCANNER_PATHS: [&str; 6] = [
    "/",
    "/robots.txt",
    "/favicon.ico",
    "/index.html",
    "/sitemap.xml",
    "/.well-known/security.txt",
];

/// The benign first payload an assigned-protocol scanner sends on a port.
pub fn benign_intent_for_port(port: u16, rng: &mut SimRng) -> IntentFn {
    use cw_protocols::ProtocolId;
    match cw_protocols::assigned_protocol(port) {
        Some(ProtocolId::Http) => {
            // Zipf-weighted: most campaigns run the same few tools, so the
            // top payloads converge across neighboring honeypots while the
            // distinct-payload pool stays wide.
            let ua_weights: Vec<f64> = (0..SCANNER_USER_AGENTS.len())
                .map(|i| 1.0 / (i as f64 + 1.0))
                .collect();
            let path_weights: Vec<f64> = (0..SCANNER_PATHS.len())
                .map(|i| 1.0 / (i as f64 + 1.0))
                .collect();
            let ua = SCANNER_USER_AGENTS[rng.choose_weighted(&ua_weights)];
            let path = SCANNER_PATHS[rng.choose_weighted(&path_weights)];
            let payload = cw_protocols::HttpRequest::new("GET", path)
                .header("Host", "target")
                .header("User-Agent", ua)
                .header("Accept", "*/*")
                .to_bytes();
            fixed_payload(payload)
        }
        Some(ProtocolId::Tls) => {
            let seed = rng.next_u64();
            fixed_payload(cw_protocols::tls::build_client_hello(seed, None))
        }
        Some(ProtocolId::Ssh) => fixed_payload(cw_protocols::ssh::build_banner("libssh2_1.9")),
        Some(ProtocolId::Smb) => fixed_payload(cw_protocols::smb::build_negotiate()),
        // Telnet and the rest are server-first (or binary): bare probe.
        _ => probe_only(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::deployment::Deployment;
    use cw_netsim::asn::Asn;

    fn test_build(profile: &ZmapProfile, seed: u64) -> Vec<Campaign> {
        let universe = TargetUniverse::from_deployment(Deployment::standard());
        let mut rng = SimRng::seed_from_u64(seed);
        let mut next = 0u32;
        let mut counter = 0u32;
        let _ = &mut next;
        build(
            profile,
            &universe,
            &mut rng,
            move |n| {
                let start = counter;
                counter += n as u32;
                (0..n as u32)
                    .map(|i| Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 0, 0, 0)) + start + i))
                    .collect()
            },
            &mut |_r| (Asn(65_000), "US".to_string()),
        )
    }

    #[test]
    fn builds_requested_count() {
        let p = ZmapProfile {
            port: 23,
            count: 10,
            service_rate: 0.5,
            p_skip_edu: 0.0,
            p_telescope: 1.0,
            p_telescope_edu_boost: 0.0,
            telescope_sample: 100,
            payload_fraction: 0.0,
        };
        let cs = test_build(&p, 1);
        assert_eq!(cs.len(), 10);
        // With p_telescope = 1 every campaign has telescope targets beyond
        // the service sample.
        for c in &cs {
            assert!(c.remaining() > 100);
        }
    }

    #[test]
    fn telescope_avoidance_zero_prob() {
        let p = ZmapProfile {
            port: 2222,
            count: 5,
            service_rate: 1.0,
            p_skip_edu: 0.0,
            p_telescope: 0.0,
            p_telescope_edu_boost: 0.0,
            telescope_sample: 1000,
            payload_fraction: 0.0,
        };
        let universe = TargetUniverse::from_deployment(Deployment::standard());
        let n_services = universe.all_service_ips().len();
        let cs = test_build(&p, 2);
        for c in &cs {
            // Every service exactly once per volume unit, telescope never.
            assert_eq!(c.remaining() % n_services, 0);
            assert!(c.remaining() >= n_services);
        }
    }

    #[test]
    fn determinism() {
        let p = ZmapProfile {
            port: 80,
            count: 3,
            service_rate: 0.3,
            p_skip_edu: 0.5,
            p_telescope: 0.5,
            p_telescope_edu_boost: 0.2,
            telescope_sample: 50,
            payload_fraction: 0.5,
        };
        let a: Vec<usize> = test_build(&p, 7).iter().map(|c| c.remaining()).collect();
        let b: Vec<usize> = test_build(&p, 7).iter().map(|c| c.remaining()).collect();
        assert_eq!(a, b);
    }
}
