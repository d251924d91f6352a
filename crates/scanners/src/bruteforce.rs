//! SSH/Telnet credential brute-forcers with geographic tailoring.
//!
//! These are the "attackers" of §3.2 (they attempt to bypass
//! authentication) and the carriers of two key findings:
//!
//! - §5.1: credentials are tailored to geography, concentrated in Asia
//!   Pacific ("mother"/"e8ehome" in AWS Australia, ZTE defaults in
//!   Singapore, …);
//! - §5.2 / Table 9: attackers on SSH-assigned ports almost entirely avoid
//!   telescopes (≤7.5% overlap) while Telnet attackers do not.

use crate::campaign::{login_from_credentials, Campaign, Pacing};
use crate::credentials::Credential;
use crate::identity::ActorIdentity;
use crate::targets::{ServiceTarget, TargetUniverse};
use cw_netsim::flow::LoginService;
use cw_netsim::rng::SimRng;
use cw_netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// Where a brute-forcer aims.
#[derive(Debug, Clone)]
pub enum GeoScope {
    /// All service networks.
    Global,
    /// Only regions with the given codes.
    Regions(Vec<String>),
    /// All regions except the given codes (the SATNET shape).
    Excluding(Vec<String>),
    /// Only cloud networks (skips education).
    CloudOnly,
    /// Only education networks (the Chinanet-SSH 2021 shape).
    EduHeavy,
}

impl GeoScope {
    /// Does this scope admit a target?
    pub fn admits(&self, t: &ServiceTarget) -> bool {
        use cw_honeypot::deployment::NetworkKind;
        match self {
            GeoScope::Global => true,
            GeoScope::Regions(codes) => codes.contains(&t.region.code),
            GeoScope::Excluding(codes) => !codes.contains(&t.region.code),
            GeoScope::CloudOnly => t.kind == NetworkKind::Cloud,
            GeoScope::EduHeavy => t.kind == NetworkKind::Education,
        }
    }
}

/// Configuration of one brute-force campaign family.
#[derive(Debug, Clone)]
pub struct BruteforceProfile {
    /// Campaign-family name prefix.
    pub name: String,
    /// Number of independent campaigns.
    pub count: usize,
    /// Target service dialect.
    pub service: LoginService,
    /// Ports attempted (22/2222 or 23/2323).
    pub ports: Vec<u16>,
    /// Credential dictionary.
    pub dictionary: &'static [Credential],
    /// Geographic scope.
    pub scope: GeoScope,
    /// Per-vantage-IP inclusion probability.
    pub service_rate: f64,
    /// Login attempts per targeted service.
    pub attempts_per_target: usize,
    /// Probability a campaign also touches the telescope (Table 9: tiny for
    /// SSH, large for Telnet botnet-adjacent attackers).
    pub p_telescope: f64,
    /// Telescope sample size when it does.
    pub telescope_sample: usize,
}

/// A campaign's personal slice of a dictionary: at least 3 entries. With
/// `head_bias` the draw favors the list head (Telnet campaigns all carry
/// the Mirai classics, keeping "root"/"admin"/"support" globally stable);
/// without it the draw is uniform (SSH lists vary wildly per campaign,
/// which is why the paper sees 55% of SSH-username neighborhoods differ).
pub fn dictionary_subset(
    rng: &mut SimRng,
    dictionary: &'static [Credential],
    head_bias: bool,
) -> Vec<(String, String)> {
    // SSH tools frequently ship a single default credential; Telnet kits
    // carry at least the Mirai pair plus friends.
    let k = if head_bias {
        rng.range(2, 7) as usize
    } else {
        rng.range(1, 7) as usize
    };
    let weights: Vec<f64> = (0..dictionary.len())
        .map(|i| {
            if head_bias {
                1.0 / (i as f64 + 1.0)
            } else {
                1.0
            }
        })
        .collect();
    let mut picked: Vec<usize> = Vec::new();
    let mut guard = 0;
    while picked.len() < k.min(dictionary.len()) && guard < 1000 {
        guard += 1;
        let i = rng.choose_weighted(&weights);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
        .into_iter()
        .map(|i| (dictionary[i].0.to_string(), dictionary[i].1.to_string()))
        .collect()
}

/// Build the campaigns for a profile.
pub fn build(
    profile: &BruteforceProfile,
    universe: &TargetUniverse,
    rng: &mut SimRng,
    mut alloc: impl FnMut(usize) -> Vec<Ipv4Addr>,
    asn_picker: crate::zmap::AsnPicker,
) -> Vec<Campaign> {
    let mut out = Vec::with_capacity(profile.count);
    for i in 0..profile.count {
        let mut crng = rng.derive(&format!("{}/{}", profile.name, i));
        let (asn, country) = asn_picker(&mut crng);
        let identity =
            ActorIdentity::new(&format!("{}/{}", profile.name, i), asn, &country, alloc(1));
        let base =
            universe.sample_services(&mut crng, profile.service_rate, |t| profile.scope.admits(t));
        // Heavy-tailed per-campaign volume (§4.1 neighbor asymmetry).
        let volume = crng.pareto_volume(1.5, 3) as usize;
        let mut targets: Vec<(Ipv4Addr, u16)> = Vec::new();
        for ip in &base {
            for _ in 0..profile.attempts_per_target * volume {
                let port = *crng.choose(&profile.ports);
                targets.push((*ip, port));
            }
        }
        if crng.chance(profile.p_telescope) {
            for ip in universe.sample_telescope(&mut crng, profile.telescope_sample, |_| true) {
                targets.push((ip, profile.ports[0]));
            }
        }
        crng.shuffle(&mut targets);
        let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
        // Each campaign favors its own slice of the dictionary (real
        // campaigns ship specific credential lists), drawn with a bias
        // toward the list head so the global top-3 stays stable.
        let head_bias = profile.service == LoginService::Telnet;
        let subset = dictionary_subset(&mut crng, profile.dictionary, head_bias);
        out.push(Campaign::new(
            identity,
            crng,
            targets,
            pacing,
            login_from_credentials(profile.service, &subset),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credentials;
    use cw_honeypot::deployment::Deployment;
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::ConnectionIntent;

    fn universe() -> TargetUniverse {
        TargetUniverse::from_deployment(Deployment::standard())
    }

    fn build_one(profile: &BruteforceProfile, seed: u64) -> Vec<Campaign> {
        let u = universe();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut next = 0u32;
        build(
            profile,
            &u,
            &mut rng,
            move |n| {
                let start = next;
                next += n as u32;
                (0..n as u32)
                    .map(|i| Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 5, 0, 0)) + start + i))
                    .collect()
            },
            &mut |_r| (Asn(4134), "CN".to_string()),
        )
    }

    #[test]
    fn region_scope_limits_targets() {
        let u = universe();
        let au_ips: Vec<Ipv4Addr> = u.service_ips(|t| t.region.code == "AP-AU");
        let profile = BruteforceProfile {
            name: "bf-au".into(),
            count: 1,
            service: LoginService::Telnet,
            ports: vec![23],
            dictionary: credentials::TELNET_AP_AU,
            scope: GeoScope::Regions(vec!["AP-AU".into()]),
            service_rate: 1.0,
            attempts_per_target: 2,
            p_telescope: 0.0,
            telescope_sample: 0,
        };
        let cs = build_one(&profile, 1);
        // attempts × per-campaign heavy-tail volume, only at AU honeypots.
        assert_eq!(cs[0].remaining() % (au_ips.len() * 2), 0);
        assert!(cs[0].remaining() >= au_ips.len() * 2);
    }

    #[test]
    fn excluding_scope_excludes() {
        let u = universe();
        let n_total = u.all_service_ips().len();
        let n_in = u.service_ips(|t| t.region.code == "AP-IN").len();
        let profile = BruteforceProfile {
            name: "bf-satnet".into(),
            count: 1,
            service: LoginService::Ssh,
            ports: vec![22],
            dictionary: credentials::SSH_GLOBAL,
            scope: GeoScope::Excluding(vec!["AP-IN".into()]),
            service_rate: 1.0,
            attempts_per_target: 1,
            p_telescope: 0.0,
            telescope_sample: 0,
        };
        let cs = build_one(&profile, 2);
        assert_eq!(cs[0].remaining() % (n_total - n_in), 0);
        assert!(cs[0].remaining() >= n_total - n_in);
    }

    #[test]
    fn intents_are_logins_from_the_dictionary() {
        let profile = BruteforceProfile {
            name: "bf-test".into(),
            count: 1,
            service: LoginService::Ssh,
            ports: vec![22, 2222],
            dictionary: credentials::SSH_GLOBAL,
            scope: GeoScope::CloudOnly,
            service_rate: 0.05,
            attempts_per_target: 3,
            p_telescope: 0.0,
            telescope_sample: 0,
        };
        let mut cs = build_one(&profile, 3);
        let c = &mut cs[0];
        // Drive the campaign against a counting network to inspect intents.
        struct Probe {
            intents: Vec<ConnectionIntent>,
        }
        impl cw_netsim::engine::Network for Probe {
            fn now(&self) -> cw_netsim::time::SimTime {
                cw_netsim::time::SimTime(0)
            }
            fn send(&mut self, spec: cw_netsim::flow::FlowSpec) -> cw_netsim::engine::FlowOutcome {
                self.intents.push(spec.intent);
                cw_netsim::engine::FlowOutcome::accepted()
            }
        }
        let mut probe = Probe { intents: vec![] };
        use cw_netsim::engine::Agent as _;
        let mut t = c.start_time();
        while let Some(next) = c.on_wake(t, &mut probe) {
            t = next;
        }
        assert!(!probe.intents.is_empty());
        for i in &probe.intents {
            match i {
                ConnectionIntent::Login {
                    service, username, ..
                } => {
                    assert_eq!(*service, LoginService::Ssh);
                    assert!(credentials::SSH_GLOBAL
                        .iter()
                        .any(|(u, _)| *u == &**username));
                }
                other => panic!("expected login, got {other:?}"),
            }
        }
    }
}
