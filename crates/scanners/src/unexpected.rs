//! Scanners that target unexpected protocols on HTTP-assigned ports (§6).
//!
//! "At least 15% of scanners that target ports 80 and 8080 do not target
//! the HTTP protocol. Rather, 7% of scanners target TLS, Telnet (0.5%),
//! SQL (0.4%), RTSP (0.3%), SMB (0.3%), etc." Each campaign built here
//! speaks exactly one non-HTTP protocol at ports 80/8080 across the
//! honeypot fleets, so the §6 fingerprinting pipeline has something real to
//! identify.

use crate::campaign::{fixed_payload, Campaign, IntentFn, Pacing};
use crate::identity::ActorIdentity;
use crate::targets::TargetUniverse;
use cw_netsim::flow::ConnectionIntent;
use cw_netsim::rng::SimRng;
use cw_netsim::time::SimDuration;
use cw_protocols::ProtocolId;
use std::net::Ipv4Addr;

/// Mix entry: a protocol spoken on HTTP ports, its share of campaigns, and
/// whether those campaigns belong to malicious actors (per the GreyNoise
/// reputation oracle; §6 finds the majority of non-TLS unexpected scanners
/// malicious, led by Chinese ASes).
#[derive(Debug, Clone, Copy)]
pub struct UnexpectedMix {
    /// The protocol actually spoken.
    pub protocol: ProtocolId,
    /// Number of campaigns speaking it.
    pub count: usize,
    /// Fraction of those campaigns operated by malicious actors.
    pub malicious_fraction: f64,
}

/// The default 2021 mix (≈15–16% of port-80/8080 scanners overall, once
/// combined with the HTTP-speaking population in `population`).
pub fn mix_2021() -> Vec<UnexpectedMix> {
    vec![
        UnexpectedMix {
            protocol: ProtocolId::Tls,
            count: 28,
            malicious_fraction: 0.5,
        },
        UnexpectedMix {
            protocol: ProtocolId::Telnet,
            count: 2,
            malicious_fraction: 0.8,
        },
        UnexpectedMix {
            protocol: ProtocolId::Sql,
            count: 2,
            malicious_fraction: 0.8,
        },
        UnexpectedMix {
            protocol: ProtocolId::Rtsp,
            count: 1,
            malicious_fraction: 0.8,
        },
        UnexpectedMix {
            protocol: ProtocolId::Smb,
            count: 1,
            malicious_fraction: 0.8,
        },
        UnexpectedMix {
            protocol: ProtocolId::Redis,
            count: 1,
            malicious_fraction: 0.7,
        },
        UnexpectedMix {
            protocol: ProtocolId::Adb,
            count: 1,
            malicious_fraction: 0.7,
        },
    ]
}

/// First payload a campaign speaking `protocol` sends.
pub fn payload_for(protocol: ProtocolId, rng: &mut SimRng, malicious: bool) -> Vec<u8> {
    match protocol {
        ProtocolId::Tls => cw_protocols::tls::build_client_hello(rng.next_u64(), None),
        // Malicious actors follow the handshake with state-altering bytes;
        // the honeypot records the first payload, which for these protocols
        // already carries the exploit marker.
        ProtocolId::Telnet => {
            if malicious {
                crate::exploits::shell_chain("203.0.113.99")
            } else {
                cw_protocols::telnet::build_negotiation(&[1, 3])
            }
        }
        ProtocolId::Sql => cw_protocols::sql::build_prelogin(),
        ProtocolId::Rtsp => cw_protocols::rtsp::build_request("OPTIONS", "rtsp://target/"),
        ProtocolId::Smb => {
            if malicious {
                crate::exploits::smb_trans2()
            } else {
                cw_protocols::smb::build_negotiate()
            }
        }
        ProtocolId::Redis => {
            if malicious {
                crate::exploits::redis_config_set()
            } else {
                cw_protocols::redis::build_command(&["PING"])
            }
        }
        ProtocolId::Adb => cw_protocols::adb::build_connect(),
        ProtocolId::Ssh => cw_protocols::ssh::build_banner("paramiko_2.7"),
        ProtocolId::Ntp => cw_protocols::ntp::build_client_request(),
        ProtocolId::Rdp => cw_protocols::rdp::build_connection_request("probe"),
        ProtocolId::Fox => cw_protocols::fox::build_hello(),
        ProtocolId::Sip => cw_protocols::sip::build_options("probe@target"),
        ProtocolId::Http => crate::exploits::benign_get("unexpected/1.0"),
    }
}

/// Campaigns built from a mix, with the list of (campaign source IPs,
/// malicious?) so the scenario can feed the reputation oracle.
pub struct UnexpectedFleet {
    /// The campaigns.
    pub campaigns: Vec<Campaign>,
    /// (source IP, malicious label) per campaign.
    pub labels: Vec<(Ipv4Addr, bool)>,
}

/// Build the unexpected-protocol fleet.
pub fn build(
    mix: &[UnexpectedMix],
    universe: &TargetUniverse,
    rng: &mut SimRng,
    mut alloc: impl FnMut(usize) -> Vec<Ipv4Addr>,
    asn_picker: crate::zmap::AsnPicker,
) -> UnexpectedFleet {
    let mut campaigns = Vec::new();
    let mut labels = Vec::new();
    for m in mix {
        for i in 0..m.count {
            let mut crng = rng.derive(&format!("unexpected/{}/{}", m.protocol.label(), i));
            let malicious = crng.chance(m.malicious_fraction);
            let (asn, country) = asn_picker(&mut crng);
            let src = alloc(1);
            labels.push((src[0], malicious));
            let identity = ActorIdentity::new(
                &format!("unexpected/{}/{}", m.protocol.label(), i),
                asn,
                &country,
                src,
            );
            let mut ips = universe.sample_services(&mut crng, 0.5, |_| true);
            crng.shuffle(&mut ips);
            let mut targets: Vec<(Ipv4Addr, u16)> = Vec::new();
            for ip in ips {
                targets.push((ip, if crng.chance(0.5) { 80 } else { 8080 }));
            }
            // Only a TLS hello varies per flow (it is the one protocol
            // `payload_for` draws a seed for); every other first payload is
            // the campaign's constant, built once without a draw.
            let protocol = m.protocol;
            let intent: IntentFn = match protocol {
                ProtocolId::Tls => Box::new(move |rng, _, _| {
                    ConnectionIntent::Payload(payload_for(protocol, rng, malicious).into())
                }),
                _ => fixed_payload(payload_for(protocol, &mut crng, malicious)),
            };
            let pacing = Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
            campaigns.push(Campaign::new(identity, crng, targets, pacing, intent));
        }
    }
    UnexpectedFleet { campaigns, labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::deployment::Deployment;

    #[test]
    fn payloads_fingerprint_to_their_protocol() {
        let mut rng = SimRng::seed_from_u64(1);
        for m in mix_2021() {
            let p = payload_for(m.protocol, &mut rng, false);
            assert_eq!(
                cw_protocols::fingerprint(&p),
                Some(m.protocol),
                "benign payload for {}",
                m.protocol
            );
            let p = payload_for(m.protocol, &mut rng, true);
            // Malicious variants must still fingerprint correctly —
            // except the Telnet shell chain, which (realistically) is a raw
            // command blob that LZR cannot attribute.
            if m.protocol != ProtocolId::Telnet {
                assert_eq!(cw_protocols::fingerprint(&p), Some(m.protocol));
            }
        }
    }

    #[test]
    fn fleet_matches_mix_counts() {
        let u = TargetUniverse::from_deployment(Deployment::standard());
        let mut rng = SimRng::seed_from_u64(2);
        let mut next = 0u32;
        let fleet = build(
            &mix_2021(),
            &u,
            &mut rng,
            move |n| {
                let start = next;
                next += n as u32;
                (0..n as u32)
                    .map(|i| Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 3, 0, 0)) + start + i))
                    .collect()
            },
            &mut |_r| (cw_netsim::asn::Asn(9808), "CN".to_string()),
        );
        let expected: usize = mix_2021().iter().map(|m| m.count).sum();
        assert_eq!(fleet.campaigns.len(), expected);
        assert_eq!(fleet.labels.len(), expected);
        // All targets on HTTP-assigned ports.
        for c in &fleet.campaigns {
            assert!(c.remaining() > 0);
        }
    }

    #[test]
    fn malicious_telnet_payload_triggers_rules() {
        let rs = cw_detection::RuleSet::builtin();
        let mut rng = SimRng::seed_from_u64(3);
        let p = payload_for(ProtocolId::Telnet, &mut rng, true);
        assert!(rs.is_malicious(&p, 80));
        let p = payload_for(ProtocolId::Telnet, &mut rng, false);
        assert!(!rs.is_malicious(&p, 80));
    }
}
