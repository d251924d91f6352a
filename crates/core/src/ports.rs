//! Tables 11 and 17, plus the §3.2 traffic-composition statistics.
//!
//! §6 methodology: take the three /26 Honeytrap fleets (Stanford, AWS-west,
//! Google-west), fingerprint every first payload on ports 80/8080 with the
//! LZR-style fingerprinter, and split scanners into HTTP-speaking vs
//! not-HTTP-speaking, then label each source with the GreyNoise-style
//! reputation oracle.

use crate::dataset::TrafficSlice;
use crate::network::honeytrap_fleet_ips;
use crate::query::{ObsKind, Plan, ScanExec};
use cw_detection::{ActorLabel, ReputationDb, Verdict};
use cw_honeypot::capture::Observed;
use cw_honeypot::deployment::Deployment;
use cw_protocols::ProtocolId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One Table 11 row: the scanners on a port, split by spoken protocol.
#[derive(Debug, Clone)]
pub struct ProtocolBreakdownRow {
    /// Destination port.
    pub port: u16,
    /// True for the HTTP-speaking row, false for the ~HTTP row.
    pub is_http: bool,
    /// Share of fingerprinted scanners in this row (percent).
    pub pct_of_scanners: f64,
    /// Percent of this row's scanners labeled benign.
    pub pct_benign: f64,
    /// Percent labeled malicious.
    pub pct_malicious: f64,
    /// Distinct scanner IPs in the row.
    pub scanners: usize,
}

/// Per-protocol share of the non-HTTP scanners (the §6 "7% TLS, 0.5%
/// Telnet, …" breakdown).
#[derive(Debug, Clone)]
pub struct UnexpectedShare {
    /// The protocol spoken.
    pub protocol: ProtocolId,
    /// Percent of all fingerprinted scanners on the port.
    pub pct: f64,
}

/// The §6 fleets.
pub fn section6_fleets(deployment: &Deployment) -> Vec<Ipv4Addr> {
    let mut ips = Vec::new();
    for fleet in [
        "honeytrap/stanford",
        "honeytrap/aws-west",
        "honeytrap/google-west",
    ] {
        ips.extend(honeytrap_fleet_ips(deployment, fleet));
    }
    ips
}

/// The one declared plan behind [`protocol_breakdown`] for `port`:
/// fingerprint scanners over the §6 fleets — filter to the port, group by
/// fingerprint, collect distinct sources. The 80 and 8080 plans share the
/// fleet domain, so prefetching both costs one pass instead of two.
pub fn protocol_breakdown_plans(deployment: &Deployment, port: u16) -> Vec<Plan> {
    let ips = section6_fleets(deployment);
    vec![Plan::at(&ips).port(port).srcs_by_fingerprint()]
}

/// Table 11 (and Table 17's left column) for one port, through a
/// [`ScanExec`].
pub fn protocol_breakdown(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    reputation: &ReputationDb,
    port: u16,
) -> (Vec<ProtocolBreakdownRow>, Vec<UnexpectedShare>) {
    let plan = protocol_breakdown_plans(deployment, port)
        .pop()
        .expect("one plan");
    let by_proto = exec.run(&plan).into_fingerprint_srcs();
    let total: usize = by_proto.values().map(|s| s.len()).sum();
    if total == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut http_set = BTreeSet::new();
    let mut other_set = BTreeSet::new();
    let mut shares = Vec::new();
    for (proto, srcs) in &by_proto {
        if *proto == ProtocolId::Http {
            http_set.extend(srcs.iter().copied());
        } else {
            other_set.extend(srcs.iter().copied());
            shares.push(UnexpectedShare {
                protocol: *proto,
                pct: 100.0 * srcs.len() as f64 / total as f64,
            });
        }
    }
    shares.sort_by(|a, b| b.pct.partial_cmp(&a.pct).unwrap());
    let label_split = |set: &BTreeSet<Ipv4Addr>| -> (f64, f64) {
        if set.is_empty() {
            return (0.0, 0.0);
        }
        let benign = set
            .iter()
            .filter(|&&s| reputation.label(s) == ActorLabel::Benign)
            .count();
        let malicious = set
            .iter()
            .filter(|&&s| reputation.label(s) == ActorLabel::Malicious)
            .count();
        (
            100.0 * benign as f64 / set.len() as f64,
            100.0 * malicious as f64 / set.len() as f64,
        )
    };
    let (hb, hm) = label_split(&http_set);
    let (ob, om) = label_split(&other_set);
    let rows = vec![
        ProtocolBreakdownRow {
            port,
            is_http: true,
            pct_of_scanners: 100.0 * http_set.len() as f64 / total as f64,
            pct_benign: hb,
            pct_malicious: hm,
            scanners: http_set.len(),
        },
        ProtocolBreakdownRow {
            port,
            is_http: false,
            pct_of_scanners: 100.0 * other_set.len() as f64 / total as f64,
            pct_benign: ob,
            pct_malicious: om,
            scanners: other_set.len(),
        },
    ];
    (rows, shares)
}

/// The §3.2 composition statistics.
#[derive(Debug, Clone, Copy)]
pub struct CompositionStats {
    /// % of Telnet/23 events that do not attempt login.
    pub telnet_non_auth_pct: f64,
    /// % of SSH/22 events that do not attempt login.
    pub ssh_non_auth_pct: f64,
    /// % of HTTP/80 payloads that are not exploits.
    pub http80_benign_pct: f64,
    /// % of *distinct* normalized HTTP payloads labeled malicious.
    pub distinct_http_malicious_pct: f64,
}

/// The GreyNoise fleet the §3.2 statistics run over.
fn greynoise_ips(deployment: &Deployment) -> Vec<Ipv4Addr> {
    deployment
        .vantages
        .iter()
        .filter(|v| v.collector == cw_honeypot::deployment::CollectorKind::GreyNoise)
        .map(|v| v.ip)
        .collect()
}

/// The seven declared plans behind [`composition_stats`], in fixed order:
/// six counts over the GreyNoise fleet (total and non-auth per login
/// slice, HTTP/80 payloads total and benign) plus one whole-table row scan
/// for the distinct-payload dedup. Fused they cost two passes — one over
/// the fleet, one over the table.
pub fn composition_stats_plans(deployment: &Deployment) -> Vec<Plan> {
    let g = greynoise_ips(deployment);
    vec![
        Plan::at(&g).slice(TrafficSlice::TelnetPort23).count(),
        Plan::at(&g)
            .slice(TrafficSlice::TelnetPort23)
            .not_kind(ObsKind::Credentials)
            .count(),
        Plan::at(&g).slice(TrafficSlice::SshPort22).count(),
        Plan::at(&g)
            .slice(TrafficSlice::SshPort22)
            .not_kind(ObsKind::Credentials)
            .count(),
        Plan::at(&g)
            .slice(TrafficSlice::HttpPort80)
            .kind(ObsKind::Payload)
            .count(),
        Plan::at(&g)
            .slice(TrafficSlice::HttpPort80)
            .kind(ObsKind::Payload)
            .verdict(Verdict::Scanner)
            .count(),
        Plan::scan().fingerprint(ProtocolId::Http).rows(),
    ]
}

/// Compute the §3.2 statistics over the GreyNoise fleet, through a
/// [`ScanExec`].
pub fn composition_stats(exec: &ScanExec<'_>, deployment: &Deployment) -> CompositionStats {
    let dataset = exec.dataset();
    let plans = composition_stats_plans(deployment);
    let count = |p: &Plan| exec.run(p).into_count();

    let pct_non_auth = |total: usize, non_auth: usize| -> f64 {
        if total == 0 {
            return 0.0;
        }
        100.0 * non_auth as f64 / total as f64
    };
    let telnet_non_auth_pct = pct_non_auth(count(&plans[0]), count(&plans[1]));
    let ssh_non_auth_pct = pct_non_auth(count(&plans[2]), count(&plans[3]));

    let payloads = count(&plans[4]);
    let benign = count(&plans[5]);
    let http80_benign_pct = if payloads == 0 {
        0.0
    } else {
        100.0 * benign as f64 / payloads as f64
    };

    // Distinct normalized HTTP payloads anywhere, labeled by the ruleset.
    // Interned ids make the dedup cheap: normalization and key rendering
    // run once per distinct payload id, not once per event. The plan
    // yields rows in table order, so the first (id, port) pair per
    // normalized key is the first one ever captured — order-sensitive.
    let rules = cw_detection::RuleSet::builtin_cached();
    let interner = dataset.interner();
    let mut seen_ids: std::collections::HashSet<cw_netsim::intern::PayloadId> =
        std::collections::HashSet::new();
    let mut distinct: BTreeMap<String, (cw_netsim::intern::PayloadId, u16)> = BTreeMap::new();
    for i in exec.run(&plans[6]).into_rows() {
        if let Observed::Payload(p) = dataset.table().observed()[i] {
            if seen_ids.insert(p) {
                let normalized = cw_protocols::http::normalize(interner.payload(p));
                let key = crate::axes::payload_key(&normalized);
                distinct
                    .entry(key)
                    .or_insert((p, dataset.table().dst_ports()[i]));
            }
        }
    }
    let malicious_distinct = distinct
        .values()
        .filter(|(p, port)| rules.is_malicious(interner.payload(*p), *port))
        .count();
    let distinct_http_malicious_pct = if distinct.is_empty() {
        0.0
    } else {
        100.0 * malicious_distinct as f64 / distinct.len() as f64
    };

    CompositionStats {
        telnet_non_auth_pct,
        ssh_non_auth_pct,
        http80_benign_pct,
        distinct_http_malicious_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PlanStore;
    use crate::scenario::{Scenario, ScenarioConfig};
    use cw_scanners::population::ScenarioYear;

    fn scenario() -> Scenario {
        Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(31))
    }

    #[test]
    fn breakdown_finds_unexpected_protocols() {
        let s = scenario();
        let exec = ScanExec::unplanned(&s.dataset);
        let (rows, shares) = protocol_breakdown(&exec, s.deployment, &s.handles.reputation, 80);
        assert_eq!(rows.len(), 2);
        let http = rows.iter().find(|r| r.is_http).unwrap();
        let other = rows.iter().find(|r| !r.is_http).unwrap();
        assert!(http.pct_of_scanners > other.pct_of_scanners);
        assert!(other.pct_of_scanners > 1.0, "unexpected share too small");
        assert!((http.pct_of_scanners + other.pct_of_scanners - 100.0).abs() < 1e-6);
        // TLS should lead the unexpected protocols (§6).
        assert_eq!(shares.first().map(|s| s.protocol), Some(ProtocolId::Tls));
    }

    #[test]
    fn composition_stats_have_the_paper_shape() {
        let s = scenario();
        let store = PlanStore::build(&s.dataset, &composition_stats_plans(s.deployment));
        let c = composition_stats(&ScanExec::with_store(&s.dataset, &store), s.deployment);
        // Non-trivial non-auth fractions on login ports; the majority of
        // HTTP/80 payloads benign.
        assert!(
            c.ssh_non_auth_pct > 5.0 && c.ssh_non_auth_pct < 80.0,
            "{c:?}"
        );
        assert!(
            c.telnet_non_auth_pct > 5.0 && c.telnet_non_auth_pct < 80.0,
            "{c:?}"
        );
        assert!(c.http80_benign_pct > 50.0, "{c:?}");
        assert!(
            c.distinct_http_malicious_pct > 0.0 && c.distinct_http_malicious_pct < 60.0,
            "{c:?}"
        );
    }
}
