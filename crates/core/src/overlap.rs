//! Tables 8 and 9: who avoids the telescope.
//!
//! Table 8 computes, per port, the fraction of source IPs that touched at
//! least one cloud (or education) vantage and also sent at least one packet
//! to the telescope on the same port — plus the cloud∩EDU overlap. Table 9
//! repeats the computation for *attacker* IPs (sources with at least one
//! §3.2-malicious event).

use crate::query::{Plan, ScanExec};
use cw_honeypot::deployment::{CollectorKind, Deployment, NetworkKind};
use cw_honeypot::telescope::Telescope;
use cw_protocols::iana::POPULAR_PORTS;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// One Table 8 row.
#[derive(Debug, Clone, Copy)]
pub struct OverlapRow {
    /// Destination port.
    pub port: u16,
    /// |Tel ∩ Cloud| / |Cloud| (None when the cloud set is empty).
    pub tel_cloud: Option<f64>,
    /// |Tel ∩ EDU| / |EDU|.
    pub tel_edu: Option<f64>,
    /// |Cloud ∩ EDU| / |Cloud|.
    pub cloud_edu: Option<f64>,
}

/// One Table 9 row (attacker IPs only).
#[derive(Debug, Clone, Copy)]
pub struct MaliciousOverlapRow {
    /// Destination port.
    pub port: u16,
    /// |Tel ∩ malicious-Cloud| / |malicious-Cloud|.
    pub tel_cloud: Option<f64>,
    /// |Tel ∩ malicious-EDU| / |malicious-EDU| — `None` (×) on ports where
    /// Honeytrap cannot verify maliciousness (credential ports).
    pub tel_edu: Option<f64>,
}

/// Cloud vantage IPs (the GreyNoise fleet — the paper's "440 cloud vantage
/// points").
pub fn cloud_ips(deployment: &Deployment) -> Vec<Ipv4Addr> {
    deployment
        .vantages
        .iter()
        .filter(|v| v.collector == CollectorKind::GreyNoise && v.kind == NetworkKind::Cloud)
        .map(|v| v.ip)
        .collect()
}

/// Education vantage IPs (the Stanford + Merit Honeytrap /26s).
pub fn edu_ips(deployment: &Deployment) -> Vec<Ipv4Addr> {
    deployment
        .vantages
        .iter()
        .filter(|v| v.kind == NetworkKind::Education)
        .map(|v| v.ip)
        .collect()
}

fn overlap_fraction(sources: &BTreeSet<Ipv4Addr>, telescope: &Telescope, port: u16) -> Option<f64> {
    if sources.is_empty() {
        return None;
    }
    let hits = sources
        .iter()
        .filter(|&&s| telescope.saw_source_on_port(s, port))
        .count();
    Some(100.0 * hits as f64 / sources.len() as f64)
}

fn set_overlap(a: &BTreeSet<Ipv4Addr>, b: &BTreeSet<Ipv4Addr>) -> Option<f64> {
    if a.is_empty() {
        return None;
    }
    let hits = a.iter().filter(|s| b.contains(*s)).count();
    Some(100.0 * hits as f64 / a.len() as f64)
}

/// Table 9's port list.
pub const TABLE9_PORTS: [u16; 6] = [23, 2323, 80, 8080, 2222, 22];

/// The four declared plans behind Tables 8 and 9, in fixed order:
/// `[cloud-all, cloud-malicious, edu-all, edu-malicious]`. Both tables
/// group by destination port over the same two fleets — Table 8 over all
/// sources, Table 9 over attacker sources only — so the plans pair up on
/// enumeration domain and the executor fuses them into one pass per fleet.
pub fn table8_and_9_plans(deployment: &Deployment) -> Vec<Plan> {
    let cloud = cloud_ips(deployment);
    let edu = edu_ips(deployment);
    vec![
        Plan::at(&cloud).srcs_by_port(&POPULAR_PORTS),
        Plan::at(&cloud).malicious().srcs_by_port(&TABLE9_PORTS),
        // Honeytrap can only verify maliciousness from payloads: on the
        // credential ports the Table 9 EDU column is the paper's ×.
        Plan::at(&edu).srcs_by_port(&POPULAR_PORTS),
        Plan::at(&edu).malicious().srcs_by_port(&[80, 8080]),
    ]
}

/// Tables 8 and 9 through a [`ScanExec`] — two fused column passes (one
/// per fleet) when a store of [`table8_and_9_plans`] serves the four
/// scans, four standalone passes otherwise, the same four sets either way.
pub fn table8_and_9(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    telescope: &Telescope,
) -> (Vec<OverlapRow>, Vec<MaliciousOverlapRow>) {
    let plans = table8_and_9_plans(deployment);
    let mut sets = plans.iter().map(|p| exec.run(p).into_port_srcs());
    let cloud_sets = [sets.next().unwrap(), sets.next().unwrap()];
    let edu_sets = [sets.next().unwrap(), sets.next().unwrap()];
    let rows8 = POPULAR_PORTS
        .iter()
        .map(|&port| {
            let cloud_srcs = &cloud_sets[0][&port];
            let edu_srcs = &edu_sets[0][&port];
            OverlapRow {
                port,
                tel_cloud: overlap_fraction(cloud_srcs, telescope, port),
                tel_edu: overlap_fraction(edu_srcs, telescope, port),
                cloud_edu: set_overlap(cloud_srcs, edu_srcs),
            }
        })
        .collect();
    let rows9 = TABLE9_PORTS
        .iter()
        .map(|&port| {
            let edu_col = if matches!(port, 80 | 8080) {
                overlap_fraction(&edu_sets[1][&port], telescope, port)
            } else {
                None
            };
            MaliciousOverlapRow {
                port,
                tel_cloud: overlap_fraction(&cloud_sets[1][&port], telescope, port),
                tel_edu: edu_col,
            }
        })
        .collect();
    (rows8, rows9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PlanStore;
    use crate::scenario::{Scenario, ScenarioConfig};
    use cw_scanners::population::ScenarioYear;

    /// Tables 8 and 9 on `s`, through a store of their four plans.
    fn tables(s: &Scenario) -> (Vec<OverlapRow>, Vec<MaliciousOverlapRow>) {
        let store = PlanStore::build(&s.dataset, &table8_and_9_plans(s.deployment));
        let exec = ScanExec::with_store(&s.dataset, &store);
        table8_and_9(&exec, s.deployment, &s.telescope.borrow())
    }

    #[test]
    fn table8_shapes_hold_on_fast_scenario() {
        let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(21));
        let rows = tables(&s).0;
        assert_eq!(rows.len(), 10);
        let get = |p: u16| rows.iter().find(|r| r.port == p).unwrap();
        // The headline shape: Telnet scanners barely avoid the telescope,
        // SSH scanners almost always do.
        let t23 = get(23).tel_cloud.unwrap();
        let t22 = get(22).tel_cloud.unwrap();
        assert!(
            t23 > t22 + 20.0,
            "telnet overlap {t23:.0}% should exceed ssh overlap {t22:.0}%"
        );
        // Cloud∩EDU is high everywhere it is computable.
        for r in &rows {
            if let Some(ce) = r.cloud_edu {
                assert!(ce > 30.0, "port {} cloud∩edu {ce:.0}%", r.port);
            }
        }
    }

    #[test]
    fn table9_malicious_ssh_avoidance() {
        let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(21));
        let rows = tables(&s).1;
        let get = |p: u16| rows.iter().find(|r| r.port == p).unwrap();
        let t23 = get(23).tel_cloud.unwrap();
        let t22 = get(22).tel_cloud.unwrap();
        assert!(t23 > t22, "attackers: telnet {t23:.0}% vs ssh {t22:.0}%");
        // EDU credential ports are uncomputable.
        assert!(get(22).tel_edu.is_none());
        assert!(get(23).tel_edu.is_none());
    }
}
