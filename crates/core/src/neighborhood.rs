//! Table 2 / Table 12: do attackers target neighboring services differently?
//!
//! A *neighborhood* is the set of identical honeypots within one provider
//! region (§4.1, footnote 4). For every neighborhood we compare the
//! honeypots' traffic per characteristic with the §3.3 procedure; the table
//! reports the percentage of neighborhoods whose distributions differ
//! significantly (after Bonferroni correction over all neighborhoods
//! tested) and the average effect size φ among the significant ones.

use crate::compare::{compare_freqs, CharKind};
use crate::dataset::TrafficSlice;
use crate::query::{Plan, ScanExec};
use cw_honeypot::deployment::{CollectorKind, Deployment};
use std::net::Ipv4Addr;

/// One row of Table 2: a (slice, characteristic) cell.
#[derive(Debug, Clone)]
pub struct NeighborhoodRow {
    /// Traffic slice.
    pub slice: TrafficSlice,
    /// Compared characteristic.
    pub characteristic: CharKind,
    /// Number of neighborhoods with testable data (the paper's `n`).
    pub n: usize,
    /// Percentage of testable neighborhoods with significantly different
    /// distributions.
    pub pct_different: f64,
    /// Mean φ over the significantly different neighborhoods.
    pub avg_phi: Option<f64>,
}

/// The neighborhoods of a deployment: GreyNoise provider regions, as
/// `(name, honeypot IPs)`. The 256-IP Hurricane Electric /24 contributes a
/// deterministic 8-IP sample (including the Tsunami victim's /24 offset 77)
/// so its test has comparable group counts.
pub fn neighborhoods(deployment: &Deployment) -> Vec<(String, Vec<Ipv4Addr>)> {
    let mut out: Vec<(String, Vec<Ipv4Addr>)> = Vec::new();
    for v in &deployment.vantages {
        if v.collector != CollectorKind::GreyNoise {
            continue;
        }
        let region_id = format!("{}/{}", v.provider.slug(), v.region.code);
        match out.iter_mut().find(|(n, _)| *n == region_id) {
            Some((_, ips)) => ips.push(v.ip),
            None => out.push((region_id, vec![v.ip])),
        }
    }
    // Sample the HE /24 down to 8 honeypots.
    for (name, ips) in &mut out {
        if name.starts_with("he/") && ips.len() > 8 {
            let picks: Vec<usize> = vec![0, 25, 50, 77, 100, 150, 200, 250];
            *ips = picks.into_iter().map(|i| ips[i]).collect();
        }
    }
    out
}

/// The honeypots of a neighborhood that can observe a slice (HTTP slices
/// need the payload ports, which only 2 of 4 GreyNoise IPs expose).
fn observing_ips(deployment: &Deployment, ips: &[Ipv4Addr], slice: TrafficSlice) -> Vec<Ipv4Addr> {
    let needs_payload_ports =
        matches!(slice, TrafficSlice::HttpPort80 | TrafficSlice::HttpAllPorts);
    ips.iter()
        .copied()
        .filter(|ip| {
            if !needs_payload_ports {
                return true;
            }
            deployment
                .vantages
                .iter()
                .any(|v| v.ip == *ip && v.payload_ports)
        })
        .collect()
}

/// Minimum events per honeypot for a neighborhood to be testable — tiny
/// samples make the chi-squared approximation meaningless.
const MIN_EVENTS_PER_GROUP: usize = 8;

/// One honeypot's two scans in a (slice, characteristic) cell: its event
/// count, for the [`MIN_EVENTS_PER_GROUP`] filter, and the
/// characteristic's frequencies — the per-honeypot plan Tables 4, 5 and 7
/// read too.
fn honeypot_plans(ip: Ipv4Addr, slice: TrafficSlice, kind: CharKind) -> (Plan, Plan) {
    let at = Plan::at(&[ip]).slice(slice);
    (at.clone().count(), at.char_freqs(kind))
}

/// The declared plans behind one (slice, characteristic) cell: each
/// observing honeypot's event count and characteristic frequencies, for
/// every neighborhood with at least two. Cells share the count plans,
/// and a store dedupes them.
pub fn cell_plans(deployment: &Deployment, slice: TrafficSlice, kind: CharKind) -> Vec<Plan> {
    let mut plans = Vec::new();
    for (_name, ips) in &neighborhoods(deployment) {
        let ips = observing_ips(deployment, ips, slice);
        if ips.len() < 2 {
            continue;
        }
        for &ip in &ips {
            let (count, freqs) = honeypot_plans(ip, slice, kind);
            plans.push(count);
            plans.push(freqs);
        }
    }
    plans
}

/// Analyze one (slice, characteristic) cell across all neighborhoods,
/// through a [`ScanExec`].
pub fn analyze_cell(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    slice: TrafficSlice,
    characteristic: CharKind,
    alpha: f64,
) -> NeighborhoodRow {
    let hoods = neighborhoods(deployment);
    // First pass: gather testable neighborhoods (for the Bonferroni m).
    let mut groups_per_hood = Vec::new();
    for (_name, ips) in &hoods {
        let ips = observing_ips(deployment, ips, slice);
        if ips.len() < 2 {
            continue;
        }
        let plans: Vec<(Plan, Plan)> = ips
            .iter()
            .map(|&ip| honeypot_plans(ip, slice, characteristic))
            .collect();
        let testable = plans
            .iter()
            .all(|(count, _)| exec.run(count).into_count() >= MIN_EVENTS_PER_GROUP);
        if testable {
            let freqs: Vec<_> = plans
                .iter()
                .map(|(_, freqs)| exec.char_freqs(freqs))
                .collect();
            groups_per_hood.push(freqs);
        }
    }
    let m = groups_per_hood.len();
    let mut significant = 0usize;
    let mut tested = 0usize;
    let mut phis = Vec::new();
    for freqs in &groups_per_hood {
        if let Some(cmp) = compare_freqs(characteristic, freqs, alpha, m.max(1)) {
            tested += 1;
            if cmp.significant {
                significant += 1;
                phis.push(cmp.effect.phi);
            }
        }
    }
    NeighborhoodRow {
        slice,
        characteristic,
        n: tested,
        pct_different: if tested == 0 {
            0.0
        } else {
            100.0 * significant as f64 / tested as f64
        },
        avg_phi: cw_stats::descriptive::mean(&phis),
    }
}

/// Table 2's (slice, characteristic) grid, in row order.
const TABLE2_CELLS: &[(TrafficSlice, CharKind)] = &[
    (TrafficSlice::SshPort22, CharKind::TopAs),
    (TrafficSlice::SshPort22, CharKind::FracMalicious),
    (TrafficSlice::SshPort22, CharKind::TopUsername),
    (TrafficSlice::SshPort22, CharKind::TopPassword),
    (TrafficSlice::TelnetPort23, CharKind::TopAs),
    (TrafficSlice::TelnetPort23, CharKind::FracMalicious),
    (TrafficSlice::TelnetPort23, CharKind::TopUsername),
    (TrafficSlice::TelnetPort23, CharKind::TopPassword),
    (TrafficSlice::HttpPort80, CharKind::TopAs),
    (TrafficSlice::HttpPort80, CharKind::FracMalicious),
    (TrafficSlice::HttpPort80, CharKind::TopPayload),
    (TrafficSlice::HttpAllPorts, CharKind::TopAs),
    (TrafficSlice::HttpAllPorts, CharKind::FracMalicious),
    (TrafficSlice::HttpAllPorts, CharKind::TopPayload),
];

/// The declared plans behind the full Table 2 grid: the union of
/// [`cell_plans`] over its cells.
pub fn table2_plans(deployment: &Deployment) -> Vec<Plan> {
    TABLE2_CELLS
        .iter()
        .flat_map(|&(slice, kind)| cell_plans(deployment, slice, kind))
        .collect()
}

/// The full Table 2 cell list (4 slices × their characteristics), through
/// a [`ScanExec`]. A store of [`table2_plans`] serves every scan, fused
/// to one pass per honeypot.
pub fn table2(exec: &ScanExec<'_>, deployment: &Deployment) -> Vec<NeighborhoodRow> {
    TABLE2_CELLS
        .iter()
        .map(|&(slice, kind)| analyze_cell(exec, deployment, slice, kind, 0.05))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PlanStore;
    use crate::scenario::{Scenario, ScenarioConfig};
    use cw_scanners::population::ScenarioYear;

    #[test]
    fn neighborhood_listing_has_region_granularity() {
        let d = Deployment::standard();
        let hoods = neighborhoods(d);
        // 47 cloud regions + HE.
        assert_eq!(hoods.len(), 48);
        let he = hoods.iter().find(|(n, _)| n.starts_with("he/")).unwrap();
        assert_eq!(he.1.len(), 8);
        let aws_sg = hoods.iter().find(|(n, _)| n == "aws/AP-SG").unwrap();
        assert_eq!(aws_sg.1.len(), 4);
    }

    #[test]
    fn table2_runs_on_a_fast_scenario() {
        let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(3));
        let store = PlanStore::build(&s.dataset, &table2_plans(s.deployment));
        let rows = table2(&ScanExec::with_store(&s.dataset, &store), s.deployment);
        assert_eq!(rows.len(), 14);
        for r in &rows {
            assert!(r.pct_different >= 0.0 && r.pct_different <= 100.0);
            if let Some(phi) = r.avg_phi {
                assert!((0.0..=1.0).contains(&phi));
            }
        }
        // The SSH top-AS cell must have found testable neighborhoods.
        let ssh_as = &rows[0];
        assert_eq!(ssh_as.characteristic, CharKind::TopAs);
        assert!(ssh_as.n > 5, "only {} testable neighborhoods", ssh_as.n);
    }
}
