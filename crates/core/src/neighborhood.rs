//! Table 2 / Table 12: do attackers target neighboring services differently?
//!
//! A *neighborhood* is the set of identical honeypots within one provider
//! region (§4.1, footnote 4). For every neighborhood we compare the
//! honeypots' traffic per characteristic with the §3.3 procedure; the table
//! reports the percentage of neighborhoods whose distributions differ
//! significantly (after Bonferroni correction over all neighborhoods
//! tested) and the average effect size φ among the significant ones.

use crate::compare::{compare_groups, CharKind};
use crate::dataset::{Dataset, TrafficSlice};
use crate::query::{Plan, PlanStore, ScanExec};
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
fn observing_ips(
    deployment: &Deployment,
    ips: &[Ipv4Addr],
    slice: TrafficSlice,
) -> Vec<Ipv4Addr> {
    let needs_payload_ports = matches!(
        slice,
        TrafficSlice::HttpPort80 | TrafficSlice::HttpAllPorts
    );
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

/// The declared plans one slice's neighborhood analysis needs: one
/// per-honeypot classified scan per observing honeypot of every
/// neighborhood with at least two of them. Characteristics share these
/// plans — a slice's events are gathered once and compared many ways — so
/// Table 2's 14 cells dedupe to one plan per (slice, honeypot) pair.
pub fn cell_plans(deployment: &Deployment, slice: TrafficSlice) -> Vec<Plan> {
    let mut plans = Vec::new();
    for (_name, ips) in &neighborhoods(deployment) {
        let ips = observing_ips(deployment, ips, slice);
        if ips.len() < 2 {
            continue;
        }
        plans.extend(ips.iter().map(|&ip| Plan::at(&[ip]).slice(slice).rows()));
    }
    plans
}

/// Analyze one (slice, characteristic) cell across all neighborhoods,
/// through a [`ScanExec`].
pub fn analyze_cell_with(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    slice: TrafficSlice,
    characteristic: CharKind,
    alpha: f64,
) -> NeighborhoodRow {
    let dataset = exec.dataset();
    let hoods = neighborhoods(deployment);
    // First pass: gather testable neighborhoods (for the Bonferroni m).
    let mut groups_per_hood = Vec::new();
    for (_name, ips) in &hoods {
        let ips = observing_ips(deployment, ips, slice);
        if ips.len() < 2 {
            continue;
        }
        // One plan per honeypot: destination pushdown + slice filter.
        let groups: Vec<Vec<crate::dataset::ClassifiedEvent<'_>>> = ips
            .iter()
            .map(|&ip| {
                exec.run(&Plan::at(&[ip]).slice(slice).rows())
                    .into_rows()
                    .into_iter()
                    .map(|i| dataset.event(i))
                    .collect()
            })
            .collect();
        if groups.iter().all(|g| g.len() >= MIN_EVENTS_PER_GROUP) {
            groups_per_hood.push(groups);
        }
    }
    let m = groups_per_hood.len();
    let mut significant = 0usize;
    let mut tested = 0usize;
    let mut phis = Vec::new();
    for groups in &groups_per_hood {
        if let Some(cmp) = compare_groups(characteristic, groups, alpha, m.max(1)) {
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

/// Analyze one (slice, characteristic) cell without prefetched plans —
/// builds a local [`PlanStore`] so the cell's per-honeypot scans still
/// fuse per honeypot domain.
pub fn analyze_cell(
    dataset: &Dataset,
    deployment: &Deployment,
    slice: TrafficSlice,
    characteristic: CharKind,
    alpha: f64,
) -> NeighborhoodRow {
    let store = PlanStore::build(dataset, &cell_plans(deployment, slice));
    analyze_cell_with(
        &ScanExec::with_store(dataset, &store),
        deployment,
        slice,
        characteristic,
        alpha,
    )
}

/// The declared plans behind the full Table 2 grid: the union of
/// [`cell_plans`] over its four slices (characteristics reuse them).
pub fn table2_plans(deployment: &Deployment) -> Vec<Plan> {
    [
        TrafficSlice::SshPort22,
        TrafficSlice::TelnetPort23,
        TrafficSlice::HttpPort80,
        TrafficSlice::HttpAllPorts,
    ]
    .into_iter()
    .flat_map(|slice| cell_plans(deployment, slice))
    .collect()
}

/// The full Table 2 cell list (4 slices × their characteristics), through
/// a [`ScanExec`].
pub fn table2_with(exec: &ScanExec<'_>, deployment: &Deployment) -> Vec<NeighborhoodRow> {
    let mut rows = Vec::new();
    for slice in [TrafficSlice::SshPort22, TrafficSlice::TelnetPort23] {
        for ch in [
            CharKind::TopAs,
            CharKind::FracMalicious,
            CharKind::TopUsername,
            CharKind::TopPassword,
        ] {
            rows.push(analyze_cell_with(exec, deployment, slice, ch, 0.05));
        }
    }
    for slice in [TrafficSlice::HttpPort80, TrafficSlice::HttpAllPorts] {
        for ch in [CharKind::TopAs, CharKind::FracMalicious, CharKind::TopPayload] {
            rows.push(analyze_cell_with(exec, deployment, slice, ch, 0.05));
        }
    }
    rows
}

/// The full Table 2 without prefetched plans: one local [`PlanStore`]
/// fuses the grid's scans to one pass per (slice-observing honeypot).
pub fn table2(dataset: &Dataset, deployment: &Deployment) -> Vec<NeighborhoodRow> {
    let store = PlanStore::build(dataset, &table2_plans(deployment));
    table2_with(&ScanExec::with_store(dataset, &store), deployment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};
    use cw_scanners::population::ScenarioYear;

    #[test]
    fn neighborhood_listing_has_region_granularity() {
        let d = Deployment::standard();
        let hoods = neighborhoods(&d);
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
        let rows = table2(&s.dataset, &s.deployment);
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
