//! Tables 7, 10 (and 14, 15): network-type discrimination.
//!
//! Three comparison families:
//!
//! - **Cloud–Cloud** — city-matched GreyNoise provider-region pairs (the
//!   Table 6 matrix), compared with §4.4 median region representatives;
//! - **Cloud–EDU / EDU–EDU** — Honeytrap fleets only (the paper never
//!   compares across collection software); credential characteristics are
//!   uncomputable there (×);
//! - **Telescope–X** — the telescope observes no payloads, so only the
//!   "who" (top ASes per port) axis is comparable (Table 10).
//!
//! Every comparison scans through the caller's [`ScanExec`], and each
//! family's plans come from one builder next to it ([`cloud_cloud_plans`],
//! [`honeytrap_cell_plans`], [`telescope_vs_fleet_plan`]) that both the
//! comparison and the renders' declarations call, so a render reads its
//! prefetched plans. A cloud–cloud cell's per-honeypot frequency scans are
//! a subset of Table 5's plans.

use crate::axes;
use crate::compare::{compare_freqs, CharKind, GroupComparison};
use crate::dataset::TrafficSlice;
use crate::geography::{region_freq_plans, region_freqs};
use crate::query::{Plan, ScanExec};
use cw_honeypot::deployment::{CollectorKind, Deployment, Provider};
use cw_honeypot::telescope::Telescope;
use std::net::Ipv4Addr;

/// A city-matched pair of provider regions (Table 6 rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CityPair {
    /// Shared city/state-level region code.
    pub code: String,
    /// First provider.
    pub a: Provider,
    /// Second provider.
    pub b: Provider,
}

/// All city-matched GreyNoise provider pairs (the Table 6 matrix).
pub fn city_pairs(deployment: &Deployment) -> Vec<CityPair> {
    let regions = deployment.greynoise_provider_regions();
    let mut out = Vec::new();
    for i in 0..regions.len() {
        for j in i + 1..regions.len() {
            let (pa, ra) = &regions[i];
            let (pb, rb) = &regions[j];
            if pa != pb
                && ra.code == rb.code
                && *pa != Provider::HurricaneElectric
                && *pb != Provider::HurricaneElectric
            {
                out.push(CityPair {
                    code: ra.code.clone(),
                    a: *pa,
                    b: *pb,
                });
            }
        }
    }
    out
}

/// One Table 7 cell: a characteristic × slice across a comparison family.
#[derive(Debug, Clone)]
pub struct NetworkCell {
    /// Compared characteristic.
    pub characteristic: CharKind,
    /// Traffic slice.
    pub slice: TrafficSlice,
    /// Number of pairs tested.
    pub n: usize,
    /// Number significantly different.
    pub n_different: usize,
    /// Mean φ over significant pairs.
    pub avg_phi: Option<f64>,
    /// True when the characteristic cannot be observed by the collection
    /// method (the paper's ×).
    pub uncomputable: bool,
}

fn greynoise_region_ips(
    deployment: &Deployment,
    provider: Provider,
    code: &str,
    slice: TrafficSlice,
) -> Vec<Ipv4Addr> {
    let needs_payload = matches!(
        slice,
        TrafficSlice::HttpPort80 | TrafficSlice::HttpAllPorts | TrafficSlice::AnyAll
    );
    deployment
        .vantages
        .iter()
        .filter(|v| {
            v.collector == CollectorKind::GreyNoise
                && v.provider == provider
                && v.region.code == code
                && (!needs_payload || v.payload_ports)
        })
        .map(|v| v.ip)
        .collect()
}

/// The two regions' honeypots of every city pair that can observe
/// `slice` on both sides, in [`city_pairs`] order.
fn city_pair_ips(
    deployment: &Deployment,
    slice: TrafficSlice,
) -> Vec<(Vec<Ipv4Addr>, Vec<Ipv4Addr>)> {
    city_pairs(deployment)
        .iter()
        .map(|p| {
            (
                greynoise_region_ips(deployment, p.a, &p.code, slice),
                greynoise_region_ips(deployment, p.b, &p.code, slice),
            )
        })
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .collect()
}

/// The per-honeypot frequency plans one [`cloud_cloud_cell`] reads.
pub fn cloud_cloud_plans(
    deployment: &Deployment,
    slice: TrafficSlice,
    kind: CharKind,
) -> Vec<Plan> {
    city_pair_ips(deployment, slice)
        .iter()
        .flat_map(|(a, b)| [a, b])
        .flat_map(|ips| region_freq_plans(ips, slice, kind))
        .collect()
}

/// Compare city-matched cloud pairs for one characteristic × slice.
pub fn cloud_cloud_cell(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    slice: TrafficSlice,
    kind: CharKind,
    alpha: f64,
) -> NetworkCell {
    let m = city_pairs(deployment).len().max(1);
    let mut tested = 0;
    let mut different = 0;
    let mut phis = Vec::new();
    for (a_ips, b_ips) in city_pair_ips(deployment, slice) {
        let fa = region_freqs(exec, &a_ips, slice, kind);
        let fb = region_freqs(exec, &b_ips, slice, kind);
        if let Some(cmp) = compare_freqs(kind, &[fa, fb], alpha, m) {
            tested += 1;
            if cmp.significant {
                different += 1;
                phis.push(cmp.effect.phi);
            }
        }
    }
    NetworkCell {
        characteristic: kind,
        slice,
        n: tested,
        n_different: different,
        avg_phi: cw_stats::descriptive::mean(&phis),
        uncomputable: false,
    }
}

/// The Honeytrap fleets used for cloud–EDU / EDU–EDU comparisons.
pub fn honeytrap_fleet_ips(deployment: &Deployment, name: &str) -> Vec<Ipv4Addr> {
    deployment
        .vantages
        .iter()
        .filter(|v| v.id.starts_with(name) && v.collector == CollectorKind::Honeytrap)
        .map(|v| v.ip)
        .collect()
}

/// Honeytrap never observes credentials: the paper's ×.
fn honeytrap_observes(kind: CharKind) -> bool {
    !matches!(kind, CharKind::TopUsername | CharKind::TopPassword)
}

/// The fleet plans a [`honeytrap_cell`] over `pairs` reads: per pair, one
/// plan per fleet (push the fleet down, slice, fold by interned id), in
/// pair order; no plan for a characteristic Honeytrap cannot observe.
pub fn honeytrap_cell_plans(
    deployment: &Deployment,
    pairs: &[(&str, &str)],
    slice: TrafficSlice,
    kind: CharKind,
) -> Vec<Plan> {
    if !honeytrap_observes(kind) {
        return Vec::new();
    }
    pairs
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .map(|fleet| {
            Plan::at(&honeytrap_fleet_ips(deployment, fleet))
                .slice(slice)
                .char_freqs(kind)
        })
        .collect()
}

/// Compare two pooled Honeytrap fleets for one characteristic × slice.
/// Returns `None` when the characteristic is unobservable for Honeytrap
/// (credentials: the paper's ×).
#[allow(clippy::too_many_arguments)]
pub fn honeytrap_pair(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    fleet_a: &str,
    fleet_b: &str,
    slice: TrafficSlice,
    kind: CharKind,
    alpha: f64,
    family: usize,
) -> Option<GroupComparison> {
    let freqs: Vec<_> = honeytrap_cell_plans(deployment, &[(fleet_a, fleet_b)], slice, kind)
        .iter()
        .map(|plan| exec.char_freqs(plan))
        .collect();
    if freqs.is_empty() {
        return None;
    }
    compare_freqs(kind, &freqs, alpha, family)
}

/// The cloud–EDU pair list (geographically matched, §5.2 methodology).
pub const CLOUD_EDU_PAIRS: [(&str, &str); 4] = [
    ("honeytrap/stanford", "honeytrap/aws-west"),
    ("honeytrap/stanford", "honeytrap/google-west"),
    ("honeytrap/merit", "honeytrap/google-east"),
    ("honeytrap/stanford", "honeytrap/google-east"),
];

/// Aggregate a Honeytrap pair family into one Table 7 cell.
pub fn honeytrap_cell(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    pairs: &[(&str, &str)],
    slice: TrafficSlice,
    kind: CharKind,
    alpha: f64,
) -> NetworkCell {
    if !honeytrap_observes(kind) {
        return NetworkCell {
            characteristic: kind,
            slice,
            n: 0,
            n_different: 0,
            avg_phi: None,
            uncomputable: true,
        };
    }
    let m = pairs.len().max(1);
    let mut tested = 0;
    let mut different = 0;
    let mut phis = Vec::new();
    for (a, b) in pairs {
        if let Some(cmp) = honeytrap_pair(exec, deployment, a, b, slice, kind, alpha, m) {
            tested += 1;
            if cmp.significant {
                different += 1;
                phis.push(cmp.effect.phi);
            }
        }
    }
    NetworkCell {
        characteristic: kind,
        slice,
        n: tested,
        n_different: different,
        avg_phi: cw_stats::descriptive::mean(&phis),
        uncomputable: false,
    }
}

/// The fleet-side top-AS plan of one [`telescope_vs_fleet`] comparison.
pub fn telescope_vs_fleet_plan(deployment: &Deployment, fleet: &str, slice: TrafficSlice) -> Plan {
    let ips = honeytrap_fleet_ips(deployment, fleet);
    let ips = if ips.is_empty() {
        // GreyNoise fleets are addressed by block prefix instead.
        deployment
            .vantages
            .iter()
            .filter(|v| v.id.starts_with(fleet))
            .map(|v| v.ip)
            .collect()
    } else {
        ips
    };
    Plan::at(&ips).slice(slice).char_freqs(CharKind::TopAs)
}

/// Table 10: telescope vs honeypot fleets, top-AS axis per port.
///
/// `slice` determines the port (SSH/22, Telnet/23, HTTP/80) or all ports.
/// The telescope's counts by AS number take their labels from the
/// dataset's, as the fleet's do.
pub fn telescope_vs_fleet(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    telescope: &Telescope,
    fleet: &str,
    slice: TrafficSlice,
    alpha: f64,
    family: usize,
) -> Option<GroupComparison> {
    let tel_counts = match slice {
        TrafficSlice::SshPort22 => telescope.asn_freqs_on_port(22),
        TrafficSlice::TelnetPort23 => telescope.asn_freqs_on_port(23),
        TrafficSlice::HttpPort80 => telescope.asn_freqs_on_port(80),
        TrafficSlice::HttpAllPorts | TrafficSlice::AnyAll => telescope.asn_freqs_all(),
    };
    let tel_freqs = axes::label_counts(
        CharKind::TopAs,
        tel_counts.iter().map(|(&asn, &n)| (asn, n)),
        exec.dataset(),
    );
    let plan = telescope_vs_fleet_plan(deployment, fleet, slice);
    let fleet_freqs = exec.char_freqs(&plan);
    compare_freqs(
        CharKind::TopAs,
        &[&tel_freqs, fleet_freqs.as_ref()],
        alpha,
        family,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PlanStore;
    use crate::scenario::{Scenario, ScenarioConfig};
    use cw_scanners::population::ScenarioYear;

    fn scenario() -> Scenario {
        Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(13))
    }

    #[test]
    fn city_pairs_match_the_deployment() {
        let d = Deployment::standard();
        let pairs = city_pairs(d);
        assert!(pairs.len() >= 8, "only {} city pairs", pairs.len());
        assert!(pairs
            .iter()
            .any(|p| p.code == "US-CA" && (p.a == Provider::Aws || p.b == Provider::Aws)));
        // HE is single-region and excluded.
        assert!(pairs
            .iter()
            .all(|p| p.a != Provider::HurricaneElectric && p.b != Provider::HurricaneElectric));
    }

    #[test]
    fn credentials_are_uncomputable_for_honeytrap() {
        let s = scenario();
        // The × cell is decided before any scan: an empty store serves it.
        let store = PlanStore::build(&s.dataset, &[]);
        let cell = honeytrap_cell(
            &ScanExec::with_store(&s.dataset, &store),
            s.deployment,
            &CLOUD_EDU_PAIRS,
            TrafficSlice::SshPort22,
            CharKind::TopUsername,
            0.05,
        );
        assert!(cell.uncomputable);
    }

    #[test]
    fn cloud_cloud_cells_run() {
        let s = scenario();
        let (slice, kind) = (TrafficSlice::SshPort22, CharKind::TopAs);
        let store = PlanStore::build(&s.dataset, &cloud_cloud_plans(s.deployment, slice, kind));
        let cell = cloud_cloud_cell(
            &ScanExec::with_store(&s.dataset, &store),
            s.deployment,
            slice,
            kind,
            0.05,
        );
        assert!(cell.n > 0);
        assert!(cell.n_different <= cell.n);
    }

    #[test]
    fn telescope_comparison_shows_large_difference() {
        // §5.2: "a significantly different set of ASes target telescopes".
        let s = scenario();
        let tel = s.telescope.borrow();
        let fleet = "honeytrap/stanford";
        let plan = telescope_vs_fleet_plan(s.deployment, fleet, TrafficSlice::TelnetPort23);
        let store = PlanStore::build(&s.dataset, &[plan]);
        let cmp = telescope_vs_fleet(
            &ScanExec::with_store(&s.dataset, &store),
            s.deployment,
            &tel,
            fleet,
            TrafficSlice::TelnetPort23,
            0.05,
            5,
        );
        // With the fast scenario the comparison must at least be testable.
        assert!(cmp.is_some());
    }
}
