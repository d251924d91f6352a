//! Temporal stability (§3.4, Appendix C): are attacker preferences stable
//! across measurement years?
//!
//! The paper repeats its 2021 analyses on 2020/2022 data and reports that
//! "attackers and scanners broadly exhibit similar preferences between
//! 2020–2022". This module quantifies that claim for two scenario runs:
//! top-AS overlap per region (Jaccard), telescope-overlap trajectory per
//! port, and the stability of the headline phenomena.

use crate::compare::CharKind;
use crate::dataset::TrafficSlice;
use crate::overlap;
use crate::query::{Plan, ScanExec};
use cw_honeypot::deployment::{CollectorKind, Deployment};
use cw_honeypot::telescope::Telescope;
use cw_stats::topk::top_k_of;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Stability metrics between two scenario years.
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// Years compared.
    pub years: (u16, u16),
    /// Mean Jaccard similarity of per-region top-3 scanning ASes.
    pub top_as_jaccard: f64,
    /// Per-port (port, overlap year A, overlap year B) telescope-avoidance
    /// trajectories.
    pub telescope_overlap: Vec<(u16, Option<f64>, Option<f64>)>,
    /// Regions compared.
    pub regions_compared: usize,
}

/// Jaccard similarity of two string sets.
pub fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

/// One year's analysis inputs, borrowed from a live [`crate::Scenario`]
/// or a restored [`crate::bundle::SimBundle`].
#[derive(Clone, Copy)]
pub struct YearView<'a> {
    /// The scenario year this data was measured in.
    pub year: u16,
    /// The caller's scan runner over that year's classified event store.
    pub exec: ScanExec<'a>,
    /// That year's telescope capture.
    pub telescope: &'a Telescope,
}

/// Compare two measurement years (typically the same seed family) against
/// a shared deployment (Table 1 is identical across years). Each year's
/// Table 8 overlap rows come from the caller — the `cw` exhibit context
/// memoizes them per bundle, so the temporal exhibit reuses the rows the
/// Table 8 render already computed.
pub fn stability(
    deployment: &Deployment,
    a: YearView<'_>,
    b: YearView<'_>,
    t8a: &[overlap::OverlapRow],
    t8b: &[overlap::OverlapRow],
) -> StabilityReport {
    // Per-region top-3 ASes on Telnet/23 (the most stable botnet-driven
    // surface), compared across years.
    let regions = deployment.greynoise_provider_regions();
    let mut jaccards = Vec::new();
    for (provider, region) in &regions {
        let ips: Vec<Ipv4Addr> = deployment
            .vantages
            .iter()
            .filter(|v| {
                v.collector == CollectorKind::GreyNoise
                    && v.provider == *provider
                    && v.region == *region
            })
            .map(|v| v.ip)
            .collect();
        let plan = Plan::at(&ips)
            .slice(TrafficSlice::TelnetPort23)
            .char_freqs(CharKind::TopAs);
        let tops = |y: &YearView<'_>| -> BTreeSet<String> {
            top_k_of(&y.exec.char_freqs(&plan), 3)
                .into_iter()
                .map(str::to_owned)
                .collect()
        };
        let ta = tops(&a);
        let tb = tops(&b);
        if !ta.is_empty() || !tb.is_empty() {
            jaccards.push(jaccard(&ta, &tb));
        }
    }

    let telescope_overlap = t8a
        .iter()
        .map(|ra| {
            let rb = t8b.iter().find(|r| r.port == ra.port);
            (ra.port, ra.tel_cloud, rb.and_then(|r| r.tel_cloud))
        })
        .collect();

    StabilityReport {
        years: (a.year, b.year),
        top_as_jaccard: cw_stats::descriptive::mean(&jaccards).unwrap_or(0.0),
        telescope_overlap,
        regions_compared: jaccards.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PlanStore;
    use crate::scenario::ScenarioConfig;
    use cw_scanners::population::ScenarioYear;

    #[test]
    fn jaccard_basics() {
        let a: BTreeSet<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let b: BTreeSet<String> = ["x", "y", "w"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert!((jaccard(&BTreeSet::new(), &BTreeSet::new()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preferences_are_stable_across_years() {
        // §3.4's claim, asserted end-to-end at reduced scale: the same seed
        // family in two years keeps similar top ASes and keeps the SSH <
        // Telnet telescope-overlap ordering.
        let a = crate::Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(3));
        let b = crate::Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2020).with_seed(3));
        let tel_a = a.telescope.borrow();
        let tel_b = b.telescope.borrow();
        // Each year's Table 8 plans are prefetched, as `cw` does; the
        // per-region Telnet scans run standalone.
        let plans = overlap::table8_and_9_plans(a.deployment);
        let store_a = PlanStore::build(&a.dataset, &plans);
        let store_b = PlanStore::build(&b.dataset, &plans);
        let va = YearView {
            year: a.config.year.year(),
            exec: ScanExec::with_store(&a.dataset, &store_a),
            telescope: &tel_a,
        };
        let vb = YearView {
            year: b.config.year.year(),
            exec: ScanExec::with_store(&b.dataset, &store_b),
            telescope: &tel_b,
        };
        let t8a = overlap::table8_and_9(&va.exec, a.deployment, &tel_a).0;
        let t8b = overlap::table8_and_9(&vb.exec, b.deployment, &tel_b).0;
        let r = stability(a.deployment, va, vb, &t8a, &t8b);
        assert_eq!(r.years, (2021, 2020));
        assert!(r.regions_compared > 30);
        assert!(
            r.top_as_jaccard > 0.4,
            "top-AS similarity only {:.2}",
            r.top_as_jaccard
        );
        // Telescope-avoidance ordering stable: port 23 ≥ port 22 both years.
        let get = |port: u16| {
            r.telescope_overlap
                .iter()
                .find(|(p, _, _)| *p == port)
                .cloned()
                .unwrap()
        };
        let (_, t23a, t23b) = get(23);
        let (_, t22a, t22b) = get(22);
        assert!(t23a.unwrap() > t22a.unwrap());
        assert!(t23b.unwrap() > t22b.unwrap());
    }
}
