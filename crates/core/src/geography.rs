//! Tables 4, 5 (and their 2020 variants 13, 16): geographic discrimination.
//!
//! Regions are compared per provider. Each region's representative
//! frequency map is the §4.4 **median across its honeypots** (damping
//! single-honeypot anomalies), and the comparison is the §3.3 top-3
//! chi-squared procedure with Bonferroni correction over all pairs tested
//! within an analysis cell.

use crate::compare::{compare_freqs, median_freqs, CharKind};
use crate::dataset::TrafficSlice;
use crate::query::{Plan, ScanExec};
use cw_honeypot::deployment::{CollectorKind, Deployment, Provider};
use cw_netsim::geo::{classify_pair, Region, RegionPairKind};
use cw_stats::topk::Freqs;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// (provider, region) → honeypot IPs able to observe a slice.
fn provider_region_ips(
    deployment: &Deployment,
    provider: Provider,
    slice: TrafficSlice,
) -> Vec<(Region, Vec<Ipv4Addr>)> {
    let needs_payload = matches!(
        slice,
        TrafficSlice::HttpPort80 | TrafficSlice::HttpAllPorts | TrafficSlice::AnyAll
    );
    let mut out: Vec<(Region, Vec<Ipv4Addr>)> = Vec::new();
    for v in &deployment.vantages {
        if v.collector != CollectorKind::GreyNoise || v.provider != provider {
            continue;
        }
        if needs_payload && !v.payload_ports {
            continue;
        }
        match out.iter_mut().find(|(r, _)| *r == v.region) {
            Some((_, ips)) => ips.push(v.ip),
            None => out.push((v.region.clone(), vec![v.ip])),
        }
    }
    out
}

/// The declared per-honeypot frequency plans behind one [`region_freqs`]
/// call: the plan shape Tables 2, 4, 5 and 7 share.
pub(crate) fn region_freq_plans(
    ips: &[Ipv4Addr],
    slice: TrafficSlice,
    kind: CharKind,
) -> Vec<Plan> {
    ips.iter()
        .map(|&ip| Plan::at(&[ip]).slice(slice).char_freqs(kind))
        .collect()
}

/// The §4.4 region-representative frequency map, through a [`ScanExec`]:
/// median across honeypots, whose maps the store lends.
pub fn region_freqs(
    exec: &ScanExec<'_>,
    ips: &[Ipv4Addr],
    slice: TrafficSlice,
    kind: CharKind,
) -> Freqs {
    let per_honeypot: Vec<_> = region_freq_plans(ips, slice, kind)
        .iter()
        .map(|p| exec.char_freqs(p))
        .collect();
    median_freqs(&per_honeypot)
}

/// One Table 4 cell: a provider's most-different region for one
/// characteristic × slice.
#[derive(Debug, Clone)]
pub struct MostDifferentRegion {
    /// Compared characteristic.
    pub characteristic: CharKind,
    /// Traffic slice.
    pub slice: TrafficSlice,
    /// Provider analyzed.
    pub provider: Provider,
    /// The region with the most significant deviations, if any pair was
    /// significant.
    pub region: Option<String>,
    /// Mean φ over that region's significant pairs.
    pub avg_phi: Option<f64>,
}

/// Table 4: for each provider × characteristic × slice, the region whose
/// traffic deviates most from the provider's other regions — through a
/// [`ScanExec`].
pub fn most_different_region(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    provider: Provider,
    slice: TrafficSlice,
    kind: CharKind,
    alpha: f64,
) -> MostDifferentRegion {
    let regions = provider_region_ips(deployment, provider, slice);
    let freqs: Vec<Freqs> = regions
        .iter()
        .map(|(_, ips)| region_freqs(exec, ips, slice, kind))
        .collect();
    let n = freqs.len();
    let m = n.saturating_sub(1).max(1) * n / 2; // all pairs
    let mut sig_phis: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..n {
        for j in i + 1..n {
            if let Some(cmp) = compare_freqs(kind, &[&freqs[i], &freqs[j]], alpha, m.max(1)) {
                if cmp.significant {
                    sig_phis
                        .entry(regions[i].0.code.clone())
                        .or_default()
                        .push(cmp.effect.phi);
                    sig_phis
                        .entry(regions[j].0.code.clone())
                        .or_default()
                        .push(cmp.effect.phi);
                }
            }
        }
    }
    let best = sig_phis
        .iter()
        .max_by(|a, b| {
            a.1.len()
                .cmp(&b.1.len())
                .then_with(|| {
                    let am = cw_stats::descriptive::mean(a.1).unwrap_or(0.0);
                    let bm = cw_stats::descriptive::mean(b.1).unwrap_or(0.0);
                    am.partial_cmp(&bm).unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| b.0.cmp(a.0))
        })
        .map(|(code, phis)| (code.clone(), cw_stats::descriptive::mean(phis).unwrap()));
    MostDifferentRegion {
        characteristic: kind,
        slice,
        provider,
        region: best.as_ref().map(|(c, _)| c.clone()),
        avg_phi: best.map(|(_, p)| p),
    }
}

/// Table 4's (characteristic, slice) cell grid.
const TABLE4_CELLS: &[(CharKind, TrafficSlice)] = &[
    (CharKind::TopAs, TrafficSlice::SshPort22),
    (CharKind::TopAs, TrafficSlice::TelnetPort23),
    (CharKind::TopAs, TrafficSlice::HttpPort80),
    (CharKind::TopAs, TrafficSlice::HttpAllPorts),
    (CharKind::TopUsername, TrafficSlice::SshPort22),
    (CharKind::TopUsername, TrafficSlice::TelnetPort23),
    (CharKind::TopPassword, TrafficSlice::TelnetPort23),
    (CharKind::TopPayload, TrafficSlice::HttpPort80),
    (CharKind::TopPayload, TrafficSlice::HttpAllPorts),
    (CharKind::FracMalicious, TrafficSlice::SshPort22),
    (CharKind::FracMalicious, TrafficSlice::TelnetPort23),
    (CharKind::FracMalicious, TrafficSlice::AnyAll),
];

/// The declared plans behind the full Table 4 grid: every provider ×
/// region × honeypot frequency scan of every cell (the store dedupes the
/// repeats and fuses per honeypot domain).
pub fn table4_plans(deployment: &Deployment) -> Vec<Plan> {
    let providers = [Provider::Aws, Provider::Google, Provider::Linode];
    let mut plans = Vec::new();
    for &(kind, slice) in TABLE4_CELLS {
        for provider in providers {
            for (_region, ips) in provider_region_ips(deployment, provider, slice) {
                plans.extend(region_freq_plans(&ips, slice, kind));
            }
        }
    }
    plans
}

/// The full Table 4 grid for AWS / Google / Linode, through a
/// [`ScanExec`]. A store of [`table4_plans`] serves every scan, fused to
/// one pass per honeypot.
pub fn table4(exec: &ScanExec<'_>, deployment: &Deployment) -> Vec<MostDifferentRegion> {
    let providers = [Provider::Aws, Provider::Google, Provider::Linode];
    let mut out = Vec::new();
    for &(kind, slice) in TABLE4_CELLS {
        for provider in providers {
            out.push(most_different_region(
                exec, deployment, provider, slice, kind, 0.05,
            ));
        }
    }
    out
}

/// One Table 5 cell: % similar pairs within a geographic bucket.
#[derive(Debug, Clone)]
pub struct SimilarityCell {
    /// Compared characteristic.
    pub characteristic: CharKind,
    /// Traffic slice.
    pub slice: TrafficSlice,
    /// Geographic bucket.
    pub bucket: RegionPairKind,
    /// Number of pairs tested.
    pub n: usize,
    /// Percentage of pairs *not* significantly different.
    pub pct_similar: f64,
}

/// Table 5's provider list (Table 4's three plus Azure).
const TABLE5_PROVIDERS: [Provider; 4] = [
    Provider::Aws,
    Provider::Google,
    Provider::Linode,
    Provider::Azure,
];

/// The declared plans behind one Table 5 (slice, characteristic) cell.
pub fn table5_plans(deployment: &Deployment, slice: TrafficSlice, kind: CharKind) -> Vec<Plan> {
    let mut plans = Vec::new();
    for provider in TABLE5_PROVIDERS {
        for (_region, ips) in provider_region_ips(deployment, provider, slice) {
            plans.extend(region_freq_plans(&ips, slice, kind));
        }
    }
    plans
}

/// Table 5: similarity of same-provider region pairs, bucketed into
/// within-US / within-EU / within-APAC / intercontinental — through a
/// [`ScanExec`]. A store of the cell's [`table5_plans`] serves every scan.
pub fn table5(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    slice: TrafficSlice,
    kind: CharKind,
) -> Vec<SimilarityCell> {
    let providers = TABLE5_PROVIDERS;
    // Every region's representative map, once, and all same-provider
    // pairs with their bucket, as indices into `freqs`.
    struct Pair {
        bucket: RegionPairKind,
        a: usize,
        b: usize,
    }
    let mut freqs: Vec<Freqs> = Vec::new();
    let mut pairs: Vec<Pair> = Vec::new();
    for provider in providers {
        let regions = provider_region_ips(deployment, provider, slice);
        let first = freqs.len();
        freqs.extend(
            regions
                .iter()
                .map(|(_, ips)| region_freqs(exec, ips, slice, kind)),
        );
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                pairs.push(Pair {
                    bucket: classify_pair(&regions[i].0, &regions[j].0),
                    a: first + i,
                    b: first + j,
                });
            }
        }
    }
    let m = pairs.len();
    let mut per_bucket: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    let bucket_key = |b: RegionPairKind| match b {
        RegionPairKind::WithinUs => "US",
        RegionPairKind::WithinEu => "EU",
        RegionPairKind::WithinApac => "APAC",
        RegionPairKind::Intercontinental => "Intercontinental",
        RegionPairKind::OtherSameContinent => "Intercontinental",
    };
    let mut bucket_of: BTreeMap<&'static str, RegionPairKind> = BTreeMap::new();
    for p in &pairs {
        let key = bucket_key(p.bucket);
        bucket_of.entry(key).or_insert(match key {
            "US" => RegionPairKind::WithinUs,
            "EU" => RegionPairKind::WithinEu,
            "APAC" => RegionPairKind::WithinApac,
            _ => RegionPairKind::Intercontinental,
        });
        let entry = per_bucket.entry(key).or_insert((0, 0));
        if let Some(cmp) = compare_freqs(kind, &[&freqs[p.a], &freqs[p.b]], 0.05, m.max(1)) {
            entry.0 += 1;
            if !cmp.significant {
                entry.1 += 1;
            }
        }
    }
    per_bucket
        .into_iter()
        .map(|(key, (tested, similar))| SimilarityCell {
            characteristic: kind,
            slice,
            bucket: bucket_of[key],
            n: tested,
            pct_similar: if tested == 0 {
                100.0
            } else {
                100.0 * similar as f64 / tested as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PlanStore;
    use crate::scenario::{Scenario, ScenarioConfig};
    use cw_scanners::population::ScenarioYear;

    fn scenario() -> Scenario {
        Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(9))
    }

    #[test]
    fn table4_has_full_grid() {
        let s = scenario();
        let store = PlanStore::build(&s.dataset, &table4_plans(s.deployment));
        let rows = table4(&ScanExec::with_store(&s.dataset, &store), s.deployment);
        assert_eq!(rows.len(), 12 * 3);
        // Every cell with a region also carries a φ.
        for r in &rows {
            assert_eq!(r.region.is_some(), r.avg_phi.is_some());
        }
    }

    #[test]
    fn table5_buckets_cover_the_paper_grouping() {
        let s = scenario();
        let (slice, kind) = (TrafficSlice::SshPort22, CharKind::TopAs);
        let store = PlanStore::build(&s.dataset, &table5_plans(s.deployment, slice, kind));
        let exec = ScanExec::with_store(&s.dataset, &store);
        let cells = table5(&exec, s.deployment, slice, kind);
        let buckets: Vec<RegionPairKind> = cells.iter().map(|c| c.bucket).collect();
        assert!(buckets.contains(&RegionPairKind::WithinUs));
        assert!(buckets.contains(&RegionPairKind::WithinApac));
        assert!(buckets.contains(&RegionPairKind::Intercontinental));
        for c in &cells {
            assert!((0.0..=100.0).contains(&c.pct_similar));
        }
    }

    #[test]
    fn region_freqs_uses_median() {
        let s = scenario();
        // The Linode AP-SG region hosts the Axtel flood on one honeypot:
        // the median representative must not contain Axtel's AS volume at
        // flood scale.
        let regions = provider_region_ips(s.deployment, Provider::Linode, TrafficSlice::SshPort22);
        let sg = regions.iter().find(|(r, _)| r.code == "AP-SG").unwrap();
        let (slice, kind) = (TrafficSlice::SshPort22, CharKind::TopAs);
        let plans = region_freq_plans(&sg.1, slice, kind);
        let store = PlanStore::build(&s.dataset, &plans);
        let exec = ScanExec::with_store(&s.dataset, &store);
        let med = region_freqs(&exec, &sg.1, slice, kind);
        let axtel = med.get("AS6503").copied().unwrap_or(0);
        // Per-honeypot raw counts on the flooded honeypot are far larger.
        let flooded: u64 = plans
            .iter()
            .map(|plan| {
                let freqs = exec.run(plan).into_char_freqs();
                freqs.get("AS6503").copied().unwrap_or(0)
            })
            .max()
            .unwrap();
        assert!(
            flooded > axtel * 5 || flooded > 50,
            "flood {flooded} vs median {axtel}"
        );
    }
}
