//! The methodology ablations: what the paper's statistical machinery buys.
//!
//! Each render is a byte-exact port of the retired single-purpose binary
//! of the same name.

use super::{Exhibit, ExhibitCx, Need, PlanRequest};
use crate::compare::{characteristic_table, compare_freqs, median_freqs, CharKind};
use crate::dataset::TrafficSlice;
use crate::neighborhood::neighborhoods;
use crate::query::Plan;
use crate::report::{header_str, paper_note_str, TextTable};
use cw_honeypot::deployment::{CollectorKind, Deployment, Provider};
use cw_scanners::population::ScenarioYear;
use cw_stats::topk::Freqs;
use cw_stats::{bonferroni_alpha, chi_squared_from_table, cramers_v, top_k_union_table, TopKSpec};
use std::net::Ipv4Addr;

const NEEDS: &[Need] = &[Need::Year(ScenarioYear::Y2021)];

/// One per-honeypot characteristic scan: the shape every ablation's
/// declared plans share with the Table 2 grid, so an `all`-style run
/// serves them from the same fused prefetch.
fn char_plan(ip: Ipv4Addr, slice: TrafficSlice, kind: CharKind) -> Plan {
    Plan::at(&[ip]).slice(slice).char_freqs(kind)
}

/// Ablation: the §4.4 median filter.
///
/// Without the filter, the Axtel flood on one Linode Singapore honeypot
/// makes the *region* look wildly different; the median representative
/// removes the single-honeypot anomaly.
pub struct AblationMedian;

/// Linode's GreyNoise honeypots grouped per region, in vantage order.
fn linode_regions(d: &Deployment) -> Vec<(String, Vec<Ipv4Addr>)> {
    let mut regions: Vec<(String, Vec<Ipv4Addr>)> = Vec::new();
    for v in &d.vantages {
        if v.provider != Provider::Linode || v.collector != CollectorKind::GreyNoise {
            continue;
        }
        match regions.iter_mut().find(|(c, _)| *c == v.region.code) {
            Some((_, ips)) => ips.push(v.ip),
            None => regions.push((v.region.code.clone(), vec![v.ip])),
        }
    }
    regions
}

impl Exhibit for AblationMedian {
    fn name(&self) -> &'static str {
        "ablation_median"
    }
    fn title(&self) -> &'static str {
        "§4.4 median filtering vs naive pooling"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        PlanRequest::all_for(
            NEEDS[0],
            linode_regions(Deployment::standard())
                .iter()
                .flat_map(|(_, ips)| ips.iter().copied())
                .map(|ip| char_plan(ip, TrafficSlice::SshPort22, CharKind::TopAs))
                .collect(),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let d = Deployment::standard();
        let mut out =
            header_str("Ablation: §4.4 median filtering vs naive pooling (Linode SSH/22 Top-AS)");
        out.push_str(&paper_note_str(
            "the Axtel (AS6503) flood hits one of four Linode AP-SG honeypots with ~3 orders of \
             magnitude more IPs (§4.1); naive pooling attributes it to the whole region",
        ));

        // Group Linode honeypots per region.
        let regions = linode_regions(d);
        let exec = cx.exec(NEEDS[0]);
        let rep = |ips: &[Ipv4Addr], use_median: bool| -> Freqs {
            let per: Vec<_> = ips
                .iter()
                .map(|&ip| {
                    exec.char_freqs(&char_plan(ip, TrafficSlice::SshPort22, CharKind::TopAs))
                })
                .collect();
            if use_median {
                median_freqs(&per)
            } else {
                let mut pooled = Freqs::new();
                for m in &per {
                    for (k, v) in m.iter() {
                        *pooled.entry(k.clone()).or_insert(0) += v;
                    }
                }
                pooled
            }
        };

        let sg = regions
            .iter()
            .find(|(c, _)| c == "AP-SG")
            .expect("Linode AP-SG exists");
        let others: Vec<&(String, Vec<Ipv4Addr>)> =
            regions.iter().filter(|(c, _)| c != "AP-SG").collect();

        let mut t = TextTable::new(&["Other region", "naive phi", "sig?", "median phi", "sig?"]);
        let m = others.len();
        for (code, ips) in &others {
            let mut row = vec![code.clone()];
            for use_median in [false, true] {
                let a = rep(&sg.1, use_median);
                let b = rep(ips, use_median);
                match compare_freqs(CharKind::TopAs, &[&a, &b], 0.05, m) {
                    Some(cmp) => {
                        row.push(format!("{:.2}", cmp.effect.phi));
                        row.push(if cmp.significant { "yes" } else { "no" }.into());
                    }
                    None => {
                        row.push("-".into());
                        row.push("-".into());
                    }
                }
            }
            t.row(row);
        }
        out.push_str(&format!("{}\n", t.render()));
        // The flood itself, for context.
        let per_honeypot: Vec<u64> =
            sg.1.iter()
                .map(|&ip| {
                    *exec
                        .char_freqs(&char_plan(ip, TrafficSlice::SshPort22, CharKind::TopAs))
                        .get("AS6503")
                        .unwrap_or(&0)
                })
                .collect();
        out.push_str(&format!(
            "AS6503 (Axtel) SSH events per AP-SG honeypot: {per_honeypot:?} — the anomaly the \
             median filter suppresses\n"
        ));
        out
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Ablation: why top-3? (§3.3 footnote 2)
///
/// Re-runs the Table 2 SSH/22 Top-AS comparison with k ∈ {1, 3, 5, 10} and
/// reports how the union size (degrees of freedom) and the significant
/// fraction move.
pub struct AblationTopk;

impl Exhibit for AblationTopk {
    fn name(&self) -> &'static str {
        "ablation_topk"
    }
    fn title(&self) -> &'static str {
        "Top-k choice for the §3.3 comparison"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        PlanRequest::all_for(
            NEEDS[0],
            neighborhoods(Deployment::standard())
                .iter()
                .flat_map(|(_, ips)| ips.iter().copied())
                .map(|ip| char_plan(ip, TrafficSlice::SshPort22, CharKind::TopAs))
                .collect(),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let d = Deployment::standard();
        let mut out =
            header_str("Ablation: top-k choice for the §3.3 comparison (SSH/22, Top ASes)");
        out.push_str(&paper_note_str(
            "top-5 inflates near-zero frequency variables by >200% vs top-3, biasing the test \
             toward small distributional differences — expect union size (df) to balloon and the \
             significant fraction to drift as k grows",
        ));

        let hoods = neighborhoods(d);
        let exec = cx.exec(NEEDS[0]);
        let mut t = TextTable::new(&[
            "k",
            "avg union categories",
            "avg near-zero cells",
            "% neighborhoods dif",
            "avg phi (sig)",
        ]);
        for k in [1usize, 3, 5, 10] {
            let mut tested = 0usize;
            let mut sig = 0usize;
            let mut union_sizes = Vec::new();
            let mut near_zero = Vec::new();
            let mut phis = Vec::new();
            // First pass for the Bonferroni family size.
            let mut tables = Vec::new();
            for (_name, ips) in &hoods {
                let groups: Vec<_> = ips
                    .iter()
                    .map(|&ip| {
                        exec.char_freqs(&char_plan(ip, TrafficSlice::SshPort22, CharKind::TopAs))
                    })
                    .collect();
                if groups.iter().any(|g| g.values().sum::<u64>() < 8) {
                    continue;
                }
                let table = top_k_union_table(&groups, TopKSpec { k });
                union_sizes.push(table.n_cols() as f64);
                let nz = table.counts.iter().flatten().filter(|&&c| c <= 2).count() as f64;
                near_zero.push(nz);
                tables.push(table);
            }
            let m = tables.len().max(1);
            let alpha = bonferroni_alpha(0.05, m);
            for table in &tables {
                if let Some(r) = chi_squared_from_table(table) {
                    tested += 1;
                    if r.p_value < alpha {
                        sig += 1;
                        phis.push(cramers_v(&r).phi);
                    }
                }
            }
            t.row(vec![
                k.to_string(),
                format!("{:.1}", mean(&union_sizes)),
                format!("{:.1}", mean(&near_zero)),
                format!("{:.0}%", 100.0 * sig as f64 / tested.max(1) as f64),
                format!("{:.2}", mean(&phis)),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Ablation: Bonferroni correction (§3.3, §2).
///
/// Counts how many Table 2 neighborhood comparisons look "different" at raw
/// p < 0.05 versus after family-wise correction — the gap is the
/// false-conclusion budget of uncorrected honeypot comparisons.
pub struct AblationBonferroni;

/// The Bonferroni ablation's (slice, characteristic) cells, in render
/// order.
const BONFERRONI_CELLS: &[(TrafficSlice, CharKind)] = &[
    (TrafficSlice::SshPort22, CharKind::TopAs),
    (TrafficSlice::SshPort22, CharKind::TopUsername),
    (TrafficSlice::TelnetPort23, CharKind::TopAs),
    (TrafficSlice::TelnetPort23, CharKind::TopPassword),
    (TrafficSlice::HttpPort80, CharKind::TopPayload),
    (TrafficSlice::HttpAllPorts, CharKind::TopPayload),
];

impl Exhibit for AblationBonferroni {
    fn name(&self) -> &'static str {
        "ablation_bonferroni"
    }
    fn title(&self) -> &'static str {
        "Raw p<0.05 vs Bonferroni-corrected comparisons"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        let d = Deployment::standard();
        let mut plans = Vec::new();
        for &(slice, kind) in BONFERRONI_CELLS {
            for (_name, ips) in &neighborhoods(d) {
                plans.extend(ips.iter().map(|&ip| char_plan(ip, slice, kind)));
            }
        }
        PlanRequest::all_for(NEEDS[0], plans)
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let d = Deployment::standard();
        let mut out =
            header_str("Ablation: raw p<0.05 vs Bonferroni-corrected (Table 2 comparisons)");
        out.push_str(&paper_note_str(
            "uncorrected comparisons overstate differences; the paper corrects across all \
             vantage-point comparisons (often shrinking p-value thresholds by orders of magnitude)",
        ));

        let hoods = neighborhoods(d);
        let exec = cx.exec(NEEDS[0]);
        let cells: &[(TrafficSlice, CharKind)] = BONFERRONI_CELLS;
        let mut t = TextTable::new(&[
            "Slice",
            "Characteristic",
            "n",
            "raw p<0.05",
            "Bonferroni",
            "would-be false positives",
        ]);
        for &(slice, kind) in cells {
            let mut p_values = Vec::new();
            for (_name, ips) in &hoods {
                // Keep only honeypots that can observe the slice (HTTP ports
                // live on 2 of the 4 GreyNoise IPs per region).
                let groups: Vec<_> = ips
                    .iter()
                    .map(|&ip| exec.char_freqs(&char_plan(ip, slice, kind)))
                    .filter(|g| g.values().sum::<u64>() >= 8)
                    .collect();
                if groups.len() < 2 {
                    continue;
                }
                let table = characteristic_table(kind, &groups);
                if let Some(r) = chi_squared_from_table(&table) {
                    p_values.push(r.p_value);
                }
            }
            let n = p_values.len();
            let raw = p_values.iter().filter(|&&p| p < 0.05).count();
            let corrected_alpha = bonferroni_alpha(0.05, n.max(1));
            let corrected = p_values.iter().filter(|&&p| p < corrected_alpha).count();
            t.row(vec![
                slice.label().to_string(),
                kind.label().to_string(),
                n.to_string(),
                format!("{raw} ({:.0}%)", 100.0 * raw as f64 / n.max(1) as f64),
                format!(
                    "{corrected} ({:.0}%)",
                    100.0 * corrected as f64 / n.max(1) as f64
                ),
                (raw - corrected).to_string(),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out.push_str(
            "Every 'would-be false positive' is a neighborhood a no-statistics study would have \
             reported as an attacker preference.\n",
        );
        out
    }
}
