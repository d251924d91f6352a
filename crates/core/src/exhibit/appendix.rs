//! The Appendix C exhibits: other-year re-runs and cross-year stability.
//!
//! Each render is a byte-exact port of the retired single-purpose binary
//! of the same name. Single-year appendix exhibits default to their
//! appendix year but follow `--year`; cross-year exhibits (Table 14,
//! temporal stability) pin their years.

use super::{BreakdownPort, Exhibit, ExhibitCx, ExhibitOptions, Need, PlanRequest, SimBundle};
use crate::compare::CharKind;
use crate::dataset::TrafficSlice;
use crate::network::{cloud_cloud_cell, honeytrap_cell, NetworkCell, CLOUD_EDU_PAIRS};
use crate::report::{header_str, paper_note_str, phi_value, TextTable};
use crate::temporal::{stability_with, YearView};
use cw_honeypot::deployment::Deployment;
use cw_netsim::geo::RegionPairKind;
use cw_scanners::population::ScenarioYear;

/// Table 12 (Appendix C.1): neighborhood differences on 2020 data.
pub struct Table12;

impl Exhibit for Table12 {
    fn name(&self) -> &'static str {
        "table12"
    }
    fn title(&self) -> &'static str {
        "% neighborhoods with different traffic (2020)"
    }
    fn needs(&self) -> &'static [Need] {
        &[Need::Year(ScenarioYear::Y2020)]
    }
    fn plans(&self, _opts: &ExhibitOptions) -> Vec<PlanRequest> {
        PlanRequest::all_for(
            self.needs()[0],
            crate::neighborhood::table2_plans(&Deployment::standard()),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str("Table 12: % neighborhoods with different traffic (2020)");
        out.push_str(&paper_note_str(
            "2020 shows the same phenomenon as 2021 with shifted magnitudes: SSH/22 AS 73% (0.23), \
             FracMal 60% (0.10), User 74% (0.20), Pwd 19% (0.24); Telnet/23 AS 43% (0.38); \
             HTTP/80 AS 2% (0.58); HTTP/All AS 61% (0.29), Payload 64% (0.50)",
        ));
        let rows = cx.table2_rows(self.needs()[0]);
        let mut t =
            TextTable::new(&["Slice", "Characteristic", "n", "% dif neighborhoods", "Avg phi"]);
        for r in rows {
            t.row(vec![
                r.slice.label().to_string(),
                r.characteristic.label().to_string(),
                r.n.to_string(),
                format!("{:.0}%", r.pct_different),
                phi_value(r.avg_phi, 1),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Table 13 (Appendix C.3): region-pair similarity on 2020 data.
pub struct Table13;

/// Table 13's per-slice characteristic lists, in render order.
const TABLE13_CELLS: &[(TrafficSlice, &[CharKind])] = &[
    (
        TrafficSlice::SshPort22,
        &[CharKind::TopAs, CharKind::FracMalicious, CharKind::TopUsername, CharKind::TopPassword],
    ),
    (
        TrafficSlice::TelnetPort23,
        &[CharKind::TopAs, CharKind::FracMalicious, CharKind::TopUsername, CharKind::TopPassword],
    ),
    (
        TrafficSlice::HttpPort80,
        &[CharKind::TopAs, CharKind::FracMalicious, CharKind::TopPayload],
    ),
    (
        TrafficSlice::HttpAllPorts,
        &[CharKind::TopAs, CharKind::FracMalicious, CharKind::TopPayload],
    ),
];

impl Exhibit for Table13 {
    fn name(&self) -> &'static str {
        "table13"
    }
    fn title(&self) -> &'static str {
        "% similar pairs of regions per bucket (2020)"
    }
    fn needs(&self) -> &'static [Need] {
        &[Need::Year(ScenarioYear::Y2020)]
    }
    fn plans(&self, _opts: &ExhibitOptions) -> Vec<PlanRequest> {
        let d = Deployment::standard();
        let mut plans = Vec::new();
        for &(slice, kinds) in TABLE13_CELLS {
            for &kind in kinds {
                plans.extend(crate::geography::table5_plans(&d, slice, kind));
            }
        }
        PlanRequest::all_for(self.needs()[0], plans)
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let d = Deployment::standard();
        let mut out = header_str("Table 13: % similar pairs of regions per bucket (2020)");
        out.push_str(&paper_note_str(
            "2020 keeps the APAC-least-similar shape (e.g. SSH/22 Top-AS: US 71, EU 42, APAC 30, IC 46)",
        ));
        let mut t = TextTable::new(&["Slice", "Characteristic", "US", "EU", "APAC", "Intercont."]);
        let exec = cx.exec(self.needs()[0]);
        for &(slice, kinds) in TABLE13_CELLS {
            for &kind in kinds {
                let cells = crate::geography::table5_with(&exec, &d, slice, kind);
                let find = |b: RegionPairKind| {
                    cells
                        .iter()
                        .find(|c| c.bucket == b)
                        .map(|c| format!("{:.0}%", c.pct_similar))
                        .unwrap_or_else(|| "-".into())
                };
                t.row(vec![
                    slice.label().to_string(),
                    kind.label().to_string(),
                    find(RegionPairKind::WithinUs),
                    find(RegionPairKind::WithinEu),
                    find(RegionPairKind::WithinApac),
                    find(RegionPairKind::Intercontinental),
                ]);
            }
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

const TABLE14_GRID: &[(CharKind, TrafficSlice)] = &[
    (CharKind::TopAs, TrafficSlice::SshPort22),
    (CharKind::TopAs, TrafficSlice::TelnetPort23),
    (CharKind::TopAs, TrafficSlice::HttpPort80),
    (CharKind::TopAs, TrafficSlice::HttpAllPorts),
    (CharKind::TopUsername, TrafficSlice::SshPort22),
    (CharKind::TopUsername, TrafficSlice::TelnetPort23),
    (CharKind::TopPassword, TrafficSlice::TelnetPort23),
    (CharKind::TopPassword, TrafficSlice::SshPort22),
    (CharKind::TopPayload, TrafficSlice::HttpPort80),
    (CharKind::TopPayload, TrafficSlice::HttpAllPorts),
    (CharKind::FracMalicious, TrafficSlice::SshPort22),
    (CharKind::FracMalicious, TrafficSlice::TelnetPort23),
    (CharKind::FracMalicious, TrafficSlice::HttpPort80),
    (CharKind::FracMalicious, TrafficSlice::HttpAllPorts),
];

fn table14_cells(c: &NetworkCell) -> (String, String) {
    if c.uncomputable {
        ("×".into(), "×".into())
    } else {
        (format!("{}/{}", c.n_different, c.n), phi_value(c.avg_phi, 1))
    }
}

/// Per grid row: the cell-string pairs this year contributes (one CC pair
/// for 2020, CE then EE pairs for 2022).
fn table14_fold_year(s: &SimBundle, d: &Deployment) -> Vec<Vec<(String, String)>> {
    let edu_edu: [(&str, &str); 1] = [("honeytrap/stanford", "honeytrap/merit")];
    TABLE14_GRID
        .iter()
        .map(|&(kind, slice)| match s.config.year {
            ScenarioYear::Y2020 => {
                vec![table14_cells(&cloud_cloud_cell(&s.dataset, d, slice, kind, 0.05))]
            }
            _ => vec![
                table14_cells(&honeytrap_cell(&s.dataset, d, &CLOUD_EDU_PAIRS, slice, kind, 0.05)),
                table14_cells(&honeytrap_cell(&s.dataset, d, &edu_edu, slice, kind, 0.05)),
            ],
        })
        .collect()
}

/// Table 14 (Appendix C.2): network differences — Cloud–Cloud on 2020
/// data, Cloud–EDU and EDU–EDU on 2022 data.
pub struct Table14;

impl Exhibit for Table14 {
    fn name(&self) -> &'static str {
        "table14"
    }
    fn title(&self) -> &'static str {
        "Network differences across 2020/2022 data"
    }
    fn needs(&self) -> &'static [Need] {
        &[
            Need::Exact(ScenarioYear::Y2020),
            Need::Exact(ScenarioYear::Y2022),
        ]
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let d = Deployment::standard();
        let y2020 = table14_fold_year(cx.bundle(self.needs()[0]), &d);
        let y2022 = table14_fold_year(cx.bundle(self.needs()[1]), &d);

        let mut out = header_str("Table 14: Cloud-Cloud (2020) / Cloud-EDU (2022) / EDU-EDU (2022)");
        out.push_str(&paper_note_str(
            "scanners are more likely to partially avoid education networks than to prefer a \
             specific cloud; the 2022 Merit router-bruteforce anomaly yields a medium (0.34) \
             EDU-EDU payload difference",
        ));
        let mut t = TextTable::new(&[
            "Characteristic",
            "Slice",
            "CC'20 dif",
            "phi",
            "CE'22 dif",
            "phi",
            "EE'22 dif",
            "phi",
        ]);
        for (i, &(kind, slice)) in TABLE14_GRID.iter().enumerate() {
            let mut row = vec![kind.label().to_string(), slice.label().to_string()];
            for (a, b) in y2020[i].iter().chain(y2022[i].iter()) {
                row.push(a.clone());
                row.push(b.clone());
            }
            t.row(row);
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Table 15 (Appendix C.2): telescope-vs-X AS differences on 2022 data.
pub struct Table15;

impl Exhibit for Table15 {
    fn name(&self) -> &'static str {
        "table15"
    }
    fn title(&self) -> &'static str {
        "Telescope vs EDU / cloud differences (2022)"
    }
    fn needs(&self) -> &'static [Need] {
        &[Need::Year(ScenarioYear::Y2022)]
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let s = cx.bundle(self.needs()[0]);
        let d = Deployment::standard();
        let mut out = header_str("Table 15: telescope vs EDU / cloud, 2022 — preferences strengthen");
        out.push_str(&paper_note_str(
            "2022 effect sizes grow vs 2021 (e.g. Any/All: Tel-EDU 0.90, Tel-Cloud 0.89 vs 0.30 in 2021)",
        ));
        let tel = &s.telescope;
        let edu = ["honeytrap/stanford", "honeytrap/merit"];
        let cloud = ["honeytrap/aws-west", "honeytrap/google-west"];
        let mut t = TextTable::new(&[
            "Slice",
            "Tel-EDU dif",
            "avg phi",
            "Tel-Cloud dif",
            "avg phi",
        ]);
        for slice in [
            TrafficSlice::SshPort22,
            TrafficSlice::TelnetPort23,
            TrafficSlice::HttpPort80,
            TrafficSlice::AnyAll,
        ] {
            let run = |fleets: &[&str]| {
                let mut n = 0;
                let mut dif = 0;
                let mut phis = Vec::new();
                for f in fleets {
                    if let Some(cmp) = crate::network::telescope_vs_fleet(
                        &s.dataset,
                        &d,
                        tel,
                        f,
                        slice,
                        0.05,
                        fleets.len(),
                    ) {
                        n += 1;
                        if cmp.significant {
                            dif += 1;
                            phis.push(cmp.effect.phi);
                        }
                    }
                }
                (n, dif, cw_stats::descriptive::mean(&phis))
            };
            let (en, ed, ep) = run(&edu);
            let (cn, cd, cp) = run(&cloud);
            t.row(vec![
                slice.label().to_string(),
                format!("{ed}/{en}"),
                phi_value(ep, 1),
                format!("{cd}/{cn}"),
                phi_value(cp, 1),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Table 16 (Appendix C.3): geographic traffic patterns on 2020 data.
pub struct Table16;

impl Exhibit for Table16 {
    fn name(&self) -> &'static str {
        "table16"
    }
    fn title(&self) -> &'static str {
        "Most-different geographic regions (2020)"
    }
    fn needs(&self) -> &'static [Need] {
        &[Need::Year(ScenarioYear::Y2020)]
    }
    fn plans(&self, _opts: &ExhibitOptions) -> Vec<PlanRequest> {
        PlanRequest::all_for(
            self.needs()[0],
            crate::geography::table4_plans(&Deployment::standard()),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str("Table 16: most-different geographic regions (2020)");
        out.push_str(&paper_note_str(
            "Asia-Pacific still dominates in 2020 (AWS SSH AP-JP 0.21, Google SSH AP-HK 0.37, \
             Linode SSH AP-SG 0.26, ...), with a few non-AP anomalies",
        ));
        let rows = cx.table4_rows(self.needs()[0]);
        let mut t =
            TextTable::new(&["Characteristic", "Slice", "Provider", "Most Dif. Region", "Avg phi"]);
        let mut ap = 0;
        let mut named = 0;
        for r in rows {
            if let Some(region) = &r.region {
                named += 1;
                if region.starts_with("AP-") {
                    ap += 1;
                }
            }
            t.row(vec![
                r.characteristic.label().to_string(),
                r.slice.label().to_string(),
                format!("{:?}", r.provider),
                r.region.clone().unwrap_or_else(|| "-".into()),
                phi_value(r.avg_phi, 1),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out.push_str(&format!(
            "Asia-Pacific share of most-different regions: {ap}/{named}\n"
        ));
        out
    }
}

/// Table 17 (Appendix C.4): unexpected protocols on 2022 data.
pub struct Table17;

impl Exhibit for Table17 {
    fn name(&self) -> &'static str {
        "table17"
    }
    fn title(&self) -> &'static str {
        "Protocol breakdown on ports 80/8080 (2022)"
    }
    fn needs(&self) -> &'static [Need] {
        &[Need::Year(ScenarioYear::Y2022)]
    }
    fn plans(&self, _opts: &ExhibitOptions) -> Vec<PlanRequest> {
        let d = Deployment::standard();
        PlanRequest::all_for(
            self.needs()[0],
            [80u16, 8080]
                .into_iter()
                .flat_map(|port| crate::ports::protocol_breakdown_plans(&d, port))
                .collect(),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str("Table 17: protocol breakdown on ports 80/8080 (2022)");
        out.push_str(&paper_note_str(
            "the unexpected share roughly doubles vs 2021: HTTP/80 66% vs ~HTTP/80 34%; \
             HTTP/8080 66% vs ~HTTP/8080 34% (no reputation split — the GreyNoise feed ended)",
        ));
        let mut t = TextTable::new(&["Protocol/Port", "Breakdown", "Scanners"]);
        for port in BreakdownPort::BOTH {
            let (rows, _) = cx.breakdown(self.needs()[0], port);
            for r in rows {
                t.row(vec![
                    format!("{}HTTP/{}", if r.is_http { "" } else { "~" }, port),
                    format!("{:.0}%", r.pct_of_scanners),
                    r.scanners.to_string(),
                ]);
            }
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// §3.4 / Appendix C: temporal stability of attacker preferences.
pub struct TemporalStability;

impl Exhibit for TemporalStability {
    fn name(&self) -> &'static str {
        "temporal_stability"
    }
    fn title(&self) -> &'static str {
        "Temporal stability of preferences, 2021 vs 2020"
    }
    fn needs(&self) -> &'static [Need] {
        &[
            Need::Exact(ScenarioYear::Y2021),
            Need::Exact(ScenarioYear::Y2020),
        ]
    }
    fn plans(&self, _opts: &ExhibitOptions) -> Vec<PlanRequest> {
        let d = Deployment::standard();
        self.needs()
            .iter()
            .flat_map(|&need| {
                PlanRequest::all_for(need, crate::overlap::table8_and_9_plans(&d))
            })
            .collect()
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let a = cx.bundle(self.needs()[0]);
        let b = cx.bundle(self.needs()[1]);
        let d = Deployment::standard();
        let mut out = header_str("Temporal stability: 2021 vs 2020");
        out.push_str(&paper_note_str(
            "\"attackers and scanners broadly exhibit similar preferences between 2020-2022\"; \
             the biggest differences lie in one-off anomalous events",
        ));
        let r = stability_with(
            &d,
            YearView {
                year: a.config.year.year(),
                dataset: &a.dataset,
                telescope: &a.telescope,
            },
            YearView {
                year: b.config.year.year(),
                dataset: &b.dataset,
                telescope: &b.telescope,
            },
            cx.table8_rows(self.needs()[0]),
            cx.table8_rows(self.needs()[1]),
        );
        out.push_str(&format!(
            "per-region top-3 Telnet AS similarity (Jaccard): {:.2} over {} regions\n\n",
            r.top_as_jaccard, r.regions_compared
        ));
        let mut t = TextTable::new(&["Port", "Tel∩Cloud 2021", "Tel∩Cloud 2020"]);
        for (port, y1, y0) in &r.telescope_overlap {
            t.row(vec![
                port.to_string(),
                y1.map(|v| format!("{v:.0}%")).unwrap_or_else(|| "-".into()),
                y0.map(|v| format!("{v:.0}%")).unwrap_or_else(|| "-".into()),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}
