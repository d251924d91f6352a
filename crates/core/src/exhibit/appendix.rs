//! The Appendix C exhibits: other-year re-runs and cross-year stability.
//!
//! Tables 12–16 re-run main-paper analyses on other years' data, so each is
//! a call of its main-paper render ([`super::main_year`]) under its own
//! need, header and paper note, plus its one difference. Single-year
//! appendix exhibits default to their appendix year but follow `--year`,
//! and their headers name the year they render; cross-year exhibits
//! (Table 14, temporal stability) pin their years.

use super::main_year::{
    breakdown_requests, table10_render, table10_requests, table2_render, table2_requests,
    table4_render, table4_requests, table5_render, table5_requests, table7_render, table7_requests,
    year_header, Family, NetworkColumn,
};
use super::{BreakdownPort, Exhibit, ExhibitCx, Need, PlanRequest};
use crate::report::{header_str, paper_note_str, TextTable};
use crate::temporal::{stability, YearView};
use cw_honeypot::deployment::Deployment;
use cw_scanners::population::ScenarioYear;

/// Table 12 (Appendix C.1): neighborhood differences on 2020 data — the
/// Table 2 render.
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
    fn plans(&self) -> Vec<PlanRequest> {
        table2_requests(self.needs()[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table2_render(
            cx,
            self.needs()[0],
            &year_header(
                cx,
                self.needs()[0],
                "Table 12: % neighborhoods with different traffic",
            ),
            "2020 shows the same phenomenon as 2021 with shifted magnitudes: SSH/22 AS 73% (0.23), \
             FracMal 60% (0.10), User 74% (0.20), Pwd 19% (0.24); Telnet/23 AS 43% (0.38); \
             HTTP/80 AS 2% (0.58); HTTP/All AS 61% (0.29), Payload 64% (0.50)",
        )
    }
}

/// Table 13 (Appendix C.3): region-pair similarity on 2020 data — the
/// Table 5 render, without pair counts.
pub struct Table13;

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
    fn plans(&self) -> Vec<PlanRequest> {
        table5_requests(self.needs()[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table5_render(
            cx,
            self.needs()[0],
            &year_header(
                cx,
                self.needs()[0],
                "Table 13: % similar pairs of regions per bucket",
            ),
            "2020 keeps the APAC-least-similar shape (e.g. SSH/22 Top-AS: US 71, EU 42, APAC 30, IC 46)",
            |c| format!("{:.0}%", c.pct_similar),
        )
    }
}

/// Table 14 (Appendix C.2): network differences — the Table 7 render with
/// Cloud–Cloud on 2020 data and Cloud–EDU and EDU–EDU on 2022 data.
pub struct Table14;

/// Table 14's two pinned worlds.
const Y2020: Need = Need::Exact(ScenarioYear::Y2020);
const Y2022: Need = Need::Exact(ScenarioYear::Y2022);

/// Table 14's columns.
const TABLE14_COLUMNS: [NetworkColumn; 3] = [
    ("CC'20 dif", Y2020, Family::CloudCloud),
    ("CE'22 dif", Y2022, Family::CloudEdu),
    ("EE'22 dif", Y2022, Family::EduEdu),
];

impl Exhibit for Table14 {
    fn name(&self) -> &'static str {
        "table14"
    }
    fn title(&self) -> &'static str {
        "Network differences across 2020/2022 data"
    }
    fn needs(&self) -> &'static [Need] {
        &[Y2020, Y2022]
    }
    fn plans(&self) -> Vec<PlanRequest> {
        table7_requests(TABLE14_COLUMNS)
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table7_render(
            cx,
            "Table 14: Cloud-Cloud (2020) / Cloud-EDU (2022) / EDU-EDU (2022)",
            "scanners are more likely to partially avoid education networks than to prefer a \
             specific cloud; the 2022 Merit router-bruteforce anomaly yields a medium (0.34) \
             EDU-EDU payload difference",
            TABLE14_COLUMNS,
        )
    }
}

/// Table 15 (Appendix C.2): telescope-vs-X AS differences on 2022 data —
/// the Table 10 render over two cloud fleets.
pub struct Table15;

/// Table 15's cloud fleets.
const TABLE15_CLOUD_FLEETS: [&str; 2] = ["honeytrap/aws-west", "honeytrap/google-west"];

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
    fn plans(&self) -> Vec<PlanRequest> {
        table10_requests(self.needs()[0], &TABLE15_CLOUD_FLEETS)
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table10_render(
            cx,
            self.needs()[0],
            &format!(
                "Table 15: telescope vs EDU / cloud, {} — preferences strengthen",
                cx.bundle(self.needs()[0]).config.year.year()
            ),
            "2022 effect sizes grow vs 2021 (e.g. Any/All: Tel-EDU 0.90, Tel-Cloud 0.89 vs 0.30 in 2021)",
            ["Slice", "Tel-EDU dif", "avg phi", "Tel-Cloud dif", "avg phi"],
            &TABLE15_CLOUD_FLEETS,
        )
    }
}

/// Table 16 (Appendix C.3): geographic traffic patterns on 2020 data — the
/// Table 4 render.
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
    fn plans(&self) -> Vec<PlanRequest> {
        table4_requests(self.needs()[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table4_render(
            cx,
            self.needs()[0],
            &year_header(
                cx,
                self.needs()[0],
                "Table 16: most-different geographic regions",
            ),
            "Asia-Pacific still dominates in 2020 (AWS SSH AP-JP 0.21, Google SSH AP-HK 0.37, \
             Linode SSH AP-SG 0.26, ...), with a few non-AP anomalies",
            "",
        )
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
    fn plans(&self) -> Vec<PlanRequest> {
        breakdown_requests(self.needs()[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str(&year_header(
            cx,
            self.needs()[0],
            "Table 17: protocol breakdown on ports 80/8080",
        ));
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
    fn plans(&self) -> Vec<PlanRequest> {
        let d = Deployment::standard();
        self.needs()
            .iter()
            .flat_map(|&need| PlanRequest::all_for(need, crate::overlap::table8_and_9_plans(d)))
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
        let r = stability(
            d,
            YearView {
                year: a.config.year.year(),
                exec: cx.exec(self.needs()[0]),
                telescope: &a.telescope,
            },
            YearView {
                year: b.config.year.year(),
                exec: cx.exec(self.needs()[1]),
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
