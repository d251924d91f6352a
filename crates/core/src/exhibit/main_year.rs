//! The main-paper exhibits: 2021 analyses that follow a `--year` override.
//!
//! Each render is a byte-exact port of the retired single-purpose binary
//! of the same name. The renders and plans of Tables 2, 4, 5, 7 and 10
//! are also Appendix C's Tables 12, 16, 13, 14 and 15
//! ([`super::appendix`]).

use super::{BreakdownPort, Exhibit, ExhibitCx, Need, PlanRequest, SimBundle};
use crate::compare::CharKind;
use crate::dataset::TrafficSlice;
use crate::geography::SimilarityCell;
use crate::network::{
    cloud_cloud_cell, cloud_cloud_plans, honeytrap_cell, honeytrap_cell_plans, telescope_vs_fleet,
    telescope_vs_fleet_plan, NetworkCell, CLOUD_EDU_PAIRS,
};
use crate::query::{Plan, ScanExec};
use crate::report::{header_str, paper_note_str, pct, phi_value, TextTable};
use cw_honeypot::deployment::{CollectorKind, Deployment, Provider};
use cw_netsim::geo::RegionPairKind;
use cw_netsim::ip::IpExt;
use cw_scanners::population::ScenarioYear;
use std::net::Ipv4Addr;

/// The needs of every exhibit in this module: the 2021 world, overridable.
const NEEDS: &[Need] = &[Need::Year(ScenarioYear::Y2021)];

/// The (default-2021) bundle every exhibit in this module renders from.
fn main_bundle<'a>(cx: &'a ExhibitCx<'_>) -> &'a SimBundle {
    cx.bundle(NEEDS[0])
}

/// `title` closed by the year of the bundle `need` resolves to, e.g.
/// `"… (2021)"` for a main-year render by default, so a `--year` render
/// names the year it shows.
pub(super) fn year_header(cx: &ExhibitCx<'_>, need: Need, title: &str) -> String {
    format!("{title} ({})", cx.bundle(need).config.year.year())
}

/// Table 1: vantage points — unique scanning IPs and ASes per network.
pub struct Table1;

/// One Table 1 fleet row: label, collection kind, distinct region count,
/// and the vantage IPs the row's one scan pushes down on.
struct Table1Fleet {
    name: &'static str,
    collector: CollectorKind,
    regions: usize,
    ips: Vec<Ipv4Addr>,
}

/// Table 1's honeypot fleets, in render order (rows with no vantages in
/// the deployment are dropped, as the render skips them anyway).
fn table1_fleets(d: &Deployment) -> Vec<Table1Fleet> {
    let rows: [(&'static str, Provider, CollectorKind); 9] = [
        (
            "Hurricane Electric",
            Provider::HurricaneElectric,
            CollectorKind::GreyNoise,
        ),
        ("AWS", Provider::Aws, CollectorKind::GreyNoise),
        ("Azure", Provider::Azure, CollectorKind::GreyNoise),
        ("Google", Provider::Google, CollectorKind::GreyNoise),
        ("Linode", Provider::Linode, CollectorKind::GreyNoise),
        ("Stanford", Provider::Stanford, CollectorKind::Honeytrap),
        ("AWS (Honeytrap)", Provider::Aws, CollectorKind::Honeytrap),
        (
            "Google (Honeytrap)",
            Provider::Google,
            CollectorKind::Honeytrap,
        ),
        ("Merit", Provider::Merit, CollectorKind::Honeytrap),
    ];
    rows.into_iter()
        .filter_map(|(name, provider, collector)| {
            let vantages: Vec<_> = d
                .vantages
                .iter()
                .filter(|v| v.provider == provider && v.collector == collector)
                .collect();
            if vantages.is_empty() {
                return None;
            }
            let mut regions: Vec<&str> = vantages.iter().map(|v| v.region.code.as_str()).collect();
            regions.sort();
            regions.dedup();
            Some(Table1Fleet {
                name,
                collector,
                regions: regions.len(),
                ips: vantages.iter().map(|v| v.ip).collect(),
            })
        })
        .collect()
}

impl Exhibit for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn title(&self) -> &'static str {
        "Vantage points — unique scan IPs / ASes per network"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        let d = Deployment::standard();
        PlanRequest::all_for(
            NEEDS[0],
            table1_fleets(d)
                .iter()
                .map(|f| Plan::at(&f.ips).unique_src_and_asn())
                .collect(),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let s = main_bundle(cx);
        let d = Deployment::standard();
        let mut out =
            header_str("Table 1: Vantage points — unique scan IPs / ASes, July 1-7 (simulated)");
        out.push_str(&paper_note_str(
            "HE 130K/8.3K · AWS 99.6K/7.1K · Azure 19.9K/2.5K · Google 103K/7.5K · Linode 72K/6.0K · \
             Stanford 105K/6.2K · Merit 107K/6.3K · Orion 5.1M/24.8K — absolute counts scale with the \
             simulated population; compare shapes (per-network ordering), not magnitudes",
        ));

        let mut t = TextTable::new(&[
            "Network",
            "Collection",
            "# Geo Regions",
            "Vantage IPs",
            "Unique Scan IPs",
            "Unique Scan ASes",
        ]);

        let exec = cx.exec(NEEDS[0]);
        for f in table1_fleets(d) {
            // One plan per fleet row: dst pushdown, two distinct-counts
            // in a single pass (prefetched when the driver planned it).
            let (srcs, asns) = exec
                .run(&Plan::at(&f.ips).unique_src_and_asn())
                .into_unique_src_and_asn();
            t.row(vec![
                f.name.to_string(),
                format!("{:?}", f.collector),
                f.regions.to_string(),
                f.ips.len().to_string(),
                srcs.to_string(),
                asns.to_string(),
            ]);
        }
        // The telescope row.
        let tel = &s.telescope;
        t.row(vec![
            "Orion".to_string(),
            "Telescope".to_string(),
            "1".to_string(),
            tel.block().size().to_string(),
            tel.unique_source_count().to_string(),
            tel.unique_asn_count().to_string(),
        ]);
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Table 2: attackers target neighboring services differently.
pub struct Table2;

/// The Table 2 grid's plans on `need`'s world (Table 12's too).
pub(super) fn table2_requests(need: Need) -> Vec<PlanRequest> {
    PlanRequest::all_for(
        need,
        crate::neighborhood::table2_plans(Deployment::standard()),
    )
}

/// The Table 2 render on `need`'s world under its own header and paper
/// note: Table 12 is this render on 2020 data.
pub(super) fn table2_render(cx: &ExhibitCx<'_>, need: Need, header: &str, note: &str) -> String {
    let mut out = header_str(header);
    out.push_str(&paper_note_str(note));
    let mut t = TextTable::new(&[
        "Slice",
        "Characteristic",
        "n",
        "% dif neighborhoods",
        "Avg phi",
    ]);
    for r in cx.table2_rows(need) {
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

impl Exhibit for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }
    fn title(&self) -> &'static str {
        "% neighborhoods with significantly different traffic"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        table2_requests(NEEDS[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table2_render(
            cx,
            NEEDS[0],
            &year_header(
                cx,
                NEEDS[0],
                "Table 2: % neighborhoods with significantly different traffic",
            ),
            "SSH/22: AS 44% (0.31), FracMal 36% (0.12), User 55% (0.22), Pwd 4% (0.13) · \
             Telnet/23: AS 38% (0.43), FracMal 15%, User 21% (0.24), Pwd 19% (0.39) · \
             HTTP/80: AS 31% (0.43), FracMal 0%, Payload 15% (0.39) · \
             HTTP/All: AS 42% (0.23), FracMal 19% (0.04), Payload 77% (0.17)",
        )
    }
}

/// Table 4: geographic regions with the most different traffic patterns.
pub struct Table4;

/// The Table 4 grid's plans on `need`'s world (Table 16's too).
pub(super) fn table4_requests(need: Need) -> Vec<PlanRequest> {
    PlanRequest::all_for(need, crate::geography::table4_plans(Deployment::standard()))
}

/// The Table 4 render on `need`'s world under its own header and paper
/// note; `ap_share_suffix` ends the Asia-Pacific share line. Table 16 is
/// this render on 2020 data, with no suffix.
pub(super) fn table4_render(
    cx: &ExhibitCx<'_>,
    need: Need,
    header: &str,
    note: &str,
    ap_share_suffix: &str,
) -> String {
    let mut out = header_str(header);
    out.push_str(&paper_note_str(note));
    let mut t = TextTable::new(&[
        "Characteristic",
        "Slice",
        "Provider",
        "Most Dif. Region",
        "Avg phi",
    ]);
    let mut ap_hits = 0usize;
    let mut named = 0usize;
    for r in cx.table4_rows(need) {
        if let Some(region) = &r.region {
            named += 1;
            if region.starts_with("AP-") {
                ap_hits += 1;
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
        "Asia-Pacific share of most-different regions: {ap_hits}/{named}{ap_share_suffix}\n"
    ));
    out
}

impl Exhibit for Table4 {
    fn name(&self) -> &'static str {
        "table4"
    }
    fn title(&self) -> &'static str {
        "Most-different geographic region per provider"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        table4_requests(NEEDS[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table4_render(
            cx,
            NEEDS[0],
            &year_header(
                cx,
                NEEDS[0],
                "Table 4: most-different geographic region per provider",
            ),
            "Asia-Pacific regions dominate: e.g. Top-AS SSH/22 AWS=AP-JP (0.68), Google=AP-SG (0.16), \
             Linode=AP-SG (0.27); Username TEL/23 AWS=AP-AU (0.56); Payload HTTP/80 AWS=AP-HK (0.31) \
             — expect most named regions to be AP-*",
            " (paper: AP dominates the grid)",
        )
    }
}

/// Table 5: traffic similarities within and between geo-locations.
pub struct Table5;

/// Table 5's (slice, characteristic) grid, in render order (Table 13's
/// too).
const TABLE5_CELLS: &[(TrafficSlice, CharKind)] = &[
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

/// The Table 5 grid's plans on `need`'s world (Table 13's too).
pub(super) fn table5_requests(need: Need) -> Vec<PlanRequest> {
    let d = Deployment::standard();
    PlanRequest::all_for(
        need,
        TABLE5_CELLS
            .iter()
            .flat_map(|&(slice, kind)| crate::geography::table5_plans(d, slice, kind))
            .collect(),
    )
}

/// The Table 5 render on `need`'s world under its own header and paper
/// note; `cell` prints one bucket. Table 13 is this render on 2020 data,
/// with no pair counts in its cells.
pub(super) fn table5_render(
    cx: &ExhibitCx<'_>,
    need: Need,
    header: &str,
    note: &str,
    cell: fn(&SimilarityCell) -> String,
) -> String {
    let d = Deployment::standard();
    let mut out = header_str(header);
    out.push_str(&paper_note_str(note));
    let mut t = TextTable::new(&["Slice", "Characteristic", "US", "EU", "APAC", "Intercont."]);
    let exec = cx.exec(need);
    for &(slice, kind) in TABLE5_CELLS {
        let cells = crate::geography::table5(&exec, d, slice, kind);
        let find = |b: RegionPairKind| {
            cells
                .iter()
                .find(|c| c.bucket == b)
                .map(cell)
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
    out.push_str(&format!("{}\n", t.render()));
    out
}

impl Exhibit for Table5 {
    fn name(&self) -> &'static str {
        "table5"
    }
    fn title(&self) -> &'static str {
        "% similar pairs of regions per geographic bucket"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        table5_requests(NEEDS[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table5_render(
            cx,
            NEEDS[0],
            &year_header(
                cx,
                NEEDS[0],
                "Table 5: % similar pairs of regions per geographic bucket",
            ),
            "US/EU pairs are nearly always similar (94-100%), APAC much less (e.g. Top-3 AS SSH/22: \
             US 94, EU 100, APAC 63, intercontinental 70; HTTP/All payloads: US 50, EU 53, APAC 20, IC 11)",
            |c| format!("{:.0}% (n={})", c.pct_similar, c.n),
        )
    }
}

/// The pair family one Table 7/14 column compares.
#[derive(Debug, Clone, Copy)]
pub(super) enum Family {
    /// City-matched cloud provider regions.
    CloudCloud,
    /// Cloud Honeytrap fleets against the university fleets.
    CloudEdu,
    /// The two university Honeytrap fleets.
    EduEdu,
}

/// The one EDU–EDU Honeytrap pair.
const EDU_EDU_PAIRS: [(&str, &str); 1] = [("honeytrap/stanford", "honeytrap/merit")];

impl Family {
    fn cell(
        self,
        exec: &ScanExec<'_>,
        d: &Deployment,
        slice: TrafficSlice,
        kind: CharKind,
    ) -> NetworkCell {
        match self {
            Family::CloudCloud => cloud_cloud_cell(exec, d, slice, kind, 0.05),
            Family::CloudEdu => honeytrap_cell(exec, d, &CLOUD_EDU_PAIRS, slice, kind, 0.05),
            Family::EduEdu => honeytrap_cell(exec, d, &EDU_EDU_PAIRS, slice, kind, 0.05),
        }
    }

    /// The plans [`Family::cell`] reads.
    fn plans(self, d: &Deployment, slice: TrafficSlice, kind: CharKind) -> Vec<Plan> {
        match self {
            Family::CloudCloud => cloud_cloud_plans(d, slice, kind),
            Family::CloudEdu => honeytrap_cell_plans(d, &CLOUD_EDU_PAIRS, slice, kind),
            Family::EduEdu => honeytrap_cell_plans(d, &EDU_EDU_PAIRS, slice, kind),
        }
    }
}

/// Table 7's (characteristic, slice) grid, in render order (Table 14's
/// too).
const TABLE7_GRID: &[(CharKind, TrafficSlice)] = &[
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

/// One Table 7/14 cell as its (different pairs, avg φ) strings; × for a
/// characteristic the collection cannot observe.
fn network_cell_str(c: &NetworkCell) -> [String; 2] {
    if c.uncomputable {
        ["×".to_string(), "×".to_string()]
    } else {
        [
            format!("{}/{}", c.n_different, c.n),
            phi_value(c.avg_phi, 1),
        ]
    }
}

/// One Table 7/14 column: its header, the world it reads and the pair
/// family it compares.
pub(super) type NetworkColumn = (&'static str, Need, Family);

/// Table 7's columns: every family on the main-year world.
const TABLE7_COLUMNS: [NetworkColumn; 3] = [
    ("Cloud-Cloud dif", NEEDS[0], Family::CloudCloud),
    ("Cloud-EDU dif", NEEDS[0], Family::CloudEdu),
    ("EDU-EDU dif", NEEDS[0], Family::EduEdu),
];

/// The plans a Table 7 render over `columns` reads: each column's family
/// plans over the whole grid, on the column's world (Table 14's too).
pub(super) fn table7_requests(columns: [NetworkColumn; 3]) -> Vec<PlanRequest> {
    let d = Deployment::standard();
    columns
        .into_iter()
        .flat_map(|(_, need, family)| {
            let plans = TABLE7_GRID
                .iter()
                .flat_map(|&(kind, slice)| family.plans(d, slice, kind))
                .collect();
            PlanRequest::all_for(need, plans)
        })
        .collect()
}

/// The Table 7 render under its own header and paper note. Each of the
/// three `columns` reads its world through the context's executor.
/// Table 14 is this render with a 2020 cloud–cloud column and two 2022
/// EDU columns.
pub(super) fn table7_render(
    cx: &ExhibitCx<'_>,
    header: &str,
    note: &str,
    columns: [NetworkColumn; 3],
) -> String {
    let mut out = header_str(header);
    out.push_str(&paper_note_str(note));
    let mut headers = vec!["Characteristic", "Slice"];
    for (dif, _, _) in columns {
        headers.extend([dif, "phi"]);
    }
    let mut t = TextTable::new(&headers);
    let d = Deployment::standard();
    let execs = columns.map(|(_, need, family)| (cx.exec(need), family));
    for &(kind, slice) in TABLE7_GRID {
        let mut row = vec![kind.label().to_string(), slice.label().to_string()];
        for (exec, family) in &execs {
            row.extend(network_cell_str(&family.cell(exec, d, slice, kind)));
        }
        t.row(row);
    }
    out.push_str(&format!("{}\n", t.render()));
    out
}

/// Table 7: differences across network types (cloud–cloud, cloud–EDU,
/// EDU–EDU).
pub struct Table7;

impl Exhibit for Table7 {
    fn name(&self) -> &'static str {
        "table7"
    }
    fn title(&self) -> &'static str {
        "Differences across network types (cloud/EDU)"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        table7_requests(TABLE7_COLUMNS)
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table7_render(
            cx,
            &year_header(cx, NEEDS[0], "Table 7: differences across network types"),
            "cloud-cloud differences are small (avg phi ≤ 0.23); cloud-EDU mostly similar except \
             SSH/22 Top-AS in 2021 (phi 0.48: Chinanet→EDU, Cogent→cloud); EDU-EDU never different; \
             credentials are × for Honeytrap fleets",
            TABLE7_COLUMNS,
        )
    }
}

/// Table 8: scanners avoid telescopes — per-port source-IP overlap.
pub struct Table8;

impl Exhibit for Table8 {
    fn name(&self) -> &'static str {
        "table8"
    }
    fn title(&self) -> &'static str {
        "Scanner-IP overlap with the telescope per port"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        PlanRequest::all_for(
            NEEDS[0],
            crate::overlap::table8_and_9_plans(Deployment::standard()),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str(&year_header(
            cx,
            NEEDS[0],
            "Table 8: |Tel ∩ X| overlap per port",
        ));
        out.push_str(&paper_note_str(
            "Tel∩Cloud/Cloud: 23→91%, 2323→53%, 80→73%, 8080→80%, 21→29%, 2222→9%, 25→19%, \
             7547→33%, 22→13%, 443→30%; Tel∩EDU higher everywhere; Cloud∩EDU 81-97%",
        ));
        let rows = cx.table8_rows(NEEDS[0]);
        let mut t = TextTable::new(&[
            "Port",
            "Tel∩Cloud / Cloud",
            "Tel∩EDU / EDU",
            "Cloud∩EDU / Cloud",
        ]);
        for r in rows {
            t.row(vec![
                r.port.to_string(),
                pct(r.tel_cloud),
                pct(r.tel_edu),
                pct(r.cloud_edu),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Table 9: attackers on SSH-assigned ports avoid telescopes.
pub struct Table9;

impl Exhibit for Table9 {
    fn name(&self) -> &'static str {
        "table9"
    }
    fn title(&self) -> &'static str {
        "Attacker-IP overlap with the telescope per port"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        PlanRequest::all_for(
            NEEDS[0],
            crate::overlap::table8_and_9_plans(Deployment::standard()),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str(&year_header(
            cx,
            NEEDS[0],
            "Table 9: attacker-IP overlap with the telescope",
        ));
        out.push_str(&paper_note_str(
            "Tel∩Mal-Cloud/Mal-Cloud: 23→94%, 2323→88%, 80→84%, 8080→84%, 2222→3.6%, 22→7.5%; \
             EDU column only computable on 80/8080 (96%/97%), × elsewhere",
        ));
        let rows = cx.table9_rows(NEEDS[0]);
        let mut t = TextTable::new(&["Port", "Tel∩Mal-Cloud / Mal-Cloud", "Tel∩Mal-EDU / Mal-EDU"]);
        for r in rows {
            t.row(vec![r.port.to_string(), pct(r.tel_cloud), pct(r.tel_edu)]);
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Table 10: a significantly different set of ASes target telescopes.
pub struct Table10;

/// Table 10's slices, in row order (Table 15's too).
const TABLE10_SLICES: [TrafficSlice; 4] = [
    TrafficSlice::SshPort22,
    TrafficSlice::TelnetPort23,
    TrafficSlice::HttpPort80,
    TrafficSlice::AnyAll,
];

/// The university fleets Tables 10 and 15 compare with the telescope.
const EDU_FLEETS: [&str; 2] = ["honeytrap/stanford", "honeytrap/merit"];

/// Table 10's cloud fleets.
const TABLE10_CLOUD_FLEETS: [&str; 3] = [
    "honeytrap/aws-west",
    "honeytrap/google-west",
    "honeytrap/google-east",
];

/// The fleet plans a Table 10 render over `cloud_fleets` reads on
/// `need`'s world (Table 15's too).
pub(super) fn table10_requests(need: Need, cloud_fleets: &[&str]) -> Vec<PlanRequest> {
    let d = Deployment::standard();
    let fleets: Vec<&str> = EDU_FLEETS.iter().chain(cloud_fleets).copied().collect();
    let mut plans = Vec::new();
    for slice in TABLE10_SLICES {
        plans.extend(fleets.iter().map(|f| telescope_vs_fleet_plan(d, f, slice)));
    }
    PlanRequest::all_for(need, plans)
}

/// The Table 10 render on `need`'s world under its own header, paper note
/// and column headers: the telescope against the two university fleets
/// and against `cloud_fleets`. Table 15 is this render on 2022 data with
/// two cloud fleets.
pub(super) fn table10_render(
    cx: &ExhibitCx<'_>,
    need: Need,
    header: &str,
    note: &str,
    columns: [&str; 5],
    cloud_fleets: &[&str],
) -> String {
    let s = cx.bundle(need);
    let d = Deployment::standard();
    let exec = cx.exec(need);
    let mut out = header_str(header);
    out.push_str(&paper_note_str(note));
    let mut t = TextTable::new(&columns);
    for slice in TABLE10_SLICES {
        let run = |fleets: &[&str]| -> (usize, usize, Option<f64>) {
            let mut n = 0;
            let mut dif = 0;
            let mut phis = Vec::new();
            for f in fleets {
                if let Some(cmp) =
                    telescope_vs_fleet(&exec, d, &s.telescope, f, slice, 0.05, fleets.len())
                {
                    n += 1;
                    if cmp.significant {
                        dif += 1;
                        phis.push(cmp.effect.phi);
                    }
                }
            }
            (n, dif, cw_stats::descriptive::mean(&phis))
        };
        let (en, ed, ephi) = run(&EDU_FLEETS);
        let (cn, cd, cphi) = run(cloud_fleets);
        t.row(vec![
            slice.label().to_string(),
            format!("{ed}/{en}"),
            phi_value(ephi, 1),
            format!("{cd}/{cn}"),
            phi_value(cphi, 1),
        ]);
    }
    out.push_str(&format!("{}\n", t.render()));
    out
}

impl Exhibit for Table10 {
    fn name(&self) -> &'static str {
        "table10"
    }
    fn title(&self) -> &'static str {
        "Telescope vs EDU / cloud top-AS differences"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        table10_requests(NEEDS[0], &TABLE10_CLOUD_FLEETS)
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        table10_render(
            cx,
            NEEDS[0],
            &year_header(
                cx,
                NEEDS[0],
                "Table 10: telescope vs EDU / cloud — top-AS differences",
            ),
            "Telescope-EDU: SSH 2/2 dif (0.41), TEL 2/2 (0.68), HTTP/80 0/2, All 2/2 (0.20); \
             Telescope-Cloud: SSH 3/3 (0.71), TEL 3/3 (0.82), HTTP/80 2/3 (0.40), All 3/3 (0.30)",
            [
                "Slice",
                "Tel-EDU dif",
                "Tel-EDU avg phi",
                "Tel-Cloud dif",
                "Tel-Cloud avg phi",
            ],
            &TABLE10_CLOUD_FLEETS,
        )
    }
}

/// Table 11: scanner-targeted protocols on HTTP-assigned ports.
pub struct Table11;

/// The ports 80 and 8080 protocol-breakdown plans on `need`'s world
/// (Table 17's too).
pub(super) fn breakdown_requests(need: Need) -> Vec<PlanRequest> {
    let d = Deployment::standard();
    PlanRequest::all_for(
        need,
        BreakdownPort::BOTH
            .into_iter()
            .flat_map(|port| crate::ports::protocol_breakdown_plans(d, port.number()))
            .collect(),
    )
}

impl Exhibit for Table11 {
    fn name(&self) -> &'static str {
        "table11"
    }
    fn title(&self) -> &'static str {
        "Protocol breakdown on ports 80/8080"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        breakdown_requests(NEEDS[0])
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str(&year_header(
            cx,
            NEEDS[0],
            "Table 11: protocol breakdown on ports 80/8080",
        ));
        out.push_str(&paper_note_str(
            "HTTP/80 85% (42% benign, 55% malicious) vs ~HTTP/80 15% (42%, 51%); \
             HTTP/8080 84% (22%, 77%) vs ~HTTP/8080 16% (35%, 49%); \
             ~HTTP split: TLS 7%, Telnet 0.5%, SQL 0.4%, RTSP 0.3%, SMB 0.3%, …",
        ));
        let mut t = TextTable::new(&[
            "Protocol/Port",
            "Breakdown",
            "% Benign",
            "% Malicious",
            "Scanners",
        ]);
        // The binary printed the ~HTTP/80 share lines *while* filling the
        // table, so they precede the rendered table in the output stream.
        for port in BreakdownPort::BOTH {
            let (rows, shares) = cx.breakdown(NEEDS[0], port);
            for r in rows {
                t.row(vec![
                    format!("{}HTTP/{}", if r.is_http { "" } else { "~" }, port),
                    format!("{:.0}%", r.pct_of_scanners),
                    format!("{:.0}%", r.pct_benign),
                    format!("{:.0}%", r.pct_malicious),
                    r.scanners.to_string(),
                ]);
            }
            if port == BreakdownPort::P80 {
                out.push_str("~HTTP/80 per-protocol shares:\n");
                for sh in shares {
                    out.push_str(&format!("  {:<7} {:.2}%\n", sh.protocol.label(), sh.pct));
                }
                out.push('\n');
            }
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// §3.2 traffic-composition statistics.
pub struct Section3_2;

impl Exhibit for Section3_2 {
    fn name(&self) -> &'static str {
        "section3_2"
    }
    fn title(&self) -> &'static str {
        "§3.2 traffic-composition statistics"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        PlanRequest::all_for(
            NEEDS[0],
            crate::ports::composition_stats_plans(Deployment::standard()),
        )
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str(&year_header(
            cx,
            NEEDS[0],
            "Section 3.2: traffic composition",
        ));
        out.push_str(&paper_note_str(
            "34% of Telnet/23 traffic does not attempt login; 24% on SSH/22; 75% of HTTP/80 \
             payloads send no exploit; Suricata labels 6% of distinct HTTP payloads malicious",
        ));
        let c = cx.composition(NEEDS[0]);
        out.push_str(&format!(
            "Telnet/23 traffic not attempting login : {:.0}%  (paper 34%)\n",
            c.telnet_non_auth_pct
        ));
        out.push_str(&format!(
            "SSH/22 traffic not attempting login    : {:.0}%  (paper 24%)\n",
            c.ssh_non_auth_pct
        ));
        out.push_str(&format!(
            "HTTP/80 payloads without exploits      : {:.0}%  (paper 75%)\n",
            c.http80_benign_pct
        ));
        out.push_str(&format!(
            "Distinct HTTP payloads labeled malicious: {:.0}%  (paper 6%)\n",
            c.distinct_http_malicious_pct
        ));
        out
    }
}

/// Figure 1: address-structure preferences inside the telescope.
///
/// Prints ASCII sparklines of the rolling-512 unique-scanner series for
/// the four panels and writes full CSVs to `out/figure1_port<k>.csv`.
pub struct Figure1;

impl Exhibit for Figure1 {
    fn name(&self) -> &'static str {
        "figure1"
    }
    fn title(&self) -> &'static str {
        "Telescope address-structure preferences (+ CSVs)"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let s = main_bundle(cx);
        let mut out = header_str(&year_header(
            cx,
            NEEDS[0],
            "Figure 1: telescope address-structure preferences",
        ));
        out.push_str(&paper_note_str(
            "(a) port 22: spikes at /16 first addresses (order of magnitude); \
             (b) port 445 / (c) port 80: dips at any-255-octet addresses (9x / strong); \
             (d) port 17128: a four-address latch",
        ));
        std::fs::create_dir_all("out").expect("create out/");
        let tel = &s.telescope;
        for (panel, port) in [("a", 22u16), ("b", 445), ("c", 80), ("d", 17_128)] {
            let Some(fig) = crate::figure1::series(tel, port) else {
                out.push_str(&format!("(1{panel}) port {port}: not tracked\n"));
                continue;
            };
            out.push_str(&format!(
                "(1{panel}) port {port} — rolling-512 unique scanners per IP:\n"
            ));
            out.push_str(&format!(
                "      {}\n",
                crate::figure1::ascii_sparkline(&fig.rolling, 96)
            ));
            let path = format!("out/figure1_port{port}.csv");
            let file = std::fs::File::create(&path).expect("create csv");
            crate::figure1::write_csv(tel, &fig, std::io::BufWriter::new(file)).expect("write csv");
            out.push_str(&format!("      series written to {path}\n"));
        }
        out.push('\n');
        if let Some(pref) = crate::figure1::slash16_first_preference(tel, 22) {
            out.push_str(&format!(
                "port 22: /16-first addresses are {pref:.1}x more targeted (paper: ~10x)\n"
            ));
        }
        for (port, paper) in [(445u16, "9x"), (80, "dips visible"), (7_574, "61x")] {
            if let Some(st) = crate::figure1::structure_stats(tel, port, |ip| ip.has_255_octet()) {
                out.push_str(&format!(
                    "port {port}: 255-octet addresses are {:.1}x less targeted \
                     (mean {:.3} vs {:.3}; paper: {paper})\n",
                    st.avoidance_factor, st.mean_matching, st.mean_rest
                ));
            }
        }
        if let Some(fig) = crate::figure1::series(tel, 17_128) {
            let mut sorted: Vec<(usize, u32)> = fig.counts.iter().copied().enumerate().collect();
            sorted.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            let top: Vec<String> = sorted
                .iter()
                .take(4)
                .map(|&(i, c)| format!("{} ({c})", tel.block().nth(i as u64)))
                .collect();
            out.push_str(&format!("port 17128 latch targets: {}\n", top.join(", ")));
        }
        out
    }
}

/// §8: the paper's recommendations, re-derived from this run's data.
pub struct Recommendations;

impl Exhibit for Recommendations {
    fn name(&self) -> &'static str {
        "recommendations"
    }
    fn title(&self) -> &'static str {
        "§8 recommendations with this run's evidence"
    }
    fn needs(&self) -> &'static [Need] {
        NEEDS
    }
    fn plans(&self) -> Vec<PlanRequest> {
        // The union of every memoized product this render consumes, plus
        // its Table 5 cell; they dedupe against the other exhibits'
        // requests (the cell's plans against Table 2's).
        let d = Deployment::standard();
        let mut plans = crate::neighborhood::table2_plans(d);
        plans.extend(crate::geography::table4_plans(d));
        plans.extend(crate::geography::table5_plans(
            d,
            TrafficSlice::TelnetPort23,
            CharKind::TopUsername,
        ));
        plans.extend(crate::overlap::table8_and_9_plans(d));
        plans.extend(crate::ports::protocol_breakdown_plans(d, 80));
        PlanRequest::all_for(NEEDS[0], plans)
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let s = main_bundle(cx);
        let d = Deployment::standard();
        let mut out = header_str("Section 8: recommendations, with this run's supporting evidence");
        let indexed = (s.censys_indexed + s.shodan_indexed) as usize;
        let products = crate::recommendations::Products {
            table2: cx.table2_rows(NEEDS[0]),
            table4: cx.table4_rows(NEEDS[0]),
            table8: cx.table8_rows(NEEDS[0]),
            table9: cx.table9_rows(NEEDS[0]),
            breakdown80: &cx.breakdown(NEEDS[0], BreakdownPort::P80).0,
        };
        let exec = cx.exec(NEEDS[0]);
        for r in crate::recommendations::evaluate(&exec, d, &s.telescope, indexed, &products) {
            out.push_str(&format!(
                "{} {}\n    {}\n\n",
                if r.supported { "✔" } else { "✘" },
                r.title,
                r.evidence
            ));
        }
        out
    }
}
