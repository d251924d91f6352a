//! Exhibits outside the one-year mold: the leak experiment (its own side
//! worlds), the static deployment matrix, and the combined `all` digest.
//!
//! Each render is a byte-exact port of the retired single-purpose binary
//! of the same name.

use super::{BreakdownPort, Exhibit, ExhibitCx, Need, PlanRequest};
use crate::compare::CharKind;
use crate::dataset::TrafficSlice;
use crate::leak::{LeakGroup, LeakService};
use crate::report::{fold_cell, header_str, paper_note_str, pct, phi_value, TextTable};
use cw_honeypot::deployment::{Deployment, Provider};
use cw_scanners::population::ScenarioYear;

/// Table 3: impact of Internet-service search engines (the leak
/// experiment, run once per invocation via [`ExhibitCx::leak`]).
pub struct Table3;

impl Exhibit for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }
    fn title(&self) -> &'static str {
        "Fold increase in traffic toward leaked services"
    }
    fn needs(&self) -> &'static [Need] {
        &[]
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str("Table 3: fold increase in traffic/hour toward leaked services");
        out.push_str(&paper_note_str(
            "HTTP/80 all: Censys 7.7* Shodan 15.7* Prev 17.2* · malicious: 4.0* / 5.8 / 7.3 · \
             SSH/22 all: 2.4 / 2.6* / 1.5* · malicious: 2.5 / 2.8* / 1.7* · \
             Telnet/23 all: 72.6* / 1.06* / 201 · malicious: 1.6* / 1.3* / 1.8 \
             (** = MWU-significant increase; trailing * = KS-different distribution/spikes)",
        ));
        let outcome = cx.leak();

        let mut t = TextTable::new(&[
            "Service",
            "Traffic",
            "Censys Leaked",
            "Shodan Leaked",
            "Previously Leaked",
        ]);
        for svc in LeakService::ALL {
            for malicious in [false, true] {
                let cell = |group: LeakGroup| -> String {
                    outcome
                        .cells
                        .iter()
                        .find(|c| {
                            c.service == svc && c.group == group && c.malicious_only == malicious
                        })
                        .map(|c| fold_cell(c.fold, c.mwu_significant, c.ks_different))
                        .unwrap_or_else(|| "-".into())
                };
                t.row(vec![
                    if malicious {
                        String::new()
                    } else {
                        svc.label().to_string()
                    },
                    if malicious { "Malicious" } else { "All" }.to_string(),
                    cell(LeakGroup::CensysLeaked(svc)),
                    cell(LeakGroup::ShodanLeaked(svc)),
                    cell(LeakGroup::PreviouslyLeaked),
                ]);
            }
        }
        out.push_str(&format!("{}\n", t.render()));
        let (leaked_pw, control_pw) = outcome.ssh_unique_passwords;
        out.push_str(&format!(
            "Unique SSH passwords attempted: leaked {leaked_pw:.1} vs control {control_pw:.1} \
             ({:.1}x; paper: ~3x)\n",
            leaked_pw / control_pw.max(1.0)
        ));
        out
    }
}

/// Table 6: honeypots in multiple clouds — the city-matched placement
/// matrix. Derived from the deployment alone; no simulation needed.
pub struct Table6;

impl Exhibit for Table6 {
    fn name(&self) -> &'static str {
        "table6"
    }
    fn title(&self) -> &'static str {
        "City/state-matched multi-cloud deployments"
    }
    fn needs(&self) -> &'static [Need] {
        &[]
    }
    fn run(&self, _cx: &ExhibitCx<'_>) -> String {
        let mut out = header_str("Table 6: city/state-matched multi-cloud deployments");
        out.push_str(&paper_note_str(
            "paper lists CA, GA, OR, TX, VG, FRA rows; our Table 1-derived fleet yields the \
             city-matched pairs below (the paper's own Tables 1 and 6 disagree slightly — see DESIGN.md)",
        ));
        let d = Deployment::standard();
        let regions = d.greynoise_provider_regions();
        let mut codes: Vec<String> = regions.iter().map(|(_, r)| r.code.clone()).collect();
        codes.sort();
        codes.dedup();

        let providers = [
            Provider::Aws,
            Provider::Google,
            Provider::Linode,
            Provider::Azure,
        ];
        let mut t = TextTable::new(&["Region", "AWS", "Google", "Linode", "Azure"]);
        for code in codes {
            let has = |p: Provider| regions.iter().any(|(pp, r)| *pp == p && r.code == code);
            let marks: Vec<bool> = providers.iter().map(|&p| has(p)).collect();
            if marks.iter().filter(|&&m| m).count() >= 2 {
                t.row(vec![
                    code.clone(),
                    if marks[0] { "+" } else { "" }.to_string(),
                    if marks[1] { "+" } else { "" }.to_string(),
                    if marks[2] { "+" } else { "" }.to_string(),
                    if marks[3] { "+" } else { "" }.to_string(),
                ]);
            }
        }
        out.push_str(&format!("{}\n", t.render()));
        out
    }
}

/// Every table and figure in one digest (shares scenario bundles across
/// sections, in the retired `all` binary's canonical order).
pub struct All;

impl Exhibit for All {
    fn name(&self) -> &'static str {
        "all"
    }
    fn title(&self) -> &'static str {
        "One-run digest of every table and figure"
    }
    fn needs(&self) -> &'static [Need] {
        &[
            Need::Year(ScenarioYear::Y2021),
            Need::Exact(ScenarioYear::Y2020),
            Need::Exact(ScenarioYear::Y2022),
        ]
    }
    fn plans(&self) -> Vec<PlanRequest> {
        let d = Deployment::standard();
        // The main-year sections consume Tables 2, 4, 8/9, 11 (both ports), and
        // the §3.2 composition; each appendix snapshot re-reads Table 2 and
        // the port-80 breakdown on its own year.
        let mut main = crate::neighborhood::table2_plans(d);
        main.extend(crate::geography::table4_plans(d));
        main.extend(crate::overlap::table8_and_9_plans(d));
        main.extend(crate::ports::protocol_breakdown_plans(d, 80));
        main.extend(crate::ports::protocol_breakdown_plans(d, 8080));
        main.extend(crate::ports::composition_stats_plans(d));
        let mut reqs = PlanRequest::all_for(self.needs()[0], main);
        for &need in &self.needs()[1..] {
            let mut side = crate::neighborhood::table2_plans(d);
            side.extend(crate::ports::protocol_breakdown_plans(d, 80));
            reqs.extend(PlanRequest::all_for(need, side));
        }
        reqs
    }
    fn run(&self, cx: &ExhibitCx<'_>) -> String {
        let d = Deployment::standard();
        let mut sections = render_main_year(cx, self.needs()[0], d);
        let mut out = sections.remove(0); // Table 2
        out.push_str(&render_leak_section(cx)); // Table 3
        for s in sections {
            out.push_str(&s); // Tables 4, 8/9, 11+§3.2, Figure 1, Table 7 sample
        }
        out.push_str(&render_appendix(cx, self.needs()[1]));
        out.push_str(&render_appendix(cx, self.needs()[2]));
        out
    }
}

/// The digest's sections on the main year's world (2021 unless `--year`
/// overrides it), each header naming that year.
fn render_main_year(cx: &ExhibitCx<'_>, need: Need, d: &Deployment) -> Vec<String> {
    let bundle = cx.bundle(need);
    let year = bundle.config.year.year();
    let mut sections = Vec::new();

    let mut out = header_str(&format!("Table 2 ({year} neighborhoods)"));
    let mut t = TextTable::new(&["Slice", "Characteristic", "n", "% dif", "Avg phi"]);
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
    sections.push(out);

    let mut out = header_str(&format!("Table 4 ({year} geography)"));
    let mut t = TextTable::new(&["Characteristic", "Slice", "Provider", "Region", "phi"]);
    for r in cx.table4_rows(need) {
        t.row(vec![
            r.characteristic.label().to_string(),
            r.slice.label().to_string(),
            format!("{:?}", r.provider),
            r.region.clone().unwrap_or_else(|| "-".into()),
            phi_value(r.avg_phi, 1),
        ]);
    }
    out.push_str(&format!("{}\n", t.render()));
    sections.push(out);

    let mut out = header_str("Table 8 / Table 9 (telescope avoidance)");
    {
        let mut t = TextTable::new(&["Port", "Tel∩Cloud", "Tel∩EDU", "Cloud∩EDU"]);
        for r in cx.table8_rows(need) {
            t.row(vec![
                r.port.to_string(),
                pct(r.tel_cloud),
                pct(r.tel_edu),
                pct(r.cloud_edu),
            ]);
        }
        out.push_str(&format!("{}\n", t.render()));
        let mut t = TextTable::new(&["Port", "Tel∩Mal-Cloud", "Tel∩Mal-EDU"]);
        for r in cx.table9_rows(need) {
            t.row(vec![r.port.to_string(), pct(r.tel_cloud), pct(r.tel_edu)]);
        }
        out.push_str(&format!("{}\n", t.render()));
    }
    sections.push(out);

    let mut out = header_str(&format!("Table 11 + §3.2 ({year} ports)"));
    for port in BreakdownPort::BOTH {
        let (rows, _) = cx.breakdown(need, port);
        for r in rows {
            out.push_str(&format!(
                "  {}HTTP/{port}: {:.0}% (benign {:.0}%, malicious {:.0}%)\n",
                if r.is_http { "" } else { "~" },
                r.pct_of_scanners,
                r.pct_benign,
                r.pct_malicious
            ));
        }
    }
    let c = cx.composition(need);
    out.push_str(&format!(
        "  non-auth telnet {:.0}%, ssh {:.0}%; http80 benign {:.0}%; distinct-http malicious {:.0}%\n",
        c.telnet_non_auth_pct, c.ssh_non_auth_pct, c.http80_benign_pct, c.distinct_http_malicious_pct
    ));
    sections.push(out);

    let mut out = header_str("Figure 1 (sparklines)");
    {
        let tel = &bundle.telescope;
        for port in [22u16, 445, 80, 17_128] {
            if let Some(fig) = crate::figure1::series(tel, port) {
                out.push_str(&format!(
                    "  port {port:>5}: {}\n",
                    crate::figure1::ascii_sparkline(&fig.rolling, 80)
                ));
            }
        }
    }
    sections.push(out);

    let mut out = header_str(&format!("Table 7 sample (network types, {year})"));
    let cc = crate::network::cloud_cloud_cell(
        &cx.exec(need),
        d,
        TrafficSlice::SshPort22,
        CharKind::TopAs,
        0.05,
    );
    out.push_str(&format!(
        "  cloud-cloud SSH/22 Top-AS: {}/{} different, avg phi {}\n",
        cc.n_different,
        cc.n,
        phi_value(cc.avg_phi, 1)
    ));
    sections.push(out);

    sections
}

fn render_leak_section(cx: &ExhibitCx<'_>) -> String {
    let mut out = header_str("Table 3 (leak experiment)");
    let leak = cx.leak();
    let mut t = TextTable::new(&["Service", "Traffic", "Censys", "Shodan", "Prev"]);
    for svc in LeakService::ALL {
        for malicious in [false, true] {
            let cell = |g: LeakGroup| {
                leak.cells
                    .iter()
                    .find(|c| c.service == svc && c.group == g && c.malicious_only == malicious)
                    .map(|c| fold_cell(c.fold, c.mwu_significant, c.ks_different))
                    .unwrap_or_default()
            };
            t.row(vec![
                svc.label().to_string(),
                if malicious { "Malicious" } else { "All" }.to_string(),
                cell(LeakGroup::CensysLeaked(svc)),
                cell(LeakGroup::ShodanLeaked(svc)),
                cell(LeakGroup::PreviouslyLeaked),
            ]);
        }
    }
    out.push_str(&format!("{}\n", t.render()));
    out
}

fn render_appendix(cx: &ExhibitCx<'_>, need: Need) -> String {
    let year = cx.bundle(need).config.year;
    let mut out = header_str(&format!("Appendix snapshot ({})", year.year()));
    let rows = cx.table2_rows(need);
    out.push_str(&format!(
        "  neighborhoods different (SSH/22 Top-AS): {:.0}% of {}\n",
        rows[0].pct_different, rows[0].n
    ));
    {
        let port = BreakdownPort::P80;
        let (rows, _) = cx.breakdown(need, port);
        if let Some(r) = rows.iter().find(|r| !r.is_http) {
            out.push_str(&format!(
                "  ~HTTP/{port} share: {:.0}%\n",
                r.pct_of_scanners
            ));
        }
    }
    out
}
