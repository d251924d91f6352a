//! Cross-crate integration: a full (reduced-scale) scenario run through
//! every analysis, asserting the paper's headline *shapes*.

use cloud_watching::core::compare::CharKind;
use cloud_watching::core::dataset::TrafficSlice;
use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
use cloud_watching::core::{
    figure1, geography, neighborhood, network, overlap, ports, Plan, PlanStore, ScanExec,
};
use cloud_watching::detection::Verdict;
use cloud_watching::netsim::ip::IpExt;
use cloud_watching::scanners::population::ScenarioYear;

thread_local! {
    /// One scenario per test thread (the pipeline types are deliberately
    /// single-threaded — `Rc<RefCell<…>>` — so the cache is thread-local).
    static SCENARIO: Scenario = Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(20_230_701),
    );
}

/// Run a closure against the thread's cached scenario.
fn scenario<R>(f: impl FnOnce(&Scenario) -> R) -> R {
    SCENARIO.with(f)
}

#[test]
fn traffic_reaches_every_network_kind() {
    scenario(|s| {
        for fleet in [
            "greynoise/aws/AP-SG",
            "greynoise/he/US-OH",
            "honeytrap/stanford",
            "honeytrap/merit",
        ] {
            let ips: Vec<_> = s
                .deployment
                .vantages
                .iter()
                .filter(|v| v.id.starts_with(fleet))
                .map(|v| v.ip)
                .collect();
            let (srcs, asns) = ScanExec::unplanned(&s.dataset)
                .run(&Plan::at(&ips).unique_src_and_asn())
                .into_unique_src_and_asn();
            assert!(srcs > 20, "{fleet}: only {srcs} sources");
            assert!(asns > 5, "{fleet}: only {asns} ASes");
        }
        assert!(s.telescope.borrow().unique_source_count() > 100);
    });
}

#[test]
fn headline_telescope_blind_spot() {
    scenario(|s| {
        // §5.2: Telnet scanners barely avoid the telescope; SSH scanners and
        // especially SSH *attackers* do.
        let tel = s.telescope.borrow();
        let store = PlanStore::build(&s.dataset, &overlap::table8_and_9_plans(s.deployment));
        let exec = ScanExec::with_store(&s.dataset, &store);
        let (t8, t9) = overlap::table8_and_9(&exec, s.deployment, &tel);
        let get = |p: u16| t8.iter().find(|r| r.port == p).unwrap();
        let telnet = get(23).tel_cloud.unwrap();
        let ssh = get(22).tel_cloud.unwrap();
        assert!(telnet > ssh + 25.0, "telnet {telnet:.0}% vs ssh {ssh:.0}%");

        let mal_ssh = t9.iter().find(|r| r.port == 22).unwrap().tel_cloud.unwrap();
        assert!(mal_ssh < 20.0, "malicious ssh overlap {mal_ssh:.0}%");
    });
}

#[test]
fn headline_neighbors_differ() {
    scenario(|s| {
        // §4.1: a meaningful share of neighborhoods sees different top ASes.
        let store = PlanStore::build(&s.dataset, &neighborhood::table2_plans(s.deployment));
        let rows = neighborhood::table2(&ScanExec::with_store(&s.dataset, &store), s.deployment);
        let ssh_as = rows
            .iter()
            .find(|r| r.slice == TrafficSlice::SshPort22 && r.characteristic == CharKind::TopAs)
            .unwrap();
        assert!(
            ssh_as.pct_different > 10.0,
            "only {:.0}% neighborhoods differ",
            ssh_as.pct_different
        );
    });
}

#[test]
fn headline_apac_discrimination() {
    scenario(|s| {
        // §5.1: within-US/EU region pairs are more similar than APAC pairs.
        let (slice, kind) = (TrafficSlice::TelnetPort23, CharKind::TopUsername);
        let plans = geography::table5_plans(s.deployment, slice, kind);
        let store = PlanStore::build(&s.dataset, &plans);
        let exec = ScanExec::with_store(&s.dataset, &store);
        let cells = geography::table5(&exec, s.deployment, slice, kind);
        use cloud_watching::netsim::geo::RegionPairKind;
        let get = |b: RegionPairKind| cells.iter().find(|c| c.bucket == b).map(|c| c.pct_similar);
        if let (Some(us), Some(apac)) = (
            get(RegionPairKind::WithinUs),
            get(RegionPairKind::WithinApac),
        ) {
            assert!(
                us >= apac,
                "US pairs ({us:.0}%) should be at least as similar as APAC ({apac:.0}%)"
            );
        }
    });
}

#[test]
fn headline_unexpected_protocols() {
    scenario(|s| {
        // §6: a non-trivial share of port-80 scanners does not speak HTTP, and
        // TLS leads the unexpected protocols.
        let exec = ScanExec::unplanned(&s.dataset);
        let (rows, shares) =
            ports::protocol_breakdown(&exec, s.deployment, &s.handles.reputation, 80);
        let other = rows.iter().find(|r| !r.is_http).unwrap();
        assert!(
            other.pct_of_scanners > 2.0,
            "unexpected share {:.1}%",
            other.pct_of_scanners
        );
        assert_eq!(
            shares.first().map(|x| x.protocol),
            Some(cloud_watching::protocols::ProtocolId::Tls)
        );
    });
}

#[test]
fn headline_structure_preferences() {
    scenario(|s| {
        // §4.2 / Figure 1 shapes.
        let tel = s.telescope.borrow();
        let pref = figure1::slash16_first_preference(&tel, 22).unwrap();
        assert!(pref > 3.0, "slash16-first preference {pref:.1}x");
        let avoid = figure1::structure_stats(&tel, 445, |ip| ip.has_255_octet()).unwrap();
        assert!(
            avoid.avoidance_factor > 2.0,
            "{:.2}x",
            avoid.avoidance_factor
        );
    });
}

#[test]
fn classification_is_consistent_with_observations() {
    scenario(|s| {
        // Every credential observation is an attacker; every bare handshake is
        // a scanner (§3.2 definition, cross-checked over the full dataset).
        use cloud_watching::honeypot::capture::Observed;
        for e in s.dataset.events() {
            match &e.event.observed {
                Observed::Credentials { .. } => assert_eq!(e.verdict, Verdict::Attacker),
                Observed::Handshake | Observed::Syn => assert_eq!(e.verdict, Verdict::Scanner),
                Observed::Payload(_) => {} // either, decided by the ruleset
            }
        }
    });
}

#[test]
fn network_type_cells_are_computable() {
    scenario(|s| {
        let exec = ScanExec::unplanned(&s.dataset);
        let cc = network::cloud_cloud_cell(
            &exec,
            s.deployment,
            TrafficSlice::TelnetPort23,
            CharKind::TopAs,
            0.05,
        );
        assert!(cc.n >= 5, "only {} city pairs testable", cc.n);
        // Honeytrap credential cells must be the paper's ×.
        let ce = network::honeytrap_cell(
            &exec,
            s.deployment,
            &network::CLOUD_EDU_PAIRS,
            TrafficSlice::SshPort22,
            CharKind::TopPassword,
            0.05,
        );
        assert!(ce.uncomputable);
    });
}

#[test]
fn dataset_export_round_trips_through_csv_header() {
    scenario(|s| {
        let mut buf = Vec::new();
        s.dataset.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time,src,src_asn,dst,dst_port,kind,verdict,fingerprint,username,password,payload_hex"
        );
        assert_eq!(text.lines().count() - 1, s.dataset.len());
    });
}
