//! Plan equivalence: on a frozen seed, every scan plan must produce
//! exactly what a hand-rolled column loop produces. The hand-rolled
//! reference implementations are reconstructed here from the public
//! column accessors (no plan execution), so a regression in predicate
//! pushdown, enumeration order, or key seeding fails loudly instead of
//! shifting golden bytes.

use cloud_watching::core::compare::CharKind;
use cloud_watching::core::dataset::{Dataset, TrafficSlice};
use cloud_watching::core::query::TABLE_ORDER_SHARE;
use cloud_watching::core::scenario::ScenarioConfig;
use cloud_watching::core::{Plan, PlanResult, PlanStore, ScanExec, SimBundle};
use cloud_watching::detection::Verdict;
use cloud_watching::honeypot::deployment::{CollectorKind, Deployment, NetworkKind, VantagePoint};
use cloud_watching::protocols::iana::POPULAR_PORTS;
use cloud_watching::protocols::ProtocolId;
use cloud_watching::scanners::population::ScenarioYear;
use cloud_watching::stats::topk::Freqs;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// One frozen-seed world shared by every test in this binary (the bundle
/// is `Send + Sync`, so it is built once, not once per test thread).
fn bundle() -> &'static SimBundle {
    static BUNDLE: OnceLock<SimBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        SimBundle::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(424_242))
    })
}

fn run(plan: Plan) -> PlanResult {
    ScanExec::unplanned(&bundle().dataset).run(&plan)
}

/// Vantage IPs whose deployment entry passes `keep`.
fn ips_where(keep: impl Fn(&VantagePoint) -> bool) -> Vec<Ipv4Addr> {
    Deployment::standard()
        .vantages
        .iter()
        .filter(|v| keep(v))
        .map(|v| v.ip)
        .collect()
}

/// GreyNoise fleet IPs (the Table 1 cloud fleet).
fn greynoise_ips() -> Vec<Ipv4Addr> {
    ips_where(|v| v.collector == CollectorKind::GreyNoise)
}

/// A per-IP destination sweep: rows destined to each IP in the order
/// given, capture order within an IP, inline slice predicate.
fn hand_rolled_indices(ds: &Dataset, ips: &[Ipv4Addr], slice: TrafficSlice) -> Vec<usize> {
    let table = ds.table();
    let mut out = Vec::new();
    for &ip in ips {
        for i in 0..table.len() {
            if table.dsts()[i] != ip {
                continue;
            }
            let admitted = match slice {
                TrafficSlice::SshPort22 => table.dst_ports()[i] == 22,
                TrafficSlice::TelnetPort23 => table.dst_ports()[i] == 23,
                TrafficSlice::HttpPort80 => table.dst_ports()[i] == 80,
                TrafficSlice::HttpAllPorts => ds.fingerprints()[i] == Some(ProtocolId::Http),
                TrafficSlice::AnyAll => true,
            };
            if admitted {
                out.push(i);
            }
        }
    }
    out
}

#[test]
fn table1_unique_src_and_asn_matches_hand_rolled() {
    let ds = &bundle().dataset;
    let ips = greynoise_ips();
    let fleet: BTreeSet<Ipv4Addr> = ips.iter().copied().collect();
    let table = ds.table();
    let mut srcs = BTreeSet::new();
    let mut asns = BTreeSet::new();
    for i in 0..table.len() {
        if fleet.contains(&table.dsts()[i]) {
            srcs.insert(table.srcs()[i]);
            asns.insert(table.src_asns()[i].0);
        }
    }
    assert!(srcs.len() > 50, "fleet too quiet for a meaningful check");
    assert_eq!(
        run(Plan::at(&ips).unique_src_and_asn()).into_unique_src_and_asn(),
        (srcs.len(), asns.len())
    );
}

#[test]
fn table7_char_freqs_match_hand_rolled() {
    let ds = &bundle().dataset;
    let ips = ips_where(|v| v.id.starts_with("honeytrap/stanford"));
    assert!(!ips.is_empty());
    for slice in [
        TrafficSlice::SshPort22,
        TrafficSlice::TelnetPort23,
        TrafficSlice::HttpAllPorts,
        TrafficSlice::AnyAll,
    ] {
        for kind in [CharKind::TopAs, CharKind::FracMalicious] {
            let events: Vec<_> = hand_rolled_indices(ds, &ips, slice)
                .into_iter()
                .map(|i| ds.event(i))
                .collect();
            let expected: Freqs = kind.freqs(&events);
            let got = run(Plan::at(&ips).slice(slice).char_freqs(kind)).into_char_freqs();
            assert_eq!(got, expected, "{slice:?} {kind:?}");
        }
    }
    // Enumeration order itself (not just the order-insensitive folds).
    let order = hand_rolled_indices(ds, &ips, TrafficSlice::AnyAll);
    assert_eq!(
        run(Plan::at(&ips).rows()).into_rows(),
        order,
        "dst pushdown must enumerate per-IP in argument order"
    );
    assert_eq!(run(Plan::at(&ips).count()).into_count(), order.len());
}

#[test]
fn tables_8_and_9_srcs_by_port_match_hand_rolled() {
    let ds = &bundle().dataset;
    let ips = greynoise_ips();
    let fleet: BTreeSet<Ipv4Addr> = ips.iter().copied().collect();
    let table = ds.table();
    let hand_rolled = |ports: &[u16], malicious: bool| {
        let mut sets: BTreeMap<u16, BTreeSet<Ipv4Addr>> =
            ports.iter().map(|&p| (p, BTreeSet::new())).collect();
        for i in 0..table.len() {
            if !fleet.contains(&table.dsts()[i]) {
                continue;
            }
            if malicious && ds.verdicts()[i] != Verdict::Attacker {
                continue;
            }
            if let Some(set) = sets.get_mut(&table.dst_ports()[i]) {
                set.insert(table.srcs()[i]);
            }
        }
        sets
    };
    let all = hand_rolled(&POPULAR_PORTS, false);
    let bad = hand_rolled(&POPULAR_PORTS, true);
    assert!(all.values().any(|v| !v.is_empty()));
    // Both plans, fused into one pass over the fleet, must reproduce the
    // hand-rolled sets.
    let plans = [
        Plan::at(&ips).srcs_by_port(&POPULAR_PORTS),
        Plan::at(&ips).malicious().srcs_by_port(&POPULAR_PORTS),
    ];
    let store = PlanStore::build(ds, &plans);
    assert_eq!(store.passes(), 1);
    let fused = |p: &Plan| store.get(p).cloned().expect("stored").into_port_srcs();
    assert_eq!(fused(&plans[0]), all);
    assert_eq!(fused(&plans[1]), bad);
    // The ungrouped terminal agrees with the per-port sets.
    assert_eq!(
        run(Plan::at(&ips).port(23).distinct_srcs()).into_distinct_srcs(),
        all[&23]
    );
}

#[test]
fn ports_fingerprint_grouping_matches_hand_rolled() {
    let ds = &bundle().dataset;
    let ips =
        ips_where(|v| v.collector == CollectorKind::Honeytrap && v.kind != NetworkKind::Education);
    let fleet: BTreeSet<Ipv4Addr> = ips.iter().copied().collect();
    let table = ds.table();
    let mut expected: BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    for i in 0..table.len() {
        if !fleet.contains(&table.dsts()[i]) || table.dst_ports()[i] != 80 {
            continue;
        }
        if let Some(proto) = ds.fingerprints()[i] {
            expected.entry(proto).or_default().insert(table.srcs()[i]);
        }
    }
    assert!(expected.contains_key(&ProtocolId::Http));
    let got = run(Plan::at(&ips).port(80).srcs_by_fingerprint()).into_fingerprint_srcs();
    assert_eq!(got, expected);
}

/// Only `rows()` observes enumeration order: a dense, duplicate-free fleet
/// domain read in table order must return, for every other terminal, what
/// the per-destination enumeration returns. `rows()` keeps per-destination
/// order, an IP listed twice still counts its rows twice, and a sparse
/// domain (below the `TABLE_ORDER_SHARE` floor) agrees too.
#[test]
fn order_free_terminals_match_per_destination_enumeration() {
    let ds = &bundle().dataset;
    let table = ds.table();
    let fleet = greynoise_ips();
    let mut repeated = fleet.clone();
    repeated.push(fleet[0]);
    let honeypot = ips_where(|v| v.id.starts_with("honeytrap/stanford"))[..1].to_vec();
    let mut counts = Vec::new();
    for (ips, dense) in [(&fleet, true), (&repeated, true), (&honeypot, false)] {
        let rows = hand_rolled_indices(ds, ips, TrafficSlice::AnyAll);
        assert!(!rows.is_empty());
        assert_eq!(
            rows.len() as u64 * TABLE_ORDER_SHARE >= ds.len() as u64,
            dense,
            "{} of {} rows",
            rows.len(),
            ds.len()
        );
        let domain = Plan::at(ips);
        assert_eq!(run(domain.clone().rows()).into_rows(), rows);
        assert_eq!(run(domain.clone().count()).into_count(), rows.len());
        counts.push(rows.len());

        let srcs: BTreeSet<Ipv4Addr> = rows.iter().map(|&i| table.srcs()[i]).collect();
        let asns: BTreeSet<u32> = rows.iter().map(|&i| table.src_asns()[i].0).collect();
        assert_eq!(
            run(domain.clone().distinct_srcs()).into_distinct_srcs(),
            srcs
        );
        assert_eq!(
            run(domain.clone().unique_src_and_asn()).into_unique_src_and_asn(),
            (srcs.len(), asns.len())
        );
        let events: Vec<_> = rows.iter().map(|&i| ds.event(i)).collect();
        for kind in [
            CharKind::TopAs,
            CharKind::FracMalicious,
            CharKind::TopUsername,
            CharKind::TopPassword,
            CharKind::TopPayload,
        ] {
            assert_eq!(
                run(domain.clone().char_freqs(kind)).into_char_freqs(),
                kind.freqs(&events),
                "{kind:?}"
            );
        }
        let mut by_port: BTreeMap<u16, BTreeSet<Ipv4Addr>> = POPULAR_PORTS
            .iter()
            .map(|&p| (p, BTreeSet::new()))
            .collect();
        let mut by_fp: BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for &i in &rows {
            if let Some(set) = by_port.get_mut(&table.dst_ports()[i]) {
                set.insert(table.srcs()[i]);
            }
            if let Some(fp) = ds.fingerprints()[i] {
                by_fp.entry(fp).or_default().insert(table.srcs()[i]);
            }
        }
        assert_eq!(
            run(domain.clone().srcs_by_port(&POPULAR_PORTS)).into_port_srcs(),
            by_port
        );
        assert_eq!(
            run(domain.srcs_by_fingerprint()).into_fingerprint_srcs(),
            by_fp
        );
    }
    let first = hand_rolled_indices(ds, &fleet[..1], TrafficSlice::AnyAll).len();
    assert!(first > 0);
    assert_eq!(counts[1], counts[0] + first, "the repeated IP counts twice");
}
