//! Fusion-equivalence gate: executing declared plans through a fused
//! [`PlanStore`] must be byte-identical to running every plan alone, for
//! the ported analysis modules and for whole exhibit renders. Fusion is a
//! scheduling optimization — if it ever changes a result, these tests
//! fail before the golden manifest does.
//!
//! Process-wide scan counters are asserted on here, so every test grabs
//! `COUNTER_LOCK`: the tests in this binary share one process (and one
//! frozen-seed world) and must not scan concurrently.

use cloud_watching::core::axes;
use cloud_watching::core::compare::CharKind;
use cloud_watching::core::dataset::{Dataset, TrafficSlice};
use cloud_watching::core::exhibit::{Exhibit, ExhibitCx, ExhibitOptions, REGISTRY};
use cloud_watching::core::query::{scan_counters, ObsKind};
use cloud_watching::core::scenario::ScenarioConfig;
use cloud_watching::core::temporal::{self, YearView};
use cloud_watching::core::{
    geography, neighborhood, network, overlap, ports, Plan, PlanStore, ScanExec, SimBundle,
};
use cloud_watching::detection::Verdict;
use cloud_watching::honeypot::capture::Observed;
use cloud_watching::honeypot::deployment::{CollectorKind, Deployment, NetworkKind};
use cloud_watching::protocols::iana::POPULAR_PORTS;
use cloud_watching::protocols::ProtocolId;
use cloud_watching::scanners::population::ScenarioYear;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::{Mutex, OnceLock};

/// One frozen-seed world shared by every test in this binary (the bundle
/// is `Send + Sync` by design, unlike the full `Scenario`).
fn bundles() -> &'static BTreeMap<u16, SimBundle> {
    static BUNDLES: OnceLock<BTreeMap<u16, SimBundle>> = OnceLock::new();
    BUNDLES.get_or_init(|| {
        let s = SimBundle::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(424_242));
        BTreeMap::from([(2021u16, s)])
    })
}

fn bundle() -> &'static SimBundle {
    &bundles()[&2021]
}

/// Serializes the tests of this binary: scan counters are process-wide.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn greynoise_ips(d: &Deployment) -> Vec<Ipv4Addr> {
    d.vantages
        .iter()
        .filter(|v| v.collector == CollectorKind::GreyNoise)
        .map(|v| v.ip)
        .collect()
}

fn edu_ips(d: &Deployment) -> Vec<Ipv4Addr> {
    d.vantages
        .iter()
        .filter(|v| v.kind == NetworkKind::Education)
        .map(|v| v.ip)
        .collect()
}

/// A structurally diverse plan pool: every terminal, overlapping and
/// distinct destination domains, stacked predicates.
fn plan_pool() -> Vec<Plan> {
    let d = Deployment::standard();
    let g = greynoise_ips(&d);
    let e = edu_ips(&d);
    vec![
        Plan::scan().count(),
        Plan::scan().kind(ObsKind::Syn).count(),
        Plan::at(&g).count(),
        Plan::at(&g).malicious().count(),
        Plan::at(&g).port(23).distinct_srcs(),
        Plan::at(&g).port_in(&[22, 23, 80]).rows(),
        Plan::at(&g).unique_src_and_asn(),
        Plan::at(&g).srcs_by_port(&POPULAR_PORTS),
        Plan::at(&g).malicious().srcs_by_port(&[80, 8080]),
        Plan::at(&g)
            .slice(TrafficSlice::TelnetPort23)
            .char_freqs(CharKind::TopPassword),
        Plan::at(&e)
            .slice(TrafficSlice::SshPort22)
            .char_freqs(CharKind::TopAs),
        Plan::at(&e).fingerprinted().count(),
        Plan::at(&e).port(80).srcs_by_fingerprint(),
        Plan::at(&e).not_kind(ObsKind::Syn).rows(),
    ]
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Any subset of the pool, in any order, with duplicates: a store
    /// built from it must serve exactly what each plan returns standalone,
    /// while running each distinct plan once in no more passes than
    /// distinct plans.
    #[test]
    fn fused_plan_sets_match_standalone_execution(
        picks in proptest::collection::vec(0usize..14, 1..12),
    ) {
        let _g = counter_lock();
        let s = bundle();
        let pool = plan_pool();
        let alone = ScanExec::unplanned(&s.dataset);
        let plans: Vec<Plan> = picks.iter().map(|&i| pool[i].clone()).collect();
        let before = scan_counters();
        let store = PlanStore::build(&s.dataset, &plans);
        let delta = scan_counters().since(before);
        let distinct: BTreeSet<usize> = picks.iter().copied().collect();
        prop_assert_eq!(store.plans(), distinct.len());
        prop_assert_eq!(delta.planned, distinct.len() as u64);
        prop_assert_eq!(delta.fused, store.passes() as u64);
        prop_assert!(store.passes() <= distinct.len());
        for plan in &plans {
            prop_assert_eq!(store.get(plan), Some(&alone.run(plan)));
        }
    }
}

/// The rows a domain enumerates, rebuilt from the destination column: per
/// destination in the order given, then in table order.
fn domain_rows(ds: &Dataset, dsts: Option<&[Ipv4Addr]>) -> Vec<usize> {
    let Some(dsts) = dsts else {
        return (0..ds.len()).collect();
    };
    let mut by_dst: BTreeMap<Ipv4Addr, Vec<usize>> = BTreeMap::new();
    for (i, &dst) in ds.table().dsts().iter().enumerate() {
        by_dst.entry(dst).or_default().push(i);
    }
    dsts.iter()
        .flat_map(|ip| by_dst.get(ip).into_iter().flatten().copied())
        .collect()
}

/// `kind`'s frequencies over `rows` as a string-keyed fold over
/// `ds.event(i)`, independent of `cw_core::axes`' ID-keyed counting.
fn reference_freqs(ds: &Dataset, rows: &[usize], kind: CharKind) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = BTreeMap::new();
    if kind == CharKind::FracMalicious {
        m.insert("malicious".into(), 0);
        m.insert("not-malicious".into(), 0);
    }
    for &i in rows {
        let e = ds.event(i);
        let key = match kind {
            CharKind::TopAs => Some(e.event.src_asn.to_string()),
            CharKind::FracMalicious => Some(match e.verdict {
                Verdict::Attacker => "malicious".to_string(),
                Verdict::Scanner => "not-malicious".to_string(),
            }),
            CharKind::TopUsername => e.username().map(str::to_string),
            CharKind::TopPassword => e.password().map(str::to_string),
            CharKind::TopPayload => e
                .payload_bytes()
                .map(|p| axes::payload_key(&cloud_watching::protocols::http::normalize(p))),
        };
        if let Some(key) = key {
            *m.entry(key).or_insert(0) += 1;
        }
    }
    m
}

/// The scan kernel against per-row references on a real world: every
/// terminal, over the GreyNoise fleet, the EDU fleet and the whole table,
/// with and without a residual predicate, matches `BTreeSet` inserts per
/// admitted row and string-keyed folds over `ds.event(i)`.
#[test]
fn every_terminal_matches_a_per_row_reference_on_a_real_world() {
    let _g = counter_lock();
    let ds = &bundle().dataset;
    let t = ds.table();
    let exec = ScanExec::unplanned(ds);
    let d = Deployment::standard();
    let (g, e) = (greynoise_ips(&d), edu_ips(&d));
    // A repeated key (22) and a key absent from the data (9).
    let keys = [23, 22, 80, 22, 9];
    assert!(!t.dst_ports().contains(&9));
    // Long enough for the whole-table key lists to compact mid-pass.
    assert!(ds.len() > 1 << 16, "{} rows", ds.len());
    let mut nonempty = BTreeSet::new();
    for (dsts, domain) in [
        (Some(&g[..]), Plan::at(&g)),
        (Some(&e[..]), Plan::at(&e)),
        (None, Plan::scan()),
    ] {
        let not_syn = |i: &usize| !matches!(t.observed()[*i], Observed::Syn);
        for (base, rows) in [
            (domain.clone(), domain_rows(ds, dsts)),
            (
                domain.not_kind(ObsKind::Syn),
                domain_rows(ds, dsts).into_iter().filter(not_syn).collect(),
            ),
        ] {
            let run = |plan: Plan| exec.run(&plan);
            assert!(!rows.is_empty(), "{base:?}");
            assert_eq!(run(base.clone().count()).into_count(), rows.len());
            assert_eq!(run(base.clone().rows()).into_rows(), rows);

            let mut srcs = BTreeSet::new();
            let mut asns = BTreeSet::new();
            let mut by_port: BTreeMap<u16, BTreeSet<Ipv4Addr>> =
                keys.iter().map(|&p| (p, BTreeSet::new())).collect();
            let mut by_fp: BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
            for &i in &rows {
                srcs.insert(t.srcs()[i]);
                asns.insert(t.src_asns()[i]);
                if let Some(set) = by_port.get_mut(&t.dst_ports()[i]) {
                    set.insert(t.srcs()[i]);
                }
                if let Some(fp) = ds.fingerprints()[i] {
                    by_fp.entry(fp).or_default().insert(t.srcs()[i]);
                }
            }
            assert_eq!(run(base.clone().distinct_srcs()).into_distinct_srcs(), srcs);
            assert_eq!(
                run(base.clone().unique_src_and_asn()).into_unique_src_and_asn(),
                (srcs.len(), asns.len())
            );
            assert_eq!(
                run(base.clone().srcs_by_port(&keys)).into_port_srcs(),
                by_port
            );
            assert!(by_port[&9].is_empty() && !by_port[&22].is_empty());
            assert_eq!(
                run(base.clone().srcs_by_fingerprint()).into_fingerprint_srcs(),
                by_fp
            );
            for kind in [
                CharKind::TopAs,
                CharKind::FracMalicious,
                CharKind::TopUsername,
                CharKind::TopPassword,
                CharKind::TopPayload,
            ] {
                let want = reference_freqs(ds, &rows, kind);
                if want.values().any(|&n| n > 0) {
                    nonempty.insert(kind.label());
                }
                let got = run(base.clone().char_freqs(kind)).into_char_freqs();
                assert_eq!(got, want, "{kind:?} over {base:?}");
            }
        }
    }
    assert_eq!(nonempty.len(), 5, "every axis must see data: {nonempty:?}");
}

/// Partitions form, and their passes run, in submission order: a store
/// built from the pool reversed runs its passes in another order, and no
/// stored result, pass count or scan counter may move.
#[test]
fn submission_order_changes_no_stored_result() {
    let _g = counter_lock();
    let s = bundle();
    let pool = plan_pool();
    let build = |plans: &[Plan]| {
        let before = scan_counters();
        let store = PlanStore::build(&s.dataset, plans);
        (store, scan_counters().since(before))
    };
    let (forward, forward_scans) = build(&pool);
    let reversed: Vec<Plan> = pool.iter().rev().cloned().collect();
    let (backward, backward_scans) = build(&reversed);
    assert_eq!(forward_scans, backward_scans);
    assert_eq!(forward.passes(), backward.passes());
    for (i, plan) in pool.iter().enumerate() {
        assert!(forward.get(plan).is_some(), "plan {i} not stored");
        assert_eq!(
            forward.get(plan),
            backward.get(plan),
            "plan {i} changed under reversed submission"
        );
    }
}

/// Tables 5 and 7's 14 (slice, characteristic) cells.
const GRID14: [(TrafficSlice, CharKind); 14] = [
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

/// Every ported module product — Tables 2, 4, 5, 8+9, 11, §3.2 — computed
/// through one fused registry-style store vs. plan-at-a-time execution;
/// and the network products (Tables 7, 10) and temporal stability through
/// a store of Table 5's plans, where the cloud–cloud grid costs no pass.
#[test]
fn ported_products_match_unplanned_execution() {
    let _g = counter_lock();
    let s = bundle();
    let d = Deployment::standard();
    let cells = [
        (TrafficSlice::SshPort22, CharKind::TopAs),
        (TrafficSlice::HttpAllPorts, CharKind::TopPayload),
    ];
    let mut plans = Vec::new();
    plans.extend(neighborhood::table2_plans(&d));
    plans.extend(geography::table4_plans(&d));
    for &(slice, kind) in &cells {
        plans.extend(geography::table5_plans(&d, slice, kind));
    }
    plans.extend(overlap::table8_and_9_plans(&d));
    plans.extend(ports::protocol_breakdown_plans(&d, 80));
    plans.extend(ports::protocol_breakdown_plans(&d, 8080));
    plans.extend(ports::composition_stats_plans(&d));

    let store = PlanStore::build(&s.dataset, &plans);
    assert!(
        store.passes() < store.plans(),
        "registry-style plan mix must actually fuse ({} plans, {} passes)",
        store.plans(),
        store.passes()
    );
    let fused = ScanExec::with_store(&s.dataset, &store);
    let alone = ScanExec::unplanned(&s.dataset);

    // Row types are Debug-but-not-PartialEq; their debug form carries
    // every field, which is exactly the equality the renders consume.
    assert_eq!(
        format!("{:?}", neighborhood::table2(&fused, &d)),
        format!("{:?}", neighborhood::table2(&alone, &d)),
    );
    assert_eq!(
        format!("{:?}", geography::table4(&fused, &d)),
        format!("{:?}", geography::table4(&alone, &d)),
    );
    for &(slice, kind) in &cells {
        assert_eq!(
            format!("{:?}", geography::table5(&fused, &d, slice, kind)),
            format!("{:?}", geography::table5(&alone, &d, slice, kind)),
            "table5 {slice:?} {kind:?}"
        );
    }
    assert_eq!(
        format!("{:?}", overlap::table8_and_9(&fused, &d, &s.telescope)),
        format!("{:?}", overlap::table8_and_9(&alone, &d, &s.telescope)),
    );
    for port in [80u16, 8080] {
        assert_eq!(
            format!(
                "{:?}",
                ports::protocol_breakdown(&fused, &d, &s.reputation, port)
            ),
            format!(
                "{:?}",
                ports::protocol_breakdown(&alone, &d, &s.reputation, port)
            ),
            "breakdown port {port}"
        );
    }
    assert_eq!(
        format!("{:?}", ports::composition_stats(&fused, &d)),
        format!("{:?}", ports::composition_stats(&alone, &d)),
    );

    let t5_plans: Vec<Plan> = GRID14
        .iter()
        .flat_map(|&(slice, kind)| geography::table5_plans(&d, slice, kind))
        .collect();
    let t5_store = PlanStore::build(&s.dataset, &t5_plans);
    let t5 = ScanExec::with_store(&s.dataset, &t5_store);
    let cloud_cloud = |exec: &ScanExec<'_>| -> Vec<_> {
        GRID14
            .iter()
            .map(|&(slice, kind)| network::cloud_cloud_cell(exec, &d, slice, kind, 0.05))
            .collect()
    };
    let before = scan_counters();
    let cc = cloud_cloud(&t5);
    assert_eq!(
        scan_counters().since(before).fused,
        0,
        "the cloud-cloud grid must read only Table 5's plans"
    );
    assert!(cc.iter().any(|c| c.n > 0));
    assert_eq!(format!("{cc:?}"), format!("{:?}", cloud_cloud(&alone)));
    let edu_edu = [("honeytrap/stanford", "honeytrap/merit")];
    for (slice, kind) in GRID14 {
        for pairs in [&network::CLOUD_EDU_PAIRS[..], &edu_edu] {
            assert_eq!(
                format!(
                    "{:?}",
                    network::honeytrap_cell(&t5, &d, pairs, slice, kind, 0.05)
                ),
                format!(
                    "{:?}",
                    network::honeytrap_cell(&alone, &d, pairs, slice, kind, 0.05)
                ),
                "honeytrap cell {pairs:?} {slice:?} {kind:?}"
            );
        }
    }
    for slice in [TrafficSlice::SshPort22, TrafficSlice::AnyAll] {
        for fleet in ["honeytrap/stanford", "honeytrap/aws-west"] {
            let cmp = |exec: &ScanExec<'_>| {
                network::telescope_vs_fleet(exec, &d, &s.telescope, fleet, slice, 0.05, 2)
            };
            assert_eq!(
                format!("{:?}", cmp(&t5)),
                format!("{:?}", cmp(&alone)),
                "{fleet}"
            );
        }
    }
    let t8 = overlap::table8_and_9(&alone, &d, &s.telescope).0;
    let stability = |exec: ScanExec<'_>| {
        let view = YearView {
            year: 2021,
            exec,
            telescope: &s.telescope,
        };
        temporal::stability(&d, view, view, &t8, &t8)
    };
    assert_eq!(
        format!("{:?}", stability(t5)),
        format!("{:?}", stability(alone))
    );
}

/// Every exhibit satisfied by the one 2021 world (the multi-year and leak
/// exhibits need worlds these gates do not simulate).
fn singles(opts: &ExhibitOptions) -> Vec<&'static dyn Exhibit> {
    let singles: Vec<&dyn Exhibit> = REGISTRY
        .iter()
        .copied()
        .filter(|e| {
            !e.needs().is_empty() && e.needs().iter().all(|n| n.resolve(opts).year() == 2021)
        })
        .collect();
    assert!(
        singles.len() >= 15,
        "expected most of the registry, got {}",
        singles.len()
    );
    singles
}

/// Each exhibit's declared plans cover its render: after prefetching that
/// exhibit's plans alone, its render runs no column pass.
#[test]
fn declared_plans_cover_each_render() {
    let _g = counter_lock();
    let opts = ExhibitOptions::default();
    for e in singles(&opts) {
        let mut cx = ExhibitCx::new(opts, bundles());
        cx.prefetch(&[e]);
        let before = scan_counters();
        e.run(&cx);
        let fused = scan_counters().since(before).fused;
        assert_eq!(
            fused,
            0,
            "{} ran {fused} passes its plans do not declare",
            e.name()
        );
    }
}

/// Rendering through a prefetched context must produce the same bytes as
/// the legacy on-demand path while costing strictly fewer column passes.
#[test]
fn prefetched_registry_renders_are_byte_identical() {
    let _g = counter_lock();
    let worlds = bundles();
    let opts = ExhibitOptions::default();
    let singles = singles(&opts);

    let c0 = scan_counters();
    let plain_cx = ExhibitCx::new(opts, worlds);
    let plain: Vec<String> = singles.iter().map(|e| e.run(&plain_cx)).collect();
    let unfused = scan_counters().since(c0);

    // The prefetch at any thread count: the same stores, stats and
    // column passes, so the same bytes.
    let mut reference = None;
    for threads in [1, 2, 8] {
        let c1 = scan_counters();
        let mut cx = ExhibitCx::new(opts, worlds).with_threads(threads);
        let stats = cx.prefetch(&singles);
        assert_eq!(stats.len(), 1, "one bundle, one prefetched store");
        assert!(
            stats[0].passes < stats[0].plans,
            "prefetch must fuse: {stats:?}"
        );
        let rendered: Vec<String> = singles.iter().map(|e| e.run(&cx)).collect();
        let fused = scan_counters().since(c1);

        for (i, e) in singles.iter().enumerate() {
            assert_eq!(
                plain[i],
                rendered[i],
                "{} changed under prefetch at {threads} threads",
                e.name()
            );
        }
        assert!(
            fused.fused < unfused.fused,
            "prefetched renders must cost fewer passes (fused {} vs unfused {})",
            fused.fused,
            unfused.fused
        );
        let (stats1, fused1) = reference.get_or_insert((stats.clone(), fused));
        assert_eq!(&stats, stats1, "prefetch stats at {threads} threads");
        assert_eq!(&fused, fused1, "scan counters at {threads} threads");
    }
}
