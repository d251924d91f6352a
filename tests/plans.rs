//! Fusion-equivalence gate: executing declared plans through a fused
//! [`PlanStore`] must be byte-identical to running every plan alone, for
//! the ported analysis modules and for whole exhibit renders. Fusion is a
//! scheduling optimization — if it ever changes a result, these tests
//! fail before the golden manifest does.
//!
//! Process-wide scan counters are asserted on here, so every test grabs
//! `COUNTER_LOCK`: the tests in this binary share one process (and one
//! frozen-seed world) and must not scan concurrently.

use cloud_watching::core::compare::CharKind;
use cloud_watching::core::dataset::TrafficSlice;
use cloud_watching::core::exhibit::{Exhibit, ExhibitCx, ExhibitOptions, REGISTRY};
use cloud_watching::core::query::{scan_counters, ObsKind};
use cloud_watching::core::scenario::ScenarioConfig;
use cloud_watching::core::{
    geography, neighborhood, overlap, ports, Plan, PlanSet, PlanStore, ScanExec, SimBundle,
};
use cloud_watching::honeypot::deployment::{CollectorKind, Deployment, NetworkKind};
use cloud_watching::protocols::iana::POPULAR_PORTS;
use cloud_watching::scanners::population::ScenarioYear;
use proptest::prelude::*;
use std::collections::BTreeMap;
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
        Plan::at(&e).slice(TrafficSlice::SshPort22).char_freqs(CharKind::TopAs),
        Plan::at(&e).fingerprinted().count(),
        Plan::at(&e).port(80).srcs_by_fingerprint(),
        Plan::at(&e).not_kind(ObsKind::Syn).rows(),
    ]
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Any subset of the pool, in any order, with duplicates: the fused
    /// `PlanSet` must return exactly what each plan returns standalone,
    /// in submission order, while costing no more passes than plans.
    #[test]
    fn fused_plan_sets_match_standalone_execution(
        picks in proptest::collection::vec(0usize..14, 1..12),
    ) {
        let _g = counter_lock();
        let s = bundle();
        let pool = plan_pool();
        let alone = ScanExec::unplanned(&s.dataset);
        let mut set = PlanSet::over(&s.dataset);
        for &i in &picks {
            set.submit(pool[i].clone());
        }
        let before = scan_counters();
        let fused = set.execute();
        let delta = scan_counters().since(before);
        prop_assert_eq!(fused.len(), picks.len());
        prop_assert!(delta.fused <= picks.len() as u64);
        for (k, &i) in picks.iter().enumerate() {
            prop_assert_eq!(&fused[k], &alone.run(&pool[i]));
        }
    }
}

#[test]
fn submission_order_permutes_results_and_nothing_else() {
    let _g = counter_lock();
    let s = bundle();
    let pool = plan_pool();
    let forward: Vec<_> = {
        let mut set = PlanSet::over(&s.dataset);
        for p in &pool {
            set.submit(p.clone());
        }
        set.execute()
    };
    let reversed: Vec<_> = {
        let mut set = PlanSet::over(&s.dataset);
        for p in pool.iter().rev() {
            set.submit(p.clone());
        }
        set.execute()
    };
    assert_eq!(forward.len(), reversed.len());
    for (i, r) in reversed.iter().rev().enumerate() {
        assert_eq!(&forward[i], r, "plan {i} changed under reversed submission");
    }
}

/// Every ported module product — Tables 2, 4, 5, 8+9, 11, §3.2 — computed
/// through one fused registry-style store vs. plan-at-a-time execution.
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
        format!("{:?}", neighborhood::table2_with(&fused, &d)),
        format!("{:?}", neighborhood::table2_with(&alone, &d)),
    );
    assert_eq!(
        format!("{:?}", geography::table4_with(&fused, &d)),
        format!("{:?}", geography::table4_with(&alone, &d)),
    );
    for &(slice, kind) in &cells {
        assert_eq!(
            format!("{:?}", geography::table5_with(&fused, &d, slice, kind)),
            format!("{:?}", geography::table5_with(&alone, &d, slice, kind)),
            "table5 {slice:?} {kind:?}"
        );
    }
    assert_eq!(
        format!("{:?}", overlap::table8_and_9_with(&fused, &d, &s.telescope)),
        format!("{:?}", overlap::table8_and_9_with(&alone, &d, &s.telescope)),
    );
    for port in [80u16, 8080] {
        assert_eq!(
            format!("{:?}", ports::protocol_breakdown_with(&fused, &d, &s.reputation, port)),
            format!("{:?}", ports::protocol_breakdown_with(&alone, &d, &s.reputation, port)),
            "breakdown port {port}"
        );
    }
    assert_eq!(
        format!("{:?}", ports::composition_stats_with(&fused, &d)),
        format!("{:?}", ports::composition_stats_with(&alone, &d)),
    );
}

/// Rendering through a prefetched context must produce the same bytes as
/// the legacy on-demand path while costing strictly fewer column passes.
#[test]
fn prefetched_registry_renders_are_byte_identical() {
    let _g = counter_lock();
    let worlds = bundles();
    let opts = ExhibitOptions::default();
    // Every exhibit satisfied by the one 2021 world (the multi-year and
    // leak exhibits need worlds this gate does not simulate).
    let singles: Vec<&dyn Exhibit> = REGISTRY
        .iter()
        .copied()
        .filter(|e| {
            !e.needs().is_empty()
                && e.needs().iter().all(|n| n.resolve(&opts).year() == 2021)
        })
        .collect();
    assert!(singles.len() >= 15, "expected most of the registry, got {}", singles.len());

    let c0 = scan_counters();
    let plain_cx = ExhibitCx::new(opts, worlds);
    let plain: Vec<String> = singles.iter().map(|e| e.run(&plain_cx)).collect();
    let unfused = scan_counters().since(c0);

    let c1 = scan_counters();
    let mut cx = ExhibitCx::new(opts, worlds);
    let stats = cx.prefetch(&singles);
    assert_eq!(stats.len(), 1, "one bundle, one prefetched store");
    assert!(stats[0].passes < stats[0].plans, "prefetch must fuse: {stats:?}");
    let rendered: Vec<String> = singles.iter().map(|e| e.run(&cx)).collect();
    let fused = scan_counters().since(c1);

    for (i, e) in singles.iter().enumerate() {
        assert_eq!(plain[i], rendered[i], "{} changed under prefetch", e.name());
    }
    assert!(
        fused.fused < unfused.fused,
        "prefetched renders must cost fewer passes (fused {} vs unfused {})",
        fused.fused,
        unfused.fused
    );
}
