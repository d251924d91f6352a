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
    geography, neighborhood, network, overlap, ports, Plan, PlanResult, PlanStore, ScanExec,
    SimBundle,
};
use cloud_watching::detection::Verdict;
use cloud_watching::honeypot::capture::Observed;
use cloud_watching::honeypot::deployment::{CollectorKind, Deployment, NetworkKind};
use cloud_watching::protocols::iana::POPULAR_PORTS;
use cloud_watching::protocols::ProtocolId;
use cloud_watching::scanners::population::ScenarioYear;
use cloud_watching::stats::topk::Freqs;
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

/// A predicate as the oracle specs write it: applied to a [`Plan`], and
/// checked row by row against the dataset's columns.
#[derive(Clone, Debug)]
enum Pred {
    Port(u16),
    PortIn(&'static [u16]),
    Slice(TrafficSlice),
    Verdict(Verdict),
    Fingerprint(ProtocolId),
    Fingerprinted,
    Kind(ObsKind),
    NotKind(ObsKind),
}

/// A terminal as the oracle specs write it.
#[derive(Clone, Debug)]
enum Term {
    Count,
    Rows,
    DistinctSrcs,
    UniqueSrcAndAsn,
    CharFreqs(CharKind),
    SrcsByPort(&'static [u16]),
    SrcsByFingerprint,
}

/// One pool plan, spelled out so the test can both build it and compute
/// its result the per-row way, without the scan kernel.
#[derive(Clone, Debug)]
struct Spec {
    dsts: Option<Vec<Ipv4Addr>>,
    preds: Vec<Pred>,
    term: Term,
}

fn spec(dsts: Option<&[Ipv4Addr]>, preds: Vec<Pred>, term: Term) -> Spec {
    Spec {
        dsts: dsts.map(<[Ipv4Addr]>::to_vec),
        preds,
        term,
    }
}

impl Spec {
    fn plan(&self) -> Plan {
        let mut plan = self.dsts.as_deref().map_or_else(Plan::scan, Plan::at);
        for pred in &self.preds {
            plan = match *pred {
                Pred::Port(p) => plan.port(p),
                Pred::PortIn(ps) => plan.port_in(ps),
                Pred::Slice(s) => plan.slice(s),
                Pred::Verdict(v) => plan.verdict(v),
                Pred::Fingerprint(fp) => plan.fingerprint(fp),
                Pred::Fingerprinted => plan.fingerprinted(),
                Pred::Kind(k) => plan.kind(k),
                Pred::NotKind(k) => plan.not_kind(k),
            };
        }
        match self.term {
            Term::Count => plan.count(),
            Term::Rows => plan.rows(),
            Term::DistinctSrcs => plan.distinct_srcs(),
            Term::UniqueSrcAndAsn => plan.unique_src_and_asn(),
            Term::CharFreqs(kind) => plan.char_freqs(kind),
            Term::SrcsByPort(ports) => plan.srcs_by_port(ports),
            Term::SrcsByFingerprint => plan.srcs_by_fingerprint(),
        }
    }

    /// Whether row `i` passes every predicate, read per row.
    fn admits(&self, ds: &Dataset, i: usize) -> bool {
        let t = ds.table();
        let (port, fp) = (t.dst_ports()[i], ds.fingerprints()[i]);
        let kind = |k: ObsKind| {
            matches!(
                (k, t.observed()[i]),
                (ObsKind::Syn, Observed::Syn)
                    | (ObsKind::Handshake, Observed::Handshake)
                    | (ObsKind::Payload, Observed::Payload(_))
                    | (ObsKind::Credentials, Observed::Credentials { .. })
            )
        };
        self.preds.iter().all(|pred| match *pred {
            Pred::Port(p) => port == p,
            Pred::PortIn(ps) => ps.contains(&port),
            Pred::Slice(TrafficSlice::SshPort22) => port == 22,
            Pred::Slice(TrafficSlice::TelnetPort23) => port == 23,
            Pred::Slice(TrafficSlice::HttpPort80) => port == 80,
            Pred::Slice(TrafficSlice::HttpAllPorts) => fp == Some(ProtocolId::Http),
            Pred::Slice(TrafficSlice::AnyAll) => true,
            Pred::Verdict(v) => ds.verdicts()[i] == v,
            Pred::Fingerprint(want) => fp == Some(want),
            Pred::Fingerprinted => fp.is_some(),
            Pred::Kind(k) => kind(k),
            Pred::NotKind(k) => !kind(k),
        })
    }

    /// The result computed the per-row way: the domain's rows from the
    /// destination column, each predicate per row, then `BTreeSet` inserts
    /// and string-keyed folds over `ds.event(i)`.
    fn reference(&self, ds: &Dataset) -> PlanResult {
        let t = ds.table();
        let rows: Vec<usize> = domain_rows(ds, self.dsts.as_deref())
            .into_iter()
            .filter(|&i| self.admits(ds, i))
            .collect();
        let srcs_where = |keep: &dyn Fn(usize) -> bool| -> BTreeSet<Ipv4Addr> {
            let mut set = BTreeSet::new();
            for &i in rows.iter().filter(|&&i| keep(i)) {
                set.insert(t.srcs()[i]);
            }
            set
        };
        match self.term {
            Term::Count => PlanResult::Count(rows.len()),
            Term::Rows => PlanResult::Rows(rows),
            Term::DistinctSrcs => PlanResult::DistinctSrcs(srcs_where(&|_| true)),
            Term::UniqueSrcAndAsn => {
                let mut asns = BTreeSet::new();
                for &i in &rows {
                    asns.insert(t.src_asns()[i]);
                }
                PlanResult::UniqueSrcAndAsn(srcs_where(&|_| true).len(), asns.len())
            }
            Term::CharFreqs(kind) => PlanResult::CharFreqs(reference_freqs(ds, &rows, kind)),
            Term::SrcsByPort(ports) => PlanResult::PortSrcs(
                ports
                    .iter()
                    .map(|&p| (p, srcs_where(&|i| t.dst_ports()[i] == p)))
                    .collect(),
            ),
            Term::SrcsByFingerprint => {
                let mut by_fp: BTreeMap<ProtocolId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
                for &i in &rows {
                    if let Some(fp) = ds.fingerprints()[i] {
                        by_fp.entry(fp).or_default().insert(t.srcs()[i]);
                    }
                }
                PlanResult::FingerprintSrcs(by_fp)
            }
        }
    }
}

/// Plans in [`spec_pool`].
const POOL_LEN: usize = 28;

/// A structurally diverse plan pool: every terminal and all five
/// characteristics, every predicate kind, overlapping and distinct
/// destination domains (dense fleets, one honeypot, a repeated IP and the
/// whole table), and stacked predicates.
fn spec_pool() -> Vec<Spec> {
    use Pred::*;
    use Term::*;
    let d = Deployment::standard();
    let (g, e) = (greynoise_ips(d), edu_ips(d));
    let one = [g[0]];
    let repeat = [g[0], g[1], g[0]];
    let (all, g, e, one, repeat) = (
        None,
        Some(&g[..]),
        Some(&e[..]),
        Some(&one[..]),
        Some(&repeat[..]),
    );
    let attacker = || Verdict(cloud_watching::detection::Verdict::Attacker);
    let pool = vec![
        spec(all, vec![], Count),
        spec(all, vec![Kind(ObsKind::Syn)], Count),
        spec(g, vec![], Count),
        spec(g, vec![attacker()], Count),
        spec(g, vec![Port(23)], DistinctSrcs),
        spec(g, vec![PortIn(&[22, 23, 80])], Rows),
        spec(g, vec![], UniqueSrcAndAsn),
        spec(g, vec![], SrcsByPort(&POPULAR_PORTS)),
        spec(g, vec![attacker()], SrcsByPort(&[80, 8080])),
        spec(
            g,
            vec![Slice(TrafficSlice::TelnetPort23)],
            CharFreqs(CharKind::TopPassword),
        ),
        spec(
            e,
            vec![Slice(TrafficSlice::SshPort22)],
            CharFreqs(CharKind::TopAs),
        ),
        spec(e, vec![Fingerprinted], Count),
        spec(e, vec![Port(80)], SrcsByFingerprint),
        spec(e, vec![NotKind(ObsKind::Syn)], Rows),
        // The other characteristics and predicates (two filters sharing a
        // first predicate), one honeypot, and a domain that lists an IP
        // twice.
        spec(
            g,
            vec![Kind(ObsKind::Credentials), PortIn(&[22, 2323])],
            CharFreqs(CharKind::TopUsername),
        ),
        spec(
            g,
            vec![Fingerprint(ProtocolId::Http)],
            CharFreqs(CharKind::TopPayload),
        ),
        spec(
            g,
            vec![Kind(ObsKind::Credentials)],
            CharFreqs(CharKind::FracMalicious),
        ),
        spec(
            e,
            vec![NotKind(ObsKind::Handshake)],
            CharFreqs(CharKind::TopPayload),
        ),
        spec(
            all,
            vec![Kind(ObsKind::Payload)],
            CharFreqs(CharKind::TopPayload),
        ),
        spec(all, vec![Fingerprint(ProtocolId::Tls)], DistinctSrcs),
        spec(e, vec![PortIn(&[80, 8080])], SrcsByFingerprint),
        spec(g, vec![NotKind(ObsKind::Syn)], UniqueSrcAndAsn),
        spec(g, vec![Kind(ObsKind::Payload)], CharFreqs(CharKind::TopAs)),
        spec(one, vec![Port(23)], CharFreqs(CharKind::FracMalicious)),
        spec(
            one,
            vec![Slice(TrafficSlice::AnyAll)],
            CharFreqs(CharKind::TopUsername),
        ),
        spec(repeat, vec![Kind(ObsKind::Handshake)], Rows),
        spec(repeat, vec![], SrcsByPort(&[23, 22, 9, 23])),
        spec(
            repeat,
            vec![NotKind(ObsKind::Credentials)],
            CharFreqs(CharKind::TopAs),
        ),
    ];
    assert_eq!(pool.len(), POOL_LEN);
    pool
}

/// The pool's plans.
fn plan_pool() -> Vec<Plan> {
    spec_pool().iter().map(Spec::plan).collect()
}

/// Each pool plan's per-row reference result on the shared world,
/// computed once.
fn references() -> &'static [PlanResult] {
    static REFERENCES: OnceLock<Vec<PlanResult>> = OnceLock::new();
    REFERENCES.get_or_init(|| {
        let ds = &bundle().dataset;
        let refs: Vec<PlanResult> = spec_pool().iter().map(|s| s.reference(ds)).collect();
        for (i, r) in refs.iter().enumerate() {
            let seen = match r {
                PlanResult::Count(n) => *n > 0,
                PlanResult::Rows(v) => !v.is_empty(),
                PlanResult::DistinctSrcs(s) => !s.is_empty(),
                PlanResult::UniqueSrcAndAsn(s, a) => *s > 0 && *a > 0,
                PlanResult::CharFreqs(m) => m.values().any(|&n| n > 0),
                PlanResult::PortSrcs(m) => m.values().any(|s| !s.is_empty()),
                PlanResult::FingerprintSrcs(m) => !m.is_empty(),
            };
            // Plan 1 counts SYN-only rows, which this world's honeypots
            // never record: the empty result is its edge case.
            assert!(seen || i == 1, "pool plan {i} sees no data: {r:?}");
        }
        refs
    })
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Any subset of the pool, in any order, with duplicates: a store
    /// built from it must serve exactly what each plan returns standalone,
    /// while running each distinct plan once in no more passes than
    /// distinct plans.
    #[test]
    fn fused_plan_sets_match_standalone_execution(
        picks in proptest::collection::vec(0usize..POOL_LEN, 1..12),
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

    /// The scan kernel against an oracle that is not the kernel: a store
    /// built from any fused subset of the pool serves, for each plan, the
    /// result its per-row reference computes.
    #[test]
    fn fused_plan_sets_match_per_row_references(
        picks in proptest::collection::vec(0usize..POOL_LEN, 1..16),
    ) {
        let _g = counter_lock();
        let pool = plan_pool();
        let plans: Vec<Plan> = picks.iter().map(|&i| pool[i].clone()).collect();
        let store = PlanStore::build(&bundle().dataset, &plans);
        for &i in &picks {
            prop_assert_eq!(store.get(&pool[i]), Some(&references()[i]));
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
fn reference_freqs(ds: &Dataset, rows: &[usize], kind: CharKind) -> Freqs {
    let mut m = Freqs::new();
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
            *m.entry(key.into()).or_insert(0) += 1;
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
    let (g, e) = (greynoise_ips(d), edu_ips(d));
    // A repeated key (22) and a key absent from the data (9).
    let keys = [23, 22, 80, 22, 9];
    assert!(!t.dst_ports().contains(&9));
    // Long enough for the whole-table sets to grow through many chunks.
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
    plans.extend(neighborhood::table2_plans(d));
    plans.extend(geography::table4_plans(d));
    for &(slice, kind) in &cells {
        plans.extend(geography::table5_plans(d, slice, kind));
    }
    plans.extend(overlap::table8_and_9_plans(d));
    plans.extend(ports::protocol_breakdown_plans(d, 80));
    plans.extend(ports::protocol_breakdown_plans(d, 8080));
    plans.extend(ports::composition_stats_plans(d));

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
        format!("{:?}", neighborhood::table2(&fused, d)),
        format!("{:?}", neighborhood::table2(&alone, d)),
    );
    assert_eq!(
        format!("{:?}", geography::table4(&fused, d)),
        format!("{:?}", geography::table4(&alone, d)),
    );
    for &(slice, kind) in &cells {
        assert_eq!(
            format!("{:?}", geography::table5(&fused, d, slice, kind)),
            format!("{:?}", geography::table5(&alone, d, slice, kind)),
            "table5 {slice:?} {kind:?}"
        );
    }
    assert_eq!(
        format!("{:?}", overlap::table8_and_9(&fused, d, &s.telescope)),
        format!("{:?}", overlap::table8_and_9(&alone, d, &s.telescope)),
    );
    for port in [80u16, 8080] {
        assert_eq!(
            format!(
                "{:?}",
                ports::protocol_breakdown(&fused, d, &s.reputation, port)
            ),
            format!(
                "{:?}",
                ports::protocol_breakdown(&alone, d, &s.reputation, port)
            ),
            "breakdown port {port}"
        );
    }
    assert_eq!(
        format!("{:?}", ports::composition_stats(&fused, d)),
        format!("{:?}", ports::composition_stats(&alone, d)),
    );

    let t5_plans: Vec<Plan> = GRID14
        .iter()
        .flat_map(|&(slice, kind)| geography::table5_plans(d, slice, kind))
        .collect();
    let t5_store = PlanStore::build(&s.dataset, &t5_plans);
    let t5 = ScanExec::with_store(&s.dataset, &t5_store);
    let cloud_cloud = |exec: &ScanExec<'_>| -> Vec<_> {
        GRID14
            .iter()
            .map(|&(slice, kind)| network::cloud_cloud_cell(exec, d, slice, kind, 0.05))
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
                    network::honeytrap_cell(&t5, d, pairs, slice, kind, 0.05)
                ),
                format!(
                    "{:?}",
                    network::honeytrap_cell(&alone, d, pairs, slice, kind, 0.05)
                ),
                "honeytrap cell {pairs:?} {slice:?} {kind:?}"
            );
        }
    }
    for slice in [TrafficSlice::SshPort22, TrafficSlice::AnyAll] {
        for fleet in ["honeytrap/stanford", "honeytrap/aws-west"] {
            let cmp = |exec: &ScanExec<'_>| {
                network::telescope_vs_fleet(exec, d, &s.telescope, fleet, slice, 0.05, 2)
            };
            assert_eq!(
                format!("{:?}", cmp(&t5)),
                format!("{:?}", cmp(&alone)),
                "{fleet}"
            );
        }
    }
    let t8 = overlap::table8_and_9(&alone, d, &s.telescope).0;
    let stability = |exec: ScanExec<'_>| {
        let view = YearView {
            year: 2021,
            exec,
            telescope: &s.telescope,
        };
        temporal::stability(d, view, view, &t8, &t8)
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
