//! Do the paper's findings survive measurement faults? The fault ladder
//! and the directional finding evaluators.
//!
//! The fault-injection subsystem ([`cw_netsim::fault`]) makes degraded
//! collection a first-class, reproducible world: flows lost in the
//! network, vantage outages, payload truncation, telescope sampling. This
//! module holds a fixed ladder of fault plans ([`ladder`]) and the
//! *directional* versions of the headline findings behind Tables 1, 7, 8,
//! 9 and the Table 3 leak experiment ([`evaluate`]). The grid driver in
//! [`crate::sweep`] runs both: `cw degrade` is its [`SweepGrid::ladder`]
//! preset, one world per rung at scale ×1.
//!
//! Every rung is itself a deterministic world (same seed, same plan →
//! same bytes, for any thread count or cache state), and each plan
//! has its own snapshot-cache address (see
//! [`FaultPlan::cache_key_fragment`]).
//!
//! Findings are checked as *directions*, not magnitudes: under 30% flow
//! loss every absolute count shrinks, but a robust conclusion (e.g.
//! "attackers on SSH ports avoid telescopes") should keep its sign. That
//! mirrors how the paper itself argues its results generalize beyond the
//! exact collection window.

use crate::bundle::SimBundle;
use crate::compare::CharKind;
use crate::dataset::TrafficSlice;
use crate::fleet;
use crate::leak::{LeakGroup, LeakOutcome, LeakService, LEAK_SEED_XOR};
use crate::network::{
    cloud_cloud_cell, cloud_cloud_plans, honeytrap_cell, honeytrap_cell_plans, CLOUD_EDU_PAIRS,
};
use crate::overlap;
use crate::query::{Plan, PlanStore, ScanExec};
use crate::scenario::ScenarioConfig;
use crate::sweep::{self, SweepGrid};
use cw_honeypot::deployment::{CollectorKind, Deployment, Provider};
use cw_netsim::fault::FaultPlan;

/// One rung of the degradation ladder: a label and the fault plan it
/// applies to every world obtained for it.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Display label ("none", "mild", …).
    pub label: &'static str,
    /// The plan applied at this rung.
    pub plan: FaultPlan,
}

/// The canonical four-rung ladder, from fault-free to severely degraded.
///
/// The "none" rung is the baseline: byte-identical to the golden worlds
/// (its plan is [`FaultPlan::none`], which takes the legacy code path and
/// the legacy snapshot-cache addresses).
pub fn ladder() -> Vec<Rung> {
    vec![
        Rung {
            label: "none",
            plan: FaultPlan::none(),
        },
        Rung {
            label: "mild",
            plan: FaultPlan {
                flow_loss: 0.02,
                outage: 0.02,
                outage_windows: 1,
                truncation: 0.05,
                truncate_to: 64,
                telescope_sample: 1,
            },
        },
        Rung {
            label: "moderate",
            plan: FaultPlan {
                flow_loss: 0.10,
                outage: 0.08,
                outage_windows: 2,
                truncation: 0.20,
                truncate_to: 48,
                telescope_sample: 2,
            },
        },
        Rung {
            label: "severe",
            plan: FaultPlan {
                flow_loss: 0.30,
                outage: 0.20,
                outage_windows: 3,
                truncation: 0.50,
                truncate_to: 16,
                telescope_sample: 4,
            },
        },
    ]
}

/// One directional finding evaluated on one rung's worlds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FindingEval {
    /// Short stable name ("T8 telnet>ssh overlap", …).
    pub name: &'static str,
    /// The scalar the direction is about (a ratio or difference).
    pub metric: f64,
    /// Does the finding's direction hold on this rung?
    pub holds: bool,
}

/// T1's scan: distinct sources at the AWS GreyNoise fleet, the cloud
/// representative.
fn aws_fleet_plan(deployment: &Deployment) -> Plan {
    let aws_ips: Vec<_> = deployment
        .vantages
        .iter()
        .filter(|v| v.provider == Provider::Aws && v.collector == CollectorKind::GreyNoise)
        .map(|v| v.ip)
        .collect();
    Plan::at(&aws_ips).unique_src_and_asn()
}

/// T7's cell: Top-AS over SSH/22, the paper's sharpest slice.
const T7_CELL: (TrafficSlice, CharKind) = (TrafficSlice::SshPort22, CharKind::TopAs);

/// Every scan [`evaluate`] runs on one world, from the builders its
/// findings call: T1's AWS-fleet plan, T7's cloud–cloud and cloud–EDU
/// plans, and the four Tables 8/9 plans of T8 and T9.
pub fn evaluate_plans(deployment: &Deployment) -> Vec<Plan> {
    let (slice, kind) = T7_CELL;
    let mut plans = vec![aws_fleet_plan(deployment)];
    plans.extend(cloud_cloud_plans(deployment, slice, kind));
    plans.extend(honeytrap_cell_plans(
        deployment,
        &CLOUD_EDU_PAIRS,
        slice,
        kind,
    ));
    plans.extend(overlap::table8_and_9_plans(deployment));
    plans
}

/// Evaluate the directional findings on one rung's `(scenario, leak)`
/// worlds. Pure: same bundles → same evaluations, for any `threads`.
///
/// Each rung's world is evaluated once, so [`evaluate_plans`] go into one
/// [`PlanStore`] whose fused passes run on `threads` fleet workers, and
/// every finding reads it without a further pass.
pub fn evaluate(bundle: &SimBundle, leak: &LeakOutcome, threads: usize) -> Vec<FindingEval> {
    let deployment = Deployment::standard();
    let plans = evaluate_plans(deployment);
    let store = PlanStore::build_sets(&[(&bundle.dataset, &plans)], threads)
        .pop()
        .expect("one set in, one store out");
    findings(
        &ScanExec::with_store(&bundle.dataset, &store),
        deployment,
        bundle,
        leak,
    )
}

/// The findings of [`evaluate`], scanning through `exec`.
fn findings(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    bundle: &SimBundle,
    leak: &LeakOutcome,
) -> Vec<FindingEval> {
    let mut out = Vec::new();

    // Table 1 direction: the telescope sees far more unique scanners than
    // any honeypot fleet (here: the AWS GreyNoise fleet as the cloud
    // representative).
    {
        let (aws_srcs, _) = exec
            .run(&aws_fleet_plan(deployment))
            .into_unique_src_and_asn();
        let tel_srcs = bundle.telescope.unique_source_count();
        let ratio = tel_srcs as f64 / (aws_srcs as f64).max(1.0);
        out.push(FindingEval {
            name: "T1 telescope breadth > cloud fleet",
            metric: ratio,
            holds: ratio > 1.0,
        });
    }

    // Table 7 direction: cloud-cloud vantages look alike — the fraction of
    // significantly different cloud-cloud pairs (in `T7_CELL`) stays at or
    // below the cloud-EDU fraction.
    {
        let (slice, kind) = T7_CELL;
        let cc = cloud_cloud_cell(exec, deployment, slice, kind, 0.05);
        let ce = honeytrap_cell(exec, deployment, &CLOUD_EDU_PAIRS, slice, kind, 0.05);
        let frac = |n_different: usize, n: usize| n_different as f64 / n.max(1) as f64;
        let cc_frac = frac(cc.n_different, cc.n);
        let ce_frac = frac(ce.n_different, ce.n);
        out.push(FindingEval {
            name: "T7 cloud-cloud dif <= cloud-EDU dif",
            metric: ce_frac - cc_frac,
            holds: cc_frac <= ce_frac,
        });
    }

    // Tables 8 and 9 direction: Telnet/23 scanning covers the telescope
    // while SSH/22 actors avoid it — overlap(23) exceeds overlap(22), for
    // all scanners (T8) and for verified attackers (T9).
    {
        let (t8, t9) = overlap::table8_and_9(exec, deployment, &bundle.telescope);
        let find8 = |port: u16| {
            t8.iter()
                .find(|r| r.port == port)
                .and_then(|r| r.tel_cloud)
                .unwrap_or(0.0)
        };
        let gap8 = find8(23) - find8(22);
        out.push(FindingEval {
            name: "T8 tel overlap: telnet/23 > ssh/22",
            metric: gap8,
            holds: gap8 > 0.0,
        });
        let find9 = |port: u16| {
            t9.iter()
                .find(|r| r.port == port)
                .and_then(|r| r.tel_cloud)
                .unwrap_or(0.0)
        };
        let gap9 = find9(23) - find9(22);
        out.push(FindingEval {
            name: "T9 attacker overlap: 23 > 22",
            metric: gap9,
            holds: gap9 > 0.0,
        });
    }

    // Table 3 direction: a service leaked to a search engine draws more
    // traffic than the hidden control (worst case over both engines, HTTP
    // row — the paper's headline cell).
    {
        let fold = |group: LeakGroup| {
            leak.cells
                .iter()
                .find(|c| c.service == LeakService::Http80 && c.group == group && !c.malicious_only)
                .map(|c| c.fold)
                .unwrap_or(0.0)
        };
        let worst = fold(LeakGroup::CensysLeaked(LeakService::Http80))
            .min(fold(LeakGroup::ShodanLeaked(LeakService::Http80)));
        out.push(FindingEval {
            name: "T3 leaked HTTP draws fire (fold > 1)",
            metric: worst,
            holds: worst > 1.0,
        });
    }

    out
}

/// The `cw degrade` report for `base`: [`sweep::report`] over the
/// [`SweepGrid::ladder`] preset, byte for byte what `cw degrade` prints.
///
/// A thin wrapper kept for callers of this signature (the benchmark's
/// traced run); it evaluates on [`fleet::resolve_threads`]`(None)` workers.
/// `leak_seed` is not a free parameter: the grid driver seeds every leak
/// world `seed ^ LEAK_SEED_XOR`, and any other value panics.
pub fn report(
    base: ScenarioConfig,
    leak_seed: u64,
    obtain: &dyn Fn(ScenarioConfig) -> SimBundle,
) -> String {
    assert_eq!(
        leak_seed,
        base.seed ^ LEAK_SEED_XOR,
        "the leak world seed is the scenario seed ^ LEAK_SEED_XOR"
    );
    let grid = SweepGrid::ladder(base.year, base.seed);
    sweep::report(&grid, base, fleet::resolve_threads(None), obtain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leak::LeakConfig;
    use crate::query::thread_passes;
    use cw_scanners::population::ScenarioYear;

    #[test]
    fn evaluate_reads_only_its_declared_store_at_any_thread_count() {
        let base = ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.02);
        let bundle = SimBundle::run(base);
        let leak = crate::leak::run(&LeakConfig::beside(
            base.seed,
            base.scale,
            FaultPlan::none(),
        ));
        let d = Deployment::standard();
        let store = PlanStore::build(&bundle.dataset, &evaluate_plans(d));
        let exec = ScanExec::with_store(&bundle.dataset, &store);
        // Passes of this thread: a store miss runs here, while other
        // tests' passes move the process-wide counters.
        let before = thread_passes();
        let evals = findings(&exec, d, &bundle, &leak);
        assert_eq!(
            thread_passes(),
            before,
            "a finding scanned outside evaluate_plans"
        );
        assert_eq!(evals.len(), 5);
        for threads in [1, 2] {
            assert_eq!(
                evaluate(&bundle, &leak, threads),
                evals,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn ladder_starts_fault_free_and_escalates() {
        let rungs = ladder();
        assert_eq!(rungs[0].label, "none");
        assert!(rungs[0].plan.is_none());
        for w in rungs.windows(2) {
            assert!(w[1].plan.flow_loss > w[0].plan.flow_loss);
            assert!(w[1].plan.outage > w[0].plan.outage);
            w[1].plan.validate();
        }
    }

    #[test]
    fn report_is_deterministic_and_evaluates_every_finding_per_rung() {
        let base = ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.02);
        let obtain = |cfg| SimBundle::run(cfg);
        let a = report(base, base.seed ^ LEAK_SEED_XOR, &obtain);
        let ladder_grid = SweepGrid::ladder(base.year, base.seed);
        assert_eq!(a, sweep::report(&ladder_grid, base, 1, &obtain));
        assert!(a.contains("STABLE") || a.contains("BREAKS@"));
        assert!(a.contains("Cells: 4 (4 distinct worlds"));
        for rung in ladder() {
            assert!(a.contains(&format!("{}\u{d7}1", rung.label)));
        }
        assert!(a.contains("findings stable across every swept cell"));
    }
}
