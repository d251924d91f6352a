//! §8 recommendations, derived from the measured data.
//!
//! The paper closes with recommendations for researchers and operators.
//! Each one is a claim backed by a measurement in this reproduction; this
//! module re-checks the supporting evidence against a scenario run and
//! reports which recommendations the data currently supports.
//! `cw recommendations` prints the report.

use crate::compare::CharKind;
use crate::dataset::TrafficSlice;
use crate::figure1;
use crate::geography::{table5, MostDifferentRegion};
use crate::neighborhood::NeighborhoodRow;
use crate::overlap::{MaliciousOverlapRow, OverlapRow};
use crate::ports::ProtocolBreakdownRow;
use crate::query::ScanExec;
use cw_honeypot::deployment::Deployment;
use cw_honeypot::telescope::Telescope;
use cw_netsim::geo::RegionPairKind;

/// One §8 recommendation with its evidence check.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Short imperative title (as in §8).
    pub title: &'static str,
    /// The evidence summary computed from this run.
    pub evidence: String,
    /// Does this run's data support the recommendation?
    pub supported: bool,
}

/// The derived tables recommendation checks lean on, precomputed by the
/// caller — the `cw` exhibit context memoizes them per bundle, so the
/// recommendations render reuses rows the table exhibits already built.
pub struct Products<'a> {
    /// Table 2 neighborhood rows.
    pub table2: &'a [NeighborhoodRow],
    /// Table 4 geography grid.
    pub table4: &'a [MostDifferentRegion],
    /// Table 8 telescope-overlap rows.
    pub table8: &'a [OverlapRow],
    /// Table 9 attacker-overlap rows.
    pub table9: &'a [MaliciousOverlapRow],
    /// Port-80 protocol breakdown (Table 11's left half).
    pub breakdown80: &'a [ProtocolBreakdownRow],
}

/// Evaluate all §8 recommendations against one run's measured data: the
/// caller's derived tables (see [`Products`]) plus the Telnet/23 username
/// cell of Table 5, read through `exec` (declare its
/// [`crate::geography::table5_plans`] to serve it from a store).
///
/// Takes the analysis inputs granularly (rather than a whole
/// `Scenario`) so the caller can supply either a live run or a restored
/// [`crate::bundle::SimBundle`]: `indexed_services` is the number of
/// services the simulated search engines had indexed at window end.
pub fn evaluate(
    exec: &ScanExec<'_>,
    deployment: &Deployment,
    tel: &Telescope,
    indexed_services: usize,
    products: &Products<'_>,
) -> Vec<Recommendation> {
    let mut out = Vec::new();

    // 1. Collect scan traffic from networks that host services.
    {
        let ssh = products
            .table8
            .iter()
            .find(|r| r.port == 22)
            .and_then(|r| r.tel_cloud)
            .unwrap_or(100.0);
        let mal_ssh = products
            .table9
            .iter()
            .find(|r| r.port == 22)
            .and_then(|r| r.tel_cloud)
            .unwrap_or(100.0);
        out.push(Recommendation {
            title: "Collect scan traffic from networks that host services",
            evidence: format!(
                "only {ssh:.0}% of cloud-SSH scanner IPs and {mal_ssh:.0}% of SSH attacker IPs \
                 appear in the telescope — telescopes are blind to them"
            ),
            supported: ssh < 50.0 && mal_ssh < 25.0,
        });
    }

    // 2. Consider an IP address' service history.
    {
        // Evidence comes from the leak experiment; here we check the
        // in-scenario proxy: indexed GreyNoise services draw miner bursts.
        let indexed = indexed_services;
        out.push(Recommendation {
            title: "Consider an IP address' service history",
            evidence: format!(
                "{indexed} services indexed by the search engines this week; the leak \
                 experiment (table3) shows indexed services draw 2-12x more traffic"
            ),
            supported: indexed > 50,
        });
    }

    // 3. Consider that attackers scan unexpected protocols.
    {
        let other = products
            .breakdown80
            .iter()
            .find(|r| !r.is_http)
            .map(|r| r.pct_of_scanners)
            .unwrap_or(0.0);
        out.push(Recommendation {
            title: "Consider that attackers scan unexpected protocols",
            evidence: format!(
                "{other:.0}% of port-80 scanners at the Honeytrap fleets do not speak HTTP; \
                 port-based protocol inference misses all of them"
            ),
            supported: other > 3.0,
        });
    }

    // 4. Account for differences amongst neighboring IPs.
    {
        let max_dif = products
            .table2
            .iter()
            .map(|r| r.pct_different)
            .fold(0.0f64, f64::max);
        out.push(Recommendation {
            title: "Account for differences amongst neighboring IPs",
            evidence: format!(
                "up to {max_dif:.0}% of neighborhoods see significantly different traffic on \
                 some characteristic — one honeypot per region is not representative"
            ),
            supported: max_dif > 20.0,
        });
    }

    // 5. Deploy honeypots across geographies (AP above all).
    {
        let rows = products.table4;
        let named = rows.iter().filter(|r| r.region.is_some()).count();
        let ap = rows
            .iter()
            .filter(|r| {
                r.region
                    .as_ref()
                    .map(|c| c.starts_with("AP-"))
                    .unwrap_or(false)
            })
            .count();
        let cells = table5(
            exec,
            deployment,
            TrafficSlice::TelnetPort23,
            CharKind::TopUsername,
        );
        let get = |b: RegionPairKind| {
            cells
                .iter()
                .find(|c| c.bucket == b)
                .map(|c| c.pct_similar)
                .unwrap_or(100.0)
        };
        let us = get(RegionPairKind::WithinUs);
        let apac = get(RegionPairKind::WithinApac);
        out.push(Recommendation {
            title: "Deploy honeypots across geographies (especially Asia Pacific)",
            evidence: format!(
                "{ap}/{named} most-different regions are Asia-Pacific; within-US Telnet-username \
                 similarity {us:.0}% vs within-APAC {apac:.0}% — an extra AP region buys more \
                 new signal than an extra US region"
            ),
            supported: named > 0 && ap * 2 >= named && apac <= us,
        });
    }

    // 6. Consider biases when deploying blocklists.
    {
        // Evidence: the structure preferences mean a blocklist built from
        // one IP's traffic misses botnets latched elsewhere.
        let pref = figure1::slash16_first_preference(tel, 22).unwrap_or(1.0);
        out.push(Recommendation {
            title: "Consider biases when deploying blocklists",
            evidence: format!(
                "scanner targeting is structurally biased (e.g. {pref:.1}x /16-first preference \
                 on port 22); blocklists sourced from one vantage inherit its bias"
            ),
            supported: pref > 2.0,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PlanStore;
    use crate::scenario::ScenarioConfig;
    use crate::{geography, neighborhood, overlap, ports};
    use cw_scanners::population::ScenarioYear;

    #[test]
    fn all_recommendations_supported_by_fast_scenario() {
        let s =
            crate::scenario::Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(8));
        let d = &s.deployment;
        let tel = s.telescope.borrow();
        let indexed = s.handles.censys.borrow().len() + s.handles.shodan.borrow().len();
        // Every scan the products and the Table 5 cell read, in one store.
        let mut plans = neighborhood::table2_plans(d);
        plans.extend(geography::table4_plans(d));
        plans.extend(geography::table5_plans(
            d,
            TrafficSlice::TelnetPort23,
            CharKind::TopUsername,
        ));
        plans.extend(overlap::table8_and_9_plans(d));
        plans.extend(ports::protocol_breakdown_plans(d, 80));
        let store = PlanStore::build(&s.dataset, &plans);
        let exec = ScanExec::with_store(&s.dataset, &store);
        let (t8, t9) = overlap::table8_and_9(&exec, d, &tel);
        let products = Products {
            table2: &neighborhood::table2(&exec, d),
            table4: &geography::table4(&exec, d),
            table8: &t8,
            table9: &t9,
            breakdown80: &ports::protocol_breakdown(&exec, d, &s.handles.reputation, 80).0,
        };
        let recs = evaluate(&exec, d, &tel, indexed, &products);
        assert_eq!(recs.len(), 6);
        for r in &recs {
            assert!(r.supported, "unsupported: {} — {}", r.title, r.evidence);
        }
    }
}
