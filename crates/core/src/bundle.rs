//! The `Send + Sync` result of one simulation, ready for fan-out.
//!
//! A [`Scenario`] is deliberately not `Send`: its event loop wires agents
//! with `Rc<RefCell<…>>`. But everything the *analyses* consume is plain
//! data — the classified [`Dataset`], the telescope counters, the
//! reputation oracle, two index sizes, and the engine stats. A
//! [`SimBundle`] extracts exactly that subset, so one simulation result can
//! cross fleet worker threads, be shared by every exhibit that needs the
//! same (year, seed), and round-trip through the snapshot cache
//! ([`crate::snapshot`]).
//!
//! What a bundle does *not* carry is the [`Deployment`]: the Table 1
//! layout is the same for every world, so it is built once per process and
//! every consumer reads that one instance ([`Deployment::standard`])
//! instead of shipping a copy across threads or to disk.

use crate::dataset::Dataset;
use crate::scenario::{Scenario, ScenarioConfig};
use cw_detection::ReputationDb;
use cw_honeypot::deployment::Deployment;
use cw_honeypot::telescope::Telescope;
use cw_netsim::engine::RunStats;
use cw_netsim::fault::FaultPlan;
use cw_netsim::snap::{SnapError, SnapReader, SnapWriter};
use cw_netsim::time::{SimDuration, SimTime};
use cw_scanners::population::ScenarioYear;
use std::cell::RefCell;
use std::rc::Rc;

/// Everything the analyses need from one scenario run, with no `Rc` in
/// sight. See the module docs for what is included and why.
#[derive(Debug, Clone)]
pub struct SimBundle {
    /// The configuration that produced this bundle.
    pub config: ScenarioConfig,
    /// The classified event store.
    pub dataset: Dataset,
    /// The telescope with its per-port counters: analysis state only, the
    /// same whether the bundle was simulated or restored (see
    /// [`Telescope::into_analysis`]).
    pub telescope: Telescope,
    /// The GreyNoise-style reputation oracle.
    pub reputation: ReputationDb,
    /// Services indexed by the simulated Censys at window end.
    pub censys_indexed: u64,
    /// Services indexed by the simulated Shodan at window end.
    pub shodan_indexed: u64,
    /// Engine counters for the run.
    pub stats: RunStats,
}

impl Scenario {
    /// Extract the `Send + Sync` analysis subset of a completed run.
    ///
    /// The telescope is moved out of its shared cell, not cloned: the
    /// world's instruments hold its only other handle (the engine that
    /// routed to it is gone), so they are dropped first. A caller that kept
    /// a handle of its own gets a copy instead. The telescope then sheds
    /// its collection-only state ([`Telescope::into_analysis`]), so a cold
    /// bundle holds exactly what one restored from its snapshot holds. The
    /// reputation database is moved out of the population handles; the
    /// search-engine indexes are folded to their sizes (the only thing any
    /// exhibit reads from them).
    pub fn into_bundle(self) -> SimBundle {
        drop(self.instruments);
        let telescope = Rc::try_unwrap(self.telescope)
            .map_or_else(|shared| shared.borrow().clone(), RefCell::into_inner)
            .into_analysis();
        let censys_indexed = self.handles.censys.borrow().len() as u64;
        let shodan_indexed = self.handles.shodan.borrow().len() as u64;
        SimBundle {
            config: self.config,
            dataset: self.dataset,
            telescope,
            reputation: self.handles.reputation,
            censys_indexed,
            shodan_indexed,
            stats: self.stats,
        }
    }
}

/// Stable wire tag of a scenario year.
fn year_tag(year: ScenarioYear) -> u8 {
    match year {
        ScenarioYear::Y2020 => 0,
        ScenarioYear::Y2021 => 1,
        ScenarioYear::Y2022 => 2,
    }
}

impl SimBundle {
    /// Simulate `config` and fold the result to a bundle.
    pub fn run(config: ScenarioConfig) -> SimBundle {
        Scenario::run(config).into_bundle()
    }

    /// Does this bundle carry the result of exactly `config`? Scale and
    /// fault-plan rates are compared bit-for-bit — any difference means a
    /// different world.
    pub fn matches(&self, config: &ScenarioConfig) -> bool {
        year_tag(self.config.year) == year_tag(config.year)
            && self.config.seed == config.seed
            && self.config.scale.to_bits() == config.scale.to_bits()
            && self.config.horizon == config.horizon
            && self.config.fault.same_bits(&config.fault)
    }

    /// Encode the bundle into a snapshot payload.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_u8(year_tag(self.config.year));
        w.put_u64(self.config.seed);
        w.put_f64(self.config.scale);
        w.put_u64(self.config.horizon.secs());
        self.config.fault.snap_write(w);
        w.put_u64(self.stats.wakes);
        w.put_u64(self.stats.flows_delivered);
        w.put_u64(self.stats.flows_unrouted);
        w.put_u64(self.stats.flows_lost);
        w.put_u64(self.stats.last_time.secs());
        w.put_u64(self.censys_indexed);
        w.put_u64(self.shodan_indexed);
        self.reputation.snap_write(w);
        self.telescope.snap_write(w);
        self.dataset.snap_write(w);
    }

    /// Decode a bundle from a snapshot payload. The second argument is
    /// ignored, kept for cwbench's calls until the next benchmark PR.
    pub fn snap_read(
        r: &mut SnapReader<'_>,
        _deployment: &Deployment,
    ) -> Result<SimBundle, SnapError> {
        let year = match r.get_u8()? {
            0 => ScenarioYear::Y2020,
            1 => ScenarioYear::Y2021,
            2 => ScenarioYear::Y2022,
            _ => return Err(SnapError::Malformed("unknown scenario year tag")),
        };
        let config = ScenarioConfig {
            year,
            seed: r.get_u64()?,
            scale: r.get_f64()?,
            horizon: SimDuration::from_secs(r.get_u64()?),
            fault: FaultPlan::snap_read(r)?,
        };
        let stats = RunStats {
            wakes: r.get_u64()?,
            flows_delivered: r.get_u64()?,
            flows_unrouted: r.get_u64()?,
            flows_lost: r.get_u64()?,
            last_time: SimTime(r.get_u64()?),
        };
        let censys_indexed = r.get_u64()?;
        let shodan_indexed = r.get_u64()?;
        let reputation = ReputationDb::snap_read(r)?;
        let telescope = Telescope::snap_read(r)?;
        let dataset = Dataset::snap_read(r)?;
        Ok(SimBundle {
            config,
            dataset,
            telescope,
            reputation,
            censys_indexed,
            shodan_indexed,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A bundle's whole reason to exist is crossing fleet worker threads.
    #[test]
    fn bundle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimBundle>();
    }

    #[test]
    fn bundle_round_trips_through_snapshot_payload() {
        let config = ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(17)
            .with_scale(0.01);
        let bundle = SimBundle::run(config);
        assert!(bundle.matches(&config));
        assert!(!bundle.matches(&config.with_seed(18)));
        assert!(!bundle.matches(&config.with_fault(FaultPlan {
            flow_loss: 0.1,
            ..FaultPlan::none()
        })));

        let mut w = SnapWriter::new();
        bundle.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = SimBundle::snap_read(&mut r, Deployment::standard()).unwrap();
        assert!(r.is_exhausted());
        assert!(back.matches(&config));
        assert_eq!(back.stats, bundle.stats);
        assert_eq!(back.dataset.len(), bundle.dataset.len());
        assert_eq!(
            back.telescope.total_packets(),
            bundle.telescope.total_packets()
        );
        assert_eq!(back.reputation.counts(), bundle.reputation.counts());
        assert_eq!(back.censys_indexed, bundle.censys_indexed);
        assert_eq!(back.shodan_indexed, bundle.shodan_indexed);
    }

    #[test]
    fn bundle_rejects_unknown_year_tag() {
        let mut w = SnapWriter::new();
        w.put_u8(9);
        let bytes = w.into_bytes();
        assert!(matches!(
            SimBundle::snap_read(&mut SnapReader::new(&bytes), Deployment::standard()),
            Err(SnapError::Malformed(_))
        ));
    }
}
