//! Deterministic measurement-fault injection.
//!
//! The paper's data comes from real honeypots and telescopes, and real
//! vantage points fail: sensors go down for hours, packets are lost in
//! transit, captures are truncated mid-payload, and telescopes sample
//! rather than record. The reproduction's worlds are perfect by default,
//! which means it cannot say which findings *survive* degraded
//! measurement. This module injects exactly those four fault families —
//! without giving up a single byte of determinism.
//!
//! # The purity contract
//!
//! Every fault decision is a **pure function of the fault seed and the
//! flow (or vantage) it applies to** — never of RNG call order, thread
//! count, or cache state:
//!
//! - per-flow coins ([`flow_coin`]) hash `(salt, time, src, dst, port)`;
//! - per-vantage outage windows ([`OutageSchedule`]) are derived from
//!   `fork_seed(fault_seed, vantage_index)` at deployment build time;
//! - the fault seed itself is `fork_seed(scenario_seed, FAULT_DOMAIN)`,
//!   one sub-domain per mechanism ([`FaultDomain`]), so faults never
//!   perturb the population's RNG streams and vice versa.
//!
//! Consequently an injected run is byte-identical across thread counts
//! and cache states (the same contract as everything else in the
//! pipeline), and [`FaultPlan::none`] reproduces the fault-free world
//! exactly.

use crate::rng::{fork_seed, SimRng, SplitMix64};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Root RNG domain for all fault schedules: `fork_seed(scenario_seed,
/// FAULT_DOMAIN)` is the fault seed. The constant is arbitrary but fixed —
/// changing it would re-randomize every published degraded world.
pub const FAULT_DOMAIN: u64 = 0xFA17_0000_0000_0001;

/// Per-mechanism sub-domains under the fault seed. Each mechanism draws
/// its salts from its own fork so that, e.g., raising the loss rate never
/// moves an outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDomain {
    /// Network-level flow loss (engine drop point).
    FlowLoss,
    /// Per-vantage outage windows (listener drop point).
    Outage,
    /// Capture truncation (honeypot record point).
    Truncation,
    /// Telescope packet sampling (telescope drop point).
    TelescopeSample,
}

impl FaultDomain {
    fn stream_id(self) -> u64 {
        match self {
            FaultDomain::FlowLoss => 1,
            FaultDomain::Outage => 2,
            FaultDomain::Truncation => 3,
            FaultDomain::TelescopeSample => 4,
        }
    }
}

/// The fault seed of a scenario: the root of every fault schedule.
pub fn fault_seed(scenario_seed: u64) -> u64 {
    fork_seed(scenario_seed, FAULT_DOMAIN)
}

/// The salt for one fault mechanism under a scenario's fault seed.
pub fn domain_salt(scenario_seed: u64, domain: FaultDomain) -> u64 {
    fork_seed(fault_seed(scenario_seed), domain.stream_id())
}

/// A deterministic measurement-fault configuration.
///
/// All-zero rates (and `telescope_sample <= 1`) mean "no faults": that is
/// [`FaultPlan::none`], and [`FaultPlan::is_none`] is the gate every drop
/// point uses to take the legacy fault-free fast path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Fraction of all flows the network silently drops before any
    /// listener sees them, in `[0, 1]`.
    pub flow_loss: f64,
    /// Fraction of the collection window each vantage spends down, in
    /// `[0, 1)`. Each vantage gets its own schedule.
    pub outage: f64,
    /// Number of outage windows per vantage the downtime is split into
    /// (0 is treated as 1).
    pub outage_windows: u32,
    /// Fraction of recorded payload captures that are truncated, in
    /// `[0, 1]`.
    pub truncation: f64,
    /// Bytes kept of a truncated payload capture.
    pub truncate_to: u32,
    /// The telescope keeps 1 in `telescope_sample` packets (0 and 1 both
    /// mean "keep everything").
    pub telescope_sample: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: every schedule empty, every coin unwinnable.
    pub const fn none() -> Self {
        FaultPlan {
            flow_loss: 0.0,
            outage: 0.0,
            outage_windows: 1,
            truncation: 0.0,
            truncate_to: 64,
            telescope_sample: 1,
        }
    }

    /// Does this plan inject nothing? (The shape knobs `outage_windows`
    /// and `truncate_to` do not count: with their rates at zero they are
    /// unobservable.)
    pub fn is_none(&self) -> bool {
        self.flow_loss == 0.0
            && self.outage == 0.0
            && self.truncation == 0.0
            && self.telescope_sample <= 1
    }

    /// Panic unless every rate is a sane probability. Called at the
    /// configuration boundary (CLI parse, scenario construction) so a bad
    /// plan fails loudly before any simulation runs.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.flow_loss) && self.flow_loss.is_finite(),
            "flow_loss must be a probability, got {}",
            self.flow_loss
        );
        assert!(
            (0.0..1.0).contains(&self.outage),
            "outage must be in [0, 1), got {}",
            self.outage
        );
        assert!(
            (0.0..=1.0).contains(&self.truncation) && self.truncation.is_finite(),
            "truncation must be a probability, got {}",
            self.truncation
        );
    }

    /// Canonical content-key fragment: distinct plans must never share a
    /// snapshot, so rates enter as IEEE bit patterns (the same rule the
    /// scenario scale uses). Returns `None` for the no-fault plan so that
    /// fault-free cache addresses stay exactly what they were before
    /// fault injection existed.
    pub fn cache_key_fragment(&self) -> Option<String> {
        if self.is_none() {
            return None;
        }
        Some(format!(
            " loss={:016x} outage={:016x} windows={} trunc={:016x} keep={} tsample={}",
            self.flow_loss.to_bits(),
            self.outage.to_bits(),
            self.outage_windows.max(1),
            self.truncation.to_bits(),
            self.truncate_to,
            self.telescope_sample.max(1),
        ))
    }

    /// Encode into a snapshot payload (format version 2 layout).
    pub fn snap_write(&self, w: &mut SnapWriter) {
        w.put_f64(self.flow_loss);
        w.put_f64(self.outage);
        w.put_u32(self.outage_windows);
        w.put_f64(self.truncation);
        w.put_u32(self.truncate_to);
        w.put_u32(self.telescope_sample);
    }

    /// Decode from a snapshot payload.
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<FaultPlan, SnapError> {
        Ok(FaultPlan {
            flow_loss: r.get_f64()?,
            outage: r.get_f64()?,
            outage_windows: r.get_u32()?,
            truncation: r.get_f64()?,
            truncate_to: r.get_u32()?,
            telescope_sample: r.get_u32()?,
        })
    }

    /// Bit-exact equality (the identity test snapshot loading uses; `==`
    /// on `f64` fields would treat `-0.0` and `0.0` rates as equal but
    /// give them different cache addresses).
    pub fn same_bits(&self, other: &FaultPlan) -> bool {
        self.flow_loss.to_bits() == other.flow_loss.to_bits()
            && self.outage.to_bits() == other.outage.to_bits()
            && self.outage_windows == other.outage_windows
            && self.truncation.to_bits() == other.truncation.to_bits()
            && self.truncate_to == other.truncate_to
            && self.telescope_sample == other.telescope_sample
    }
}

/// Hash one flow identity `(time, src, dst, port)` under a salt.
pub fn flow_hash(salt: u64, time: SimTime, src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> u64 {
    let mut sm = SplitMix64::new(salt ^ time.secs().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let a = sm.next_u64();
    let key = (u32::from(src) as u64) << 32 | u32::from(dst) as u64;
    let mut sm = SplitMix64::new(a ^ key);
    let b = sm.next_u64();
    let mut sm = SplitMix64::new(b ^ port as u64);
    sm.next_u64()
}

/// A uniform coin in `[0, 1)` for one flow identity under a salt — the
/// per-flow fault decision primitive. Pure in its inputs, so every
/// execution strategy flips the same coins.
pub fn flow_coin(salt: u64, time: SimTime, src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> f64 {
    // 53 high bits → uniform double in [0, 1).
    (flow_hash(salt, time, src, dst, port) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Network-level flow loss: the engine's drop point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowLoss {
    /// Loss probability in `[0, 1]`.
    pub rate: f64,
    /// Decision salt ([`domain_salt`] with [`FaultDomain::FlowLoss`]).
    pub salt: u64,
}

impl FlowLoss {
    /// Does the network drop this flow? Pure in the flow identity.
    pub fn drops(&self, time: SimTime, src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> bool {
        self.rate > 0.0 && flow_coin(self.salt, time, src, dst, port) < self.rate
    }
}

/// A vantage point's deterministic downtime schedule: a sorted list of
/// half-open `[from, to)` windows within the collection horizon.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutageSchedule {
    windows: Vec<(SimTime, SimTime)>,
}

impl OutageSchedule {
    /// An always-up schedule.
    pub fn none() -> Self {
        OutageSchedule::default()
    }

    /// Derive vantage `vantage_index`'s schedule: `windows` outages of
    /// equal length totalling `frac` of `horizon`, window *i* placed
    /// uniformly at random inside the *i*-th equal segment of the horizon
    /// (so windows never overlap and their spread looks like real sensor
    /// downtime rather than one long gap).
    ///
    /// Pure in `(outage_salt, vantage_index, horizon, frac, windows)`.
    pub fn derive(
        outage_salt: u64,
        vantage_index: u64,
        horizon: SimDuration,
        frac: f64,
        windows: u32,
    ) -> Self {
        if frac <= 0.0 || horizon.secs() == 0 {
            return OutageSchedule::none();
        }
        let n = windows.max(1) as u64;
        let mut rng = SimRng::seed_from_u64(fork_seed(outage_salt, vantage_index));
        let seg = horizon.secs() / n;
        if seg == 0 {
            return OutageSchedule::none();
        }
        let down_per_window = ((horizon.secs() as f64 * frac) / n as f64).round() as u64;
        let down_per_window = down_per_window.min(seg).max(1);
        let mut out = Vec::with_capacity(n as usize);
        for i in 0..n {
            let seg_start = i * seg;
            let slack = seg - down_per_window;
            let offset = if slack == 0 { 0 } else { rng.range(0, slack) };
            let from = SimTime(seg_start + offset);
            let to = SimTime(seg_start + offset + down_per_window);
            out.push((from, to));
        }
        OutageSchedule { windows: out }
    }

    /// Is the vantage down at `t`?
    pub fn is_down(&self, t: SimTime) -> bool {
        // Schedules are tiny (a handful of windows) and sorted; a linear
        // scan with early exit beats a binary search at this size.
        for &(from, to) in &self.windows {
            if t < from {
                return false;
            }
            if t < to {
                return true;
            }
        }
        false
    }

    /// The scheduled windows (sorted, non-overlapping).
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }

    /// Total scheduled downtime.
    pub fn total_downtime(&self) -> SimDuration {
        SimDuration::from_secs(self.windows.iter().map(|(f, t)| t.secs() - f.secs()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WEEK: SimDuration = SimDuration::WEEK;

    #[test]
    fn none_plan_is_none_and_validates() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        p.validate();
        assert!(p.cache_key_fragment().is_none());
        // Shape knobs alone do not make a plan observable.
        let shaped = FaultPlan {
            outage_windows: 9,
            truncate_to: 3,
            ..FaultPlan::none()
        };
        assert!(shaped.is_none());
        assert!(shaped.cache_key_fragment().is_none());
    }

    #[test]
    fn non_trivial_plans_have_distinct_key_fragments() {
        let base = FaultPlan {
            flow_loss: 0.1,
            ..FaultPlan::none()
        };
        let a = base.cache_key_fragment().unwrap();
        let b = FaultPlan {
            flow_loss: 0.2,
            ..base
        }
        .cache_key_fragment()
        .unwrap();
        let c = FaultPlan {
            telescope_sample: 4,
            ..base
        }
        .cache_key_fragment()
        .unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn same_bits_distinguishes_negative_zero() {
        let a = FaultPlan {
            flow_loss: 0.0,
            telescope_sample: 4,
            ..FaultPlan::none()
        };
        let b = FaultPlan {
            flow_loss: -0.0,
            ..a
        };
        assert!(a == b); // PartialEq: -0.0 == 0.0
        assert!(!a.same_bits(&b)); // identity: different worlds keys
    }

    #[test]
    fn flow_coin_is_pure_and_uniform_ish() {
        let salt = domain_salt(42, FaultDomain::FlowLoss);
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let a = flow_coin(salt, SimTime(100), src, dst, 22);
        let b = flow_coin(salt, SimTime(100), src, dst, 22);
        assert_eq!(a, b);
        // Distinct identities decorrelate; a 10% coin hits ~10% of flows.
        let mut hits = 0u32;
        let n = 10_000u32;
        for i in 0..n {
            let t = SimTime(i as u64);
            if flow_coin(salt, t, src, dst, 22) < 0.1 {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((0.07..0.13).contains(&rate), "rate {rate}");
    }

    #[test]
    fn domain_salts_are_distinct() {
        let s = 7;
        let all = [
            domain_salt(s, FaultDomain::FlowLoss),
            domain_salt(s, FaultDomain::Outage),
            domain_salt(s, FaultDomain::Truncation),
            domain_salt(s, FaultDomain::TelescopeSample),
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(fault_seed(7), 7);
    }

    #[test]
    fn zero_rate_loss_never_drops() {
        let loss = FlowLoss { rate: 0.0, salt: 1 };
        for i in 0..1000 {
            assert!(!loss.drops(
                SimTime(i),
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                80
            ));
        }
    }

    #[test]
    fn outage_schedule_is_pure_and_respects_budget() {
        let salt = domain_salt(11, FaultDomain::Outage);
        let a = OutageSchedule::derive(salt, 3, WEEK, 0.25, 4);
        let b = OutageSchedule::derive(salt, 3, WEEK, 0.25, 4);
        assert_eq!(a, b);
        assert_ne!(a, OutageSchedule::derive(salt, 4, WEEK, 0.25, 4));
        assert_eq!(a.windows().len(), 4);
        let down = a.total_downtime().secs() as f64;
        let want = WEEK.secs() as f64 * 0.25;
        assert!(
            (down - want).abs() / want < 0.01,
            "down {down}, want {want}"
        );
        // Windows are sorted, non-overlapping, inside the horizon.
        let mut last_end = 0;
        for &(from, to) in a.windows() {
            assert!(from.secs() >= last_end);
            assert!(to.secs() <= WEEK.secs());
            assert!(from < to);
            last_end = to.secs();
        }
    }

    #[test]
    fn is_down_matches_windows() {
        let salt = domain_salt(11, FaultDomain::Outage);
        let s = OutageSchedule::derive(salt, 0, WEEK, 0.1, 3);
        for &(from, to) in s.windows() {
            assert!(s.is_down(from));
            assert!(s.is_down(SimTime(to.secs() - 1)));
            assert!(!s.is_down(to) || s.windows().iter().any(|&(f, t)| to >= f && to < t));
        }
        assert!(!OutageSchedule::none().is_down(SimTime(0)));
        assert_eq!(
            OutageSchedule::derive(salt, 0, WEEK, 0.0, 3),
            OutageSchedule::none()
        );
    }
}
