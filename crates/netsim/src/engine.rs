//! The discrete-event simulation engine.
//!
//! The engine owns a priority queue of agent wake-ups. When an agent wakes
//! it may send any number of [`FlowSpec`]s through the [`Network`] handle;
//! each flow is routed by a binary search of the engine's routing table (a
//! sorted, disjoint list of destination ranges, each owned by one
//! [`Listener`]) and the listener's [`FlowOutcome`] is returned to the
//! agent synchronously (scan → response, e.g. a search-engine indexer
//! learning a banner). The agent then returns its next wake time, or `None`
//! to retire.
//!
//! The table is built at registration: [`Engine::add_listener`] reads the
//! listener's declared [`Listener::coverage`] once and claims the parts no
//! earlier listener claimed, so where coverages overlap the first
//! registered listener wins.
//!
//! Listeners are registered as `Rc<RefCell<…>>` so that the caller retains a
//! handle to read captured data after the run — single-threaded determinism
//! is a feature here, not a limitation (see DESIGN.md §7).

use crate::fault::FlowLoss;
use crate::flow::{Flow, FlowSpec};
use crate::ip::Cidr;
use crate::time::SimTime;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Engine-assigned agent identifier.
pub type AgentId = u32;

/// What a scanned service answered, as seen by the scanner.
///
/// A listener builds each reply it gives once, when it is configured, and
/// answers every flow with a clone: the fields are shared, so a clone is
/// two reference-count bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReply {
    /// Protocol label the responder spoke (e.g. `"HTTP"`), if any.
    pub protocol: Option<Rc<str>>,
    /// Response bytes (banner, status line, …); may be empty.
    pub banner: Rc<[u8]>,
}

impl ServiceReply {
    /// A reply speaking `protocol` with `banner`.
    pub fn new(protocol: &str, banner: &[u8]) -> Self {
        ServiceReply {
            protocol: Some(protocol.into()),
            banner: banner.into(),
        }
    }
}

/// The result of delivering one flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowOutcome {
    /// Did the destination complete the TCP handshake? (Telescopes and dark
    /// space never do.)
    pub handshake_completed: bool,
    /// Application-level reply, if the destination spoke back.
    pub reply: Option<ServiceReply>,
}

impl FlowOutcome {
    /// The outcome of sending to unresponsive space.
    pub fn dark() -> Self {
        FlowOutcome {
            handshake_completed: false,
            reply: None,
        }
    }

    /// Handshake completed, no application reply.
    pub fn accepted() -> Self {
        FlowOutcome {
            handshake_completed: true,
            reply: None,
        }
    }

    /// Handshake completed with an application reply (shared, not copied).
    pub fn replied(reply: &ServiceReply) -> Self {
        FlowOutcome {
            handshake_completed: true,
            reply: Some(reply.clone()),
        }
    }
}

/// A traffic source driven by the engine.
pub trait Agent {
    /// Diagnostic name.
    fn name(&self) -> &str {
        "agent"
    }

    /// Called at each scheduled wake. Send flows via `net`; return the next
    /// wake time (must be `> now` to guarantee progress) or `None` to
    /// retire the agent.
    fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime>;
}

/// A traffic sink (honeypot, telescope) observing a region of address space.
pub trait Listener {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// The address space this listener observes. [`Engine::add_listener`]
    /// reads it once, at registration. (All ports of a covered IP are
    /// observed; per-port behavior is the listener's business.)
    fn coverage(&self) -> Vec<Cidr>;

    /// Observe a delivered flow and answer as the covered host would.
    fn on_flow(&mut self, flow: &Flow) -> FlowOutcome;
}

/// The network handle agents send through while awake.
pub trait Network {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Deliver a flow and obtain its outcome.
    fn send(&mut self, spec: FlowSpec) -> FlowOutcome;
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total agent wake-ups processed.
    pub wakes: u64,
    /// Flows delivered to a listener.
    pub flows_delivered: u64,
    /// Flows sent to space no listener covers.
    pub flows_unrouted: u64,
    /// Flows dropped by injected network loss before reaching any listener
    /// (zero unless a fault plan is active — see [`crate::fault`]).
    pub flows_lost: u64,
    /// Time of the last processed wake.
    pub last_time: SimTime,
}

/// One routing-table entry: the destinations `lo..=hi` go to listener
/// `listener` (its registration index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Route {
    lo: u32,
    hi: u32,
    listener: usize,
}

/// The listener owning `dst`, by binary search of the sorted, disjoint
/// `routes`.
fn route(routes: &[Route], dst: Ipv4Addr) -> Option<usize> {
    let ip = u32::from(dst);
    let i = routes.partition_point(|r| r.hi < ip);
    routes.get(i).filter(|r| r.lo <= ip).map(|r| r.listener)
}

/// Give `listener` the parts of `lo..=hi` that no route in `routes` owns
/// yet, keeping `routes` sorted and disjoint.
fn claim(routes: &mut Vec<Route>, lo: u32, hi: u32, listener: usize) {
    let mut next = u64::from(lo);
    let mut at = routes.partition_point(|r| r.hi < lo);
    while next <= u64::from(hi) {
        // The claimed range that ends the gap starting at `next`, if any.
        let owner = routes.get(at).filter(|r| r.lo <= hi).copied();
        let gap_end = owner.map_or(u64::from(hi) + 1, |r| u64::from(r.lo));
        if next < gap_end {
            let gap = Route {
                lo: next as u32,
                hi: (gap_end - 1) as u32,
                listener,
            };
            routes.insert(at, gap);
            at += 1;
        }
        let Some(owner) = owner else { break };
        next = u64::from(owner.hi) + 1;
        at += 1;
    }
}

struct NetworkCtx<'a> {
    now: SimTime,
    routes: &'a [Route],
    listeners: &'a [Rc<RefCell<dyn Listener>>],
    stats: &'a mut RunStats,
    flow_loss: Option<FlowLoss>,
}

impl Network for NetworkCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, spec: FlowSpec) -> FlowOutcome {
        let flow = Flow::from_spec(spec, self.now);
        // Injected network loss decides on the flow's identity (see
        // `crate::fault`).
        if let Some(loss) = self.flow_loss {
            if loss.drops(flow.time, flow.src, flow.dst, flow.dst_port) {
                self.stats.flows_lost += 1;
                return FlowOutcome::dark();
            }
        }
        match route(self.routes, flow.dst) {
            Some(i) => {
                self.stats.flows_delivered += 1;
                // A listener must not send flows, so this borrow cannot
                // re-enter.
                self.listeners[i].borrow_mut().on_flow(&flow)
            }
            None => {
                self.stats.flows_unrouted += 1;
                FlowOutcome::dark()
            }
        }
    }
}

/// The discrete-event engine.
pub struct Engine {
    agents: Vec<Option<Box<dyn Agent>>>,
    listeners: Vec<Rc<RefCell<dyn Listener>>>,
    /// Sorted, disjoint destination ranges, each owned by one listener.
    routes: Vec<Route>,
    queue: BinaryHeap<Reverse<(SimTime, AgentId)>>,
    stats: RunStats,
    flow_loss: Option<FlowLoss>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An empty engine.
    pub fn new() -> Self {
        Engine {
            agents: Vec::new(),
            listeners: Vec::new(),
            routes: Vec::new(),
            queue: BinaryHeap::new(),
            stats: RunStats::default(),
            flow_loss: None,
        }
    }

    /// Inject deterministic network-level flow loss: every sent flow is
    /// dropped with probability `rate`, decided by a pure hash of the
    /// flow's identity under `salt` (see [`crate::fault::flow_coin`]).
    /// A rate of 0 disables loss entirely.
    pub fn set_flow_loss(&mut self, rate: f64, salt: u64) {
        self.flow_loss = if rate > 0.0 {
            Some(FlowLoss { rate, salt })
        } else {
            None
        };
    }

    /// Register an agent with its first wake time; returns its id.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>, first_wake: SimTime) -> AgentId {
        let id = self.agents.len() as AgentId;
        self.agents.push(Some(agent));
        self.queue.push(Reverse((first_wake, id)));
        id
    }

    /// Register a listener and route its declared
    /// [`coverage`](Listener::coverage) to it. The coverage is read once,
    /// here: addresses an earlier listener already claimed stay with that
    /// listener, so where coverages overlap the first registered listener
    /// wins.
    pub fn add_listener(&mut self, listener: Rc<RefCell<dyn Listener>>) {
        let id = self.listeners.len();
        for cidr in listener.borrow().coverage() {
            claim(&mut self.routes, cidr.base().into(), cidr.last().into(), id);
        }
        self.listeners.push(listener);
    }

    /// Earliest pending wake time, if any work remains queued.
    ///
    /// After [`Engine::run`]`(until)` returns, any value here is `>= until`
    /// — the wakes the horizon cut off, still waiting to be processed.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.queue.peek().map(|&Reverse((t, _))| t)
    }

    /// Run until the queue drains or simulated time reaches `until`
    /// (**exclusive**). Returns aggregate statistics.
    ///
    /// # Horizon boundary
    ///
    /// A wake scheduled at exactly `until` is **not processed and not
    /// dropped**: the engine peeks before popping, so boundary wakes stay
    /// queued (observable via [`Engine::next_wake`]) and are processed by a
    /// later `run` call with a larger horizon. Scenario horizons are
    /// therefore half-open windows `[0, until)` — running a week covers
    /// seconds `0..=604_799`, and splitting a window into consecutive `run`
    /// calls processes every event exactly once.
    pub fn run(&mut self, until: SimTime) -> RunStats {
        while let Some(&Reverse((t, id))) = self.queue.peek() {
            if t >= until {
                break;
            }
            self.queue.pop();
            let mut agent = self.agents[id as usize]
                .take()
                .expect("each agent has at most one outstanding wake");
            self.stats.wakes += 1;
            self.stats.last_time = t;
            let next = {
                let mut ctx = NetworkCtx {
                    now: t,
                    routes: &self.routes,
                    listeners: &self.listeners,
                    stats: &mut self.stats,
                    flow_loss: self.flow_loss,
                };
                agent.on_wake(t, &mut ctx)
            };
            match next {
                Some(next_t) => {
                    assert!(
                        next_t > t,
                        "agent '{}' scheduled non-advancing wake {next_t:?} at {t:?}",
                        agent.name()
                    );
                    self.agents[id as usize] = Some(agent);
                    self.queue.push(Reverse((next_t, id)));
                }
                None => {
                    // Retire: drop the agent.
                }
            }
        }
        self.stats
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::Asn;
    use crate::flow::ConnectionIntent;
    use crate::time::SimDuration;

    /// Agent that sends one probe per wake, `n` times, one second apart.
    struct Pinger {
        remaining: u32,
        dst: Ipv4Addr,
        outcomes: Vec<bool>,
    }

    impl Agent for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime> {
            assert_eq!(net.now(), now);
            let out = net.send(FlowSpec {
                src: Ipv4Addr::new(1, 1, 1, 1),
                src_asn: Asn(65000),
                dst: self.dst,
                dst_port: 80,
                intent: ConnectionIntent::ProbeOnly,
            });
            self.outcomes.push(out.handshake_completed);
            self.remaining -= 1;
            if self.remaining == 0 {
                None
            } else {
                Some(now + SimDuration::SECOND)
            }
        }
    }

    /// The /8 the test sinks cover.
    fn ten_slash_8() -> Vec<Cidr> {
        vec![Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)]
    }

    /// Listener that accepts everything in 10.0.0.0/8 and logs times.
    struct Sink {
        seen: Vec<(SimTime, Ipv4Addr, u16)>,
    }

    impl Listener for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn coverage(&self) -> Vec<Cidr> {
            ten_slash_8()
        }
        fn on_flow(&mut self, flow: &Flow) -> FlowOutcome {
            self.seen.push((flow.time, flow.dst, flow.dst_port));
            FlowOutcome::accepted()
        }
    }

    #[test]
    fn flows_route_to_covering_listener() {
        let mut e = Engine::new();
        let sink = Rc::new(RefCell::new(Sink { seen: vec![] }));
        e.add_listener(sink.clone());
        e.add_agent(
            Box::new(Pinger {
                remaining: 3,
                dst: Ipv4Addr::new(10, 0, 0, 5),
                outcomes: vec![],
            }),
            SimTime(0),
        );
        let stats = e.run(SimTime(1_000));
        assert_eq!(stats.wakes, 3);
        assert_eq!(stats.flows_delivered, 3);
        assert_eq!(stats.flows_unrouted, 0);
        let seen = &sink.borrow().seen;
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, SimTime(0));
        assert_eq!(seen[2].0, SimTime(2));
    }

    /// Listener over declared CIDRs that logs the destinations it sees.
    struct Claimer {
        cidrs: Vec<Cidr>,
        seen: Vec<Ipv4Addr>,
    }

    impl Listener for Claimer {
        fn name(&self) -> &str {
            "claimer"
        }
        fn coverage(&self) -> Vec<Cidr> {
            self.cidrs.clone()
        }
        fn on_flow(&mut self, flow: &Flow) -> FlowOutcome {
            self.seen.push(flow.dst);
            FlowOutcome::accepted()
        }
    }

    fn claimer(cidrs: &[(Ipv4Addr, u8)]) -> Rc<RefCell<Claimer>> {
        Rc::new(RefCell::new(Claimer {
            cidrs: cidrs.iter().map(|&(ip, p)| Cidr::new(ip, p)).collect(),
            seen: vec![],
        }))
    }

    fn route_of(lo: [u8; 4], hi: [u8; 4], listener: usize) -> Route {
        Route {
            lo: Ipv4Addr::from(lo).into(),
            hi: Ipv4Addr::from(hi).into(),
            listener,
        }
    }

    /// Where coverages overlap, the first registered listener keeps the
    /// overlap: a later /16 straddling an earlier /24 gets the parts on
    /// either side, and a later /8 gets only what neither claimed.
    /// Destinations outside every coverage stay unrouted.
    #[test]
    fn overlapping_coverage_goes_to_the_first_registered_listener() {
        let mut e = Engine::new();
        let a = claimer(&[(Ipv4Addr::new(10, 0, 1, 0), 24)]);
        let b = claimer(&[(Ipv4Addr::new(10, 0, 0, 0), 16)]);
        let c = claimer(&[
            (Ipv4Addr::new(10, 0, 1, 128), 25),
            (Ipv4Addr::new(10, 0, 0, 0), 8),
        ]);
        e.add_listener(a.clone());
        e.add_listener(b.clone());
        e.add_listener(c.clone());
        assert_eq!(
            e.routes,
            [
                route_of([10, 0, 0, 0], [10, 0, 0, 255], 1),
                route_of([10, 0, 1, 0], [10, 0, 1, 255], 0),
                route_of([10, 0, 2, 0], [10, 0, 255, 255], 1),
                route_of([10, 1, 0, 0], [10, 255, 255, 255], 2),
            ]
        );
        let dsts = [
            Ipv4Addr::new(10, 0, 1, 5),
            Ipv4Addr::new(10, 0, 1, 200),
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(10, 0, 255, 255),
            Ipv4Addr::new(10, 1, 0, 0),
            Ipv4Addr::new(10, 255, 255, 255),
            Ipv4Addr::new(9, 255, 255, 255),
            Ipv4Addr::new(11, 0, 0, 0),
        ];
        for dst in dsts {
            let pinger = Pinger {
                remaining: 1,
                dst,
                outcomes: vec![],
            };
            e.add_agent(Box::new(pinger), SimTime(0));
        }
        let stats = e.run(SimTime(10));
        assert_eq!(stats.flows_delivered, 6);
        assert_eq!(stats.flows_unrouted, 2);
        assert_eq!(a.borrow().seen, dsts[0..2]);
        assert_eq!(b.borrow().seen, dsts[2..4]);
        assert_eq!(c.borrow().seen, dsts[4..6]);
    }

    /// A catch-all registered last takes every address no one claimed,
    /// through both ends of the address space.
    #[test]
    fn catch_all_coverage_fills_every_gap() {
        let mut e = Engine::new();
        e.add_listener(claimer(&[(Ipv4Addr::new(255, 255, 255, 255), 32)]));
        e.add_listener(claimer(&[(Ipv4Addr::new(10, 0, 0, 0), 8)]));
        e.add_listener(claimer(&[(Ipv4Addr::UNSPECIFIED, 0)]));
        assert_eq!(
            e.routes,
            [
                route_of([0, 0, 0, 0], [9, 255, 255, 255], 2),
                route_of([10, 0, 0, 0], [10, 255, 255, 255], 1),
                route_of([11, 0, 0, 0], [255, 255, 255, 254], 2),
                route_of([255, 255, 255, 255], [255, 255, 255, 255], 0),
            ]
        );
    }

    #[test]
    fn unrouted_flows_fall_into_dark_space() {
        let mut e = Engine::new();
        e.add_agent(
            Box::new(Pinger {
                remaining: 2,
                dst: Ipv4Addr::new(99, 0, 0, 1),
                outcomes: vec![],
            }),
            SimTime(0),
        );
        let stats = e.run(SimTime(1_000));
        assert_eq!(stats.flows_unrouted, 2);
        assert_eq!(stats.flows_delivered, 0);
    }

    #[test]
    fn run_stops_at_horizon() {
        let mut e = Engine::new();
        e.add_agent(
            Box::new(Pinger {
                remaining: 1_000_000,
                dst: Ipv4Addr::new(99, 0, 0, 1),
                outcomes: vec![],
            }),
            SimTime(0),
        );
        let stats = e.run(SimTime(10));
        assert_eq!(stats.wakes, 10);
        assert_eq!(stats.last_time, SimTime(9));
        // Resuming continues deterministically.
        let stats = e.run(SimTime(20));
        assert_eq!(stats.wakes, 20);
    }

    #[test]
    fn wake_at_horizon_is_deferred_not_dropped() {
        let mut e = Engine::new();
        e.add_agent(
            Box::new(Pinger {
                remaining: 2,
                dst: Ipv4Addr::new(99, 0, 0, 1),
                outcomes: vec![],
            }),
            SimTime(10),
        );
        // The first wake is at exactly `until`: the exclusive horizon means
        // nothing runs, and the wake stays queued.
        let stats = e.run(SimTime(10));
        assert_eq!(stats.wakes, 0);
        assert_eq!(e.next_wake(), Some(SimTime(10)));
        // A later run with a wider horizon processes it — exactly once.
        let stats = e.run(SimTime(12));
        assert_eq!(stats.wakes, 2);
        assert_eq!(stats.last_time, SimTime(11));
        assert_eq!(e.next_wake(), None);
    }

    #[test]
    fn split_windows_cover_every_event_exactly_once() {
        fn wakes(horizons: &[u64]) -> u64 {
            let mut e = Engine::new();
            e.add_agent(
                Box::new(Pinger {
                    remaining: 30,
                    dst: Ipv4Addr::new(99, 0, 0, 1),
                    outcomes: vec![],
                }),
                SimTime(0),
            );
            let mut stats = RunStats::default();
            for &h in horizons {
                stats = e.run(SimTime(h));
            }
            stats.wakes
        }
        // [0,30) in one go vs. split at boundaries that land exactly on
        // queued wakes: same total, no duplicates, no drops.
        assert_eq!(wakes(&[30]), 30);
        assert_eq!(wakes(&[7, 13, 13, 30]), 30);
    }

    #[test]
    fn agents_interleave_deterministically() {
        // Two identical runs must produce identical listener logs.
        fn run_once() -> Vec<(SimTime, Ipv4Addr, u16)> {
            let mut e = Engine::new();
            let sink = Rc::new(RefCell::new(Sink { seen: vec![] }));
            e.add_listener(sink.clone());
            for i in 0..5u8 {
                e.add_agent(
                    Box::new(Pinger {
                        remaining: 4,
                        dst: Ipv4Addr::new(10, 0, 0, i),
                        outcomes: vec![],
                    }),
                    SimTime(i as u64 % 2),
                );
            }
            e.run(SimTime(100));
            let log = sink.borrow().seen.clone();
            log
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic]
    fn non_advancing_agent_is_a_bug() {
        struct Stuck;
        impl Agent for Stuck {
            fn on_wake(&mut self, now: SimTime, _net: &mut dyn Network) -> Option<SimTime> {
                Some(now) // not allowed: must advance
            }
        }
        let mut e = Engine::new();
        e.add_agent(Box::new(Stuck), SimTime(0));
        e.run(SimTime(10));
    }

    #[test]
    fn flow_loss_drops_deterministically_and_zero_rate_is_identity() {
        fn run_with(rate: f64) -> (RunStats, Vec<(SimTime, Ipv4Addr, u16)>) {
            let mut e = Engine::new();
            e.set_flow_loss(rate, 0xFA17);
            let sink = Rc::new(RefCell::new(Sink { seen: vec![] }));
            e.add_listener(sink.clone());
            for i in 0..8u8 {
                e.add_agent(
                    Box::new(Pinger {
                        remaining: 50,
                        dst: Ipv4Addr::new(10, 0, 0, i),
                        outcomes: vec![],
                    }),
                    SimTime(i as u64),
                );
            }
            let stats = e.run(SimTime(10_000));
            let log = sink.borrow().seen.clone();
            (stats, log)
        }
        // Zero rate is byte-for-byte the fault-free world.
        let (s0, log0) = run_with(0.0);
        let (s_off, log_off) = run_with(-0.0);
        assert_eq!(s0.flows_lost, 0);
        assert_eq!((s0, &log0), (s_off, &log_off));
        // A lossy run drops a plausible fraction, identically every time.
        let (s1, log1) = run_with(0.3);
        let (s2, log2) = run_with(0.3);
        assert_eq!((s1, &log1), (s2, &log2));
        assert!(s1.flows_lost > 0);
        assert_eq!(s1.flows_delivered + s1.flows_lost, s0.flows_delivered);
        let frac = s1.flows_lost as f64 / s0.flows_delivered as f64;
        assert!((0.2..0.4).contains(&frac), "loss fraction {frac}");
        // Survivors are a subsequence of the fault-free log.
        let mut it = log0.iter();
        assert!(log1.iter().all(|e| it.any(|f| f == e)));
    }

    #[test]
    fn retired_agents_stop_waking() {
        let mut e = Engine::new();
        e.add_agent(
            Box::new(Pinger {
                remaining: 2,
                dst: Ipv4Addr::new(99, 0, 0, 1),
                outcomes: vec![],
            }),
            SimTime(0),
        );
        let stats = e.run(SimTime(1_000_000));
        assert_eq!(stats.wakes, 2);
    }
}
