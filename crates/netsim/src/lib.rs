//! # cw-netsim
//!
//! The simulated Internet underneath the Cloud Watching reproduction.
//!
//! The paper measured live scanning traffic arriving at honeypots and a
//! network telescope. That world is not reproducible on a laptop, so this
//! crate provides a deterministic, discrete-event substitute:
//!
//! - [`time`] — integer simulated time (no wall clock anywhere);
//! - [`rng`] — SplitMix64 / Xoshiro256★★ PRNGs implemented from scratch and
//!   validated against published reference vectors, so every table is
//!   bit-reproducible across machines and toolchains;
//! - [`ip`] — IPv4 arithmetic, CIDR blocks, and the address-structure
//!   predicates scanners discriminate on (broadcast-looking octets,
//!   first-of-/16 addresses);
//! - [`asn`] — an autonomous-system registry seeded with the real ASes the
//!   paper names (Chinanet, Cogent, PonyNet, Axtel, …);
//! - [`geo`] — continents, countries, and the provider regions of Table 1;
//! - [`flow`] — the unit of observed traffic (a connection attempt with an
//!   intent: probe, first payload, or an interactive login);
//! - [`intern`] — the shared payload/credential interner: distinct byte
//!   blobs are stored once and events carry dense [`intern::PayloadId`] /
//!   [`intern::CredId`] handles with deterministic insertion-order ids;
//! - [`keys`] — sort-once distinct-key lists, the counting idiom of the
//!   query scans and the telescope;
//! - [`topology`] — the simulated address plan (telescope /24s, cloud
//!   blocks, education /26s);
//! - [`engine`] — the discrete-event loop that wakes scanner agents and
//!   routes their flows, through a table of the address space each
//!   registered listener (honeypot, telescope) declares, to its listener;
//! - [`fault`] — deterministic measurement-fault injection: seed-derived
//!   flow loss, per-vantage outage schedules, capture truncation, and
//!   telescope sampling, all pure functions of the scenario seed;
//! - [`sha256`] — a from-scratch FIPS 180-4 SHA-256 shared by the
//!   snapshot cache and the golden-exhibit manifest in `cw-verify`, with a
//!   portable block function and, on x86-64 CPUs that have them, one on
//!   the SHA extensions (chosen at run time, same digests);
//! - [`snap`] — the little-endian binary snapshot codec plus the sealed
//!   container format (magic, format version, payload, SHA-256 trailer)
//!   that backs the simulate-once artifact cache.
//!
//! Everything above this crate — protocols, honeypots, scanners, analysis —
//! treats these primitives as "the Internet".
//!
//! One simulation run is deliberately single-threaded (the [`engine`] wires
//! agents and listeners with `Rc<RefCell<…>>`); parallelism lives one layer
//! up, in `cw_core::fleet`, which runs *independent* scenarios on worker
//! threads — see `docs/ARCHITECTURE.md` for the determinism contract.

// `deny`, not `forbid`: the SHA-extension block function in
// `sha256::shani` is the one module allowed `unsafe`.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod asn;
pub mod engine;
pub mod fault;
pub mod flow;
pub mod geo;
pub mod intern;
pub mod ip;
pub mod keys;
pub mod pcap;
pub mod rng;
pub mod sha256;
pub mod snap;
pub mod time;
pub mod topology;

pub use asn::{AsCategory, AsInfo, AsRegistry, Asn};
pub use engine::{Agent, AgentId, Engine, FlowOutcome, Listener, Network, RunStats, ServiceReply};
pub use fault::{FaultPlan, OutageSchedule};
pub use flow::{ConnectionIntent, Flow, FlowSpec, LoginService};
pub use geo::{Continent, Region};
pub use intern::{Blob, CredId, Interner, PayloadId};
pub use ip::{Cidr, IpExt};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{AddressBlock, Topology};
