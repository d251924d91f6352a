//! # cw-core
//!
//! The paper's contribution: the statistically rigorous measurement
//! pipeline that turns raw honeypot/telescope captures into the published
//! tables and figures.
//!
//! - [`scenario`] — builds the world (Table 1 fleet + actor population) for
//!   a year and runs the one-week collection window;
//! - [`dataset`] — the queryable event store, traffic slices
//!   (SSH/22, Telnet/23, HTTP/80, HTTP/All-Ports), and CSV/JSONL export
//!   (the "released dataset");
//! - [`query`] — typed, fusable scan plans over the columnar store:
//!   predicates push down onto the `Copy` ID columns and string
//!   resolution stays at the render boundary (`docs/QUERY.md`);
//! - [`axes`] — who / what / why extraction: top ASes, top usernames and
//!   passwords, top normalized payloads, fraction malicious;
//! - [`compare`] — the §3.3 comparison procedure: top-3 union contingency
//!   tables, chi-squared with Bonferroni correction, Cramér's V with
//!   df-aware magnitudes, plus the §4.4 median-across-honeypots filter;
//! - [`neighborhood`] — Table 2 / Table 12: do neighboring identical
//!   services see different traffic?
//! - [`geography`] — Tables 4, 5, 13, 16: regional discrimination;
//! - [`network`] — Tables 7, 10, 14, 15: cloud vs education vs telescope;
//! - [`overlap`] — Tables 8, 9: who avoids the telescope, per port;
//! - [`leak`] — Table 3: the Censys/Shodan leak experiment;
//! - [`ports`] — Tables 11, 17 and the §3.2 traffic-composition stats;
//! - [`figure1`] — the address-structure series of Figure 1;
//! - [`report`] — text table rendering shared by the experiment binaries;
//! - [`fleet`] — the parallel scenario fleet runner: independent runs
//!   spread across worker threads with per-run seeds split from the master
//!   seed, bit-identical for any thread count (see
//!   `docs/ARCHITECTURE.md`);
//! - [`bundle`] — the `Send + Sync` analysis subset of one simulation,
//!   shareable across fleet workers and serializable;
//! - [`snapshot`] — the content-addressed simulate-once cache: each
//!   distinct (year, seed, scale, horizon, fault plan) world is simulated
//!   once and every later exhibit render deserializes it from
//!   `out/.cache`;
//! - [`exhibit`] — the unified registry of all 25 tables/figures/ablations
//!   as pure renders over shared [`SimBundle`]s (the `cw` CLI's backend);
//! - [`degrade`] — a ladder of deterministic fault plans
//!   ([`cw_netsim::fault`]) and the directional versions of the headline
//!   findings;
//! - [`sweep`] — the finding-stability grid driver: re-evaluates those
//!   findings across years, seeds, fault variants and scales (`cw sweep`;
//!   `cw degrade` is its fault-ladder preset).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod axes;
pub mod bundle;
pub mod compare;
pub mod dataset;
pub mod degrade;
pub mod exhibit;
pub mod figure1;
pub mod fleet;
pub mod geography;
pub mod leak;
pub mod neighborhood;
pub mod network;
pub mod overlap;
pub mod ports;
pub mod query;
pub mod recommendations;
pub mod report;
pub mod scenario;
pub mod snapshot;
pub mod sweep;
pub mod temporal;

pub use bundle::SimBundle;
pub use compare::{CharKind, GroupComparison};
pub use dataset::{Dataset, TrafficSlice};
pub use query::{Plan, PlanResult, PlanStore, ScanExec};
pub use scenario::{Scenario, ScenarioConfig};

/// `docs/QUERY.md` compiled as doctests: every `rust` block in the query
/// guide is built and run by `cargo test --doc`, so the guide cannot
/// drift from the API it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/QUERY.md")]
pub struct QueryGuideDoctests;
