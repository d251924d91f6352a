//! # cloud-watching
//!
//! A from-scratch Rust reproduction of *"Cloud Watching: Understanding
//! Attacks Against Cloud-Hosted Services"* (IMC 2023): the measurement
//! instruments (Cowrie/Honeytrap/GreyNoise-style honeypots, a network
//! telescope, a Suricata-like rule engine, LZR-style fingerprinting,
//! Censys/Shodan-style search engines), a simulated scanning Internet, and
//! the paper's statistical analysis pipeline.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`netsim`] — the simulated Internet (time, RNG, IPv4, ASes, engine);
//! - [`protocols`] — wire formats + fingerprinting;
//! - [`detection`] — rules engine, classification, reputation;
//! - [`honeypot`] — the instruments and the Table 1 deployment;
//! - [`scanners`] — the attacker/scanner population;
//! - [`stats`] — chi², Cramér's V, Bonferroni, Mann–Whitney, KS, top-3;
//! - [`core`] — scenarios, analyses, typed scan plans over the columnar
//!   store ([`core::query`], see `docs/QUERY.md`), and table rendering.
//!
//! ## Quickstart
//!
//! ```
//! use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
//! use cloud_watching::core::{Plan, ScanExec};
//! use cloud_watching::scanners::population::ScenarioYear;
//!
//! // A reduced-scale simulated week of scanning traffic.
//! let scenario = Scenario::run(
//!     ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.02),
//! );
//! assert!(scenario.dataset.len() > 0);
//!
//! // Ask questions through typed scan plans: how many distinct sources
//! // probed SSH anywhere in the fleet?
//! let plan = Plan::scan().port(22).distinct_srcs();
//! let ssh_scanners = ScanExec::unplanned(&scenario.dataset).run(&plan).into_distinct_srcs();
//! assert!(ssh_scanners.len() <= scenario.dataset.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cw_core as core;
pub use cw_detection as detection;
pub use cw_honeypot as honeypot;
pub use cw_netsim as netsim;
pub use cw_protocols as protocols;
pub use cw_scanners as scanners;
pub use cw_stats as stats;
