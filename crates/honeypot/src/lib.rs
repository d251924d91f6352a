//! # cw-honeypot
//!
//! The measurement instruments of the reproduction — everything the paper
//! deployed to *observe* scanning traffic:
//!
//! - [`capture`] — the scan-event record and per-vantage capture store;
//! - [`cowrie`] — an interactive SSH/Telnet honeypot state machine that
//!   harvests attempted credentials the way Cowrie does on ports
//!   22/2222/23/2323;
//! - [`framework`] — the generic honeypot listener: per-port policies
//!   (interactive / first-payload / closed), service personas (banners that
//!   search engines index), and per-source blocklists (the leak
//!   experiment's Censys/Shodan control knobs);
//! - [`telescope`] — the Orion-style passive telescope: 1,856 /24s, records
//!   the first packet only, never completes a handshake, keeps per-IP
//!   unique-scanner counters for the Figure 1 analysis;
//! - [`deployment`] — the Table 1 fleet (GreyNoise sensors across 5 clouds
//!   and 23 countries, Honeytrap /26s at Stanford/Merit and in AWS/Google,
//!   the telescope): one shared layout, and each world's live instruments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod cowrie;
pub mod deployment;
pub mod firewall;
pub mod framework;
pub mod telescope;

pub use capture::{Capture, Observed, ScanEvent};
pub use deployment::{CollectorKind, Deployment, Instruments, NetworkKind, Provider, VantagePoint};
pub use firewall::Firewall;
pub use framework::{HoneypotListener, ListenerFaults, Persona, PortPolicy};
pub use telescope::{Telescope, TelescopeFaults};
