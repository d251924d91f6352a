//! Extending the library: define a custom scanner archetype (an agent that
//! only targets IP addresses whose last octet is prime), run it against the
//! deployment, and verify the bias with the paper's statistical machinery.
//!
//! ```sh
//! cargo run --release --example custom_scanner
//! ```

use cloud_watching::honeypot::deployment::Deployment;
use cloud_watching::netsim::asn::Asn;
use cloud_watching::netsim::engine::{Agent, Engine, Network};
use cloud_watching::netsim::flow::{ConnectionIntent, FlowSpec};
use cloud_watching::netsim::time::{SimDuration, SimTime};
use cloud_watching::stats::{chi_squared_from_table, ContingencyTable};
use std::net::Ipv4Addr;

/// A scanner that believes services live at prime last-octets.
struct PrimeScanner {
    targets: Vec<Ipv4Addr>,
    cursor: usize,
}

fn is_prime(n: u8) -> bool {
    if n < 2 {
        return false;
    }
    (2..=((n as f64).sqrt() as u8)).all(|d| !n.is_multiple_of(d))
}

impl Agent for PrimeScanner {
    fn name(&self) -> &str {
        "prime-scanner"
    }
    fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime> {
        for _ in 0..64 {
            if self.cursor >= self.targets.len() {
                return None;
            }
            let dst = self.targets[self.cursor];
            self.cursor += 1;
            net.send(FlowSpec {
                src: Ipv4Addr::new(100, 99, 0, 1),
                src_asn: Asn(64_999),
                dst,
                dst_port: 80,
                intent: ConnectionIntent::ProbeOnly,
            });
        }
        Some(now + SimDuration::MINUTE)
    }
}

fn main() {
    // Deploy the standard fleet and aim the custom scanner at the
    // Hurricane Electric /24 (256 honeypots = a full octet range).
    let deployment = Deployment::standard();
    let he = deployment
        .topology
        .block("greynoise/he/US-OH")
        .expect("HE block");
    let targets: Vec<Ipv4Addr> = he.iter().filter(|ip| is_prime(ip.octets()[3])).collect();
    println!("prime-addressed targets in the /24: {}", targets.len());

    let instruments = deployment.instruments();
    let mut engine = Engine::new();
    instruments.register(&mut engine);
    engine.add_agent(Box::new(PrimeScanner { targets, cursor: 0 }), SimTime::ZERO);
    engine.run(SimTime::ZERO + SimDuration::DAY);

    // Measure: do prime and non-prime honeypots see different volumes?
    let capture = instruments
        .honeypot("greynoise/he/US-OH")
        .expect("HE honeypot")
        .borrow()
        .capture();
    let capture = capture.borrow();
    let (mut prime_hits, mut other_hits) = (0u64, 0u64);
    for e in capture.events() {
        if is_prime(e.dst.octets()[3]) {
            prime_hits += 1;
        } else {
            other_hits += 1;
        }
    }
    println!("hits on prime octets: {prime_hits}, on the rest: {other_hits}");

    // The §3.3 machinery confirms the structure preference: compare the
    // observed split against a uniform-scan expectation.
    let n_prime = (0u8..=255).filter(|&n| is_prime(n)).count() as u64;
    let n_other = 256 - n_prime;
    let expected_uniform = vec![
        (prime_hits + other_hits) * n_prime / 256,
        (prime_hits + other_hits) * n_other / 256,
    ];
    let table = ContingencyTable::new(
        vec!["prime".into(), "other".into()],
        vec![vec![prime_hits, other_hits], expected_uniform],
    );
    let result = chi_squared_from_table(&table).expect("testable");
    println!(
        "chi² = {:.1}, p = {:.2e} → the structure preference is {}",
        result.statistic,
        result.p_value,
        if result.significant(0.05) {
            "statistically detectable (as §4.2 detects .255-avoidance)"
        } else {
            "not detectable at this volume"
        }
    );
}
