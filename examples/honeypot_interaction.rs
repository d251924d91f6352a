//! The instruments up close, without the simulation: drive a Cowrie session
//! byte by byte, fingerprint first payloads like LZR, and run exploits
//! through the Suricata-like rule engine.
//!
//! ```sh
//! cargo run --example honeypot_interaction
//! ```

use cloud_watching::detection::RuleSet;
use cloud_watching::honeypot::cowrie::{client_script, Session};
use cloud_watching::netsim::flow::LoginService;
use cloud_watching::protocols;

fn show(direction: &str, bytes: &[u8]) {
    let printable: String = bytes
        .iter()
        .map(|&b| {
            if (0x20..0x7F).contains(&b) || b == b'\n' {
                b as char
            } else {
                '.'
            }
        })
        .collect();
    println!("  {direction} {printable:?}");
}

fn main() {
    // 1. A Telnet brute-force dialogue against the Cowrie state machine.
    println!("— Cowrie Telnet session —");
    let mut session = Session::new(LoginService::Telnet);
    show("S>", session.server_greeting());
    for msg in client_script(LoginService::Telnet, "root", "xc3511") {
        show("C>", &msg);
        let reply = session.feed(&msg);
        show("S>", reply);
    }
    let cred = session.harvested().expect("credentials harvested");
    println!("  harvested: {}/{}\n", cred.username, cred.password);

    // 2. LZR-style fingerprinting: what protocol is this first payload?
    println!("— first-payload fingerprinting (§6) —");
    let samples: Vec<(&str, Vec<u8>)> = vec![
        (
            "plain GET to port 80",
            protocols::HttpRequest::new("GET", "/").to_bytes(),
        ),
        (
            "TLS ClientHello to port 80",
            protocols::tls::build_client_hello(7, None),
        ),
        (
            "SMB negotiate to port 8080",
            protocols::smb::build_negotiate(),
        ),
        (
            "Redis command to port 80",
            protocols::redis::build_command(&["INFO"]),
        ),
    ];
    for (desc, payload) in &samples {
        println!(
            "  {desc:<28} → {}",
            protocols::fingerprint(payload)
                .map(|p| p.label())
                .unwrap_or("unknown")
        );
    }

    // 3. The vetted ruleset deciding maliciousness (§3.2).
    println!("\n— rule engine verdicts —");
    let rules = RuleSet::builtin();
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        (
            "Log4Shell probe",
            cloud_watching::scanners::exploits::log4shell("198.51.100.1:1389"),
            80,
        ),
        (
            "Mozi spreader",
            cloud_watching::scanners::exploits::mozi_spreader("198.51.100.2"),
            8080,
        ),
        (
            "benign zgrab GET",
            cloud_watching::scanners::exploits::benign_get("zgrab/0.x"),
            80,
        ),
        (
            "nmap fingerprint probe",
            cloud_watching::scanners::exploits::nmap_probe(),
            80,
        ),
    ];
    for (desc, payload, port) in &cases {
        let hits = rules.matches(payload, *port);
        println!(
            "  {desc:<22} → {} {}",
            if rules.is_malicious(payload, *port) {
                "MALICIOUS"
            } else {
                "not malicious"
            },
            if hits.is_empty() {
                String::new()
            } else {
                format!(
                    "(rules: {})",
                    hits.iter()
                        .map(|r| r.msg.as_str())
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            }
        );
    }
}
