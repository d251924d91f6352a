//! §7 "Firewalls": how a transparent IPS middlebox distorts honeypot
//! measurements. Two identical honeypot fleets receive identical attacker
//! traffic; one sits behind an IPS. Compare what each *measures*.
//!
//! ```sh
//! cargo run --release --example firewall_bias
//! ```

use cloud_watching::detection::{RuleSet, Verdict};
use cloud_watching::honeypot::firewall::Firewall;
use cloud_watching::honeypot::framework::{HoneypotListener, Persona, PortPolicy};
use cloud_watching::netsim::engine::Engine;
use cloud_watching::netsim::flow::{ConnectionIntent, LoginService};
use cloud_watching::netsim::rng::SimRng;
use cloud_watching::netsim::time::{SimDuration, SimTime};
use cloud_watching::scanners::campaign::{Campaign, Pacing};
use cloud_watching::scanners::identity::ActorIdentity;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn fleet(name: &str, base: [u8; 4]) -> (HoneypotListener, Vec<Ipv4Addr>) {
    let ips: Vec<Ipv4Addr> = (0..16)
        .map(|i| Ipv4Addr::new(base[0], base[1], base[2], base[3] + i))
        .collect();
    let hp = HoneypotListener::new(name, ips.clone(), PortPolicy::FirstPayload)
        .with_policy(22, PortPolicy::Interactive(LoginService::Ssh))
        .with_persona(80, Persona::http());
    (hp, ips)
}

fn attack_both(engine: &mut Engine, targets_a: &[Ipv4Addr], targets_b: &[Ipv4Addr]) {
    let mut rng = SimRng::seed_from_u64(99);
    let mut targets = Vec::new();
    for &ip in targets_a.iter().chain(targets_b) {
        targets.push((ip, 80));
        targets.push((ip, 80));
        targets.push((ip, 22));
    }
    rng.shuffle(&mut targets);
    let pacing = Pacing::spread(&mut rng, targets.len(), SimDuration::WEEK);
    // Each intent is built once; every flow shares it.
    let login = ConnectionIntent::Login {
        service: LoginService::Ssh,
        username: "root".into(),
        password: "123456".into(),
    };
    let exploit = ConnectionIntent::Payload(
        cloud_watching::scanners::exploits::log4shell("203.0.113.1:1389").into(),
    );
    let probe = ConnectionIntent::Payload(
        cloud_watching::scanners::exploits::benign_get("zgrab/0.x").into(),
    );
    let campaign = Campaign::new(
        ActorIdentity::new(
            "mixed-attacker",
            cloud_watching::netsim::asn::Asn(4134),
            "CN",
            vec![Ipv4Addr::new(100, 50, 0, 1)],
        ),
        rng,
        targets,
        pacing,
        Box::new(move |rng, _, port| {
            if port == 22 {
                login.clone()
            } else if rng.chance(0.4) {
                exploit.clone()
            } else {
                probe.clone()
            }
        }),
    );
    let start = campaign.start_time();
    engine.add_agent(Box::new(campaign), start);
}

fn measured_malicious_pct(cap: &cloud_watching::honeypot::capture::Capture) -> (usize, f64) {
    let rules = RuleSet::builtin();
    let interner_rc = cap.interner();
    let interner = interner_rc.borrow();
    let mut attackers = 0usize;
    let mut total = 0usize;
    for e in cap.events() {
        total += 1;
        let verdict = match e.observed {
            cloud_watching::honeypot::capture::Observed::Credentials { .. } => Verdict::Attacker,
            cloud_watching::honeypot::capture::Observed::Payload(p) => {
                if cloud_watching::detection::is_malicious_payload(
                    interner.payload(p),
                    e.dst_port,
                    &rules,
                ) {
                    Verdict::Attacker
                } else {
                    Verdict::Scanner
                }
            }
            _ => Verdict::Scanner,
        };
        if verdict == Verdict::Attacker {
            attackers += 1;
        }
    }
    (
        total,
        if total == 0 {
            0.0
        } else {
            100.0 * attackers as f64 / total as f64
        },
    )
}

fn main() {
    let mut engine = Engine::new();

    // Fleet A: directly exposed.
    let (hp_a, ips_a) = fleet("exposed", [10, 50, 0, 0]);
    let cap_a = hp_a.capture();
    engine.add_listener(Rc::new(RefCell::new(hp_a)));

    // Fleet B: identical, but behind a transparent IPS.
    let (hp_b, ips_b) = fleet("behind-ips", [10, 51, 0, 0]);
    let cap_b = hp_b.capture();
    let fw = Firewall::new("campus-ips", Rc::new(RefCell::new(hp_b))).with_ips(RuleSet::builtin());
    let fw = Rc::new(RefCell::new(fw));
    engine.add_listener(fw.clone());

    attack_both(&mut engine, &ips_a, &ips_b);
    engine.run(SimTime::ZERO + SimDuration::WEEK);

    let (total_a, pct_a) = measured_malicious_pct(&cap_a.borrow());
    let (total_b, pct_b) = measured_malicious_pct(&cap_b.borrow());
    let fw = fw.borrow();

    println!("identical traffic aimed at both fleets:\n");
    println!("  exposed fleet measured    : {total_a} events, {pct_a:.0}% malicious");
    println!("  behind-IPS fleet measured : {total_b} events, {pct_b:.0}% malicious");
    println!(
        "  the middlebox silently dropped {} flows ({} passed)",
        fw.dropped(),
        fw.passed()
    );
    println!(
        "\na researcher comparing these fleets would conclude the IPS network is \
         attacked {:.1}x less — §7's confound, now quantified.",
        pct_a / pct_b.max(1.0)
    );
    assert!(
        pct_a > pct_b,
        "the IPS must suppress measured maliciousness"
    );
}
