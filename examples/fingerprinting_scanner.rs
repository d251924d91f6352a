//! §7 "Honeypot Fingerprinting": a scanner that banner-grabs before
//! attacking never shows up in Cowrie's credential logs — the
//! sophisticated-attacker blind spot the paper warns about.
//!
//! ```sh
//! cargo run --release --example fingerprinting_scanner
//! ```

use cloud_watching::honeypot::capture::Observed;
use cloud_watching::honeypot::deployment::Deployment;
use cloud_watching::netsim::asn::Asn;
use cloud_watching::netsim::engine::Engine;
use cloud_watching::netsim::rng::SimRng;
use cloud_watching::netsim::time::{SimDuration, SimTime};
use cloud_watching::scanners::bruteforce::{build, BruteforceProfile, GeoScope};
use cloud_watching::scanners::fingerprinting::FingerprintingScanner;
use cloud_watching::scanners::identity::ActorIdentity;
use cloud_watching::scanners::targets::TargetUniverse;
use std::net::Ipv4Addr;

fn main() {
    let deployment = Deployment::standard();
    let universe = TargetUniverse::from_deployment(deployment);
    let instruments = deployment.instruments();
    let mut engine = Engine::new();
    instruments.register(&mut engine);

    // A naive brute-forcer and a fingerprinting one, same target universe.
    let mut rng = SimRng::seed_from_u64(4242);
    let naive = build(
        &BruteforceProfile {
            name: "naive-bf".into(),
            count: 1,
            service: cloud_watching::netsim::flow::LoginService::Ssh,
            ports: vec![22],
            dictionary: cloud_watching::scanners::credentials::SSH_GLOBAL,
            scope: GeoScope::Global,
            service_rate: 1.0,
            attempts_per_target: 1,
            p_telescope: 0.0,
            telescope_sample: 0,
        },
        &universe,
        &mut rng,
        |_n| vec![Ipv4Addr::new(100, 60, 0, 1)],
        &mut |_r| (Asn(4134), "CN".to_string()),
    );
    for c in naive {
        let start = c.start_time();
        engine.add_agent(Box::new(c), start);
    }

    let fp = FingerprintingScanner::new(
        ActorIdentity::new(
            "careful-bf",
            Asn(53_667),
            "US",
            vec![Ipv4Addr::new(100, 61, 0, 1)],
        ),
        SimRng::seed_from_u64(7),
        universe.all_service_ips(),
    );
    engine.add_agent(Box::new(fp), SimTime(60));

    engine.run(SimTime::ZERO + SimDuration::WEEK);

    // What did the GreyNoise Cowrie sensors record?
    let mut creds_naive = 0usize;
    let mut creds_careful = 0usize;
    let mut probes_careful = 0usize;
    for hp in &instruments.honeypots {
        let cap = hp.borrow().capture();
        let cap = cap.borrow();
        for e in cap.events() {
            let careful = e.src == Ipv4Addr::new(100, 61, 0, 1);
            match e.observed {
                Observed::Credentials { .. } => {
                    if careful {
                        creds_careful += 1;
                    } else {
                        creds_naive += 1;
                    }
                }
                _ if careful => probes_careful += 1,
                _ => {}
            }
        }
    }
    println!("credential attempts recorded by Cowrie sensors:");
    println!("  naive brute-forcer     : {creds_naive}");
    println!("  fingerprinting scanner : {creds_careful} (it sent {probes_careful} banner grabs)");
    println!(
        "\nthe fingerprinting scanner is invisible in the credential logs — exactly the \
         §7 bias: honeypot studies undercount attackers sophisticated enough to check \
         the SSH banner first."
    );
    assert_eq!(creds_careful, 0);
    assert!(creds_naive > 100);
    assert!(probes_careful > 100);
}
