//! Quickstart: simulate a week of Internet scanning against the paper's
//! vantage fleet and poke at the collected data.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cloud_watching::core::compare::CharKind;
use cloud_watching::core::dataset::TrafficSlice;
use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
use cloud_watching::core::{Plan, ScanExec};
use cloud_watching::scanners::population::ScenarioYear;
use cloud_watching::stats::topk::top_k_of;

fn main() {
    // 1. Run a reduced-scale July-2021 scenario (full scale is `paper()`).
    let scenario = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021));
    println!(
        "simulated week: {} flows delivered, {} honeypot events, {} telescope packets",
        scenario.stats.flows_delivered,
        scenario.dataset.len(),
        scenario.telescope.borrow().total_packets(),
    );

    // 2. Who scans a Singapore cloud honeypot's SSH port?
    let sg_ips: Vec<_> = scenario
        .deployment
        .vantages
        .iter()
        .filter(|v| v.id.starts_with("greynoise/aws/AP-SG"))
        .map(|v| v.ip)
        .collect();
    // Questions about the dataset are scan plans (docs/QUERY.md):
    // predicates run on the interned ID columns, strings appear only in
    // the rendered answer.
    let exec = ScanExec::unplanned(&scenario.dataset);
    let sg_ssh = Plan::at(&sg_ips).slice(TrafficSlice::SshPort22);
    let who = exec
        .run(&sg_ssh.clone().char_freqs(CharKind::TopAs))
        .into_char_freqs();
    println!("\nAWS Singapore SSH/22 — top scanning ASes:");
    for asn in top_k_of(&who, 3) {
        println!(
            "  {:<10} {:>6} connections  ({})",
            asn,
            who[asn],
            scenario
                .handles
                .registry
                .name_of(cloud_watching::netsim::asn::Asn(
                    asn.trim_start_matches("AS").parse().unwrap()
                ))
        );
    }

    // 3. What credentials do attackers try there?
    let usernames = exec
        .run(&sg_ssh.clone().char_freqs(CharKind::TopUsername))
        .into_char_freqs();
    println!("\nAWS Singapore SSH/22 — top usernames:");
    for u in top_k_of(&usernames, 3) {
        println!("  {:<12} {:>6} attempts", u, usernames[u]);
    }

    // 4. How much of the traffic is verifiably malicious (§3.2)?
    let events: Vec<_> = exec
        .run(&sg_ssh.rows())
        .into_rows()
        .into_iter()
        .map(|i| scenario.dataset.event(i))
        .collect();
    let (attackers, scanners) = cloud_watching::core::axes::maliciousness_counts(&events);
    println!(
        "\nmaliciousness: {attackers} attacker events vs {scanners} scanner events \
         ({:.0}% malicious)",
        100.0 * attackers as f64 / (attackers + scanners).max(1) as f64
    );

    // 5. And the headline: how many SSH scanners also touch the telescope?
    let tel = scenario.telescope.borrow();
    let cloud_ips = cloud_watching::core::overlap::cloud_ips(scenario.deployment);
    let srcs = exec
        .run(&Plan::at(&cloud_ips).port(22).distinct_srcs())
        .into_distinct_srcs();
    let overlap = srcs
        .iter()
        .filter(|&&s| tel.saw_source_on_port(s, 22))
        .count();
    println!(
        "\ntelescope avoidance: only {overlap}/{} cloud-SSH scanner IPs also appear in \
         the telescope (the §5.2 blind spot)",
        srcs.len()
    );
}
