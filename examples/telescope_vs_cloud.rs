//! The telescope blind spot (§5.2) and the address-structure preferences
//! (§4.2 / Figure 1), in one run.
//!
//! ```sh
//! cargo run --release --example telescope_vs_cloud
//! ```

use cloud_watching::core::figure1;
use cloud_watching::core::overlap;
use cloud_watching::core::scenario::{Scenario, ScenarioConfig};
use cloud_watching::core::{PlanStore, ScanExec};
use cloud_watching::netsim::ip::IpExt;
use cloud_watching::scanners::population::ScenarioYear;

fn main() {
    let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.3));
    let tel = s.telescope.borrow();
    // Tables 8 and 9 read four plans over two fleets; a store of them runs
    // the four scans in one pass per fleet.
    let store = PlanStore::build(&s.dataset, &overlap::table8_and_9_plans(s.deployment));
    let exec = ScanExec::with_store(&s.dataset, &store);
    let (t8, t9) = overlap::table8_and_9(&exec, s.deployment, &tel);

    println!("— telescope avoidance (Table 8 shape) —");
    for row in t8 {
        if let Some(tc) = row.tel_cloud {
            println!(
                "  port {:>5}: {:>4.0}% of cloud-targeting scanner IPs also hit the telescope",
                row.port, tc
            );
        }
    }

    println!("\n— attacker avoidance (Table 9 shape) —");
    for row in t9 {
        if let Some(tc) = row.tel_cloud {
            println!(
                "  port {:>5}: {:>4.0}% of *attacker* IPs hit the telescope",
                row.port, tc
            );
        }
    }

    println!("\n— address-structure preferences (Figure 1 shape) —");
    if let Some(pref) = figure1::slash16_first_preference(&tel, 22) {
        println!("  port 22: first-of-/16 addresses drawn {pref:.1}x more scanners");
    }
    if let Some(stats) = figure1::structure_stats(&tel, 445, |ip| ip.has_255_octet()) {
        println!(
            "  port 445: 255-octet addresses avoided {:.1}x",
            stats.avoidance_factor
        );
    }
    for port in [22u16, 445, 80, 17_128] {
        if let Some(fig) = figure1::series(&tel, port) {
            println!(
                "  port {:>5} |{}|",
                port,
                figure1::ascii_sparkline(&fig.rolling, 72)
            );
        }
    }
}
