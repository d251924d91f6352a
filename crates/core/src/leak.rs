//! Table 3: the Internet-service search-engine leak experiment (§4.3).
//!
//! A standalone harness (the paper ran it on a dedicated Stanford block, not
//! in the cloud, because it needs untainted IP histories):
//!
//! - **Control** — 8 IPs, services hidden from Censys and Shodan;
//! - **Previously leaked** — 7 recycled IPs whose *old* HTTP/80 service is
//!   still in both indexes (historical entries), engines blocked now;
//! - **Leaked** — 18 IPs in six groups of 3: exactly one engine is allowed
//!   to discover exactly one service (HTTP/80, SSH/22 or Telnet/23).
//!
//! Every IP emulates all three services. Background scanners provide the
//! baseline; miner agents query the indexes and burst at listings; the
//! Avast/M247/CDN77 nmap campaigns probe HTTP while avoiding live Censys
//! listings. Censys/Shodan's own traffic is excluded from all statistics,
//! exactly as in the paper.

use crate::dataset::{classify_interned, ClassifyMemo};
use cw_detection::{RuleSet, Verdict};
use cw_honeypot::capture::{Capture, Observed};
use cw_honeypot::deployment::Deployment;
use cw_honeypot::framework::{HoneypotListener, ListenerFaults, Persona, PortPolicy};
use cw_netsim::engine::Engine;
use cw_netsim::fault::{domain_salt, FaultDomain, FaultPlan};
use cw_netsim::flow::LoginService;
use cw_netsim::rng::SimRng;
use cw_netsim::time::{SimDuration, SimTime};
use cw_scanners::campaign::{Campaign, Pacing};
use cw_scanners::identity::{ActorIdentity, SrcAllocator};
use cw_scanners::miner::{MinerAgent, MinerAttack};
use cw_scanners::nmap::NmapCampaign;
use cw_scanners::search_engine::{IndexerAgent, SearchEngine, SearchIndex, SharedIndex};
use cw_stats::Alternative;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// The emulated service a leak cell is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakService {
    /// HTTP on port 80.
    Http80,
    /// SSH on port 22.
    Ssh22,
    /// Telnet on port 23.
    Telnet23,
}

impl LeakService {
    /// All three services.
    pub const ALL: [LeakService; 3] = [
        LeakService::Http80,
        LeakService::Ssh22,
        LeakService::Telnet23,
    ];

    /// The service port.
    pub fn port(&self) -> u16 {
        match self {
            LeakService::Http80 => 80,
            LeakService::Ssh22 => 22,
            LeakService::Telnet23 => 23,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            LeakService::Http80 => "HTTP/80",
            LeakService::Ssh22 => "SSH/22",
            LeakService::Telnet23 => "Telnet/23",
        }
    }
}

/// The experiment groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakGroup {
    /// Never indexed.
    Control,
    /// Stale HTTP/80 entries in both indexes.
    PreviouslyLeaked,
    /// One service leaked to Censys.
    CensysLeaked(LeakService),
    /// One service leaked to Shodan.
    ShodanLeaked(LeakService),
}

/// One Table 3 cell: fold increase + significance markers.
#[derive(Debug, Clone, Copy)]
pub struct LeakCell {
    /// The service row.
    pub service: LeakService,
    /// The treatment group column.
    pub group: LeakGroup,
    /// True for the malicious-traffic sub-row.
    pub malicious_only: bool,
    /// Fold increase in traffic per hour over the control group.
    pub fold: f64,
    /// One-sided Mann–Whitney U: treatment stochastically greater (bold in
    /// the paper).
    pub mwu_significant: bool,
    /// Kolmogorov–Smirnov: the hourly distribution differs (spikes; the
    /// paper's *).
    pub ks_different: bool,
}

/// The experiment output.
pub struct LeakOutcome {
    /// All Table 3 cells.
    pub cells: Vec<LeakCell>,
    /// Per (group, service): total events per hour over the window.
    pub hourly: BTreeMap<(LeakGroup, LeakService), Vec<f64>>,
    /// Mean unique passwords attempted per leaked vs control SSH service.
    pub ssh_unique_passwords: (f64, f64),
}

impl LeakOutcome {
    /// Burstiness profile of one group/service hourly series — the explicit
    /// version of the paper's manually verified "spikes" (§4.3).
    pub fn spike_profile(
        &self,
        group: LeakGroup,
        service: LeakService,
    ) -> Option<cw_stats::SpikeProfile> {
        self.hourly
            .get(&(group, service))
            .map(|h| cw_stats::spike_profile(h))
    }
}

/// The leak world's seed is the scenario seed XOR this constant, so the
/// leak experiment never shares RNG streams with the main world it is
/// compared against. Every leak world a driver runs is seeded this way.
pub const LEAK_SEED_XOR: u64 = 0x1EA4;

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct LeakConfig {
    /// Seed for the harness.
    pub seed: u64,
    /// Background/miner volume scale.
    pub scale: f64,
    /// Window length.
    pub horizon: SimDuration,
    /// Deterministic fault plan (loss, outages, truncation) applied to the
    /// leak world, derived from this config's own seed. The leak harness
    /// has no telescope, so `telescope_sample` is ignored here.
    pub fault: FaultPlan,
}

impl LeakConfig {
    /// The leak world a driver runs beside the year world seeded `seed`:
    /// seeded `seed ^ LEAK_SEED_XOR`, over one week, at `scale` and under
    /// `fault`.
    pub(crate) fn beside(seed: u64, scale: f64, fault: FaultPlan) -> Self {
        LeakConfig {
            seed: seed ^ LEAK_SEED_XOR,
            scale,
            horizon: SimDuration::WEEK,
            fault,
        }
    }
}

impl Default for LeakConfig {
    fn default() -> Self {
        LeakConfig::beside(crate::scenario::DEFAULT_SEED, 1.0, FaultPlan::none())
    }
}

struct Fleet {
    group: LeakGroup,
    ips: Vec<Ipv4Addr>,
    capture: Rc<RefCell<Capture>>,
}

fn build_leak_honeypot(name: &str, ips: &[Ipv4Addr]) -> HoneypotListener {
    HoneypotListener::new(name, ips.iter().copied(), PortPolicy::Closed)
        .with_policy(22, PortPolicy::Interactive(LoginService::Ssh))
        .with_policy(23, PortPolicy::Interactive(LoginService::Telnet))
        .with_policy(80, PortPolicy::FirstPayload)
        .with_persona(80, Persona::http())
}

/// Run the leak experiment.
pub fn run(config: &LeakConfig) -> LeakOutcome {
    let block = Deployment::standard()
        .topology
        .block("leak/stanford")
        .expect("leak block allocated");
    let root = SimRng::seed_from_u64(config.seed);
    let mut alloc = SrcAllocator::new();
    let mut engine = Engine::new();

    // Deterministic fault wiring: same domain-salt layout as the scenario
    // path (see cw_netsim::fault), derived from the leak harness's own
    // seed so the leak world degrades independently of the year worlds.
    if !config.fault.is_none() {
        config.fault.validate();
        engine.set_flow_loss(
            config.fault.flow_loss,
            domain_salt(config.seed, FaultDomain::FlowLoss),
        );
    }

    // Indexes and engine sources.
    let censys: SharedIndex = Rc::new(RefCell::new(SearchIndex::new()));
    let shodan: SharedIndex = Rc::new(RefCell::new(SearchIndex::new()));
    let censys_srcs = alloc.alloc(6);
    let shodan_srcs = alloc.alloc(6);

    // --- Fleets -----------------------------------------------------------
    let mut fleets: Vec<Fleet> = Vec::new();
    let mut cursor = 0u64;
    let mut take = |n: u64| -> Vec<Ipv4Addr> {
        let out = (cursor..cursor + n).map(|i| block.nth(i)).collect();
        cursor += n;
        out
    };

    let groups: Vec<(LeakGroup, u64)> = {
        let mut g = vec![(LeakGroup::Control, 8), (LeakGroup::PreviouslyLeaked, 7)];
        for svc in LeakService::ALL {
            g.push((LeakGroup::CensysLeaked(svc), 3));
            g.push((LeakGroup::ShodanLeaked(svc), 3));
        }
        g
    };
    for (fleet_index, (group, n)) in groups.into_iter().enumerate() {
        let ips = take(n);
        let mut hp = build_leak_honeypot(&format!("leak/{group:?}"), &ips);
        if !config.fault.is_none() {
            // Per-fleet vantage index, mirroring the scenario layout where
            // each capture point owns an independent outage schedule.
            hp.set_faults(ListenerFaults::derive(
                &config.fault,
                config.seed,
                fleet_index as u64,
                config.horizon,
            ));
        }
        // Engine visibility per group.
        match group {
            LeakGroup::Control | LeakGroup::PreviouslyLeaked => {
                for src in censys_srcs.iter().chain(&shodan_srcs) {
                    hp.block_source(*src);
                }
            }
            LeakGroup::CensysLeaked(svc) => {
                for src in &censys_srcs {
                    hp.block_source_except(*src, &[svc.port()]);
                }
                for src in &shodan_srcs {
                    hp.block_source(*src);
                }
            }
            LeakGroup::ShodanLeaked(svc) => {
                for src in &shodan_srcs {
                    hp.block_source_except(*src, &[svc.port()]);
                }
                for src in &censys_srcs {
                    hp.block_source(*src);
                }
            }
        }
        if group == LeakGroup::PreviouslyLeaked {
            for ip in &ips {
                censys.borrow_mut().seed_historical(*ip, 80);
                shodan.borrow_mut().seed_historical(*ip, 80);
            }
        }
        let listener = Rc::new(RefCell::new(hp));
        let capture = listener.borrow().capture();
        engine.add_listener(listener);
        fleets.push(Fleet {
            group,
            ips,
            capture,
        });
    }
    let all_ips: Vec<Ipv4Addr> = fleets.iter().flat_map(|f| f.ips.clone()).collect();

    // --- Agents -----------------------------------------------------------
    // Indexers sweep the leak block on the three service ports.
    {
        let rng = root.derive("leak/indexers");
        let censys_agent = IndexerAgent::new(
            ActorIdentity::new(
                "censys",
                cw_netsim::asn::Asn(398_324),
                "US",
                censys_srcs.clone(),
            ),
            rng.derive("censys"),
            censys.clone(),
            all_ips.clone(),
            vec![80, 22, 23],
            SimDuration::DAY,
            0.0,
        );
        let shodan_agent = IndexerAgent::new(
            ActorIdentity::new(
                "shodan",
                cw_netsim::asn::Asn(10_439),
                "US",
                shodan_srcs.clone(),
            ),
            rng.derive("shodan"),
            shodan.clone(),
            all_ips.clone(),
            vec![80, 22, 23],
            SimDuration::DAY,
            0.0,
        );
        engine.add_agent(Box::new(censys_agent), SimTime(1_800));
        engine.add_agent(Box::new(shodan_agent), SimTime(5_400));
    }

    // Background scanners: uniform over the whole block, per service. They
    // set the control group's baseline.
    {
        let rng = root.derive("leak/background");
        let scale = config.scale;
        let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        // (name, port, campaigns, contacts/ip, login service or payload)
        for i in 0..scaled(25) {
            let srcs = alloc.alloc(1);
            let mut crng = rng.derive(&format!("bg-http/{i}"));
            let mut targets = Vec::new();
            for ip in &all_ips {
                for _ in 0..2 {
                    targets.push((*ip, 80u16));
                }
            }
            crng.shuffle(&mut targets);
            let malicious = i % 2 == 0;
            let pacing = Pacing::spread(&mut crng, targets.len(), config.horizon);
            let c = Campaign::new(
                ActorIdentity::new(
                    &format!("bg-http/{i}"),
                    cw_netsim::asn::Asn(64_600 + i as u32),
                    "US",
                    srcs,
                ),
                crng,
                targets,
                pacing,
                cw_scanners::campaign::fixed_payload(if malicious {
                    cw_scanners::exploits::thinkphp_rce()
                } else {
                    cw_scanners::exploits::benign_get("zgrab/0.x")
                }),
            );
            let start = c.start_time();
            engine.add_agent(Box::new(c), start);
        }
        for (svc, count, per_ip) in [
            (LoginService::Ssh, scaled(20), 2usize),
            (LoginService::Telnet, scaled(20), 2),
        ] {
            let port = if svc == LoginService::Ssh { 22 } else { 23 };
            for i in 0..count {
                let srcs = alloc.alloc(1);
                let mut crng = rng.derive(&format!("bg-login/{port}/{i}"));
                let mut targets = Vec::new();
                for ip in &all_ips {
                    for _ in 0..per_ip {
                        targets.push((*ip, port));
                    }
                }
                crng.shuffle(&mut targets);
                let pacing = Pacing::spread(&mut crng, targets.len(), config.horizon);
                let dict: &'static [(&'static str, &'static str)] = match svc {
                    LoginService::Ssh => cw_scanners::credentials::SSH_GLOBAL,
                    LoginService::Telnet => cw_scanners::credentials::TELNET_GLOBAL,
                };
                let c = Campaign::new(
                    ActorIdentity::new(
                        &format!("bg-login/{port}/{i}"),
                        cw_netsim::asn::Asn(64_700 + i as u32),
                        "CN",
                        srcs,
                    ),
                    crng,
                    targets,
                    pacing,
                    cw_scanners::campaign::login_from_dictionary(svc, dict),
                );
                let start = c.start_time();
                engine.add_agent(Box::new(c), start);
            }
        }
    }

    // Miners: HTTP miners lean Censys, SSH miners lean Shodan, Telnet both
    // (Table 3's engine preferences).
    {
        let mut rng = root.derive("leak/miners");
        let specs: Vec<(&str, SearchEngine, MinerAttack, f64)> = vec![
            (
                "miner/c-http-0",
                SearchEngine::Censys,
                MinerAttack::HttpExploits { attempts: 5 },
                0.5,
            ),
            (
                "miner/c-http-1",
                SearchEngine::Censys,
                MinerAttack::HttpExploits { attempts: 5 },
                0.5,
            ),
            (
                "miner/c-http-2",
                SearchEngine::Censys,
                MinerAttack::HttpExploits { attempts: 4 },
                0.4,
            ),
            (
                "miner/c-http-3",
                SearchEngine::Censys,
                MinerAttack::HttpExploits { attempts: 4 },
                0.4,
            ),
            (
                "miner/s-http-0",
                SearchEngine::Shodan,
                MinerAttack::HttpExploits { attempts: 5 },
                0.6,
            ),
            (
                "miner/s-http-1",
                SearchEngine::Shodan,
                MinerAttack::HttpExploits { attempts: 5 },
                0.6,
            ),
            (
                "miner/s-http-2",
                SearchEngine::Shodan,
                MinerAttack::HttpExploits { attempts: 5 },
                0.6,
            ),
            (
                "miner/s-http-3",
                SearchEngine::Shodan,
                MinerAttack::HttpExploits { attempts: 5 },
                0.6,
            ),
            (
                "miner/s-http-4",
                SearchEngine::Shodan,
                MinerAttack::HttpExploits { attempts: 4 },
                0.6,
            ),
            (
                "miner/s-ssh-0",
                SearchEngine::Shodan,
                MinerAttack::SshBruteforce { attempts: 8 },
                0.5,
            ),
            (
                "miner/s-ssh-1",
                SearchEngine::Shodan,
                MinerAttack::SshBruteforce { attempts: 7 },
                0.5,
            ),
            (
                "miner/s-ssh-2",
                SearchEngine::Shodan,
                MinerAttack::SshBruteforce { attempts: 6 },
                0.4,
            ),
            (
                "miner/c-ssh-0",
                SearchEngine::Censys,
                MinerAttack::SshBruteforce { attempts: 7 },
                0.4,
            ),
            (
                "miner/c-ssh-1",
                SearchEngine::Censys,
                MinerAttack::SshBruteforce { attempts: 6 },
                0.4,
            ),
            (
                "miner/c-telnet-0",
                SearchEngine::Censys,
                MinerAttack::TelnetBruteforce { attempts: 4 },
                0.3,
            ),
            (
                "miner/c-telnet-1",
                SearchEngine::Censys,
                MinerAttack::TelnetBruteforce { attempts: 4 },
                0.3,
            ),
            (
                "miner/s-telnet-0",
                SearchEngine::Shodan,
                MinerAttack::TelnetBruteforce { attempts: 3 },
                0.3,
            ),
        ];
        for (name, eng, attack, repeat) in specs {
            let srcs = alloc.alloc(3);
            let (index, asn) = match eng {
                SearchEngine::Censys => (censys.clone(), cw_netsim::asn::Asn(4134)),
                SearchEngine::Shodan => (shodan.clone(), cw_netsim::asn::Asn(56_046)),
            };
            let miner = MinerAgent::new(
                ActorIdentity::new(name, asn, "CN", srcs),
                rng.derive(name),
                index,
                attack,
                SimDuration::from_secs(5 * 3600),
                true,
            )
            .with_scope(all_ips.clone())
            .with_repeat_probability(repeat);
            engine.add_agent(Box::new(miner), SimTime(3 * 3600 + rng.below(3600)));
        }
    }

    // The nmap campaigns (Avast, M247, CDN77).
    {
        let rng = root.derive("leak/nmap");
        for (name, asn, country) in [
            ("avast-nmap", 198_605u32, "CZ"),
            ("m247-nmap", 9_009, "GB"),
            ("cdn77-nmap", 60_068, "GB"),
        ] {
            let srcs = alloc.alloc(2);
            let campaign = NmapCampaign::new(
                ActorIdentity::new(name, cw_netsim::asn::Asn(asn), country, srcs),
                rng.derive(name),
                censys.clone(),
                all_ips.clone(),
                SimDuration::DAY,
                6,
            );
            engine.add_agent(Box::new(campaign), SimTime(12 * 3600));
        }
    }

    engine.run(SimTime::ZERO + config.horizon);

    // --- Analysis -----------------------------------------------------------
    let rules = RuleSet::builtin_cached();
    let hours = config.horizon.hours() as usize;
    let excluded: std::collections::BTreeSet<Ipv4Addr> =
        censys_srcs.iter().chain(&shodan_srcs).copied().collect();

    // Per (group, service): hourly event counts normalized per IP.
    let mut hourly: BTreeMap<(LeakGroup, LeakService), Vec<f64>> = BTreeMap::new();
    let mut hourly_malicious: BTreeMap<(LeakGroup, LeakService), Vec<f64>> = BTreeMap::new();
    let mut ssh_passwords: BTreeMap<LeakGroup, std::collections::BTreeSet<String>> =
        BTreeMap::new();

    for fleet in &fleets {
        let cap = fleet.capture.borrow();
        let n_ips = fleet.ips.len() as f64;
        for svc in LeakService::ALL {
            let all = hourly
                .entry((fleet.group, svc))
                .or_insert_with(|| vec![0.0; hours]);
            // The raw (unclassified) fleet capture, in table order.
            for e in cap.events_on_port(svc.port()) {
                if excluded.contains(&e.src) {
                    continue;
                }
                let h = (e.time.hour() as usize).min(hours - 1);
                all[h] += 1.0 / n_ips;
            }
        }
        let interner_rc = cap.interner();
        let interner = interner_rc.borrow();
        // The dataset's §3.2 classifier and its per-distinct memo, one memo
        // per fleet: the fleet's capture has its own interner.
        let mut memo = ClassifyMemo::new();
        for svc in LeakService::ALL {
            let mal = hourly_malicious
                .entry((fleet.group, svc))
                .or_insert_with(|| vec![0.0; hours]);
            for e in cap.events_on_port(svc.port()) {
                if excluded.contains(&e.src) {
                    continue;
                }
                let (verdict, _) =
                    classify_interned(e.observed, e.dst_port, &interner, rules, &mut memo);
                if verdict == Verdict::Attacker {
                    let h = (e.time.hour() as usize).min(hours - 1);
                    mal[h] += 1.0 / n_ips;
                }
            }
        }
        // Unique SSH passwords per group.
        let set = ssh_passwords.entry(fleet.group).or_default();
        // The CredId → string resolution happens here, at the render
        // boundary, for credential rows only.
        for e in cap.events_on_port(22) {
            if let Observed::Credentials { password, .. } = e.observed {
                set.insert(interner.cred(password).to_string());
            }
        }
    }

    // Build cells: for each service, compare every treatment group whose
    // *leaked service* matches (plus previously-leaked, which applies to
    // every service row per the paper's Table 3 columns).
    let mut cells = Vec::new();
    for svc in LeakService::ALL {
        let control_all = &hourly[&(LeakGroup::Control, svc)];
        let control_mal = &hourly_malicious[&(LeakGroup::Control, svc)];
        let columns = [
            LeakGroup::CensysLeaked(svc),
            LeakGroup::ShodanLeaked(svc),
            LeakGroup::PreviouslyLeaked,
        ];
        for group in columns {
            for (malicious_only, treat, ctrl) in [
                (false, &hourly[&(group, svc)], control_all),
                (true, &hourly_malicious[&(group, svc)], control_mal),
            ] {
                let fold = cw_stats::descriptive::fold_increase(treat, ctrl).unwrap_or(0.0);
                let mwu = cw_stats::mann_whitney_u(treat, ctrl, Alternative::Greater)
                    .map(|r| r.p_value < 0.05)
                    .unwrap_or(false);
                let ks = cw_stats::ks_two_sample(treat, ctrl)
                    .map(|r| r.p_value < 0.05)
                    .unwrap_or(false);
                cells.push(LeakCell {
                    service: svc,
                    group,
                    malicious_only,
                    fold,
                    mwu_significant: mwu,
                    ks_different: ks,
                });
            }
        }
    }

    // Unique SSH password comparison: leaked (ssh groups) vs control.
    let leaked_pw: f64 = {
        let groups = [
            LeakGroup::CensysLeaked(LeakService::Ssh22),
            LeakGroup::ShodanLeaked(LeakService::Ssh22),
        ];
        let total: usize = groups
            .iter()
            .map(|g| ssh_passwords.get(g).map(|s| s.len()).unwrap_or(0))
            .sum();
        total as f64 / groups.len() as f64
    };
    let control_pw = ssh_passwords
        .get(&LeakGroup::Control)
        .map(|s| s.len())
        .unwrap_or(0) as f64;

    LeakOutcome {
        cells,
        hourly,
        ssh_unique_passwords: (leaked_pw, control_pw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> LeakOutcome {
        run(&LeakConfig {
            seed: 77,
            scale: 1.0,
            horizon: SimDuration::WEEK,
            fault: FaultPlan::none(),
        })
    }

    #[test]
    fn leaked_services_attract_more_traffic() {
        let o = outcome();
        // Every (service, leaked-to-its-engine) all-traffic fold must
        // exceed 1 (the Table 3 direction).
        for svc in LeakService::ALL {
            for group in [LeakGroup::CensysLeaked(svc), LeakGroup::ShodanLeaked(svc)] {
                let cell = o
                    .cells
                    .iter()
                    .find(|c| c.service == svc && c.group == group && !c.malicious_only)
                    .unwrap();
                assert!(
                    cell.fold > 1.2,
                    "{} leaked to {:?}: fold {:.2}",
                    svc.label(),
                    group,
                    cell.fold
                );
            }
        }
    }

    #[test]
    fn previously_leaked_http_still_draws_fire() {
        let o = outcome();
        let cell = o
            .cells
            .iter()
            .find(|c| {
                c.service == LeakService::Http80
                    && c.group == LeakGroup::PreviouslyLeaked
                    && !c.malicious_only
            })
            .unwrap();
        assert!(cell.fold > 1.5, "prev-leaked fold {:.2}", cell.fold);
    }

    #[test]
    fn leaked_services_are_spikier_than_control() {
        let o = outcome();
        let leaked = o
            .spike_profile(
                LeakGroup::ShodanLeaked(LeakService::Http80),
                LeakService::Http80,
            )
            .unwrap();
        let control = o
            .spike_profile(LeakGroup::Control, LeakService::Http80)
            .unwrap();
        assert!(
            leaked.spike_hours > control.spike_hours,
            "leaked {} vs control {} spike hours",
            leaked.spike_hours,
            control.spike_hours
        );
    }

    #[test]
    fn leaked_ssh_sees_more_unique_passwords() {
        let o = outcome();
        let (leaked, control) = o.ssh_unique_passwords;
        assert!(
            leaked > control,
            "leaked {leaked:.1} vs control {control:.1} unique passwords"
        );
    }
}
