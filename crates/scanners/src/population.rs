//! Scenario population assembly.
//!
//! Builds the full actor mix for a measurement year (2020 / 2021 / 2022).
//! Every knob here is a *behavioral* parameter — how many campaigns of each
//! archetype exist, how they sample targets, and whether they sweep the
//! telescope — chosen so that the measured pipeline outputs land near the
//! paper's published tables (see EXPERIMENTS.md for paper-vs-measured).
//! Nothing downstream reads these knobs; the tables are computed from the
//! captured traffic alone.
//!
//! Calibration anchors (paper values the knobs aim at):
//!
//! - Table 8 per-port telescope overlap: 23→91%, 2323→53%, 80→73%,
//!   8080→80%, 21→29%, 2222→9%, 25→19%, 7547→33%, 22→13%, 443→30%;
//! - Table 9: SSH *attackers* ≤7.5% overlap, Telnet attackers ~90%;
//! - §3.2: 24% of SSH/22 and 34% of Telnet/23 traffic does not attempt
//!   login; 75% of HTTP/80 payloads are not exploits;
//! - §6: ≥15% of port-80/8080 scanners speak a non-HTTP protocol (≈34% in
//!   2022);
//! - §3.3: the top-3 source ASes carry ≈37% of traffic (Zipf-ish AS pool).

use crate::bruteforce::{BruteforceProfile, GeoScope};
use crate::identity::{ActorIdentity, SrcAllocator};
use crate::miner::{MinerAgent, MinerAttack};
use crate::search_engine::{IndexerAgent, SearchIndex, SharedIndex};
use crate::targets::TargetUniverse;
use crate::unexpected;
use crate::webexploit::{self, WebExploitProfile};
use crate::zmap::ZmapProfile;
use cw_detection::ReputationDb;
use cw_honeypot::deployment::Deployment;
use cw_netsim::asn::{AsRegistry, Asn};
use cw_netsim::engine::{Agent, Engine};
use cw_netsim::flow::LoginService;
use cw_netsim::rng::SimRng;
use cw_netsim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Which July 1–7 window a scenario models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioYear {
    /// July 2020 (GreyNoise era; Honeytrap fleets not yet deployed).
    Y2020,
    /// July 2021 (the paper's primary window).
    Y2021,
    /// July 2022 (Honeytrap era; GreyNoise feed ended).
    Y2022,
}

impl ScenarioYear {
    /// Calendar year.
    pub fn year(&self) -> u16 {
        match self {
            ScenarioYear::Y2020 => 2020,
            ScenarioYear::Y2021 => 2021,
            ScenarioYear::Y2022 => 2022,
        }
    }
}

/// Population construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// Scenario year.
    pub year: ScenarioYear,
    /// Master seed; every campaign derives a labeled sub-stream.
    pub seed: u64,
    /// Global scale multiplier on campaign counts and telescope samples.
    /// 1.0 ≈ 1.3M flows; tests use ~0.1.
    pub scale: f64,
}

/// The assembled population.
pub struct Population {
    /// Agents with their first wake times.
    pub agents: Vec<(Box<dyn Agent>, SimTime)>,
    /// Censys's index.
    pub censys: SharedIndex,
    /// Shodan's index.
    pub shodan: SharedIndex,
    /// Censys scanner source addresses (for honeypot blocklists).
    pub censys_srcs: Vec<Ipv4Addr>,
    /// Shodan scanner source addresses.
    pub shodan_srcs: Vec<Ipv4Addr>,
    /// The GreyNoise-API-like reputation oracle for this population.
    pub reputation: ReputationDb,
    /// AS registry covering every source AS in the population.
    pub registry: AsRegistry,
    /// Scanner source addresses drawn from the [`SrcAllocator`]'s /8.
    pub source_addrs: u32,
}

impl Population {
    /// Register every agent with an engine (consumes the agent list).
    pub fn register(self, engine: &mut Engine) -> PopulationHandles {
        for (agent, start) in self.agents {
            engine.add_agent(agent, start);
        }
        PopulationHandles {
            censys: self.censys,
            shodan: self.shodan,
            censys_srcs: self.censys_srcs,
            shodan_srcs: self.shodan_srcs,
            reputation: self.reputation,
            registry: self.registry,
        }
    }
}

/// What remains accessible after registration.
pub struct PopulationHandles {
    /// Censys's index.
    pub censys: SharedIndex,
    /// Shodan's index.
    pub shodan: SharedIndex,
    /// Censys scanner source addresses.
    pub censys_srcs: Vec<Ipv4Addr>,
    /// Shodan scanner source addresses.
    pub shodan_srcs: Vec<Ipv4Addr>,
    /// Reputation oracle.
    pub reputation: ReputationDb,
    /// AS registry.
    pub registry: AsRegistry,
}

/// A Zipf-weighted AS pool: the top entries dominate, giving the §3.3
/// "top 3 ASes carry 37% of traffic" long-tail shape.
struct AsnPool {
    entries: Vec<(Asn, String)>,
    weights: Vec<f64>,
}

impl AsnPool {
    fn new(entries: Vec<(Asn, String)>) -> Self {
        let weights = (0..entries.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        AsnPool { entries, weights }
    }

    fn pick(&self, rng: &mut SimRng) -> (Asn, String) {
        let i = rng.choose_weighted(&self.weights);
        self.entries[i].clone()
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// Build the population for a scenario.
pub fn build(config: &PopulationConfig, deployment: &Deployment) -> Population {
    let universe = TargetUniverse::from_deployment(deployment);
    // Each year is an independent draw from the same behavioral
    // distribution: 2021 (the paper's primary window) uses the seed
    // directly; other years derive their own stream. Temporal stability
    // (§3.4) then *emerges* from the shared behavior parameters rather than
    // from replaying identical randomness.
    let year_seed = match config.year {
        ScenarioYear::Y2021 => config.seed,
        ScenarioYear::Y2020 => config.seed ^ cw_netsim::rng::fnv1a(b"july-2020"),
        ScenarioYear::Y2022 => config.seed ^ cw_netsim::rng::fnv1a(b"july-2022"),
    };
    let root = SimRng::seed_from_u64(year_seed);
    let mut alloc = SrcAllocator::new();
    let mut registry = AsRegistry::well_known();
    registry.generate_filler(
        200_000,
        120,
        &["US", "CN", "RU", "DE", "BR", "IN", "NL", "VN", "KR", "FR"],
    );
    let mut reputation = ReputationDb::new();
    let mut agents: Vec<(Box<dyn Agent>, SimTime)> = Vec::new();
    let s = config.scale;

    // --- AS pools ---------------------------------------------------------
    let general_pool = AsnPool::new(
        [
            (4134u32, "CN"),
            (174, "US"),
            (9009, "GB"),
            (14061, "US"),
            (16276, "FR"),
            (49505, "RU"),
            (4837, "CN"),
            (45090, "CN"),
            (212283, "RU"),
            (135377, "HK"),
        ]
        .iter()
        .map(|&(a, c)| (Asn(a), c.to_string()))
        .chain((0..30).map(|i| (Asn(200_000 + i), "US".to_string())))
        .collect(),
    );
    let attacker_pool = AsnPool::new(
        [
            (4134u32, "CN"),
            (56046, "CN"),
            (9808, "CN"),
            (53667, "US"),
            (212283, "RU"),
            (45090, "CN"),
            (135377, "HK"),
        ]
        .iter()
        .map(|&(a, c)| (Asn(a), c.to_string()))
        .chain((30..60).map(|i| (Asn(200_000 + i), "RU".to_string())))
        .collect(),
    );

    // --- Search engines ---------------------------------------------------
    let censys: SharedIndex = Rc::new(RefCell::new(SearchIndex::new()));
    let shodan: SharedIndex = Rc::new(RefCell::new(SearchIndex::new()));
    let censys_srcs = alloc.alloc(10);
    let shodan_srcs = alloc.alloc(10);
    for ip in censys_srcs.iter().chain(&shodan_srcs) {
        reputation.vet_benign(*ip);
    }
    {
        let mut rng = root.derive("indexers");
        let mut engine_targets = universe.all_service_ips();
        engine_targets.extend(universe.leak_block.iter());
        engine_targets.extend(universe.sample_telescope(&mut rng, scaled(2_000, s), |_| true));
        let ports = vec![80u16, 8080, 443, 22, 23, 21, 25, 445, 7547];
        let censys_agent = IndexerAgent::new(
            ActorIdentity::new("censys", Asn(398_324), "US", censys_srcs.clone()),
            rng.derive("censys"),
            censys.clone(),
            engine_targets.clone(),
            ports.clone(),
            SimDuration::from_secs(2 * 86_400),
            0.10, // Censys probes HTTP ports with TLS too (§6).
        );
        let shodan_agent = IndexerAgent::new(
            ActorIdentity::new("shodan", Asn(10_439), "US", shodan_srcs.clone()),
            rng.derive("shodan"),
            shodan.clone(),
            engine_targets,
            ports,
            SimDuration::from_secs(3 * 86_400),
            0.0,
        );
        agents.push((Box::new(censys_agent), SimTime(600)));
        agents.push((Box::new(shodan_agent), SimTime(1_800)));
    }

    // --- Uniform (ZMap-style) per-port populations -------------------------
    // (port, count, service_rate, p_skip_edu, p_tel, p_tel_edu_boost,
    //  tel_sample, payload_fraction) — p_tel anchors Table 8.
    type ZmapRow = (u16, usize, f64, f64, f64, f64, usize, f64);
    let zmap_rows: &[ZmapRow] = &[
        (23, 90, 0.25, 0.10, 0.88, 0.05, 800, 0.25),
        (2323, 60, 0.20, 0.10, 0.45, 0.35, 600, 0.25),
        (80, 220, 0.30, 0.10, 0.70, 0.12, 800, 0.95),
        (8080, 120, 0.25, 0.10, 0.77, 0.06, 600, 0.95),
        (21, 70, 0.20, 0.10, 0.24, 0.45, 500, 0.30),
        (2222, 70, 0.25, 0.10, 0.06, 0.60, 500, 0.40),
        (25, 60, 0.20, 0.10, 0.15, 0.50, 500, 0.30),
        (7547, 60, 0.20, 0.10, 0.28, 0.40, 500, 0.50),
        (22, 100, 0.30, 0.10, 0.10, 0.40, 600, 0.40),
        (443, 90, 0.25, 0.10, 0.26, 0.15, 500, 0.80),
    ];
    {
        let mut rng = root.derive("zmap");
        for &(port, count, rate, skip_edu, p_tel, boost, tel, payload) in zmap_rows {
            let profile = ZmapProfile {
                port,
                count: scaled(count, s),
                service_rate: rate,
                p_skip_edu: skip_edu,
                p_telescope: p_tel,
                p_telescope_edu_boost: boost,
                telescope_sample: scaled(tel, s),
                payload_fraction: payload,
            };
            // The steady backbone: a few full-coverage campaigns from the
            // pool's top ASes give every neighbor an equal baseline, so AS
            // divergence comes from the heavy tail, not from everything.
            // HTTP ports get a thicker steady layer (their payload mixes
            // stay similar across neighbors); login/odd ports a thinner one
            // (their AS mixes diverge more, per Table 2).
            let steady_div = 3;
            let steady = ZmapProfile {
                count: (profile.count / steady_div).max(3),
                service_rate: 1.0,
                ..profile
            };
            let mut steady_campaigns =
                crate::zmap::build(&steady, &universe, &mut rng, |n| alloc.alloc(n), &mut |r| {
                    let (a, c) = general_pool.pick(r);
                    (a, c)
                });
            let mut campaigns = crate::zmap::build(
                &profile,
                &universe,
                &mut rng,
                |n| alloc.alloc(n),
                &mut |r| {
                    let (a, c) = general_pool.pick(r);
                    (a, c)
                },
            );
            campaigns.append(&mut steady_campaigns);
            // A slice of the research-scanner population is vetted benign
            // (academic scanners, security companies).
            for (i, c) in campaigns.into_iter().enumerate() {
                if i % 7 == 0 {
                    for ip in &c.identity().ips {
                        reputation.vet_benign(*ip);
                    }
                }
                let start = c.start_time();
                agents.push((Box::new(c), start));
            }
        }
    }

    // --- Botnets ------------------------------------------------------------
    {
        let mut rng = root.derive("botnets");
        // Mirai Telnet: does not avoid dark space. The bot population is
        // the bulk of unique Telnet sources (anchors Table 8's 91% on 23);
        // the bot count stays low relative to flow volume so each bot
        // individually covers cloud + EDU + telescope.
        let bot_ips = alloc.alloc(scaled(400, s));
        for ip in &bot_ips {
            reputation.observe_malicious(*ip);
        }
        let mirai = crate::mirai::build_telnet_botnet(
            &universe,
            &mut rng,
            bot_ips,
            Asn(4837),
            scaled(8_000, s),
        );
        let start = mirai.start_time();
        agents.push((Box::new(mirai), start));

        // Mirai-SSH + PonyNet /16-first latch (Figure 1a).
        let bot_ips = alloc.alloc(scaled(300, s));
        for ip in &bot_ips {
            reputation.observe_malicious(*ip);
        }
        let slash16 = crate::mirai::build_ssh_slash16_botnet(
            &universe,
            &mut rng,
            bot_ips,
            Asn(53_667),
            scaled(300, s),
            // Cloud touch is scaled too: at small scales the bot fleet must
            // not dominate the cloud-22 source population (Table 8's 13%).
            0.05 * s.min(1.0),
        );
        let start = slash16.start_time();
        agents.push((Box::new(slash16), start));

        // Tsunami: latches one Hurricane Electric honeypot (§4.1).
        let victim = deployment
            .topology
            .block("greynoise/he/US-OH")
            .expect("HE block exists")
            .nth(77);
        // Source count kept moderate so Telnet's telescope overlap is not
        // dragged down (Tsunami does not sweep dark space).
        let bot_ips = alloc.alloc(scaled(120, s));
        for ip in &bot_ips {
            reputation.observe_malicious(*ip);
        }
        let tsunami = crate::tsunami::build_tsunami(
            &mut rng,
            bot_ips,
            Asn(262_187),
            victim,
            scaled(2_000, s),
        );
        let start = tsunami.start_time();
        agents.push((Box::new(tsunami), start));

        // Figure 1d: the 4-address port-17128 telescope latch.
        let victims: Vec<Ipv4Addr> = (0..4)
            .map(|i| universe.telescope.nth(220_000 + i * 3))
            .collect();
        let bot_ips = alloc.alloc(scaled(600, s));
        let latch = crate::tsunami::build_telescope_latch(
            &mut rng,
            bot_ips,
            Asn(212_283),
            victims,
            17_128,
            scaled(300, s),
        );
        let start = latch.start_time();
        agents.push((Box::new(latch), start));
    }

    // --- Structure-filtering scanners (Figures 1b, 1c) ----------------------
    {
        let mut rng = root.derive("structure");
        // Figure 1 needs telescope-wide density even at reduced scale:
        // floor the campaign counts and sample sizes. One row per
        // structure-biased port (§4.2): (port, count, floor_count, filter
        // leak-through, telescope sample, sample floor, service_rate).
        let structure_rows: &[(u16, usize, usize, f64, usize, usize, f64)] = &[
            // 445/SMB: paper measures 9x avoidance (some leak-through).
            (445, 40, 6, 0.02, 8_000, 2_500, 0.15),
            // 7574/Oracle: the sloppiest filter of all — 61x avoidance.
            (7_574, 14, 4, 0.016, 7_000, 2_500, 0.0),
            // 80/HTTP: partial dips (unbiased scanners share the port).
            (80, 30, 5, 0.05, 6_000, 2_000, 0.0),
        ];
        for &(port, count, floor, leak, sample, sample_floor, rate) in structure_rows {
            for i in 0..scaled(count, s).max(floor) {
                let src = alloc.alloc(1);
                let (asn, _c) = general_pool.pick(&mut rng);
                let intent = match port {
                    445 => crate::campaign::fixed_payload(cw_protocols::smb::build_negotiate()),
                    80 => {
                        crate::campaign::fixed_payload(crate::exploits::benign_get("masscan/1.3"))
                    }
                    _ => crate::campaign::probe_only(),
                };
                let c = crate::structure::build(
                    &universe,
                    &mut rng,
                    &format!("structure/{port}/{i}"),
                    src,
                    asn,
                    port,
                    crate::structure::StructureFilter::AnyOctet,
                    leak,
                    scaled(sample, s).max(sample_floor),
                    rate,
                    intent,
                );
                let start = c.start_time();
                agents.push((Box::new(c), start));
            }
        }
    }

    // --- Credential brute-forcers -------------------------------------------
    {
        let mut rng = root.derive("bruteforce");
        let rows: Vec<BruteforceProfile> = vec![
            BruteforceProfile {
                name: "bf/ssh-global".into(),
                count: scaled(200, s),
                service: LoginService::Ssh,
                ports: vec![22, 2222],
                dictionary: crate::credentials::SSH_GLOBAL,
                scope: GeoScope::Global,
                service_rate: 0.35,
                attempts_per_target: 4,
                p_telescope: 0.05, // Table 9: SSH attackers avoid telescopes.
                telescope_sample: scaled(300, s),
            },
            BruteforceProfile {
                name: "bf/telnet-global".into(),
                count: scaled(150, s),
                service: LoginService::Telnet,
                ports: vec![23, 2323],
                dictionary: crate::credentials::TELNET_GLOBAL,
                scope: GeoScope::Global,
                service_rate: 0.30,
                attempts_per_target: 4,
                p_telescope: 0.90, // Telnet attackers do not avoid darkness.
                telescope_sample: scaled(300, s),
            },
            BruteforceProfile {
                name: "bf/telnet-ap-au".into(),
                count: scaled(25, s),
                service: LoginService::Telnet,
                ports: vec![23],
                dictionary: crate::credentials::TELNET_AP_AU,
                scope: GeoScope::Regions(vec!["AP-AU".into()]),
                service_rate: 0.9,
                attempts_per_target: 5,
                p_telescope: 0.3,
                telescope_sample: scaled(100, s),
            },
            BruteforceProfile {
                name: "bf/telnet-ap-sg".into(),
                count: scaled(15, s),
                service: LoginService::Telnet,
                ports: vec![23],
                dictionary: crate::credentials::TELNET_AP_SG,
                scope: GeoScope::Regions(vec!["AP-SG".into()]),
                service_rate: 0.9,
                attempts_per_target: 4,
                p_telescope: 0.3,
                telescope_sample: scaled(100, s),
            },
            BruteforceProfile {
                name: "bf/ssh-ap-kr-jp".into(),
                count: scaled(15, s),
                service: LoginService::Ssh,
                ports: vec![22],
                dictionary: crate::credentials::SSH_AP_KR_JP,
                scope: GeoScope::Regions(vec!["AP-KR".into(), "AP-JP".into()]),
                service_rate: 0.9,
                attempts_per_target: 4,
                p_telescope: 0.05,
                telescope_sample: scaled(100, s),
            },
            BruteforceProfile {
                name: "bf/telnet-ca-tor".into(),
                count: scaled(10, s),
                service: LoginService::Telnet,
                ports: vec![23],
                dictionary: crate::credentials::TELNET_CA_TOR,
                scope: GeoScope::Regions(vec!["CA-TOR".into()]),
                service_rate: 0.9,
                attempts_per_target: 4,
                p_telescope: 0.2,
                telescope_sample: scaled(100, s),
            },
        ];
        for profile in &rows {
            let campaigns = crate::bruteforce::build(
                profile,
                &universe,
                &mut rng,
                |n| alloc.alloc(n),
                &mut |r| {
                    let (a, c) = attacker_pool.pick(r);
                    (a, c)
                },
            );
            for c in campaigns {
                for ip in &c.identity().ips {
                    reputation.observe_malicious(*ip);
                }
                let start = c.start_time();
                agents.push((Box::new(c), start));
            }
        }

        // The 2021-only SSH network split (§5.2): Chinanet heavy on EDU,
        // Cogent heavy on clouds. Gone by 2022.
        if config.year == ScenarioYear::Y2021 {
            for (name, scope, asn, country, count) in [
                (
                    "bf/chinanet-edu-ssh",
                    GeoScope::EduHeavy,
                    Asn(4134),
                    "CN",
                    30,
                ),
                (
                    "bf/cogent-cloud-ssh",
                    GeoScope::CloudOnly,
                    Asn(174),
                    "US",
                    30,
                ),
            ] {
                let profile = BruteforceProfile {
                    name: name.into(),
                    count: scaled(count, s),
                    service: LoginService::Ssh,
                    ports: vec![22],
                    dictionary: crate::credentials::SSH_GLOBAL,
                    scope,
                    service_rate: 0.8,
                    attempts_per_target: 2,
                    p_telescope: 0.03,
                    telescope_sample: scaled(100, s),
                };
                let campaigns = crate::bruteforce::build(
                    &profile,
                    &universe,
                    &mut rng,
                    |n| alloc.alloc(n),
                    &mut |r| {
                        let _ = r;
                        (asn, country.to_string())
                    },
                );
                for c in campaigns {
                    for ip in &c.identity().ips {
                        reputation.observe_malicious(*ip);
                    }
                    let start = c.start_time();
                    agents.push((Box::new(c), start));
                }
            }
        }
    }

    // --- Web exploit campaigns ----------------------------------------------
    {
        let mut rng = root.derive("webexploit");
        let mut profiles: Vec<WebExploitProfile> = vec![WebExploitProfile {
            name: "web/global".into(),
            count: scaled(75, s),
            ports: vec![80, 8080],
            corpus: webexploit::global_corpus(),
            scope: GeoScope::Global,
            service_rate: 0.25,
            attempts_per_target: 1,
            p_telescope: 0.92, // Table 9: malicious HTTP actors hit darkness.
            telescope_sample: scaled(300, s),
        }];
        // Web panels live on unassigned ports too (§6's premise); these
        // campaigns speak HTTP to 443/7547/25 with small per-campaign kits,
        // driving the "HTTP/All Ports" payload divergence of Table 2.
        profiles.push(WebExploitProfile {
            name: "web/odd-ports".into(),
            count: scaled(70, s),
            ports: vec![443, 7547, 25, 21],
            corpus: webexploit::global_corpus(),
            scope: GeoScope::Global,
            service_rate: 0.35,
            attempts_per_target: 2,
            p_telescope: 0.5,
            telescope_sample: scaled(150, s),
        });
        for code in ["AP-HK", "AP-ID", "AP-SG"] {
            profiles.push(WebExploitProfile {
                name: format!("web/{code}"),
                count: scaled(18, s),
                ports: vec![80, 8080],
                corpus: webexploit::ap_corpus(code),
                scope: GeoScope::Regions(vec![code.into()]),
                service_rate: 0.9,
                attempts_per_target: 2,
                p_telescope: 0.5,
                telescope_sample: scaled(100, s),
            });
        }
        for profile in &profiles {
            let campaigns =
                webexploit::build(profile, &universe, &mut rng, |n| alloc.alloc(n), &mut |r| {
                    let (a, c) = attacker_pool.pick(r);
                    (a, c)
                });
            for c in campaigns {
                for ip in &c.identity().ips {
                    reputation.observe_malicious(*ip);
                }
                let start = c.start_time();
                agents.push((Box::new(c), start));
            }
        }
        // Single-AS geographic campaigns (§5.1).
        for c in webexploit::emirates_campaign(&universe, &mut rng, alloc.alloc(3)) {
            for ip in &c.identity().ips {
                reputation.observe_malicious(*ip);
            }
            let start = c.start_time();
            agents.push((Box::new(c), start));
        }
        for c in webexploit::satnet_campaign(&universe, &mut rng, alloc.alloc(3)) {
            let start = c.start_time();
            agents.push((Box::new(c), start));
        }
        for c in webexploit::frankfurt_adb_campaign(&universe, &mut rng, alloc.alloc(2)) {
            for ip in &c.identity().ips {
                reputation.observe_malicious(*ip);
            }
            let start = c.start_time();
            agents.push((Box::new(c), start));
        }
    }

    // --- Neighborhood anomalies (§4.1) ---------------------------------------
    {
        let rng = root.derive("anomalies");
        // Axtel floods one of the four Linode Singapore SSH honeypots.
        if let Some(block) = deployment.topology.block("greynoise/linode/AP-SG") {
            let victim = block.nth(2);
            let srcs = alloc.alloc(scaled(300, s));
            for ip in &srcs {
                reputation.observe_malicious(*ip);
            }
            let identity = ActorIdentity::new("axtel-flood", Asn(6503), "MX", srcs);
            // The flood latches one honeypot, but the botnet also scans
            // SSH broadly at a low rate (its bots appear at EDU too).
            let mut targets = vec![(victim, 22); scaled(1_500, s)];
            let mut axtel_rng = rng.derive("axtel-coverage");
            for _ in 0..2 {
                for ip in universe.sample_services(&mut axtel_rng, 0.6, |_| true) {
                    targets.push((ip, 22));
                }
            }
            let mut crng = rng.derive("axtel");
            let pacing =
                crate::campaign::Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
            let c = crate::campaign::Campaign::new(
                identity,
                crng,
                targets,
                pacing,
                crate::campaign::login_from_dictionary(
                    LoginService::Ssh,
                    crate::credentials::SSH_GLOBAL,
                ),
            );
            let start = c.start_time();
            agents.push((Box::new(c), start));
        }
        // One Azure Singapore honeypot draws 10× the HTTP POST login flood.
        if let Some(block) = deployment.topology.block("greynoise/azure/AP-SG") {
            let victim = block.nth(0); // a payload-port honeypot
            let srcs = alloc.alloc(scaled(40, s));
            for ip in &srcs {
                reputation.observe_malicious(*ip);
            }
            let identity = ActorIdentity::new("azure-sg-post-flood", Asn(45_090), "CN", srcs);
            let targets = vec![(victim, 80); scaled(500, s)];
            let mut crng = rng.derive("azure-flood");
            let pacing =
                crate::campaign::Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
            let c = crate::campaign::Campaign::new(
                identity,
                crng,
                targets,
                pacing,
                crate::campaign::fixed_payload(crate::exploits::api_user_login(
                    "admin", "admin123",
                )),
            );
            let start = c.start_time();
            agents.push((Box::new(c), start));
        }
        // 2022-only anomaly (Appendix C.2): router-software bruteforce that
        // hits Merit but avoids Stanford.
        if config.year == ScenarioYear::Y2022 {
            let merit_ips =
                universe.service_ips(|t| t.provider == cw_honeypot::deployment::Provider::Merit);
            let srcs = alloc.alloc(scaled(60, s));
            for ip in &srcs {
                reputation.observe_malicious(*ip);
            }
            let identity = ActorIdentity::new("merit-router-bf", Asn(212_283), "RU", srcs);
            let mut targets: Vec<(Ipv4Addr, u16)> = Vec::new();
            for ip in merit_ips {
                for _ in 0..40 {
                    targets.push((ip, 80));
                }
            }
            let mut crng = rng.derive("merit-bf");
            crng.shuffle(&mut targets);
            let pacing =
                crate::campaign::Pacing::spread(&mut crng, targets.len(), SimDuration::WEEK);
            let c = crate::campaign::Campaign::new(
                identity,
                crng,
                targets,
                pacing,
                crate::campaign::fixed_payload(crate::exploits::boaform_login("routerpw")),
            );
            let start = c.start_time();
            agents.push((Box::new(c), start));
        }
    }

    // --- Unexpected-protocol scanners (§6) ------------------------------------
    {
        let mut rng = root.derive("unexpected");
        let mut mix = unexpected::mix_2021();
        if config.year == ScenarioYear::Y2022 {
            // 2022 sees roughly double the unexpected share (Table 17).
            for m in &mut mix {
                m.count *= 3;
            }
        }
        for m in &mut mix {
            m.count = scaled(m.count, s);
        }
        let fleet = unexpected::build(&mix, &universe, &mut rng, |n| alloc.alloc(n), &mut |r| {
            let (a, c) = attacker_pool.pick(r);
            (a, c)
        });
        for (ip, malicious) in &fleet.labels {
            if *malicious {
                reputation.observe_malicious(*ip);
            }
        }
        for c in fleet.campaigns {
            let start = c.start_time();
            agents.push((Box::new(c), start));
        }
    }

    // --- Search-engine miners (§4.3) -------------------------------------------
    {
        let mut rng = root.derive("miners");
        let specs: &[(&str, MinerAttack, bool, u64)] = &[
            // HTTP miners lean on Censys; SSH miners on Shodan (Table 3).
            (
                "miner/censys-http-0",
                MinerAttack::HttpExploits { attempts: 4 },
                true,
                0,
            ),
            (
                "miner/censys-http-1",
                MinerAttack::HttpExploits { attempts: 4 },
                true,
                0,
            ),
            (
                "miner/censys-http-2",
                MinerAttack::HttpExploits { attempts: 3 },
                true,
                0,
            ),
            (
                "miner/shodan-http-0",
                MinerAttack::HttpExploits { attempts: 4 },
                false,
                1,
            ),
            (
                "miner/shodan-http-1",
                MinerAttack::HttpExploits { attempts: 3 },
                false,
                1,
            ),
            (
                "miner/shodan-ssh-0",
                MinerAttack::SshBruteforce { attempts: 6 },
                false,
                1,
            ),
            (
                "miner/shodan-ssh-1",
                MinerAttack::SshBruteforce { attempts: 6 },
                false,
                1,
            ),
            (
                "miner/shodan-ssh-2",
                MinerAttack::SshBruteforce { attempts: 5 },
                false,
                1,
            ),
            (
                "miner/censys-ssh-0",
                MinerAttack::SshBruteforce { attempts: 5 },
                true,
                0,
            ),
            (
                "miner/censys-telnet-0",
                MinerAttack::TelnetBruteforce { attempts: 4 },
                true,
                0,
            ),
            (
                "miner/shodan-telnet-0",
                MinerAttack::TelnetBruteforce { attempts: 3 },
                false,
                1,
            ),
        ];
        for (name, attack, use_censys, _tag) in specs.iter().take(scaled(specs.len(), s)).cloned() {
            let srcs = alloc.alloc(4);
            for ip in &srcs {
                reputation.observe_malicious(*ip);
            }
            let (asn, country) = attacker_pool.pick(&mut rng);
            let index = if use_censys {
                censys.clone()
            } else {
                shodan.clone()
            };
            let miner = MinerAgent::new(
                ActorIdentity::new(name, asn, &country, srcs),
                rng.derive(name),
                index,
                attack,
                SimDuration::from_secs(6 * 3600),
                true,
            )
            // Miners chase only a slice of the listings they find; without
            // this, mined exploit volume would swamp the benign HTTP mix
            // (§3.2's 75% non-exploit on HTTP/80).
            .with_attack_probability(0.25);
            agents.push((Box::new(miner), SimTime(4 * 3600)));
        }
    }

    Population {
        agents,
        censys,
        shodan,
        censys_srcs,
        shodan_srcs,
        reputation,
        registry,
        source_addrs: alloc.allocated(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_population_at_small_scale() {
        let d = Deployment::standard();
        let cfg = PopulationConfig {
            year: ScenarioYear::Y2021,
            seed: 7,
            scale: 0.05,
        };
        let p = build(&cfg, d);
        assert!(p.agents.len() > 50, "only {} agents", p.agents.len());
        assert!(!p.censys_srcs.is_empty());
        let (benign, malicious) = p.reputation.counts();
        assert!(benign > 0);
        assert!(malicious > 0);
    }

    #[test]
    fn year_2021_has_network_split_campaigns_2022_does_not() {
        let d = Deployment::standard();
        let names = |year| -> Vec<String> {
            build(
                &PopulationConfig {
                    year,
                    seed: 1,
                    scale: 0.05,
                },
                d,
            )
            .agents
            .iter()
            .map(|(a, _)| a.name().to_string())
            .collect()
        };
        let y21 = names(ScenarioYear::Y2021);
        let y22 = names(ScenarioYear::Y2022);
        // 2021-only: the Chinanet/Cogent SSH network split.
        assert!(y21.iter().any(|n| n.starts_with("bf/chinanet-edu-ssh")));
        assert!(!y22.iter().any(|n| n.starts_with("bf/chinanet-edu-ssh")));
        // 2022-only: the Merit router-bruteforce anomaly and a larger
        // unexpected-protocol fleet.
        assert!(y22.iter().any(|n| n == "merit-router-bf"));
        assert!(!y21.iter().any(|n| n == "merit-router-bf"));
        let count_unexpected =
            |v: &[String]| v.iter().filter(|n| n.starts_with("unexpected/")).count();
        assert!(count_unexpected(&y22) >= count_unexpected(&y21));
    }

    #[test]
    fn determinism_same_seed_same_population() {
        let d = Deployment::standard();
        let cfg = PopulationConfig {
            year: ScenarioYear::Y2021,
            seed: 42,
            scale: 0.05,
        };
        let a = build(&cfg, d).agents.len();
        let b = build(&cfg, d).agents.len();
        assert_eq!(a, b);
    }
}
