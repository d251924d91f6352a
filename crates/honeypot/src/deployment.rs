//! The Table 1 vantage-point fleet on a concrete simulated address plan:
//! the static layout every analysis slices ([`Deployment`], `Send + Sync`
//! and one per process), and the live listeners one world runs
//! ([`Instruments`], built per world by [`Deployment::instruments`]).
//!
//! Networks and regions follow Table 1: GreyNoise sensors across Hurricane
//! Electric (a /24 in Ohio), AWS (16 regions), Azure (3), Google (21) and
//! Linode (7); Honeytrap /26 fleets at Stanford and Merit plus matched
//! cloud deployments; and the Orion telescope (1,856 /24s). Each GreyNoise
//! region hosts 4 honeypot IPs running Cowrie on 22/2222/23/2323, with the
//! payload ports (HTTP & friends) exposed on 2 of them — the paper's
//! "4 or 2 (HTTP)" convention.
//!
//! Address plan (simulated space, disjoint by construction):
//!
//! | block                  | space                         |
//! |------------------------|-------------------------------|
//! | telescope              | 10.0.0.0/16 × 7 + 10.7.0.0/18 |
//! | greynoise/he/US-OH     | 20.9.0.0/24                   |
//! | greynoise/aws/*        | 20.10.N.0/28                  |
//! | greynoise/google/*     | 20.11.N.0/28                  |
//! | greynoise/azure/*      | 20.12.N.0/28                  |
//! | greynoise/linode/*     | 20.13.N.0/28                  |
//! | honeytrap/stanford     | 171.64.9.0/26                 |
//! | honeytrap/merit        | 198.108.30.0/26               |
//! | honeytrap/aws-west     | 20.20.1.0/26                  |
//! | honeytrap/google-west  | 20.21.1.0/26                  |
//! | honeytrap/google-east  | 20.21.2.0/31                  |
//! | leak/stanford          | 171.64.10.0/26                |

use crate::framework::{HoneypotListener, ListenerFaults, Persona, PortPolicy};
use crate::telescope::{Telescope, TelescopeFaults};
use cw_netsim::engine::Engine;
use cw_netsim::fault::{domain_salt, FaultDomain, FaultPlan, OutageSchedule};
use cw_netsim::flow::LoginService;
use cw_netsim::geo::{Continent, Region};
use cw_netsim::intern::Interner;
use cw_netsim::ip::Cidr;
use cw_netsim::time::SimDuration;
use cw_netsim::topology::{AddressBlock, Topology};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::rc::Rc;
use std::sync::OnceLock;

/// Network operators hosting vantage points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Provider {
    /// Amazon Web Services.
    Aws,
    /// Google Cloud.
    Google,
    /// Microsoft Azure.
    Azure,
    /// Linode.
    Linode,
    /// Hurricane Electric.
    HurricaneElectric,
    /// Stanford University (education).
    Stanford,
    /// Merit Network (education).
    Merit,
    /// The Orion telescope operator.
    Orion,
}

impl Provider {
    /// Lower-case short name used in block and vantage ids.
    pub fn slug(&self) -> &'static str {
        match self {
            Provider::Aws => "aws",
            Provider::Google => "google",
            Provider::Azure => "azure",
            Provider::Linode => "linode",
            Provider::HurricaneElectric => "he",
            Provider::Stanford => "stanford",
            Provider::Merit => "merit",
            Provider::Orion => "orion",
        }
    }

    /// The network type of this provider.
    pub fn kind(&self) -> NetworkKind {
        match self {
            Provider::Aws
            | Provider::Google
            | Provider::Azure
            | Provider::Linode
            | Provider::HurricaneElectric => NetworkKind::Cloud,
            Provider::Stanford | Provider::Merit => NetworkKind::Education,
            Provider::Orion => NetworkKind::Telescope,
        }
    }
}

/// Network type — the §5.2 comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkKind {
    /// Public cloud (hosts real services).
    Cloud,
    /// Education network (hosts real services).
    Education,
    /// Telescope (publicly known to host nothing).
    Telescope,
}

/// Collection method (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectorKind {
    /// GreyNoise sensor: Cowrie on SSH/Telnet ports + first payload.
    GreyNoise,
    /// Honeytrap: handshake + first payload on every port.
    Honeytrap,
    /// Passive telescope.
    Telescope,
}

/// One vantage point = one observed IP (or the whole telescope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantagePoint {
    /// Unique id, e.g. `"greynoise/aws/AP-SG/1"`.
    pub id: String,
    /// Hosting operator.
    pub provider: Provider,
    /// Network type.
    pub kind: NetworkKind,
    /// Collection method.
    pub collector: CollectorKind,
    /// Geographic region.
    pub region: Region,
    /// The observed address (telescope uses its block base).
    pub ip: Ipv4Addr,
    /// Does this vantage expose the payload ports (HTTP etc.)? GreyNoise
    /// regions expose them on 2 of 4 IPs.
    pub payload_ports: bool,
}

/// Ports every GreyNoise sensor exposes beyond the Cowrie four.
pub const GREYNOISE_PAYLOAD_PORTS: [u16; 7] = [80, 8080, 443, 21, 25, 445, 7547];

/// Telescope ports with per-IP unique-scanner counters (Figure 1, plus
/// 7574/Oracle for the §4.2 "61× less likely" structure statistic).
pub const TELESCOPE_TRACKED_PORTS: [u16; 5] = [22, 80, 445, 7574, 17128];

/// The Table 1 layout: plain data, one instance per process
/// ([`Deployment::standard`]).
pub struct Deployment {
    /// The simulated address plan.
    pub topology: Topology,
    /// Per-IP vantage metadata: the telescope, then each listener's IPs.
    pub vantages: Vec<VantagePoint>,
    /// Each honeypot listener's name and range of `vantages`, in order.
    listeners: Vec<(String, Range<usize>)>,
}

/// One world's live listeners, built by [`Deployment::instruments`].
pub struct Instruments {
    /// All honeypot listeners (GreyNoise + Honeytrap), registration order.
    pub honeypots: Vec<Rc<RefCell<HoneypotListener>>>,
    /// The telescope.
    pub telescope: Rc<RefCell<Telescope>>,
    /// The one interner every listener records into; the dataset build
    /// takes it over whole.
    pub interner: Rc<RefCell<Interner>>,
}

/// GreyNoise provider-region lists (Table 1).
pub fn greynoise_regions(provider: Provider) -> Vec<Region> {
    match provider {
        Provider::Aws => vec![
            Region::us("OR"),
            Region::us("CA"),
            Region::us("GA"),
            Region::new("SA-BR", "BR", Continent::SouthAmerica),
            Region::new("ME-BH", "BH", Continent::MiddleEast),
            Region::eu("FR"),
            Region::eu("IE"),
            Region::eu("DE"),
            Region::new("CA-TOR", "CA", Continent::NorthAmerica),
            Region::ap("AU"),
            Region::ap("SG"),
            Region::ap("IN"),
            Region::ap("KR"),
            Region::ap("JP"),
            Region::ap("HK"),
            Region::new("AF-ZA", "ZA", Continent::Africa),
        ],
        Provider::Google => vec![
            Region::us("NV"),
            Region::us("UT"),
            Region::us("CA"),
            Region::us("OR"),
            Region::us("VA"),
            Region::us("SC"),
            Region::us("IA"),
            Region::new("CA-QC", "CA", Continent::NorthAmerica),
            Region::eu("CH"),
            Region::eu("NL"),
            Region::eu("DE"),
            Region::eu("GB"),
            Region::eu("BE"),
            Region::eu("FI"),
            Region::ap("AU"),
            Region::ap("ID"),
            Region::ap("SG"),
            Region::ap("KR"),
            Region::ap("JP"),
            Region::ap("HK"),
            Region::ap("TW"),
        ],
        Provider::Azure => vec![Region::us("TX"), Region::ap("SG"), Region::ap("IN")],
        Provider::Linode => vec![
            Region::us("CA"),
            Region::us("NY"),
            Region::eu("GB"),
            Region::eu("DE"),
            Region::ap("IN"),
            Region::ap("AU"),
            Region::ap("SG"),
        ],
        Provider::HurricaneElectric => vec![Region::us("OH")],
        _ => vec![],
    }
}

fn greynoise_listener(name: &str, vantages: &[VantagePoint]) -> HoneypotListener {
    let payload_ips: Vec<Ipv4Addr> = vantages
        .iter()
        .filter(|v| v.payload_ports)
        .map(|v| v.ip)
        .collect();
    let mut hp = HoneypotListener::new(name, vantages.iter().map(|v| v.ip), PortPolicy::Closed)
        .with_policy(22, PortPolicy::Interactive(LoginService::Ssh))
        .with_policy(2222, PortPolicy::Interactive(LoginService::Ssh))
        .with_policy(23, PortPolicy::Interactive(LoginService::Telnet))
        .with_policy(2323, PortPolicy::Interactive(LoginService::Telnet));
    for port in GREYNOISE_PAYLOAD_PORTS {
        hp = hp.with_policy(port, PortPolicy::FirstPayload);
        // Vulnerable-looking assigned services (what indexers see).
        let persona = match port {
            80 | 8080 => Persona::http(),
            443 => Persona {
                protocol: "TLS".into(),
                banner: b"\x16\x03\x03".to_vec(),
            },
            21 => Persona {
                protocol: "FTP".into(),
                banner: b"220 (vsFTPd 2.3.4)\r\n".to_vec(),
            },
            25 => Persona {
                protocol: "SMTP".into(),
                banner: b"220 mail ESMTP Postfix\r\n".to_vec(),
            },
            445 => Persona {
                protocol: "SMB".into(),
                banner: b"\xffSMBr\x00".to_vec(),
            },
            _ => Persona {
                protocol: "CWMP".into(),
                banner: b"HTTP/1.1 401 Unauthorized\r\nServer: RomPager/4.07\r\n\r\n".to_vec(),
            },
        };
        hp = hp.with_persona(port, persona);
        hp = hp.with_port_restriction(port, payload_ips.clone());
    }
    hp
}

fn honeytrap_listener(name: &str, vantages: &[VantagePoint]) -> HoneypotListener {
    let ips = vantages.iter().map(|v| v.ip);
    HoneypotListener::new(name, ips, PortPolicy::FirstPayload)
}

impl Deployment {
    /// The Table 1 layout, built on first use and shared process-wide.
    pub fn standard() -> &'static Deployment {
        static STANDARD: OnceLock<Deployment> = OnceLock::new();
        STANDARD.get_or_init(Deployment::table1)
    }

    fn table1() -> Deployment {
        let mut d = Deployment {
            topology: Topology::new(),
            vantages: Vec::new(),
            listeners: Vec::new(),
        };

        // --- Telescope: 7 × /16 + one /18 = 1,856 /24s (475,136 IPs). ---
        let mut tel_cidrs: Vec<Cidr> = (0u8..7)
            .map(|i| Cidr::new(Ipv4Addr::new(10, i, 0, 0), 16))
            .collect();
        tel_cidrs.push(Cidr::new(Ipv4Addr::new(10, 7, 0, 0), 18));
        let tel_block = AddressBlock::new("telescope", tel_cidrs);
        d.vantages.push(VantagePoint {
            id: "telescope".into(),
            provider: Provider::Orion,
            kind: NetworkKind::Telescope,
            collector: CollectorKind::Telescope,
            region: Region::us("East"),
            ip: tel_block.nth(0),
            payload_ports: false,
        });
        d.topology.add(tel_block);

        // --- GreyNoise: Hurricane Electric /24; all 256 IPs run the full
        // sensor. ---
        d.add_listener(
            AddressBlock::new(
                "greynoise/he/US-OH",
                vec![Cidr::new(Ipv4Addr::new(20, 9, 0, 0), 24)],
            ),
            256,
            256,
            Provider::HurricaneElectric,
            CollectorKind::GreyNoise,
            Region::us("OH"),
        );

        // --- GreyNoise: the four multi-region clouds; 4 honeypot IPs per
        // region, payload ports on the first 2. ---
        let cloud_bases: [(Provider, u8); 4] = [
            (Provider::Aws, 10),
            (Provider::Google, 11),
            (Provider::Azure, 12),
            (Provider::Linode, 13),
        ];
        for (provider, second_octet) in cloud_bases {
            for (ri, region) in greynoise_regions(provider).into_iter().enumerate() {
                let cidr = Cidr::new(Ipv4Addr::new(20, second_octet, ri as u8, 0), 28);
                let name = format!("greynoise/{}/{}", provider.slug(), region.code);
                d.add_listener(
                    AddressBlock::new(&name, vec![cidr]),
                    4,
                    2,
                    provider,
                    CollectorKind::GreyNoise,
                    region,
                );
            }
        }

        // --- Honeytrap fleets. ---
        let honeytrap_specs: [(&str, Provider, Region, Cidr); 5] = [
            (
                "honeytrap/stanford",
                Provider::Stanford,
                Region::us("West"),
                Cidr::new(Ipv4Addr::new(171, 64, 9, 0), 26),
            ),
            (
                "honeytrap/merit",
                Provider::Merit,
                Region::us("East"),
                Cidr::new(Ipv4Addr::new(198, 108, 30, 0), 26),
            ),
            (
                "honeytrap/aws-west",
                Provider::Aws,
                Region::us("West"),
                Cidr::new(Ipv4Addr::new(20, 20, 1, 0), 26),
            ),
            (
                "honeytrap/google-west",
                Provider::Google,
                Region::us("West"),
                Cidr::new(Ipv4Addr::new(20, 21, 1, 0), 26),
            ),
            (
                "honeytrap/google-east",
                Provider::Google,
                Region::us("East"),
                Cidr::new(Ipv4Addr::new(20, 21, 2, 0), 31),
            ),
        ];
        for (name, provider, region, cidr) in honeytrap_specs {
            let ips = cidr.size();
            d.add_listener(
                AddressBlock::new(name, vec![cidr]),
                ips,
                ips,
                provider,
                CollectorKind::Honeytrap,
                region,
            );
        }

        // --- Leak experiment block (populated by the leak harness). ---
        d.topology.add(AddressBlock::new(
            "leak/stanford",
            vec![Cidr::new(Ipv4Addr::new(171, 64, 10, 0), 26)],
        ));
        d
    }

    /// Add `block` with one listener, named after it, over its first `ips`
    /// addresses, the first `payload_ips` exposing the payload ports.
    fn add_listener(
        &mut self,
        block: AddressBlock,
        ips: u64,
        payload_ips: u64,
        provider: Provider,
        collector: CollectorKind,
        region: Region,
    ) {
        let first = self.vantages.len();
        for i in 0..ips {
            self.vantages.push(VantagePoint {
                id: format!("{}/{i}", block.name),
                provider,
                kind: provider.kind(),
                collector,
                region: region.clone(),
                ip: block.nth(i),
                payload_ports: i < payload_ips,
            });
        }
        self.listeners
            .push((block.name.clone(), first..self.vantages.len()));
        self.topology.add(block);
    }

    /// Build one world's instruments on one fresh interner: the honeypot
    /// listeners in registration order (Hurricane Electric, the four
    /// clouds' regions, the five Honeytrap fleets) and the telescope.
    pub fn instruments(&self) -> Instruments {
        let interner = Interner::shared();
        let honeypots = self
            .listeners
            .iter()
            .map(|(name, range)| {
                let vantages = &self.vantages[range.clone()];
                let hp = match vantages[0].collector {
                    CollectorKind::GreyNoise => greynoise_listener(name, vantages),
                    _ => honeytrap_listener(name, vantages),
                };
                Rc::new(RefCell::new(hp.with_interner(Rc::clone(&interner))))
            })
            .collect();
        let block = self.topology.block("telescope").expect("a layout block");
        let telescope = Telescope::new("telescope", block.clone(), &TELESCOPE_TRACKED_PORTS);
        Instruments {
            honeypots,
            telescope: Rc::new(RefCell::new(telescope)),
            interner,
        }
    }

    /// Distinct (provider, region) pairs with GreyNoise sensors.
    pub fn greynoise_provider_regions(&self) -> Vec<(Provider, Region)> {
        let mut out: Vec<(Provider, Region)> = Vec::new();
        for v in &self.vantages {
            if v.collector == CollectorKind::GreyNoise {
                let key = (v.provider, v.region.clone());
                if !out.contains(&key) {
                    out.push(key);
                }
            }
        }
        out
    }
}

impl Instruments {
    /// Inject a fault plan into every vantage of these instruments.
    ///
    /// Vantage indices are assigned by construction order — telescope 0,
    /// then honeypot listeners 1.. in registration order — which is fixed
    /// by the layout, so every world built from it derives the same
    /// per-vantage outage schedules. A trivial plan
    /// ([`FaultPlan::is_none`]) installs nothing at all: the fault-free
    /// fast paths stay byte-identical to a world where this method was
    /// never called.
    ///
    /// `seed` is the *scenario* seed (the fault domain is forked off it
    /// internally); `horizon` is the collection window outages are placed
    /// within.
    pub fn apply_faults(&self, plan: &FaultPlan, seed: u64, horizon: SimDuration) {
        if plan.is_none() {
            return;
        }
        plan.validate();
        self.telescope.borrow_mut().set_faults(TelescopeFaults {
            outage: OutageSchedule::derive(
                domain_salt(seed, FaultDomain::Outage),
                0,
                horizon,
                plan.outage,
                plan.outage_windows,
            ),
            sample: plan.telescope_sample.max(1),
            sample_salt: domain_salt(seed, FaultDomain::TelescopeSample),
        });
        for (i, hp) in self.honeypots.iter().enumerate() {
            hp.borrow_mut()
                .set_faults(ListenerFaults::derive(plan, seed, (i + 1) as u64, horizon));
        }
    }

    /// Register every listener with an engine.
    pub fn register(&self, engine: &mut Engine) {
        for hp in &self.honeypots {
            engine.add_listener(hp.clone());
        }
        engine.add_listener(self.telescope.clone());
    }

    /// Honeypot listener by name.
    pub fn honeypot(&self, name: &str) -> Option<Rc<RefCell<HoneypotListener>>> {
        use cw_netsim::engine::Listener as _;
        self.honeypots
            .iter()
            .find(|h| h.borrow().name() == name)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{Observed, ScanEvent};
    use cw_netsim::asn::Asn;
    use cw_netsim::engine::Listener as _;
    use cw_netsim::time::SimTime;

    // The layout's whole reason to be one per process is being shared by
    // every thread that reads it.
    #[test]
    fn deployment_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Deployment>();
    }

    #[test]
    fn standard_is_one_instance_per_process() {
        assert!(std::ptr::eq(Deployment::standard(), Deployment::standard()));
    }

    #[test]
    fn telescope_spans_1856_slash24s() {
        let i = Deployment::standard().instruments();
        assert_eq!(i.telescope.borrow().block().size(), 1_856 * 256);
    }

    #[test]
    fn greynoise_fleet_matches_table1_shape() {
        let d = Deployment::standard();
        assert_eq!(greynoise_regions(Provider::Aws).len(), 16);
        assert_eq!(greynoise_regions(Provider::Google).len(), 21);
        assert_eq!(greynoise_regions(Provider::Azure).len(), 3);
        assert_eq!(greynoise_regions(Provider::Linode).len(), 7);
        // 47 regions × 4 IPs + 256 HE = 444 GreyNoise vantages.
        let greynoise = d
            .vantages
            .iter()
            .filter(|v| v.collector == CollectorKind::GreyNoise)
            .count();
        assert_eq!(greynoise, 47 * 4 + 256);
        assert_eq!(d.greynoise_provider_regions().len(), 48);
    }

    #[test]
    fn honeytrap_fleets_have_table1_sizes() {
        let d = Deployment::standard();
        let of = |provider| d.vantages.iter().filter(|v| v.provider == provider).count();
        assert_eq!(of(Provider::Stanford), 64);
        assert_eq!(of(Provider::Merit), 64);
        // Google: 21 GreyNoise regions × 4 + 64 west + 2 east honeytraps.
        assert_eq!(of(Provider::Google), 21 * 4 + 64 + 2);
    }

    #[test]
    fn payload_ports_on_2_of_4_per_region() {
        let d = Deployment::standard();
        let sg: Vec<_> = d
            .vantages
            .iter()
            .filter(|v| v.id.starts_with("greynoise/aws/AP-SG/"))
            .collect();
        assert_eq!(sg.len(), 4);
        assert_eq!(sg.iter().filter(|v| v.payload_ports).count(), 2);
    }

    #[test]
    fn topology_routes_every_vantage_ip() {
        let d = Deployment::standard();
        for v in &d.vantages {
            assert!(
                d.topology.block_of(v.ip).is_some(),
                "vantage {} ip {} not in topology",
                v.id,
                v.ip
            );
        }
    }

    #[test]
    fn registration_covers_all_networks() {
        let i = Deployment::standard().instruments();
        let mut engine = Engine::new();
        i.register(&mut engine);
        // 1 HE + 47 cloud regions + 5 honeytrap listeners are honeypots.
        assert_eq!(i.honeypots.len(), 1 + 47 + 5);
    }

    /// The listeners cover the vantage list in order: Hurricane Electric,
    /// the four clouds' regions, then the Honeytrap fleets, each named
    /// after its vantages' ids.
    #[test]
    fn listeners_follow_the_vantage_list_in_registration_order() {
        let d = Deployment::standard();
        let i = d.instruments();
        let mut vantages = d.vantages[1..].iter();
        for hp in &i.honeypots {
            let hp = hp.borrow();
            let ips: Vec<Ipv4Addr> = hp.ips().collect();
            let covered: Vec<&VantagePoint> = vantages.by_ref().take(ips.len()).collect();
            let mut want: Vec<Ipv4Addr> = covered.iter().map(|v| v.ip).collect();
            want.sort();
            assert_eq!(ips, want, "{}", hp.name());
            for (n, v) in covered.iter().enumerate() {
                assert_eq!(v.id, format!("{}/{n}", hp.name()));
            }
        }
        assert!(vantages.next().is_none(), "a vantage no listener covers");
        let names: Vec<String> = i
            .honeypots
            .iter()
            .map(|h| h.borrow().name().to_string())
            .collect();
        assert_eq!(names[0], "greynoise/he/US-OH");
        assert_eq!(names[1], "greynoise/aws/US-OR");
        assert_eq!(names[17], "greynoise/google/US-NV");
        assert_eq!(names[38], "greynoise/azure/US-TX");
        assert_eq!(names[41], "greynoise/linode/US-CA");
        assert_eq!(
            names[48..],
            [
                "honeytrap/stanford",
                "honeytrap/merit",
                "honeytrap/aws-west",
                "honeytrap/google-west",
                "honeytrap/google-east",
            ]
        );
    }

    #[test]
    fn each_instruments_call_builds_independent_listeners() {
        let d = Deployment::standard();
        let (a, b) = (d.instruments(), d.instruments());
        for i in [&a, &b] {
            assert!(i.honeypots.iter().all(|h| {
                let cap = h.borrow().capture();
                let shared = Rc::ptr_eq(&cap.borrow().interner(), &i.interner);
                shared
            }));
        }
        assert!(!Rc::ptr_eq(&a.interner, &b.interner));
        let name = "greynoise/aws/AP-SG";
        let cap = a.honeypot(name).expect("listener").borrow().capture();
        let payload = cap.borrow().intern_payload(b"GET / HTTP/1.1\r\n\r\n");
        cap.borrow_mut().record(ScanEvent {
            time: SimTime(60),
            src: Ipv4Addr::new(100, 0, 0, 1),
            src_asn: Asn(4134),
            dst: d.topology.block(name).expect("block").nth(0),
            dst_port: 80,
            observed: Observed::Payload(payload),
        });
        assert_eq!(cap.borrow().len(), 1);
        assert_eq!(a.interner.borrow().payload_count(), 1);
        assert!(b.honeypots.iter().all(|h| {
            let cap = h.borrow().capture();
            let empty = cap.borrow().is_empty();
            empty
        }));
        assert_eq!(b.interner.borrow().payload_count(), 0);
    }

    #[test]
    fn same_city_multi_cloud_pairs_exist_for_table6() {
        let d = Deployment::standard();
        let regions = d.greynoise_provider_regions();
        let in_city = |code: &str| -> Vec<Provider> {
            regions
                .iter()
                .filter(|(_, r)| r.code == code)
                .map(|(p, _)| *p)
                .collect()
        };
        assert!(in_city("US-CA").len() >= 3, "CA: {:?}", in_city("US-CA"));
        assert!(in_city("US-OR").len() >= 2);
        assert!(in_city("EU-DE").len() >= 3);
        assert!(in_city("AP-SG").len() >= 4);
    }
}
