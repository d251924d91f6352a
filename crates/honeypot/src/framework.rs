//! The generic honeypot listener: per-port policies, service personas, and
//! per-source blocklists.
//!
//! One [`HoneypotListener`] instance covers a set of vantage IPs (e.g. the
//! 4 GreyNoise honeypots of one provider region, or a Honeytrap /26) and
//! implements the engine's [`Listener`] trait. Three port policies cover
//! every instrument in the paper:
//!
//! - [`PortPolicy::Interactive`] — Cowrie: speak the login protocol, run
//!   the session state machine, record harvested credentials;
//! - [`PortPolicy::FirstPayload`] — Honeytrap / GreyNoise non-interactive
//!   ports: complete the handshake, record the first client payload;
//! - [`PortPolicy::Closed`] — connection refused, nothing recorded.
//!
//! A [`Persona`] gives a port a service banner: that is what Censys/Shodan
//! index, and what makes a honeypot "vulnerable-looking". Every reply a
//! listener gives (a persona's banner or a Cowrie greeting) is built once,
//! when it is configured, and shared by the flows it answers.

use crate::capture::{Capture, Observed, ScanEvent};
use crate::cowrie;
use cw_netsim::engine::{FlowOutcome, Listener, ServiceReply};
use cw_netsim::fault::{domain_salt, flow_coin, FaultDomain, FaultPlan, OutageSchedule};
use cw_netsim::flow::{ConnectionIntent, Flow, LoginService};
use cw_netsim::intern::Interner;
use cw_netsim::ip::Cidr;
use cw_netsim::time::SimDuration;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Per-port behavior of a honeypot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPolicy {
    /// Cowrie-style interactive login service.
    Interactive(LoginService),
    /// Complete the handshake and record the first client payload.
    FirstPayload,
    /// Port closed: no handshake, nothing recorded.
    Closed,
}

/// A service banner presented on a port (what scanners and search engines
/// see when the service responds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Persona {
    /// Protocol label for the reply (e.g. `"HTTP"`).
    pub protocol: String,
    /// Banner bytes.
    pub banner: Vec<u8>,
}

impl Persona {
    /// A vulnerable-looking HTTP service page.
    pub fn http() -> Self {
        Persona {
            protocol: "HTTP".into(),
            banner: b"HTTP/1.1 200 OK\r\nServer: Boa/0.94.13\r\nContent-Type: text/html\r\n\r\n<html>It works</html>"
                .to_vec(),
        }
    }

    /// An SSH server banner.
    pub fn ssh() -> Self {
        Persona {
            protocol: "SSH".into(),
            banner: b"SSH-2.0-OpenSSH_7.4p1 Debian-10\r\n".to_vec(),
        }
    }

    /// A Telnet login prompt.
    pub fn telnet() -> Self {
        Persona {
            protocol: "TELNET".into(),
            banner: b"\xff\xfb\x01\xff\xfb\x03\r\nlogin: ".to_vec(),
        }
    }
}

/// Injected measurement faults on one honeypot vantage (see
/// `cw_netsim::fault` for the determinism contract).
///
/// A vantage in an outage window observes nothing and answers nothing — the
/// sensor is down, so from the scanner's side the address looks dark. A
/// truncated capture keeps only the first `truncate_to` bytes of the
/// payload it would have recorded; the truncation coin is a pure hash of
/// the flow identity under `trunc_salt`, so every execution strategy
/// truncates the same captures.
#[derive(Debug, Clone, Default)]
pub struct ListenerFaults {
    /// Deterministic downtime schedule for this vantage.
    pub outage: OutageSchedule,
    /// Fraction of recorded payload captures truncated, in `[0, 1]`.
    pub truncation: f64,
    /// Bytes kept of a truncated capture.
    pub truncate_to: u32,
    /// Truncation coin salt (the fault plan's truncation domain salt).
    pub trunc_salt: u64,
}

impl ListenerFaults {
    /// The faults `plan` puts on vantage number `index` of a world seeded
    /// `seed` (the salts are forked off it by [`domain_salt`]): its own
    /// outage schedule over `horizon`, and the plan's truncation.
    pub fn derive(plan: &FaultPlan, seed: u64, index: u64, horizon: SimDuration) -> Self {
        ListenerFaults {
            outage: OutageSchedule::derive(
                domain_salt(seed, FaultDomain::Outage),
                index,
                horizon,
                plan.outage,
                plan.outage_windows,
            ),
            truncation: plan.truncation,
            truncate_to: plan.truncate_to,
            trunc_salt: domain_salt(seed, FaultDomain::Truncation),
        }
    }
}

/// A honeypot instance covering a set of IPs.
pub struct HoneypotListener {
    name: String,
    ips: BTreeSet<Ipv4Addr>,
    policies: BTreeMap<u16, PortPolicy>,
    default_policy: PortPolicy,
    /// Each persona's reply, built when the persona is set.
    personas: BTreeMap<u16, ServiceReply>,
    /// The Cowrie greetings interactive ports without a persona answer
    /// with: SSH, then Telnet.
    greetings: [ServiceReply; 2],
    /// Ports only open on a subset of the covered IPs (closed elsewhere).
    /// Models GreyNoise's "4 or 2 (HTTP)" deployments where a region has 4
    /// SSH/Telnet honeypots but only 2 expose the payload ports.
    port_restrictions: BTreeMap<u16, BTreeSet<Ipv4Addr>>,
    /// Per-source firewall: a listed source may only reach the listed ports
    /// (empty set = fully blocked). Unlisted sources reach everything.
    source_allowed_ports: BTreeMap<Ipv4Addr, BTreeSet<u16>>,
    capture: Rc<RefCell<Capture>>,
    /// Injected measurement faults; `None` is the (default) perfect sensor.
    faults: Option<ListenerFaults>,
}

impl HoneypotListener {
    /// Create a honeypot covering `ips`, with `default_policy` for ports not
    /// explicitly configured.
    pub fn new(
        name: &str,
        ips: impl IntoIterator<Item = Ipv4Addr>,
        default_policy: PortPolicy,
    ) -> Self {
        HoneypotListener {
            name: name.to_string(),
            ips: ips.into_iter().collect(),
            policies: BTreeMap::new(),
            default_policy,
            personas: BTreeMap::new(),
            greetings: [LoginService::Ssh, LoginService::Telnet].map(|service| {
                ServiceReply::new(
                    service.label(),
                    cowrie::Session::new(service).server_greeting(),
                )
            }),
            port_restrictions: BTreeMap::new(),
            source_allowed_ports: BTreeMap::new(),
            capture: Rc::new(RefCell::new(Capture::new(name))),
            faults: None,
        }
    }

    /// Inject measurement faults into this vantage. Called by the world's
    /// instruments when a non-trivial fault plan is active; the default
    /// (no faults) is the perfect sensor the golden manifest assumes.
    pub fn set_faults(&mut self, faults: ListenerFaults) {
        self.faults = Some(faults);
    }

    /// Set the policy for one port (builder style).
    pub fn with_policy(mut self, port: u16, policy: PortPolicy) -> Self {
        self.policies.insert(port, policy);
        self
    }

    /// Set a persona (banner) for one port (builder style).
    pub fn with_persona(mut self, port: u16, persona: Persona) -> Self {
        self.personas
            .insert(port, ServiceReply::new(&persona.protocol, &persona.banner));
        self
    }

    /// Restrict a port to be open on only these covered IPs; it behaves as
    /// [`PortPolicy::Closed`] on the others (builder style).
    pub fn with_port_restriction(
        mut self,
        port: u16,
        ips: impl IntoIterator<Item = Ipv4Addr>,
    ) -> Self {
        self.port_restrictions
            .insert(port, ips.into_iter().collect());
        self
    }

    /// Block a source IP from reaching the services (leak-experiment knob:
    /// "we block Censys and Shodan from accessing the Honeytrap services").
    pub fn block_source(&mut self, src: Ipv4Addr) {
        self.source_allowed_ports.insert(src, BTreeSet::new());
    }

    /// Block a source IP from every port *except* the listed ones — the
    /// leak experiment's "allow either Censys or Shodan to find only one of
    /// the three emulated services".
    pub fn block_source_except(&mut self, src: Ipv4Addr, allowed_ports: &[u16]) {
        self.source_allowed_ports
            .insert(src, allowed_ports.iter().copied().collect());
    }

    /// Record into a world-shared interner instead of a private one
    /// (builder style). All listeners of one world share an id space,
    /// which the dataset build takes over whole.
    pub fn with_interner(self, interner: Rc<RefCell<cw_netsim::intern::Interner>>) -> Self {
        let replaced = {
            let cap = self.capture.borrow();
            cap.clone().with_interner(interner)
        };
        *self.capture.borrow_mut() = replaced;
        self
    }

    /// Handle to the capture store (alive across the engine run).
    pub fn capture(&self) -> Rc<RefCell<Capture>> {
        Rc::clone(&self.capture)
    }

    /// The vantage IPs this honeypot covers.
    pub fn ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.ips.iter().copied()
    }

    fn policy_for(&self, port: u16) -> PortPolicy {
        *self.policies.get(&port).unwrap_or(&self.default_policy)
    }

    /// The prebuilt reply a port answers with: its persona's banner, or on
    /// an interactive port without one the Cowrie greeting (interactive
    /// services always greet).
    fn reply_for(&self, port: u16, policy: PortPolicy) -> Option<&ServiceReply> {
        match (self.personas.get(&port), policy) {
            (Some(reply), _) => Some(reply),
            (None, PortPolicy::Interactive(LoginService::Ssh)) => Some(&self.greetings[0]),
            (None, PortPolicy::Interactive(LoginService::Telnet)) => Some(&self.greetings[1]),
            _ => None,
        }
    }
}

/// What a first-payload collector records of `intent`: its first payload,
/// interned by the digest it carries, or when the capture is truncated to
/// `n` bytes the cut prefix, hashed as cut.
fn first_payload(
    intent: &ConnectionIntent,
    truncate_to: Option<usize>,
    interner: &mut Interner,
) -> Observed {
    let id = match truncate_to {
        Some(n) => intent
            .first_payload_bytes()
            .map(|p| interner.intern_payload(&p[..p.len().min(n)])),
        None => intent.first_payload_id(interner),
    };
    id.map_or(Observed::Handshake, Observed::Payload)
}

impl Listener for HoneypotListener {
    fn name(&self) -> &str {
        &self.name
    }

    fn coverage(&self) -> Vec<Cidr> {
        self.ips.iter().map(|&ip| Cidr::new(ip, 32)).collect()
    }

    fn on_flow(&mut self, flow: &Flow) -> FlowOutcome {
        // A vantage in an injected outage window is down: no handshake,
        // nothing recorded, nothing indexed — same as dark space.
        if let Some(f) = &self.faults {
            if f.outage.is_down(flow.time) {
                return FlowOutcome::dark();
            }
        }
        if let Some(allowed) = self.source_allowed_ports.get(&flow.src) {
            if !allowed.contains(&flow.dst_port) {
                // Firewalled: no handshake, nothing observed, nothing indexed.
                return FlowOutcome::dark();
            }
        }
        if let Some(allowed) = self.port_restrictions.get(&flow.dst_port) {
            if !allowed.contains(&flow.dst) {
                return FlowOutcome::dark();
            }
        }
        let policy = self.policy_for(flow.dst_port);
        // Injected capture truncation decides on the flow identity *before*
        // interning: a truncated capture must never intern the full payload,
        // or the interner's contents would diverge from what was recorded.
        let truncate_to: Option<usize> = self.faults.as_ref().and_then(|f| {
            if f.truncation > 0.0
                && flow_coin(f.trunc_salt, flow.time, flow.src, flow.dst, flow.dst_port)
                    < f.truncation
            {
                Some(f.truncate_to as usize)
            } else {
                None
            }
        });
        // Intern at the record boundary: blob bytes stop here, events carry ids.
        let observed = {
            let capture = self.capture.borrow();
            let interner = capture.interner();
            let mut interner = interner.borrow_mut();
            match policy {
                PortPolicy::Closed => return FlowOutcome::dark(),
                PortPolicy::Interactive(service) => match &flow.intent {
                    ConnectionIntent::Login {
                        service: client_service,
                        username,
                        password,
                    } if *client_service == service => {
                        // Run the real Cowrie dialogue to harvest credentials.
                        match cowrie::harvest(service, username, password) {
                            Some(c) => Observed::Credentials {
                                service,
                                username: interner.intern_cred(&c.username),
                                password: interner.intern_cred(&c.password),
                            },
                            None => Observed::Handshake,
                        }
                    }
                    ConnectionIntent::Payload(_) => {
                        first_payload(&flow.intent, truncate_to, &mut interner)
                    }
                    ConnectionIntent::Login { .. } | ConnectionIntent::ProbeOnly => {
                        Observed::Handshake
                    }
                },
                PortPolicy::FirstPayload => first_payload(&flow.intent, truncate_to, &mut interner),
            }
        };
        self.capture.borrow_mut().record(ScanEvent {
            time: flow.time,
            src: flow.src,
            src_asn: flow.src_asn,
            dst: flow.dst,
            dst_port: flow.dst_port,
            observed,
        });
        match self.reply_for(flow.dst_port, policy) {
            Some(reply) => FlowOutcome::replied(reply),
            None => FlowOutcome::accepted(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::{FlowSpec, LoginService};
    use cw_netsim::time::SimTime;

    fn flow(src: Ipv4Addr, dst: Ipv4Addr, port: u16, intent: ConnectionIntent) -> Flow {
        Flow::from_spec(
            FlowSpec {
                src,
                src_asn: Asn(1),
                dst,
                dst_port: port,
                intent,
            },
            SimTime(5),
        )
    }

    fn hp() -> HoneypotListener {
        HoneypotListener::new(
            "test",
            [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)],
            PortPolicy::FirstPayload,
        )
        .with_policy(22, PortPolicy::Interactive(LoginService::Ssh))
        .with_policy(23, PortPolicy::Interactive(LoginService::Telnet))
        .with_policy(9999, PortPolicy::Closed)
        .with_persona(80, Persona::http())
    }

    #[test]
    fn coverage() {
        let h = hp();
        assert_eq!(
            h.coverage(),
            [
                Cidr::new(Ipv4Addr::new(10, 0, 0, 1), 32),
                Cidr::new(Ipv4Addr::new(10, 0, 0, 2), 32),
            ]
        );
    }

    /// The replies of two flows to the same port: each must be the one
    /// reply the listener built, shared rather than copied per flow.
    fn shared_replies(
        h: &mut HoneypotListener,
        port: u16,
        intent: ConnectionIntent,
    ) -> ServiceReply {
        let mut send = |src| {
            h.on_flow(&flow(src, Ipv4Addr::new(10, 0, 0, 1), port, intent.clone()))
                .reply
                .expect("reply")
        };
        let first = send(Ipv4Addr::new(1, 1, 1, 1));
        let second = send(Ipv4Addr::new(1, 1, 1, 2));
        assert!(
            Rc::ptr_eq(&first.banner, &second.banner),
            "banner copied per flow"
        );
        let (a, b) = (
            first.protocol.as_ref().unwrap(),
            second.protocol.as_ref().unwrap(),
        );
        assert!(Rc::ptr_eq(a, b), "protocol copied per flow");
        first
    }

    #[test]
    fn interactive_port_harvests_credentials() {
        let mut h = hp();
        let cap = h.capture();
        let login = ConnectionIntent::Login {
            service: LoginService::Ssh,
            username: "root".into(),
            password: "admin".into(),
        };
        let out = h.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            22,
            login.clone(),
        ));
        assert!(out.handshake_completed);
        assert!(out.reply.unwrap().banner.starts_with(b"SSH-2.0-"));
        // The Cowrie greetings, byte for byte, shared across flows.
        let ssh = shared_replies(&mut h, 22, login);
        assert_eq!(ssh.protocol.as_deref(), Some("SSH"));
        assert_eq!(&*ssh.banner, b"SSH-2.0-OpenSSH_7.4p1 Debian-10\r\n");
        let telnet = shared_replies(&mut h, 23, ConnectionIntent::ProbeOnly);
        assert_eq!(telnet.protocol.as_deref(), Some("TELNET"));
        assert_eq!(&*telnet.banner, b"\xff\xfb\x01\xff\xfb\x03\r\nlogin: ");
        let cap = cap.borrow();
        assert_eq!(cap.len(), 5);
        let interner = cap.interner();
        let interner = interner.borrow();
        match cap.event(0).observed {
            Observed::Credentials {
                username, password, ..
            } => {
                assert_eq!(interner.cred(username), "root");
                assert_eq!(interner.cred(password), "admin");
            }
            other => panic!("expected credentials, got {other:?}"),
        }
    }

    #[test]
    fn first_payload_port_records_payload() {
        let mut h = hp();
        let cap = h.capture();
        h.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            8080,
            ConnectionIntent::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec().into()),
        ));
        let cap = cap.borrow();
        let pid = cap.event(0).observed.payload().expect("payload recorded");
        assert_eq!(
            cap.interner().borrow().payload(pid),
            b"GET / HTTP/1.1\r\n\r\n"
        );
    }

    #[test]
    fn persona_port_replies_with_banner() {
        let mut h = hp();
        let out = h.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            ConnectionIntent::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec().into()),
        ));
        let reply = out.reply.unwrap();
        assert_eq!(reply.protocol.as_deref(), Some("HTTP"));
        assert!(reply.banner.starts_with(b"HTTP/1.1 200 OK"));
        // Shared across flows, and the persona's bytes unchanged.
        let shared = shared_replies(&mut h, 80, ConnectionIntent::ProbeOnly);
        assert_eq!(shared, reply);
        assert_eq!(&*shared.banner, &Persona::http().banner[..]);
    }

    #[test]
    fn closed_port_is_dark_and_unrecorded() {
        let mut h = hp();
        let cap = h.capture();
        let out = h.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            9999,
            ConnectionIntent::ProbeOnly,
        ));
        assert!(!out.handshake_completed);
        assert!(cap.borrow().is_empty());
    }

    #[test]
    fn blocked_source_sees_nothing_and_is_not_recorded() {
        let mut h = hp();
        let cap = h.capture();
        let censys = Ipv4Addr::new(192, 0, 2, 10);
        h.block_source(censys);
        let out = h.on_flow(&flow(
            censys,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            ConnectionIntent::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec().into()),
        ));
        assert!(!out.handshake_completed);
        assert!(out.reply.is_none());
        assert!(cap.borrow().is_empty());
    }

    #[test]
    fn telnet_login_on_ssh_port_records_handshake_only() {
        let mut h = hp();
        let cap = h.capture();
        h.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            22,
            ConnectionIntent::Login {
                service: LoginService::Telnet,
                username: "a".into(),
                password: "b".into(),
            },
        ));
        assert_eq!(cap.borrow().event(0).observed, Observed::Handshake);
    }

    #[test]
    fn ssh_login_against_honeytrap_port_leaks_only_client_banner() {
        // A first-payload collector cannot harvest credentials — it records
        // the SSH client banner (§3.1: Honeytrap configures payload capture
        // only; credential capture needs Cowrie).
        let mut h = HoneypotListener::new(
            "trap",
            [Ipv4Addr::new(10, 0, 0, 1)],
            PortPolicy::FirstPayload,
        );
        let cap = h.capture();
        h.on_flow(&flow(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            22,
            ConnectionIntent::Login {
                service: LoginService::Ssh,
                username: "root".into(),
                password: "x".into(),
            },
        ));
        let cap = cap.borrow();
        match cap.event(0).observed {
            Observed::Payload(p) => {
                assert!(cap.interner().borrow().payload(p).starts_with(b"SSH-"))
            }
            other => panic!("expected payload, got {other:?}"),
        }
    }
}
