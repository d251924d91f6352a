//! Transparent firewall/IPS middleboxes (§7 "Firewalls" future work).
//!
//! "While none of our honeypots have firewalls, it is possible that a
//! network could transparently drop malicious traffic before they reach our
//! honeypots." A [`Firewall`] wraps any listener and silently drops flows
//! matching its policy *before* the instrument observes them — the
//! measurement-distorting middlebox the paper warns about. The
//! `firewall_bias` example quantifies the distortion.

use cw_detection::RuleSet;
use cw_netsim::engine::{FlowOutcome, Listener};
use cw_netsim::flow::{ConnectionIntent, Flow};
use cw_netsim::ip::Cidr;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// A transparent middlebox in front of a listener.
pub struct Firewall {
    name: String,
    inner: Rc<RefCell<dyn Listener>>,
    drop_dst_ports: BTreeSet<u16>,
    drop_sources: BTreeSet<Ipv4Addr>,
    /// IPS mode: drop payloads the vetted ruleset flags as malicious, and
    /// login attempts (credential-stuffing protection).
    ips: Option<RuleSet>,
    dropped: u64,
    passed: u64,
}

impl Firewall {
    /// Wrap a listener with an initially-permissive firewall.
    pub fn new(name: &str, inner: Rc<RefCell<dyn Listener>>) -> Self {
        Firewall {
            name: name.to_string(),
            inner,
            drop_dst_ports: BTreeSet::new(),
            drop_sources: BTreeSet::new(),
            ips: None,
            dropped: 0,
            passed: 0,
        }
    }

    /// Drop all traffic to a destination port (builder style).
    pub fn drop_port(mut self, port: u16) -> Self {
        self.drop_dst_ports.insert(port);
        self
    }

    /// Drop all traffic from a source (builder style).
    pub fn drop_source(mut self, src: Ipv4Addr) -> Self {
        self.drop_sources.insert(src);
        self
    }

    /// Enable IPS mode: malicious payloads (per the ruleset) and login
    /// attempts are dropped transparently (builder style).
    pub fn with_ips(mut self, rules: RuleSet) -> Self {
        self.ips = Some(rules);
        self
    }

    /// Flows silently dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flows passed through so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    fn policy_drops(&self, flow: &Flow) -> bool {
        if self.drop_dst_ports.contains(&flow.dst_port) || self.drop_sources.contains(&flow.src) {
            return true;
        }
        if let Some(rules) = &self.ips {
            match &flow.intent {
                ConnectionIntent::Login { .. } => return true,
                ConnectionIntent::Payload(p) => {
                    if rules.is_malicious(p, flow.dst_port) {
                        return true;
                    }
                }
                ConnectionIntent::ProbeOnly => {}
            }
        }
        false
    }
}

impl Listener for Firewall {
    fn name(&self) -> &str {
        &self.name
    }

    fn coverage(&self) -> Vec<Cidr> {
        self.inner.borrow().coverage()
    }

    fn on_flow(&mut self, flow: &Flow) -> FlowOutcome {
        if self.policy_drops(flow) {
            self.dropped += 1;
            // Transparent drop: the scanner sees dark space, the instrument
            // behind the firewall sees nothing at all.
            return FlowOutcome::dark();
        }
        self.passed += 1;
        self.inner.borrow_mut().on_flow(flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{HoneypotListener, PortPolicy};
    use cw_netsim::asn::Asn;
    use cw_netsim::flow::{FlowSpec, LoginService};
    use cw_netsim::time::SimTime;

    fn flow(port: u16, intent: ConnectionIntent) -> Flow {
        Flow::from_spec(
            FlowSpec {
                src: Ipv4Addr::new(100, 0, 0, 9),
                src_asn: Asn(1),
                dst: Ipv4Addr::new(10, 0, 0, 1),
                dst_port: port,
                intent,
            },
            SimTime(1),
        )
    }

    fn wrapped() -> (Firewall, Rc<RefCell<crate::capture::Capture>>) {
        let hp = HoneypotListener::new(
            "inner",
            [Ipv4Addr::new(10, 0, 0, 1)],
            PortPolicy::FirstPayload,
        )
        .with_policy(22, PortPolicy::Interactive(LoginService::Ssh));
        let cap = hp.capture();
        let fw = Firewall::new("fw", Rc::new(RefCell::new(hp)));
        (fw, cap)
    }

    #[test]
    fn permissive_firewall_is_transparent() {
        let (mut fw, cap) = wrapped();
        let out = fw.on_flow(&flow(
            80,
            ConnectionIntent::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec().into()),
        ));
        assert!(out.handshake_completed);
        assert_eq!(cap.borrow().len(), 1);
        assert_eq!(fw.passed(), 1);
        assert_eq!(fw.dropped(), 0);
    }

    #[test]
    fn port_and_source_drops() {
        let (fw, cap) = wrapped();
        let mut fw = fw.drop_port(23).drop_source(Ipv4Addr::new(100, 0, 0, 9));
        let out = fw.on_flow(&flow(80, ConnectionIntent::ProbeOnly));
        assert!(!out.handshake_completed);
        assert_eq!(fw.dropped(), 1);
        assert!(cap.borrow().is_empty());
    }

    #[test]
    fn ips_drops_exploits_and_logins_but_passes_benign() {
        let (fw, cap) = wrapped();
        let mut fw = fw.with_ips(RuleSet::builtin());
        // Malicious payload: dropped before the honeypot sees it.
        fw.on_flow(&flow(
            80,
            ConnectionIntent::Payload(
                cw_protocols::HttpRequest::new("GET", "/shell?cd+/tmp;busybox+wget")
                    .to_bytes()
                    .into(),
            ),
        ));
        // Login attempt: dropped.
        fw.on_flow(&flow(
            22,
            ConnectionIntent::Login {
                service: LoginService::Ssh,
                username: "root".into(),
                password: "root".into(),
            },
        ));
        // Benign GET: passes.
        fw.on_flow(&flow(
            80,
            ConnectionIntent::Payload(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec().into()),
        ));
        assert_eq!(fw.dropped(), 2);
        assert_eq!(fw.passed(), 1);
        assert_eq!(cap.borrow().len(), 1);
    }

    #[test]
    fn coverage_is_forwarded() {
        let (fw, _cap) = wrapped();
        assert_eq!(fw.coverage(), [Cidr::new(Ipv4Addr::new(10, 0, 0, 1), 32)]);
    }
}
