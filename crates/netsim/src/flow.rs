//! Flows: the unit of traffic an agent sends and a listener observes.
//!
//! A flow models one connection attempt. What the observer *records* depends
//! on its collection method (§3.1): a telescope sees only the first packet
//! (SYN); Honeytrap completes the handshake and records the first client
//! payload; Cowrie additionally speaks enough SSH/Telnet to harvest the
//! attempted credentials. The scanner encodes its intent once; the listener
//! decides what it can observe.
//!
//! Scanners replay small dictionaries, so an intent carries shared values:
//! a payload is a pre-hashed [`Blob`] and credentials are `Rc<str>`, built
//! once per campaign and cloned (a reference-count bump) per flow.

use crate::asn::Asn;
use crate::intern::{Blob, Interner, PayloadId};
use crate::time::SimTime;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// The SSH client version banner a first-payload collector records from an
/// interactive SSH login attempt (sent immediately after the TCP handshake).
pub const SSH_CLIENT_BANNER: &[u8] = b"SSH-2.0-Go\r\n";

/// Which login-prompting service an interactive attempt is aimed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LoginService {
    /// SSH (ports 22 / 2222 in the deployment).
    Ssh,
    /// Telnet (ports 23 / 2323 in the deployment).
    Telnet,
}

impl LoginService {
    /// Canonical protocol label.
    pub fn label(&self) -> &'static str {
        match self {
            LoginService::Ssh => "SSH",
            LoginService::Telnet => "TELNET",
        }
    }
}

/// What the client plans to do once (if) the connection opens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectionIntent {
    /// SYN-scan style probe: connect (or not even that) and send nothing.
    ProbeOnly,
    /// Client-first protocol: send these bytes as the first payload.
    Payload(Blob),
    /// Interactive login attempt against an SSH/Telnet-style service. Only a
    /// listener that actually speaks the protocol (Cowrie) observes the
    /// credentials; a handshake-only listener sees at most the client
    /// banner (SSH) or nothing (Telnet is server-first).
    Login {
        /// Target service dialect.
        service: LoginService,
        /// Attempted username.
        username: Rc<str>,
        /// Attempted password.
        password: Rc<str>,
    },
}

impl ConnectionIntent {
    /// The first bytes a handshake-only observer (Honeytrap/GreyNoise
    /// non-interactive port) would record for this intent, if any.
    pub fn first_payload_bytes(&self) -> Option<&[u8]> {
        match self {
            ConnectionIntent::ProbeOnly => None,
            ConnectionIntent::Payload(p) => Some(p),
            ConnectionIntent::Login { service, .. } => match service {
                // SSH clients send their version banner immediately after
                // the TCP handshake, so a first-payload collector sees it.
                LoginService::Ssh => Some(SSH_CLIENT_BANNER),
                // Telnet is server-first: a silent collector records nothing.
                LoginService::Telnet => None,
            },
        }
    }

    /// Like [`ConnectionIntent::first_payload_bytes`], but interning the
    /// bytes — by the payload's carried digest — instead of returning them:
    /// the record-path fast lane.
    pub fn first_payload_id(&self, interner: &mut Interner) -> Option<PayloadId> {
        match self {
            ConnectionIntent::ProbeOnly => None,
            ConnectionIntent::Payload(p) => Some(interner.intern_blob(p)),
            ConnectionIntent::Login { service, .. } => match service {
                LoginService::Ssh => Some(interner.intern_payload(SSH_CLIENT_BANNER)),
                LoginService::Telnet => None,
            },
        }
    }
}

/// A flow as specified by the sending agent (engine stamps time / delivery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source address the agent scans from.
    pub src: Ipv4Addr,
    /// Source autonomous system.
    pub src_asn: Asn,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination TCP port.
    pub dst_port: u16,
    /// Client behavior after connect.
    pub intent: ConnectionIntent,
}

/// A delivered flow: a [`FlowSpec`] stamped with its delivery time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Delivery time.
    pub time: SimTime,
    /// Source address.
    pub src: Ipv4Addr,
    /// Source autonomous system.
    pub src_asn: Asn,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination TCP port.
    pub dst_port: u16,
    /// Client behavior after connect.
    pub intent: ConnectionIntent,
}

impl Flow {
    /// Assemble a [`Flow`] from its spec plus the engine's delivery time.
    pub fn from_spec(spec: FlowSpec, time: SimTime) -> Self {
        Flow {
            time,
            src: spec.src,
            src_asn: spec.src_asn,
            dst: spec.dst,
            dst_port: spec.dst_port,
            intent: spec.intent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssh_login_leaks_client_banner_to_payload_collectors() {
        let intent = ConnectionIntent::Login {
            service: LoginService::Ssh,
            username: "root".into(),
            password: "admin".into(),
        };
        let bytes = intent.first_payload_bytes().unwrap();
        assert!(bytes.starts_with(b"SSH-"));
    }

    #[test]
    fn telnet_login_is_invisible_to_payload_collectors() {
        let intent = ConnectionIntent::Login {
            service: LoginService::Telnet,
            username: "root".into(),
            password: "root".into(),
        };
        assert!(intent.first_payload_bytes().is_none());
    }

    #[test]
    fn probe_has_no_payload() {
        assert!(ConnectionIntent::ProbeOnly.first_payload_bytes().is_none());
    }

    #[test]
    fn payload_round_trips() {
        let intent = ConnectionIntent::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec().into());
        assert_eq!(
            intent.first_payload_bytes().unwrap(),
            b"GET / HTTP/1.1\r\n\r\n"
        );
    }

    #[test]
    fn first_payload_id_matches_first_payload_bytes() {
        let mut interner = Interner::new();
        let intents = [
            ConnectionIntent::ProbeOnly,
            ConnectionIntent::Payload(b"GET / HTTP/1.1\r\n\r\n".to_vec().into()),
            ConnectionIntent::Login {
                service: LoginService::Ssh,
                username: "root".into(),
                password: "admin".into(),
            },
            ConnectionIntent::Login {
                service: LoginService::Telnet,
                username: "root".into(),
                password: "root".into(),
            },
        ];
        for intent in &intents {
            let id = intent.first_payload_id(&mut interner);
            let bytes = intent.first_payload_bytes();
            assert_eq!(id.map(|i| interner.payload(i)), bytes, "intent {intent:?}");
        }
    }

    #[test]
    fn flow_from_spec_stamps_fields() {
        let spec = FlowSpec {
            src: Ipv4Addr::new(1, 2, 3, 4),
            src_asn: Asn(4134),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            dst_port: 22,
            intent: ConnectionIntent::ProbeOnly,
        };
        let f = Flow::from_spec(spec, SimTime(77));
        assert_eq!(f.time, SimTime(77));
        assert_eq!(f.dst_port, 22);
    }
}
