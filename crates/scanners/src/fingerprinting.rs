//! Honeypot-fingerprinting scanners (§7 "Honeypot Fingerprinting" future
//! work).
//!
//! "Scanners occasionally fingerprint honeypots to avoid detection." This
//! agent probes a target's SSH banner first and only proceeds to credential
//! attempts when the banner does not match a known honeypot signature —
//! the sophistication the paper warns could bias honeypot measurements.
//! The `fingerprinting_scanner` example quantifies the blind spot such
//! scanners create.

use crate::identity::ActorIdentity;
use cw_netsim::engine::{Agent, Network};
use cw_netsim::flow::{ConnectionIntent, FlowSpec, LoginService};
use cw_netsim::rng::SimRng;
use cw_netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Banner substrings the scanner treats as honeypot tells. The default list
/// contains the default Cowrie/Kippo banner our own GreyNoise sensors
/// present — so this scanner avoids every deployed honeypot.
pub const DEFAULT_HONEYPOT_SIGNATURES: [&str; 3] = [
    "SSH-2.0-OpenSSH_7.4p1 Debian-10", // the default Cowrie persona
    "SSH-2.0-dropbear_2014",           // classic Kippo-era tell
    "SSH-2.0-libssh",                  // honeypot frameworks built on libssh
];

/// A brute-forcer that fingerprints before attacking.
pub struct FingerprintingScanner {
    identity: ActorIdentity,
    rng: SimRng,
    targets: Vec<Ipv4Addr>,
    cursor: usize,
    signatures: Vec<String>,
    /// The SSH dictionary it attacks with, as shared strings.
    credentials: Vec<(Rc<str>, Rc<str>)>,
    batch: usize,
    interval: SimDuration,
    /// Targets skipped after a honeypot banner match.
    avoided: Vec<Ipv4Addr>,
    /// Targets attacked after the banner looked clean (or was absent).
    attacked: Vec<Ipv4Addr>,
}

impl FingerprintingScanner {
    /// Create a scanner over SSH targets.
    pub fn new(identity: ActorIdentity, rng: SimRng, targets: Vec<Ipv4Addr>) -> Self {
        FingerprintingScanner {
            identity,
            rng,
            targets,
            cursor: 0,
            signatures: DEFAULT_HONEYPOT_SIGNATURES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            credentials: crate::campaign::shared_credentials(crate::credentials::SSH_GLOBAL),
            batch: 50,
            interval: SimDuration::HOUR,
            avoided: Vec::new(),
            attacked: Vec::new(),
        }
    }

    /// Targets avoided because the banner matched a signature.
    pub fn avoided(&self) -> &[Ipv4Addr] {
        &self.avoided
    }

    /// Targets attacked.
    pub fn attacked(&self) -> &[Ipv4Addr] {
        &self.attacked
    }

    fn banner_is_honeypot(&self, banner: &[u8]) -> bool {
        let text = String::from_utf8_lossy(banner);
        self.signatures.iter().any(|s| text.contains(s.as_str()))
    }
}

impl Agent for FingerprintingScanner {
    fn name(&self) -> &str {
        &self.identity.name
    }

    fn on_wake(&mut self, now: SimTime, net: &mut dyn Network) -> Option<SimTime> {
        let end = (self.cursor + self.batch).min(self.targets.len());
        while self.cursor < end {
            let dst = self.targets[self.cursor];
            self.cursor += 1;
            let src = *self.rng.choose(&self.identity.ips);
            // Step 1: banner grab.
            let outcome = net.send(FlowSpec {
                src,
                src_asn: self.identity.asn,
                dst,
                dst_port: 22,
                intent: ConnectionIntent::ProbeOnly,
            });
            let is_honeypot = outcome
                .reply
                .as_ref()
                .map(|r| self.banner_is_honeypot(&r.banner))
                .unwrap_or(false);
            if is_honeypot {
                self.avoided.push(dst);
                continue;
            }
            if !outcome.handshake_completed {
                // Dark space: nothing to attack.
                continue;
            }
            // Step 2: the attack.
            let (username, password) = self.rng.choose(&self.credentials).clone();
            net.send(FlowSpec {
                src,
                src_asn: self.identity.asn,
                dst,
                dst_port: 22,
                intent: ConnectionIntent::Login {
                    service: LoginService::Ssh,
                    username,
                    password,
                },
            });
            self.attacked.push(dst);
        }
        if self.cursor >= self.targets.len() {
            None
        } else {
            Some(now + self.interval)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_honeypot::framework::{HoneypotListener, Persona, PortPolicy};
    use cw_netsim::asn::Asn;
    use cw_netsim::engine::Engine;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn avoids_cowrie_banner_attacks_custom_banner() {
        let honeypot_ip = Ipv4Addr::new(10, 0, 0, 1);
        let real_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut engine = Engine::new();

        // The honeypot presents the default Cowrie banner (via the
        // Interactive greeting); the "real" server presents a custom one.
        let hp = HoneypotListener::new("cowrie", [honeypot_ip], PortPolicy::Closed)
            .with_policy(22, PortPolicy::Interactive(LoginService::Ssh));
        let hp_cap = hp.capture();
        engine.add_listener(Rc::new(RefCell::new(hp)));

        let real = HoneypotListener::new("real", [real_ip], PortPolicy::Closed)
            .with_policy(22, PortPolicy::Interactive(LoginService::Ssh))
            .with_persona(
                22,
                Persona {
                    protocol: "SSH".into(),
                    banner: b"SSH-2.0-OpenSSH_9.6 Ubuntu-3ubuntu13\r\n".to_vec(),
                },
            );
        let real_cap = real.capture();
        engine.add_listener(Rc::new(RefCell::new(real)));

        let scanner = FingerprintingScanner::new(
            ActorIdentity::new("fp", Asn(64_777), "RU", vec![Ipv4Addr::new(100, 77, 0, 1)]),
            SimRng::seed_from_u64(1),
            vec![honeypot_ip, real_ip],
        );
        engine.add_agent(Box::new(scanner), SimTime(0));
        engine.run(SimTime(86_400));

        // The honeypot saw only the banner grab — never a credential.
        let hp_cap = hp_cap.borrow();
        assert!(hp_cap.events().all(|e| !matches!(
            e.observed,
            cw_honeypot::capture::Observed::Credentials { .. }
        )));
        // The "real" server got attacked.
        let real_cap = real_cap.borrow();
        assert!(real_cap.events().any(|e| matches!(
            e.observed,
            cw_honeypot::capture::Observed::Credentials { .. }
        )));
    }

    #[test]
    fn dark_space_is_neither_avoided_nor_attacked() {
        let mut engine = Engine::new();
        let scanner = FingerprintingScanner::new(
            ActorIdentity::new("fp", Asn(64_777), "RU", vec![Ipv4Addr::new(100, 77, 0, 1)]),
            SimRng::seed_from_u64(2),
            vec![Ipv4Addr::new(9, 9, 9, 9)],
        );
        // Keep a peek at the agent via a second reference trick: run and
        // verify through engine stats instead (1 probe, no login).
        engine.add_agent(Box::new(scanner), SimTime(0));
        let stats = engine.run(SimTime(86_400));
        assert_eq!(stats.flows_unrouted, 1);
    }

    #[test]
    fn signature_matching() {
        let s = FingerprintingScanner::new(
            ActorIdentity::new("fp", Asn(1), "US", vec![Ipv4Addr::new(100, 0, 0, 1)]),
            SimRng::seed_from_u64(3),
            vec![],
        );
        assert!(s.banner_is_honeypot(b"SSH-2.0-OpenSSH_7.4p1 Debian-10\r\n"));
        assert!(!s.banner_is_honeypot(b"SSH-2.0-OpenSSH_9.6\r\n"));
        assert!(!s.banner_is_honeypot(b""));
    }
}
