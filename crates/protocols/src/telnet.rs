//! Telnet option negotiation (RFC 854/855).
//!
//! Telnet scanners that speak first open with IAC negotiation sequences
//! (`0xFF` followed by WILL/WONT/DO/DONT + option). Interactive credential
//! harvesting happens at the Cowrie layer; this codec covers detection of
//! Telnet spoken on unexpected ports (§6).

/// IAC — "interpret as command".
pub const IAC: u8 = 0xFF;
/// WILL command byte.
pub const WILL: u8 = 0xFB;
/// WONT command byte.
pub const WONT: u8 = 0xFC;
/// DO command byte.
pub const DO: u8 = 0xFD;
/// DONT command byte.
pub const DONT: u8 = 0xFE;

/// Build an initial client negotiation: `IAC DO opt` triples.
pub fn build_negotiation(options: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(options.len() * 3);
    for &opt in options {
        out.extend_from_slice(&[IAC, DO, opt]);
    }
    out
}

/// Does this first payload look like Telnet negotiation?
pub fn is_telnet_negotiation(payload: &[u8]) -> bool {
    payload.len() >= 3 && payload[0] == IAC && matches!(payload[1], WILL | WONT | DO | DONT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_round_trip() {
        let p = build_negotiation(&[1, 3]); // ECHO, SGA
        assert_eq!(p, vec![IAC, DO, 1, IAC, DO, 3]);
        assert!(is_telnet_negotiation(&p));
    }

    #[test]
    fn rejects_non_telnet() {
        assert!(!is_telnet_negotiation(b"GET / HTTP/1.1"));
        assert!(!is_telnet_negotiation(&[IAC])); // truncated
        assert!(!is_telnet_negotiation(&[IAC, 0x01, 0x01])); // not a negotiation verb
        assert!(!is_telnet_negotiation(&[]));
    }
}
