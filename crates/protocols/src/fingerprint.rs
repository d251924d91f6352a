//! LZR-style first-payload protocol fingerprinting (§6 methodology).
//!
//! Given the first client payload observed on a connection, identify which
//! of the 13 protocols the client is actually speaking — independent of the
//! destination port. Detectors run in a fixed priority order chosen so that
//! overlapping textual formats (HTTP vs RTSP vs SIP) disambiguate on their
//! version token, exactly as LZR's handshake matchers do.

use crate::id::ProtocolId;
use crate::{adb, fox, http, ntp, rdp, redis, rtsp, sip, smb, sql, ssh, telnet, tls};

/// Identify the protocol of a first payload, or `None` if unrecognized.
/// # Example
///
/// ```
/// use cw_protocols::{fingerprint, ProtocolId};
///
/// // A TLS ClientHello sent to an HTTP port is still TLS.
/// let hello = cw_protocols::tls::build_client_hello(1, None);
/// assert_eq!(fingerprint(&hello), Some(ProtocolId::Tls));
/// assert_eq!(fingerprint(b"GET / HTTP/1.1\r\n\r\n"), Some(ProtocolId::Http));
/// assert_eq!(fingerprint(b"random bytes"), None);
/// ```
pub fn fingerprint(payload: &[u8]) -> Option<ProtocolId> {
    if payload.is_empty() {
        return None;
    }
    for proto in ProtocolId::ALL {
        let hit = match proto {
            ProtocolId::Tls => tls::is_client_hello(payload),
            ProtocolId::Http => http::looks_like_http(payload),
            ProtocolId::Rtsp => rtsp::is_rtsp(payload),
            ProtocolId::Sip => sip::is_sip(payload),
            ProtocolId::Ssh => ssh::is_ssh_banner(payload),
            ProtocolId::Smb => smb::is_smb(payload),
            ProtocolId::Rdp => rdp::is_rdp(payload),
            ProtocolId::Adb => adb::is_adb(payload),
            ProtocolId::Fox => fox::is_fox(payload),
            ProtocolId::Redis => redis::is_redis(payload),
            ProtocolId::Sql => sql::is_sql(payload),
            ProtocolId::Ntp => ntp::is_ntp(payload),
            ProtocolId::Telnet => telnet::is_telnet_negotiation(payload),
        };
        if hit {
            return Some(proto);
        }
    }
    None
}

/// Was the payload's fingerprinted protocol different from the port's
/// IANA-assigned protocol? (`None` when either side is unknown.)
pub fn is_unexpected(payload: &[u8], port: u16) -> Option<bool> {
    let actual = fingerprint(payload)?;
    let assigned = crate::iana::assigned_protocol(port)?;
    Some(actual != assigned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One canonical payload per protocol.
    fn samples() -> Vec<(ProtocolId, Vec<u8>)> {
        vec![
            (
                ProtocolId::Http,
                http::HttpRequest::new("GET", "/")
                    .header("Host", "x")
                    .to_bytes(),
            ),
            (ProtocolId::Tls, tls::build_client_hello(1, Some("h"))),
            (ProtocolId::Ssh, ssh::build_banner("OpenSSH_8.9")),
            (ProtocolId::Telnet, telnet::build_negotiation(&[1, 3])),
            (ProtocolId::Smb, smb::build_negotiate()),
            (
                ProtocolId::Rtsp,
                rtsp::build_request("OPTIONS", "rtsp://10.0.0.1/"),
            ),
            (ProtocolId::Sip, sip::build_options("100@10.0.0.1")),
            (ProtocolId::Ntp, ntp::build_client_request()),
            (ProtocolId::Rdp, rdp::build_connection_request("hello")),
            (ProtocolId::Adb, adb::build_connect()),
            (ProtocolId::Fox, fox::build_hello()),
            (ProtocolId::Redis, redis::build_command(&["INFO"])),
            (ProtocolId::Sql, sql::build_prelogin()),
        ]
    }

    #[test]
    fn every_protocol_fingerprints_to_itself() {
        for (expect, payload) in samples() {
            assert_eq!(
                fingerprint(&payload),
                Some(expect),
                "payload for {expect} misidentified"
            );
        }
    }

    #[test]
    fn garbage_is_unidentified() {
        assert_eq!(fingerprint(b""), None);
        assert_eq!(fingerprint(b"\x00\x01\x02\x03"), None);
        assert_eq!(fingerprint(b"hello world"), None);
    }

    #[test]
    fn unexpected_protocol_on_http_port() {
        let tls = tls::build_client_hello(2, None);
        assert_eq!(is_unexpected(&tls, 80), Some(true));
        let http = http::HttpRequest::new("GET", "/").to_bytes();
        assert_eq!(is_unexpected(&http, 80), Some(false));
        assert_eq!(is_unexpected(&http, 12345), None); // unassigned port
        assert_eq!(is_unexpected(b"garbage", 80), None); // unknown protocol
    }

    #[test]
    fn truncated_payloads_never_panic() {
        for (_, payload) in samples() {
            for cut in 0..payload.len().min(64) {
                let _ = fingerprint(&payload[..cut]);
            }
        }
    }
}
