//! SIP (RFC 3261): OPTIONS probes as sent by VoIP scanners (sipvicious).

/// Build a SIP OPTIONS request.
pub fn build_options(target: &str) -> Vec<u8> {
    format!("OPTIONS sip:{target} SIP/2.0\r\nVia: SIP/2.0/TCP scanner\r\nMax-Forwards: 70\r\n\r\n")
        .into_bytes()
}

/// Does this first payload look like a SIP request?
pub fn is_sip(payload: &[u8]) -> bool {
    let line_end = payload
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(payload.len());
    match std::str::from_utf8(&payload[..line_end]) {
        Ok(line) => line.ends_with("SIP/2.0") && line.split(' ').count() >= 3,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        assert!(is_sip(&build_options("100@10.0.0.1")));
    }

    #[test]
    fn rejects_http_and_rtsp() {
        assert!(!is_sip(b"GET / HTTP/1.1\r\n"));
        assert!(!is_sip(b"OPTIONS rtsp://x RTSP/1.0\r\n"));
    }
}
