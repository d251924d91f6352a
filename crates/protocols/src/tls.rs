//! Minimal TLS: building and recognizing ClientHello first payloads.
//!
//! §6 finds that 7% of scanners hitting HTTP-assigned ports actually speak
//! TLS — their first payload is a ClientHello record. We build a real,
//! structurally-valid ClientHello (record layer + handshake + optional SNI)
//! and detect one the way LZR does.

/// Build a minimal TLS 1.2 ClientHello with a deterministic `random` field
/// and an optional SNI host name.
pub fn build_client_hello(seed: u64, sni: Option<&str>) -> Vec<u8> {
    // client_random: deterministic from seed.
    let mut random = [0u8; 32];
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for chunk in random.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for (i, b) in chunk.iter_mut().enumerate() {
            *b = (x >> (8 * i)) as u8;
        }
    }

    // Extensions.
    let mut extensions = Vec::new();
    if let Some(host) = sni {
        let name = host.as_bytes();
        // server_name extension (type 0).
        let mut ext = Vec::new();
        ext.extend_from_slice(&[0x00, 0x00]); // extension type
        let list_len = name.len() + 3;
        let ext_len = list_len + 2;
        ext.extend_from_slice(&(ext_len as u16).to_be_bytes());
        ext.extend_from_slice(&(list_len as u16).to_be_bytes());
        ext.push(0x00); // host_name type
        ext.extend_from_slice(&(name.len() as u16).to_be_bytes());
        ext.extend_from_slice(name);
        extensions.extend_from_slice(&ext);
    }

    // Handshake body.
    let cipher_suites: [u8; 8] = [0x13, 0x01, 0x13, 0x02, 0xC0, 0x2F, 0x00, 0x9C];
    let mut body = Vec::new();
    body.extend_from_slice(&[0x03, 0x03]); // client_version TLS 1.2
    body.extend_from_slice(&random);
    body.push(0x00); // session_id length
    body.extend_from_slice(&(cipher_suites.len() as u16).to_be_bytes());
    body.extend_from_slice(&cipher_suites);
    body.push(0x01); // compression methods length
    body.push(0x00); // null compression
    body.extend_from_slice(&(extensions.len() as u16).to_be_bytes());
    body.extend_from_slice(&extensions);

    // Handshake header: type 1 (ClientHello) + 24-bit length.
    let mut handshake = Vec::with_capacity(body.len() + 4);
    handshake.push(0x01);
    let len = body.len() as u32;
    handshake.extend_from_slice(&[(len >> 16) as u8, (len >> 8) as u8, len as u8]);
    handshake.extend_from_slice(&body);

    // Record layer: content type 22 (handshake), version 3.1.
    let mut record = Vec::with_capacity(handshake.len() + 5);
    record.push(0x16);
    record.extend_from_slice(&[0x03, 0x01]);
    record.extend_from_slice(&(handshake.len() as u16).to_be_bytes());
    record.extend_from_slice(&handshake);
    record
}

/// Does this first payload look like a TLS ClientHello?
pub fn is_client_hello(payload: &[u8]) -> bool {
    payload.len() >= 6
        && payload[0] == 0x16        // handshake record
        && payload[1] == 0x03        // SSL3/TLS major version
        && payload[2] <= 0x04        // minor version 0..4
        && payload[5] == 0x01 // ClientHello handshake type
}

/// Extract the SNI host name from a ClientHello, if present.
pub fn extract_sni(payload: &[u8]) -> Option<String> {
    if !is_client_hello(payload) {
        return None;
    }
    // Walk: record(5) + hs type(1) + hs len(3) + version(2) + random(32).
    let mut i = 5 + 4 + 2 + 32;
    let sid_len = *payload.get(i)? as usize;
    i += 1 + sid_len;
    let cs_len = u16::from_be_bytes([*payload.get(i)?, *payload.get(i + 1)?]) as usize;
    i += 2 + cs_len;
    let comp_len = *payload.get(i)? as usize;
    i += 1 + comp_len;
    let ext_total = u16::from_be_bytes([*payload.get(i)?, *payload.get(i + 1)?]) as usize;
    i += 2;
    let end = i + ext_total;
    while i + 4 <= end.min(payload.len()) {
        let ext_type = u16::from_be_bytes([payload[i], payload[i + 1]]);
        let ext_len = u16::from_be_bytes([payload[i + 2], payload[i + 3]]) as usize;
        i += 4;
        if ext_type == 0 && ext_len >= 5 {
            // server_name_list: skip list length (2) + name type (1).
            let name_len =
                u16::from_be_bytes([*payload.get(i + 3)?, *payload.get(i + 4)?]) as usize;
            let name = payload.get(i + 5..i + 5 + name_len)?;
            return String::from_utf8(name.to_vec()).ok();
        }
        i += ext_len;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_hello_is_detected() {
        let hello = build_client_hello(1, None);
        assert!(is_client_hello(&hello));
    }

    #[test]
    fn sni_round_trips() {
        let hello = build_client_hello(2, Some("victim.example"));
        assert!(is_client_hello(&hello));
        assert_eq!(extract_sni(&hello).as_deref(), Some("victim.example"));
    }

    #[test]
    fn no_sni_extracts_none() {
        let hello = build_client_hello(3, None);
        assert_eq!(extract_sni(&hello), None);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(build_client_hello(7, None), build_client_hello(7, None));
        assert_ne!(build_client_hello(7, None), build_client_hello(8, None));
    }

    #[test]
    fn detection_rejects_non_tls() {
        assert!(!is_client_hello(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!is_client_hello(b"SSH-2.0-x\r\n"));
        assert!(!is_client_hello(&[0x16, 0x03]));
        // Handshake record but ServerHello (type 2) — not a client payload.
        assert!(!is_client_hello(&[
            0x16, 0x03, 0x03, 0x00, 0x05, 0x02, 0, 0, 0, 0
        ]));
    }

    #[test]
    fn extract_sni_never_panics_on_truncation() {
        let hello = build_client_hello(4, Some("a.b"));
        for cut in 0..hello.len() {
            let _ = extract_sni(&hello[..cut]);
        }
    }
}
