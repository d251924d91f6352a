//! RDP: TPKT-framed X.224 Connection Request with the `mstshash` cookie.

/// Build an RDP connection request for the given cookie user.
pub fn build_connection_request(user: &str) -> Vec<u8> {
    let cookie = format!("Cookie: mstshash={user}\r\n");
    let x224_len = 6 + cookie.len(); // LI + CR fields + cookie
    let total = 4 + 1 + x224_len; // TPKT header + LI byte + body
    let mut p = Vec::with_capacity(total);
    p.extend_from_slice(&[0x03, 0x00]); // TPKT version 3, reserved
    p.extend_from_slice(&(total as u16).to_be_bytes());
    p.push(x224_len as u8); // X.224 length indicator
    p.push(0xE0); // CR — connection request
    p.extend_from_slice(&[0x00, 0x00, 0x00, 0x00, 0x00]); // dst/src ref, class
    p.extend_from_slice(cookie.as_bytes());
    p
}

/// Does this first payload look like an RDP connection request?
pub fn is_rdp(payload: &[u8]) -> bool {
    payload.len() >= 7 && payload[0] == 0x03 && payload[1] == 0x00 && payload[5] == 0xE0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let p = build_connection_request("admin");
        assert!(is_rdp(&p));
        // TPKT length field equals total length.
        let len = u16::from_be_bytes([p[2], p[3]]) as usize;
        assert_eq!(len, p.len());
    }

    #[test]
    fn rejects_others() {
        assert!(!is_rdp(b"GET / HTTP/1.1"));
        assert!(!is_rdp(&[0x03, 0x00, 0x00])); // truncated
                                               // TPKT but not a connection request.
        assert!(!is_rdp(&[0x03, 0x00, 0x00, 0x08, 0x02, 0xF0, 0x80]));
    }
}
