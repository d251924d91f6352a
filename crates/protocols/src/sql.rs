//! SQL: a TDS PRELOGIN packet (MSSQL), the client-first SQL probe LZR uses.

/// Build a minimal TDS PRELOGIN packet.
pub fn build_prelogin() -> Vec<u8> {
    // Option: VERSION (token 0, offset 6, length 6) + terminator 0xFF,
    // then 6 bytes of version data.
    let body: [u8; 12] = [
        0x00, 0x00, 0x06, 0x00, 0x06, 0xFF, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
    ];
    let total = 8 + body.len();
    let mut p = Vec::with_capacity(total);
    p.push(0x12); // type: PRELOGIN
    p.push(0x01); // status: EOM
    p.extend_from_slice(&(total as u16).to_be_bytes());
    p.extend_from_slice(&[0x00, 0x00]); // SPID
    p.push(0x00); // packet id
    p.push(0x00); // window
    p.extend_from_slice(&body);
    p
}

/// Does this first payload look like a TDS PRELOGIN?
pub fn is_sql(payload: &[u8]) -> bool {
    payload.len() >= 8 && payload[0] == 0x12 && payload[1] == 0x01
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let p = build_prelogin();
        assert!(is_sql(&p));
        let len = u16::from_be_bytes([p[2], p[3]]) as usize;
        assert_eq!(len, p.len());
    }

    #[test]
    fn rejects_others() {
        assert!(!is_sql(&[0x12, 0x01])); // truncated
        assert!(!is_sql(b"GET / HTTP/1.1"));
    }
}
