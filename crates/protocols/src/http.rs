//! HTTP/1.x request building, parsing, detection, and the paper's payload
//! normalization.
//!
//! §3.3: payload comparison for HTTP "directly compare\[s\] the full payload
//! after removing ephemeral values (i.e., Date, Host, and Content-Length
//! fields)" — that is [`normalize`].

/// A parsed (or under-construction) HTTP/1.x request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path or absolute URI).
    pub uri: String,
    /// Protocol version token (`HTTP/1.1`).
    pub version: String,
    /// Header name/value pairs in order.
    pub headers: Vec<(String, String)>,
    /// Message body bytes.
    pub body: Vec<u8>,
}

/// Methods we accept when detecting HTTP.
const METHODS: [&str; 9] = [
    "GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH", "CONNECT", "TRACE",
];

impl HttpRequest {
    /// Start a request with no headers or body.
    pub fn new(method: &str, uri: &str) -> Self {
        HttpRequest {
            method: method.to_string(),
            uri: uri.to_string(),
            version: "HTTP/1.1".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Append a header (builder style).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Set the body and a matching `Content-Length` header (builder style).
    pub fn body(mut self, body: &[u8]) -> Self {
        self.headers
            .push(("Content-Length".to_string(), body.len().to_string()));
        self.body = body.to_vec();
        self
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.body.len());
        out.extend_from_slice(
            format!("{} {} {}\r\n", self.method, self.uri, self.version).as_bytes(),
        );
        for (n, v) in &self.headers {
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse wire bytes into a request. Accepts anything with a plausible
    /// request line; unparseable header lines are skipped (scanners send
    /// plenty of malformed requests and we still want to record them).
    pub fn parse(bytes: &[u8]) -> Option<HttpRequest> {
        let head_end = find_subslice(bytes, b"\r\n\r\n");
        let (head, body) = match head_end {
            Some(i) => (&bytes[..i], bytes[i + 4..].to_vec()),
            None => (bytes, Vec::new()),
        };
        let text = String::from_utf8_lossy(head);
        let mut lines = text.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.splitn(3, ' ');
        let method = parts.next()?.to_string();
        let uri = parts.next()?.to_string();
        let version = parts.next().unwrap_or("").to_string();
        if !METHODS.contains(&method.as_str()) || !version.starts_with("HTTP/") {
            return None;
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some((n, v)) = line.split_once(':') {
                headers.push((n.trim().to_string(), v.trim().to_string()));
            }
        }
        Some(HttpRequest {
            method,
            uri,
            version,
            headers,
            body,
        })
    }
}

/// Does this first payload look like an HTTP request? (Request line with a
/// known method and an `HTTP/` version token.)
pub fn looks_like_http(payload: &[u8]) -> bool {
    let line_end = payload
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(payload.len());
    let line = match std::str::from_utf8(&payload[..line_end]) {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut parts = line.split(' ');
    let method_ok = parts.next().map(|m| METHODS.contains(&m)).unwrap_or(false);
    let version_ok = line
        .rsplit(' ')
        .next()
        .map(|v| v.starts_with("HTTP/"))
        .unwrap_or(false);
    method_ok && version_ok
}

/// §3.3 normalization: remove the values of the ephemeral `Date`, `Host`,
/// and `Content-Length` headers so that otherwise-identical requests
/// compare equal across vantage points. Non-HTTP payloads are returned
/// unchanged.
pub fn normalize(payload: &[u8]) -> Vec<u8> {
    let req = match HttpRequest::parse(payload) {
        Some(r) => r,
        None => return payload.to_vec(),
    };
    let mut out = req.clone();
    out.headers = req
        .headers
        .iter()
        .map(|(n, v)| {
            if ["date", "host", "content-length"].contains(&n.to_ascii_lowercase().as_str()) {
                (n.clone(), "*".to_string())
            } else {
                (n.clone(), v.clone())
            }
        })
        .collect();
    out.to_bytes()
}

/// Find the first occurrence of `needle` in `haystack`.
pub(crate) fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse_round_trip() {
        let req = HttpRequest::new("POST", "/login")
            .header("Host", "1.2.3.4")
            .header("User-Agent", "test")
            .body(b"user=admin&pass=admin");
        let bytes = req.to_bytes();
        let parsed = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.uri, "/login");
        assert_eq!(parsed.header_value("host"), Some("1.2.3.4"));
        assert_eq!(parsed.header_value("Content-Length"), Some("21"));
        assert_eq!(parsed.body, b"user=admin&pass=admin");
    }

    #[test]
    fn detection_accepts_http_rejects_others() {
        assert!(looks_like_http(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(looks_like_http(b"POST /cgi-bin/x HTTP/1.0\r\n\r\n"));
        assert!(!looks_like_http(b"OPTIONS rtsp://x RTSP/1.0\r\n\r\n"));
        assert!(!looks_like_http(b"SSH-2.0-OpenSSH\r\n"));
        assert!(!looks_like_http(b"\x16\x03\x01\x00\x05"));
        assert!(!looks_like_http(b""));
        assert!(!looks_like_http(b"NONSENSE / HTTP/1.1\r\n"));
    }

    #[test]
    fn normalization_masks_ephemeral_values() {
        let a = HttpRequest::new("GET", "/")
            .header("Host", "10.0.0.1")
            .header("Date", "Mon, 05 Jul 2021 00:00:00 GMT")
            .header("X-Probe", "abc")
            .to_bytes();
        let b = HttpRequest::new("GET", "/")
            .header("Host", "10.9.9.9")
            .header("Date", "Tue, 06 Jul 2021 11:11:11 GMT")
            .header("X-Probe", "abc")
            .to_bytes();
        assert_ne!(a, b);
        assert_eq!(normalize(&a), normalize(&b));
    }

    #[test]
    fn normalization_preserves_meaningful_differences() {
        let a = HttpRequest::new("GET", "/a").header("Host", "h").to_bytes();
        let b = HttpRequest::new("GET", "/b").header("Host", "h").to_bytes();
        assert_ne!(normalize(&a), normalize(&b));
    }

    #[test]
    fn normalization_passes_non_http_through() {
        let raw = b"\xff\xfd\x01garbage";
        assert_eq!(normalize(raw), raw.to_vec());
    }

    #[test]
    fn parse_tolerates_malformed_headers() {
        let bytes = b"GET /x HTTP/1.1\r\ngood: yes\r\nbroken-line-no-colon\r\n\r\n";
        let req = HttpRequest::parse(bytes).unwrap();
        assert_eq!(req.headers.len(), 1);
        assert_eq!(req.header_value("good"), Some("yes"));
    }

    #[test]
    fn parse_rejects_non_http() {
        assert!(HttpRequest::parse(b"*1\r\n$4\r\nPING\r\n").is_none());
        assert!(HttpRequest::parse(b"").is_none());
    }

    #[test]
    fn find_subslice_works() {
        assert_eq!(find_subslice(b"abcdef", b"cd"), Some(2));
        assert_eq!(find_subslice(b"abcdef", b"xy"), None);
        assert_eq!(find_subslice(b"ab", b"abc"), None);
        assert_eq!(find_subslice(b"abc", b""), None);
    }
}
