//! Parser for the textual rule language.
//!
//! Grammar (one rule per line):
//!
//! ```text
//! alert <proto> any any -> any <ports> ( <option>; <option>; ... )
//! ```
//!
//! where `<proto>` is `tcp` or `http`, `<ports>` is `any`, a port, or
//! `[p1,p2,…]`, and options are `msg:"…"`, `content:"…"` (with `|hex|`
//! spans), `nocase`, `offset:n`, `depth:n`, `distance:n`, `within:n`,
//! `pcre:"/…/flags"`, `classtype:…`, `sid:n`. Unknown options are rejected —
//! the ruleset ships with the crate, so strictness catches typos at test
//! time rather than silently weakening detection.

use crate::pcre::PcreLite;
use crate::rule::{ClassType, ContentMatch, PortSpec, Rule, RuleProtocol};

/// Rule parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The rule header (before the options) is malformed.
    BadHeader(String),
    /// An option is malformed or unknown.
    BadOption(String),
    /// A required option is missing.
    Missing(&'static str),
    /// A `content:` string has invalid hex between pipes.
    BadHex(String),
    /// The pcre pattern failed to compile.
    BadPcre(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad rule header: {s}"),
            ParseError::BadOption(s) => write!(f, "bad option: {s}"),
            ParseError::Missing(s) => write!(f, "missing required option: {s}"),
            ParseError::BadHex(s) => write!(f, "bad hex content: {s}"),
            ParseError::BadPcre(s) => write!(f, "bad pcre: {s}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse one rule line.
pub fn parse_rule(line: &str) -> Result<Rule, ParseError> {
    let line = line.trim();
    let open = line
        .find('(')
        .ok_or_else(|| ParseError::BadHeader(line.to_string()))?;
    let close = line
        .rfind(')')
        .ok_or_else(|| ParseError::BadHeader(line.to_string()))?;
    if close <= open {
        return Err(ParseError::BadHeader(line.to_string()));
    }
    let header = &line[..open];
    let body = &line[open + 1..close];

    // Header: alert <proto> any any -> any <ports>
    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() != 7 || tokens[0] != "alert" || tokens[4] != "->" {
        return Err(ParseError::BadHeader(header.to_string()));
    }
    let protocol = match tokens[1] {
        "tcp" => RuleProtocol::Tcp,
        "http" => RuleProtocol::Http,
        other => return Err(ParseError::BadHeader(format!("protocol '{other}'"))),
    };
    let dst_ports = parse_ports(tokens[6])?;

    // Options: split on ';' at top level (quoted strings may contain ';').
    let mut msg = None;
    let mut sid = None;
    let mut classtype = None;
    let mut contents: Vec<ContentMatch> = Vec::new();
    let mut pcre = None;

    for raw in split_options(body) {
        let opt = raw.trim();
        if opt.is_empty() {
            continue;
        }
        let (key, value) = match opt.split_once(':') {
            Some((k, v)) => (k.trim(), Some(v.trim())),
            None => (opt, None),
        };
        match key {
            "msg" => msg = Some(unquote(value.ok_or_else(|| missing_val(opt))?)?),
            "sid" => {
                sid = Some(
                    value
                        .ok_or_else(|| missing_val(opt))?
                        .parse::<u32>()
                        .map_err(|_| ParseError::BadOption(opt.to_string()))?,
                )
            }
            "classtype" => {
                let token = value.ok_or_else(|| missing_val(opt))?;
                classtype = Some(
                    ClassType::from_token(token)
                        .ok_or_else(|| ParseError::BadOption(opt.to_string()))?,
                );
            }
            "content" => {
                let s = unquote(value.ok_or_else(|| missing_val(opt))?)?;
                contents.push(ContentMatch::plain(&decode_content(&s)?));
            }
            "nocase" => last_content(&mut contents, opt)?.nocase = true,
            "offset" => last_content(&mut contents, opt)?.offset = Some(parse_usize(opt, value)?),
            "depth" => last_content(&mut contents, opt)?.depth = Some(parse_usize(opt, value)?),
            "distance" => {
                last_content(&mut contents, opt)?.distance = Some(parse_usize(opt, value)?)
            }
            "within" => last_content(&mut contents, opt)?.within = Some(parse_usize(opt, value)?),
            "pcre" => {
                let s = unquote(value.ok_or_else(|| missing_val(opt))?)?;
                pcre = Some(PcreLite::compile(&s).map_err(|e| ParseError::BadPcre(e.to_string()))?);
            }
            other => return Err(ParseError::BadOption(other.to_string())),
        }
    }

    Ok(Rule {
        protocol,
        dst_ports,
        msg: msg.ok_or(ParseError::Missing("msg"))?,
        sid: sid.ok_or(ParseError::Missing("sid"))?,
        classtype: classtype.ok_or(ParseError::Missing("classtype"))?,
        contents,
        pcre,
    })
}

fn missing_val(opt: &str) -> ParseError {
    ParseError::BadOption(format!("{opt}: missing value"))
}

fn parse_usize(opt: &str, value: Option<&str>) -> Result<usize, ParseError> {
    value
        .ok_or_else(|| missing_val(opt))?
        .parse::<usize>()
        .map_err(|_| ParseError::BadOption(opt.to_string()))
}

fn last_content<'a>(
    contents: &'a mut [ContentMatch],
    opt: &str,
) -> Result<&'a mut ContentMatch, ParseError> {
    contents
        .last_mut()
        .ok_or_else(|| ParseError::BadOption(format!("{opt} before any content")))
}

fn parse_ports(spec: &str) -> Result<PortSpec, ParseError> {
    if spec == "any" {
        return Ok(PortSpec::Any);
    }
    let inner = spec
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .unwrap_or(spec);
    let mut ports = Vec::new();
    for p in inner.split(',') {
        ports.push(
            p.trim()
                .parse::<u16>()
                .map_err(|_| ParseError::BadHeader(format!("port '{p}'")))?,
        );
    }
    if ports.is_empty() {
        return Err(ParseError::BadHeader(spec.to_string()));
    }
    Ok(PortSpec::List(ports))
}

/// Split the option body on `;`, respecting double-quoted strings.
fn split_options(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_quotes = !in_quotes;
            }
            ';' if !in_quotes => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Strip surrounding double quotes, resolving `\"` and `\\` escapes.
fn unquote(s: &str) -> Result<String, ParseError> {
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| ParseError::BadOption(format!("expected quoted string: {s}")))?;
    let mut out = String::with_capacity(inner.len());
    let mut escaped = false;
    for c in inner.chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Decode a Suricata content string: text with `|DE AD BE EF|` hex spans.
fn decode_content(s: &str) -> Result<Vec<u8>, ParseError> {
    let mut out = Vec::with_capacity(s.len());
    let mut rest = s;
    let mut in_hex = false;
    while let Some(pipe) = rest.find('|') {
        let (chunk, after) = rest.split_at(pipe);
        if in_hex {
            for tok in chunk.split_whitespace() {
                out.push(
                    u8::from_str_radix(tok, 16).map_err(|_| ParseError::BadHex(s.to_string()))?,
                );
            }
        } else {
            out.extend_from_slice(chunk.as_bytes());
        }
        in_hex = !in_hex;
        rest = &after[1..];
    }
    if in_hex {
        return Err(ParseError::BadHex(s.to_string()));
    }
    out.extend_from_slice(rest.as_bytes());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rule_round_trip() {
        let r = parse_rule(
            r#"alert http any any -> any [80,8080] (msg:"Log4Shell jndi probe"; content:"${jndi:"; nocase; classtype:web-application-attack; sid:2021001;)"#,
        )
        .unwrap();
        assert_eq!(r.protocol, RuleProtocol::Http);
        assert_eq!(r.dst_ports, PortSpec::List(vec![80, 8080]));
        assert_eq!(r.msg, "Log4Shell jndi probe");
        assert_eq!(r.sid, 2_021_001);
        assert_eq!(r.classtype, ClassType::WebApplicationAttack);
        assert_eq!(r.contents.len(), 1);
        assert!(r.contents[0].nocase);
        assert_eq!(r.contents[0].pattern, b"${jndi:".to_vec());
    }

    #[test]
    fn hex_content_spans() {
        let r = parse_rule(
            r#"alert tcp any any -> any any (msg:"smb magic"; content:"|ff|SMB"; classtype:misc-activity; sid:7;)"#,
        )
        .unwrap();
        assert_eq!(r.contents[0].pattern, b"\xffSMB".to_vec());
    }

    #[test]
    fn modifiers_attach_to_preceding_content() {
        let r = parse_rule(
            r#"alert tcp any any -> any any (msg:"seq"; content:"POST"; offset:0; depth:4; content:"cmd="; distance:0; within:100; classtype:attempted-admin; sid:9;)"#,
        )
        .unwrap();
        assert_eq!(r.contents[0].offset, Some(0));
        assert_eq!(r.contents[0].depth, Some(4));
        assert_eq!(r.contents[1].distance, Some(0));
        assert_eq!(r.contents[1].within, Some(100));
    }

    #[test]
    fn pcre_option() {
        let r = parse_rule(
            r#"alert tcp any any -> any any (msg:"dl"; pcre:"/wget.*\.sh/i"; classtype:trojan-activity; sid:3;)"#,
        )
        .unwrap();
        assert!(r.pcre.unwrap().is_match(b"WGET http://x/a.sh"));
    }

    #[test]
    fn quoted_semicolon_inside_content() {
        let r = parse_rule(
            r#"alert tcp any any -> any any (msg:"shell"; content:";wget"; classtype:trojan-activity; sid:4;)"#,
        )
        .unwrap();
        assert_eq!(r.contents[0].pattern, b";wget".to_vec());
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse_rule("not a rule"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_rule(
                r#"alert udp any any -> any any (msg:"x"; sid:1; classtype:misc-activity;)"#
            ),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_rule(r#"alert tcp any any -> any any (msg:"x"; classtype:misc-activity;)"#),
            Err(ParseError::Missing("sid"))
        ));
        assert!(matches!(
            parse_rule(r#"alert tcp any any -> any any (msg:"x"; sid:1; classtype:bogus;)"#),
            Err(ParseError::BadOption(_))
        ));
        assert!(matches!(
            parse_rule(
                r#"alert tcp any any -> any any (msg:"x"; sid:1; classtype:misc-activity; nocase;)"#
            ),
            Err(ParseError::BadOption(_))
        ));
        assert!(matches!(
            parse_rule(
                r#"alert tcp any any -> any any (msg:"x"; content:"|zz|"; sid:1; classtype:misc-activity;)"#
            ),
            Err(ParseError::BadHex(_))
        ));
    }

    #[test]
    fn single_port_without_brackets() {
        let r = parse_rule(
            r#"alert tcp any any -> any 6379 (msg:"redis"; content:"CONFIG"; classtype:protocol-command-decode; sid:5;)"#,
        )
        .unwrap();
        assert_eq!(r.dst_ports, PortSpec::List(vec![6379]));
    }
}
