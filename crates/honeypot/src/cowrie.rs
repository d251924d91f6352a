//! A Cowrie-style interactive SSH/Telnet honeypot session.
//!
//! GreyNoise "uses Cowrie, an interactive honeypot, to collect SSH (ports
//! 22, 2222) and Telnet (23, 2323) attempted login credentials" (§3.1).
//! This module implements the server side of that interaction as a real
//! state machine over bytes: the Telnet dialect negotiates options and
//! prompts `login:` / `Password:`; the SSH dialect exchanges version
//! banners and accepts a simplified cleartext userauth line (full SSH
//! key exchange is out of scope — the observable artifact, harvested
//! credentials, is identical; see DESIGN.md §2).
//!
//! Credentials always fail (low interaction): the attacker is told
//! `Login incorrect` and the attempt is logged.
//!
//! The server's side of the dialogue is fixed text, so [`Session::feed`]
//! answers with static bytes, and [`harvest`] allocates only the two
//! credential strings it returns.

use cw_netsim::flow::{LoginService, SSH_CLIENT_BANNER};
use std::borrow::Cow;

/// The SSH server banner Cowrie presents.
const SSH_GREETING: &[u8] = b"SSH-2.0-OpenSSH_7.4p1 Debian-10\r\n";

/// IAC WILL ECHO, IAC WILL SGA, then the login prompt.
const TELNET_GREETING: &[u8] = b"\xff\xfb\x01\xff\xfb\x03\r\nlogin: ";

/// IAC DO ECHO, IAC DO SGA: a Telnet client's opening negotiation.
const TELNET_CLIENT_OPENING: &[u8] = &[0xFF, 0xFD, 0x01, 0xFF, 0xFD, 0x03];

/// Session state of a Cowrie service instance.
#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    /// Waiting for the client to open (SSH: client banner; Telnet: anything).
    Greeting,
    /// Prompted for username, awaiting it.
    WantUser,
    /// Prompted for password, awaiting it.
    WantPassword { username: String },
    /// Attempt recorded; session refused further auth.
    Done,
}

/// A harvested credential pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    /// Attempted username.
    pub username: String,
    /// Attempted password.
    pub password: String,
}

/// One interactive honeypot session.
#[derive(Debug, Clone)]
pub struct Session {
    service: LoginService,
    state: State,
    harvested: Option<Credential>,
}

impl Session {
    /// Open a session for the given service dialect.
    pub fn new(service: LoginService) -> Self {
        Session {
            service,
            state: State::Greeting,
            harvested: None,
        }
    }

    /// The bytes the server sends immediately on accept (Telnet is
    /// server-first; SSH sends its banner right away too).
    pub fn server_greeting(&self) -> &'static [u8] {
        match self.service {
            LoginService::Ssh => SSH_GREETING,
            LoginService::Telnet => TELNET_GREETING,
        }
    }

    /// Feed one client message; returns the server's reply bytes.
    pub fn feed(&mut self, client: &[u8]) -> &'static [u8] {
        let line = strip_line(client);
        match std::mem::replace(&mut self.state, State::Done) {
            State::Greeting => match self.service {
                LoginService::Ssh => {
                    // Expect the client version banner, then ask for auth.
                    if line.starts_with("SSH-") {
                        self.state = State::WantUser;
                        b"auth: username? "
                    } else {
                        self.state = State::Greeting;
                        b"Protocol mismatch.\r\n"
                    }
                }
                LoginService::Telnet => {
                    // Telnet clients open with IAC negotiation; swallow it
                    // and (re-)prompt. If the client jumped straight to a
                    // username, accept it.
                    if client.first() == Some(&0xFF) {
                        self.state = State::WantUser;
                        b"login: "
                    } else if !line.is_empty() {
                        self.state = State::WantPassword {
                            username: line.into_owned(),
                        };
                        b"Password: "
                    } else {
                        self.state = State::WantUser;
                        b"login: "
                    }
                }
            },
            State::WantUser => {
                if line.is_empty() {
                    self.state = State::WantUser;
                    return match self.service {
                        LoginService::Ssh => b"auth: username? ",
                        LoginService::Telnet => b"login: ",
                    };
                }
                self.state = State::WantPassword {
                    username: line.into_owned(),
                };
                b"Password: "
            }
            State::WantPassword { username } => {
                self.harvested = Some(Credential {
                    username,
                    password: line.into_owned(),
                });
                self.state = State::Done;
                b"Login incorrect\r\n"
            }
            State::Done => b"Connection closed.\r\n",
        }
    }

    /// The harvested credential, once the dialogue completed.
    pub fn harvested(&self) -> Option<&Credential> {
        self.harvested.as_ref()
    }
}

/// The first message a scanning client sends: its version banner (SSH) or
/// its option negotiation (Telnet).
fn client_opening(service: LoginService) -> &'static [u8] {
    match service {
        LoginService::Ssh => SSH_CLIENT_BANNER,
        LoginService::Telnet => TELNET_CLIENT_OPENING,
    }
}

/// The messages a typical scanning client sends for one login attempt, in
/// order. Driving [`Session::feed`] with these reproduces the harvest.
pub fn client_script(service: LoginService, username: &str, password: &str) -> Vec<Vec<u8>> {
    vec![
        client_opening(service).to_vec(),
        format!("{username}\r\n").into_bytes(),
        format!("{password}\r\n").into_bytes(),
    ]
}

/// Run a complete scripted login attempt against a fresh session and return
/// the harvested credential. This is what the GreyNoise sensor does per
/// incoming login flow.
/// # Example
///
/// ```
/// use cw_honeypot::cowrie::harvest;
/// use cw_netsim::flow::LoginService;
///
/// let cred = harvest(LoginService::Telnet, "root", "xc3511").unwrap();
/// assert_eq!(cred.username, "root");
/// assert_eq!(cred.password, "xc3511");
/// ```
pub fn harvest(service: LoginService, username: &str, password: &str) -> Option<Credential> {
    let mut session = Session::new(service);
    session.feed(client_opening(service));
    // The credential lines of `client_script` without their "\r\n":
    // `strip_line` trims line endings, so the session reads the same lines
    // with nothing built per message.
    session.feed(username.as_bytes());
    session.feed(password.as_bytes());
    session.harvested
}

/// Strip telnet IAC sequences and line endings, yielding the textual line.
/// Borrows from `bytes` when they are valid UTF-8 (which never holds an
/// IAC byte, 0xFF).
fn strip_line(bytes: &[u8]) -> Cow<'_, str> {
    fn trim(s: &str) -> &str {
        s.trim_end_matches(['\r', '\n'])
            .trim_start_matches(['\r', '\n'])
    }
    if let Ok(text) = std::str::from_utf8(bytes) {
        return Cow::Borrowed(trim(text));
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == 0xFF && i + 2 < bytes.len() {
            i += 3; // IAC verb option
        } else if bytes[i] == 0xFF {
            break; // truncated IAC
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Cow::Owned(trim(&String::from_utf8_lossy(&out)).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssh_dialogue_harvests_credentials() {
        let c = harvest(LoginService::Ssh, "root", "123456").unwrap();
        assert_eq!(c.username, "root");
        assert_eq!(c.password, "123456");
    }

    #[test]
    fn telnet_dialogue_harvests_credentials() {
        let c = harvest(LoginService::Telnet, "admin", "e8ehome").unwrap();
        assert_eq!(c.username, "admin");
        assert_eq!(c.password, "e8ehome");
    }

    #[test]
    fn login_always_fails() {
        let mut s = Session::new(LoginService::Telnet);
        let mut last: &[u8] = b"";
        for msg in client_script(LoginService::Telnet, "root", "root") {
            last = s.feed(&msg);
        }
        assert_eq!(last, b"Login incorrect\r\n");
    }

    #[test]
    fn ssh_greeting_is_a_banner() {
        let s = Session::new(LoginService::Ssh);
        assert!(s.server_greeting().starts_with(b"SSH-2.0-"));
    }

    #[test]
    fn telnet_greeting_negotiates_and_prompts() {
        let s = Session::new(LoginService::Telnet);
        let g = s.server_greeting();
        assert_eq!(&g[..3], &[0xFF, 0xFB, 0x01]);
        assert!(g.ends_with(b"login: "));
    }

    #[test]
    fn ssh_protocol_mismatch_is_tolerated() {
        let mut s = Session::new(LoginService::Ssh);
        let reply = s.feed(b"GET / HTTP/1.1\r\n");
        assert_eq!(reply, b"Protocol mismatch.\r\n");
        assert!(s.harvested().is_none());
        // A proper client can still proceed afterwards.
        s.feed(b"SSH-2.0-x\r\n");
        s.feed(b"user\r\n");
        s.feed(b"pass\r\n");
        assert!(s.harvested().is_some());
    }

    #[test]
    fn empty_username_reprompts() {
        let mut s = Session::new(LoginService::Telnet);
        s.feed(&[0xFF, 0xFD, 0x01]);
        let reply = s.feed(b"\r\n");
        assert_eq!(reply, b"login: ");
        s.feed(b"root\r\n");
        s.feed(b"toor\r\n");
        let c = s.harvested().unwrap();
        assert_eq!(c.username, "root");
        assert_eq!(c.password, "toor");
    }

    #[test]
    fn strip_line_removes_iac_and_crlf() {
        assert_eq!(strip_line(b"\xFF\xFD\x01root\r\n"), "root");
        assert_eq!(strip_line(b"plain"), "plain");
        assert_eq!(strip_line(&[0xFF]), "");
    }

    #[test]
    fn done_session_rejects_more_input() {
        let mut s = Session::new(LoginService::Ssh);
        for msg in client_script(LoginService::Ssh, "a", "b") {
            s.feed(&msg);
        }
        assert_eq!(s.feed(b"more\r\n"), b"Connection closed.\r\n");
        // Harvest unchanged.
        assert_eq!(s.harvested().unwrap().username, "a");
    }
}
