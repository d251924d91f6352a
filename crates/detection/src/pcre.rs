//! A restricted regex engine for rule `pcre:` options.
//!
//! Supported syntax (enough for the vetted ruleset, nothing more):
//! literal bytes, `.` (any byte), `[...]` character classes (ranges,
//! escapes, `^` negation), `*` (zero-or-more of previous atom), `+`
//! (one-or-more), `?` (optional), `\` escapes, `^`/`$` anchors at the
//! pattern edges, and the `i` flag (case-insensitive). A `^` or `$`
//! anywhere but its edge is a literal byte. Matching is unanchored
//! substring search unless `^` anchors it.
//!
//! Patterns are trusted (they ship with the crate), inputs are not:
//! sequential quantifiers make backtracking polynomial rather than
//! exponential, but a hostile input can still drive it superlinear, so
//! every match runs under a step budget. [`PcreLite::is_match`] treats
//! budget exhaustion as no-match; [`PcreLite::is_match_bounded`] exposes
//! it as `None` for callers that must distinguish.

/// A compiled restricted-PCRE pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcreLite {
    atoms: Vec<(Atom, Repeat)>,
    nocase: bool,
    anchor_start: bool,
    anchor_end: bool,
    source: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Atom {
    Literal(u8),
    Any,
    /// 256-bit membership bitmap (negation folded in at compile time).
    Class([u64; 4]),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repeat {
    One,
    ZeroOrMore,
    OneOrMore,
    ZeroOrOne,
}

/// Errors from pattern compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcreError {
    /// `/pattern/flags` framing missing.
    BadFraming,
    /// Unknown flag character.
    UnknownFlag(char),
    /// Quantifier with nothing to repeat.
    DanglingQuantifier,
    /// Trailing backslash.
    TrailingEscape,
    /// `[` without a closing `]`.
    UnclosedClass,
    /// Class range with its ends reversed (e.g. `[z-a]`).
    BadClassRange,
}

impl std::fmt::Display for PcreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcreError::BadFraming => write!(f, "pattern must be framed as /pattern/flags"),
            PcreError::UnknownFlag(c) => write!(f, "unknown flag '{c}'"),
            PcreError::DanglingQuantifier => write!(f, "quantifier with nothing to repeat"),
            PcreError::TrailingEscape => write!(f, "trailing backslash"),
            PcreError::UnclosedClass => write!(f, "character class missing ']'"),
            PcreError::BadClassRange => write!(f, "character class range is reversed"),
        }
    }
}

impl std::error::Error for PcreError {}

impl PcreLite {
    /// Compile a `/pattern/flags` string.
    pub fn compile(framed: &str) -> Result<PcreLite, PcreError> {
        let inner = framed.strip_prefix('/').ok_or(PcreError::BadFraming)?;
        let slash = inner.rfind('/').ok_or(PcreError::BadFraming)?;
        let (pattern, flags) = inner.split_at(slash);
        let flags = &flags[1..];
        let mut nocase = false;
        for c in flags.chars() {
            match c {
                'i' => nocase = true,
                's' => {} // `.` already matches everything, incl. newline
                other => return Err(PcreError::UnknownFlag(other)),
            }
        }

        let bytes = pattern.as_bytes();
        let anchor_start = bytes.first() == Some(&b'^');
        let mut atoms: Vec<(Atom, Repeat)> = Vec::new();
        let mut anchor_end = false;
        let mut i = usize::from(anchor_start);
        while i < bytes.len() {
            match bytes[i] {
                b'$' if i + 1 == bytes.len() => {
                    anchor_end = true;
                    i += 1;
                }
                b'\\' => {
                    let next = *bytes.get(i + 1).ok_or(PcreError::TrailingEscape)?;
                    atoms.push((Atom::Literal(unescape(next)), Repeat::One));
                    i += 2;
                }
                b'.' => {
                    atoms.push((Atom::Any, Repeat::One));
                    i += 1;
                }
                b'[' => {
                    let (set, after) = parse_class(bytes, i + 1, nocase)?;
                    atoms.push((Atom::Class(set), Repeat::One));
                    i = after;
                }
                q @ (b'*' | b'+' | b'?') => {
                    let last = atoms.last_mut().ok_or(PcreError::DanglingQuantifier)?;
                    if last.1 != Repeat::One {
                        return Err(PcreError::DanglingQuantifier);
                    }
                    last.1 = match q {
                        b'*' => Repeat::ZeroOrMore,
                        b'+' => Repeat::OneOrMore,
                        _ => Repeat::ZeroOrOne,
                    };
                    i += 1;
                }
                lit => {
                    atoms.push((Atom::Literal(lit), Repeat::One));
                    i += 1;
                }
            }
        }
        Ok(PcreLite {
            atoms,
            nocase,
            anchor_start,
            anchor_end,
            source: framed.to_string(),
        })
    }

    /// The original `/pattern/flags` text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Unanchored match: does the pattern occur anywhere in `haystack`?
    ///
    /// Runs under [`DEFAULT_STEP_BUDGET`]; budget exhaustion counts as
    /// no-match. Use [`PcreLite::is_match_bounded`] to distinguish.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.is_match_bounded(haystack, DEFAULT_STEP_BUDGET)
            .unwrap_or(false)
    }

    /// Like [`PcreLite::is_match`], but with an explicit step budget.
    ///
    /// Every byte comparison costs one step. Returns `None` if the budget
    /// is exhausted before the search resolves either way.
    pub fn is_match_bounded(&self, haystack: &[u8], budget: usize) -> Option<bool> {
        let mut steps = budget;
        let last_start = if self.anchor_start { 0 } else { haystack.len() };
        for start in 0..=last_start {
            match self.match_at(haystack, start, 0, &mut steps) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
        }
        Some(false)
    }

    fn byte_matches(&self, atom: Atom, b: u8) -> bool {
        match atom {
            Atom::Any => true,
            Atom::Literal(l) => {
                if self.nocase {
                    l.eq_ignore_ascii_case(&b)
                } else {
                    l == b
                }
            }
            // Case folding was baked into the bitmap at compile time
            // (before negation, matching PCRE's caseless semantics).
            Atom::Class(set) => class_contains(&set, b),
        }
    }

    /// `Some(matched)` on resolution, `None` on budget exhaustion.
    fn match_at(
        &self,
        hay: &[u8],
        mut pos: usize,
        atom_idx: usize,
        steps: &mut usize,
    ) -> Option<bool> {
        let mut idx = atom_idx;
        while idx < self.atoms.len() {
            let (atom, rep) = self.atoms[idx];
            match rep {
                Repeat::One => {
                    *steps = steps.checked_sub(1)?;
                    if pos < hay.len() && self.byte_matches(atom, hay[pos]) {
                        pos += 1;
                        idx += 1;
                    } else {
                        return Some(false);
                    }
                }
                Repeat::ZeroOrOne => {
                    *steps = steps.checked_sub(1)?;
                    if pos < hay.len() && self.byte_matches(atom, hay[pos]) {
                        match self.match_at(hay, pos + 1, idx + 1, steps) {
                            Some(true) => return Some(true),
                            Some(false) => {}
                            None => return None,
                        }
                    }
                    idx += 1;
                }
                Repeat::ZeroOrMore | Repeat::OneOrMore => {
                    let min = if rep == Repeat::OneOrMore { 1 } else { 0 };
                    // Greedy with backtracking: count the maximal run, then
                    // retreat until the tail matches.
                    let mut run = 0;
                    while pos + run < hay.len() && self.byte_matches(atom, hay[pos + run]) {
                        *steps = steps.checked_sub(1)?;
                        run += 1;
                    }
                    while run + 1 > min {
                        match self.match_at(hay, pos + run, idx + 1, steps) {
                            Some(true) => return Some(true),
                            Some(false) => {}
                            None => return None,
                        }
                        if run == min {
                            return Some(false);
                        }
                        run -= 1;
                    }
                    return Some(false);
                }
            }
        }
        Some(!self.anchor_end || pos == hay.len())
    }
}

/// Step budget for [`PcreLite::is_match`]: generous enough for any vetted
/// pattern on real capture payloads, small enough to bound a hostile input.
pub const DEFAULT_STEP_BUDGET: usize = 1 << 22;

fn unescape(c: u8) -> u8 {
    match c {
        b'n' => b'\n',
        b'r' => b'\r',
        b't' => b'\t',
        other => other,
    }
}

fn class_contains(set: &[u64; 4], b: u8) -> bool {
    set[usize::from(b >> 6)] & (1u64 << (b & 63)) != 0
}

/// Insert `b` — and, caseless, its other ASCII case — into the bitmap.
/// Runs before negation so `[^a-z]` under `/i` excludes `A-Z` too.
fn class_insert(set: &mut [u64; 4], b: u8, nocase: bool) {
    set[usize::from(b >> 6)] |= 1u64 << (b & 63);
    if nocase {
        let swapped = if b.is_ascii_lowercase() {
            b.to_ascii_uppercase()
        } else {
            b.to_ascii_lowercase()
        };
        set[usize::from(swapped >> 6)] |= 1u64 << (swapped & 63);
    }
}

/// Parse a character class body starting just past `[`; returns the bitmap
/// and the index just past the closing `]`.
fn parse_class(bytes: &[u8], mut i: usize, nocase: bool) -> Result<([u64; 4], usize), PcreError> {
    let negated = bytes.get(i) == Some(&b'^');
    if negated {
        i += 1;
    }
    let mut set = [0u64; 4];
    let mut first = true;
    loop {
        let b = *bytes.get(i).ok_or(PcreError::UnclosedClass)?;
        if b == b']' && !first {
            i += 1;
            break;
        }
        first = false;
        let lo = if b == b'\\' {
            i += 1;
            unescape(*bytes.get(i).ok_or(PcreError::UnclosedClass)?)
        } else {
            b
        };
        // A `-` is a range only when flanked: `a-z`, not `[-a]` or `[a-]`.
        if bytes.get(i + 1) == Some(&b'-') && bytes.get(i + 2).is_some_and(|&c| c != b']') {
            i += 2;
            let c = bytes[i];
            let hi = if c == b'\\' {
                i += 1;
                unescape(*bytes.get(i).ok_or(PcreError::UnclosedClass)?)
            } else {
                c
            };
            if hi < lo {
                return Err(PcreError::BadClassRange);
            }
            for v in lo..=hi {
                class_insert(&mut set, v, nocase);
            }
        } else {
            class_insert(&mut set, lo, nocase);
        }
        i += 1;
    }
    if negated {
        for w in &mut set {
            *w = !*w;
        }
    }
    Ok((set, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, hay: &[u8]) -> bool {
        PcreLite::compile(pat).unwrap().is_match(hay)
    }

    #[test]
    fn literal_substring() {
        assert!(m("/jndi/", b"${jndi:ldap://x}"));
        assert!(!m("/jndi/", b"plain text"));
    }

    #[test]
    fn case_flag() {
        assert!(m("/jndi/i", b"${JnDi:ldap}"));
        assert!(!m("/jndi/", b"${JNDI:ldap}"));
    }

    #[test]
    fn dot_and_star() {
        assert!(m("/cd .tmp/", b"; cd /tmp; wget x"));
        assert!(m("/wget.*http/", b"wget -q http://evil"));
        assert!(!m("/wget.*http/", b"http then wget"));
    }

    #[test]
    fn plus_and_question() {
        assert!(m("/a+b/", b"xxaaab"));
        assert!(!m("/a+b/", b"xxb"));
        assert!(m("/https?:/", b"http://x"));
        assert!(m("/https?:/", b"https://x"));
    }

    #[test]
    fn escapes() {
        assert!(m("/a\\.b/", b"a.b"));
        assert!(!m("/a\\.b/", b"axb"));
        assert!(m("/end\\r\\n/", b"end\r\n"));
        assert!(m("/c\\*d/", b"c*d"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("//", b""));
        assert!(m("//", b"anything"));
    }

    #[test]
    fn compile_errors() {
        assert_eq!(PcreLite::compile("nope"), Err(PcreError::BadFraming));
        assert_eq!(PcreLite::compile("/a/x"), Err(PcreError::UnknownFlag('x')));
        assert_eq!(
            PcreLite::compile("/*a/"),
            Err(PcreError::DanglingQuantifier)
        );
        assert_eq!(
            PcreLite::compile("/a**/"),
            Err(PcreError::DanglingQuantifier)
        );
        assert_eq!(PcreLite::compile("/a\\/"), Err(PcreError::TrailingEscape));
    }

    #[test]
    fn backtracking_star_before_literal() {
        // `.*` must backtrack to let the tail match.
        assert!(m("/GET .* HTTP/", b"GET /a/b/c HTTP/1.1"));
        assert!(m("/a.*a/", b"abca"));
        assert!(!m("/a.*a/", b"abc"));
    }

    #[test]
    fn character_classes() {
        assert!(m("/[abc]/", b"xxbyy"));
        assert!(!m("/[abc]/", b"xyz"));
        assert!(m("/[0-9]+/", b"port 2323 open"));
        assert!(!m("/[0-9]/", b"no digits"));
        assert!(m("/[a-f0-9][a-f0-9]/", b"hash: d4"));
        // `]` as first member, `-` as literal at the edges.
        assert!(m("/[]x]/", b"]"));
        assert!(m("/[-a]/", b"-"));
        assert!(m("/[a-]/", b"-"));
        // Escapes inside classes.
        assert!(m("/[\\t\\n]/", b"a\tb"));
        assert!(m("/[\\]]/", b"]"));
    }

    #[test]
    fn negated_classes() {
        assert!(m("/[^0-9]/", b"abc"));
        assert!(!m("/[^0-9]/", b"0123"));
        assert!(m("/a[^/]*b/", b"a_x_b"));
        assert!(!m("/a[^x]b/", b"axb"));
    }

    #[test]
    fn class_case_flag() {
        assert!(m("/[a-z]+/i", b"WGET"));
        assert!(!m("/[a-z]/", b"WGET"));
        // Negated class under /i: a byte matches only if neither case
        // variant is in the (pre-negated) set.
        assert!(!m("/[^a-z]/i", b"A"));
        assert!(m("/[^a-z]/i", b"9"));
    }

    #[test]
    fn class_compile_errors() {
        assert_eq!(PcreLite::compile("/[abc/"), Err(PcreError::UnclosedClass));
        assert_eq!(PcreLite::compile("/[z-a]/"), Err(PcreError::BadClassRange));
        assert_eq!(PcreLite::compile("/[a\\/"), Err(PcreError::UnclosedClass));
    }

    #[test]
    fn anchors_at_pattern_edges() {
        assert!(m("/^GET /", b"GET / HTTP/1.1"));
        assert!(!m("/^GET /", b"HEAD then GET /"));
        assert!(m("/login:$/", b"user login:"));
        assert!(!m("/login:$/", b"login: admin"));
        assert!(m("/^full$/", b"full"));
        assert!(!m("/^full$/", b"fuller"));
        assert!(m("/^$/", b""));
        assert!(!m("/^$/", b"x"));
        // Anywhere else they are literal bytes.
        assert!(m("/a^b/", b"a^b"));
        assert!(m("/a$b/", b"a$b"));
        assert!(m("/\\^x/", b"^x"));
    }

    #[test]
    fn anchored_star_still_backtracks() {
        assert!(m("/^a.*c$/", b"abbbc"));
        assert!(!m("/^a.*c$/", b"abbbcx"));
        assert!(m("/^.*$/", b"anything"));
    }

    #[test]
    fn pathological_backtracking_hits_the_step_budget() {
        // `(a*)^k a` style blowup: k stacked `a*` atoms followed by a byte
        // that never appears forces the engine to enumerate every split of
        // the run of `a`s — polynomial of degree k, astronomically many
        // combinations for k = 12 over 64 bytes.
        let p = PcreLite::compile("/a*a*a*a*a*a*a*a*a*a*a*a*b/").unwrap();
        let hay = vec![b'a'; 64];
        // A tight budget must report exhaustion, not hang or mis-answer.
        assert_eq!(p.is_match_bounded(&hay, 10_000), None);
        // The default-budget entry point degrades it to no-match.
        assert!(!p.is_match(&hay));
        // The same pattern still resolves quickly when the tail exists.
        let mut ok = hay.clone();
        ok.push(b'b');
        assert_eq!(p.is_match_bounded(&ok, 10_000), Some(true));
    }

    #[test]
    fn budget_counts_work_not_outcomes() {
        let p = PcreLite::compile("/abc/").unwrap();
        // Three comparisons needed; a budget of 2 exhausts mid-match.
        assert_eq!(p.is_match_bounded(b"abc", 2), None);
        assert_eq!(p.is_match_bounded(b"abc", 3), Some(true));
    }
}
