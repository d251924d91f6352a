//! The golden-exhibit manifest: a content-hashed inventory of the 25
//! rendered `out/*.txt` exhibits.
//!
//! Every empirical claim in EXPERIMENTS.md renders to one of these files,
//! and a perf or refactor PR must not change a single byte of any of them
//! by accident. The manifest (`tests/golden/MANIFEST.sha256`) records one
//! SHA-256 per exhibit; [`check`] diffs the current files against it and
//! reports every drifted, missing, or unlisted exhibit. Intentional
//! changes are *blessed* by re-running the gate with `CW_BLESS=1`, which
//! rewrites the manifest from the files on disk ([`bless`]).
//!
//! The gate hashes what is on disk; regenerating the exhibits with `cw all`
//! (and therefore proving the *code* still produces these bytes) is the
//! `scripts/verify.sh` drift step, which runs before this manifest check.

use crate::sha256::sha256_hex;
use std::path::{Path, PathBuf};

/// The golden exhibit files, `<name>.txt` for every entry of
/// [`cw_core::exhibit::REGISTRY`], in registry (= manifest) order.
pub fn exhibit_files() -> Vec<String> {
    cw_core::exhibit::REGISTRY
        .iter()
        .map(|e| format!("{}.txt", e.name()))
        .collect()
}

/// Path of the workspace root, from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/verify sits two levels under the workspace root")
        .to_path_buf()
}

/// Manifest location under a workspace root.
pub fn manifest_path(root: &Path) -> PathBuf {
    root.join("tests/golden/MANIFEST.sha256")
}

/// Exhibit directory under a workspace root.
pub fn exhibits_dir(root: &Path) -> PathBuf {
    root.join("out")
}

/// One exhibit's drift, as reported by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// The file's hash differs from the manifest entry.
    Changed {
        /// Exhibit file name.
        name: String,
        /// Hash recorded in the manifest.
        expected: String,
        /// Hash of the file on disk.
        actual: String,
    },
    /// The exhibit is listed in [`exhibit_files`] but absent on disk.
    MissingFile {
        /// Exhibit file name.
        name: String,
    },
    /// The exhibit has no entry in the manifest file.
    MissingEntry {
        /// Exhibit file name.
        name: String,
    },
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Drift::Changed {
                name,
                expected,
                actual,
            } => write!(f, "{name}: hash {actual} != manifest {expected}"),
            Drift::MissingFile { name } => write!(f, "{name}: exhibit file missing from out/"),
            Drift::MissingEntry { name } => write!(f, "{name}: no entry in the manifest"),
        }
    }
}

/// Hash every exhibit under `root`, returning `(name, sha256_hex)` pairs in
/// [`exhibit_files`] order. Missing files are reported as errors.
pub fn compute_hashes(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let dir = exhibits_dir(root);
    exhibit_files()
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name))?;
            Ok((name, sha256_hex(&bytes)))
        })
        .collect()
}

/// Render `(name, hash)` pairs in the manifest's `sha256sum`-compatible
/// `<hex>  <name>` line format.
pub fn render_manifest(entries: &[(String, String)]) -> String {
    let mut out = String::new();
    for (name, hash) in entries {
        out.push_str(hash);
        out.push_str("  ");
        out.push_str(name);
        out.push('\n');
    }
    out
}

/// Parse a manifest file's contents into `(name, hash)` pairs. Lines that
/// do not look like `<64-hex>  <name>` (e.g. blank lines or comments
/// starting with `#`) are skipped.
pub fn parse_manifest(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let (hash, name) = line.split_once("  ")?;
            if hash.len() != 64 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            Some((name.trim().to_string(), hash.to_string()))
        })
        .collect()
}

/// Compare the exhibits on disk against the manifest. Returns every drift;
/// an empty vector means the gate passes.
pub fn check(root: &Path) -> std::io::Result<Vec<Drift>> {
    let manifest_text = std::fs::read_to_string(manifest_path(root)).unwrap_or_default();
    let manifest: std::collections::BTreeMap<String, String> =
        parse_manifest(&manifest_text).into_iter().collect();
    let dir = exhibits_dir(root);
    let mut drifts = Vec::new();
    for name in exhibit_files() {
        let bytes = match std::fs::read(dir.join(&name)) {
            Ok(b) => b,
            Err(_) => {
                drifts.push(Drift::MissingFile { name });
                continue;
            }
        };
        let actual = sha256_hex(&bytes);
        match manifest.get(&name) {
            None => drifts.push(Drift::MissingEntry { name }),
            Some(expected) if *expected != actual => drifts.push(Drift::Changed {
                name,
                expected: expected.clone(),
                actual,
            }),
            Some(_) => {}
        }
    }
    Ok(drifts)
}

/// Rewrite the manifest from the exhibits on disk (the `CW_BLESS=1` flow).
pub fn bless(root: &Path) -> std::io::Result<()> {
    let entries = compute_hashes(root)?;
    let path = manifest_path(root);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render_manifest(&entries))
}

/// Was a bless requested via the environment (`CW_BLESS=1`)?
pub fn bless_requested() -> bool {
    std::env::var("CW_BLESS").map(|v| v == "1").unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let entries = vec![
            ("table1.txt".to_string(), "ab".repeat(32)),
            ("all.txt".to_string(), "0f".repeat(32)),
        ];
        let text = render_manifest(&entries);
        assert_eq!(parse_manifest(&text), entries);
    }

    #[test]
    fn parse_skips_comments_and_garbage() {
        let text = "# comment\n\nnot a hash  x.txt\nzz  y.txt\n";
        assert!(parse_manifest(text).is_empty());
    }

    #[test]
    fn exhibits_list_matches_checked_in_files() {
        // The committed manifest names exactly the listed exhibits, in the
        // same order, so a bless rewrites it line for line.
        let text = std::fs::read_to_string(manifest_path(&workspace_root()))
            .expect("tests/golden/MANIFEST.sha256 is checked in");
        let manifest: Vec<String> = parse_manifest(&text)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(manifest, exhibit_files());
    }

    #[test]
    fn check_detects_single_byte_change() {
        // Build a temp root with one exhibit, bless it, flip one byte.
        let tmp = std::env::temp_dir().join(format!("cw-golden-{}", std::process::id()));
        let out = tmp.join("out");
        std::fs::create_dir_all(&out).unwrap();
        for name in exhibit_files() {
            std::fs::write(out.join(&name), format!("exhibit {name}\n")).unwrap();
        }
        bless(&tmp).unwrap();
        assert!(check(&tmp).unwrap().is_empty());

        std::fs::write(out.join("table9.txt"), "exhibit table9.txt!\n").unwrap();
        let drifts = check(&tmp).unwrap();
        assert_eq!(drifts.len(), 1);
        assert!(matches!(&drifts[0], Drift::Changed { name, .. } if name == "table9.txt"));

        // Blessing the change makes the gate pass again.
        bless(&tmp).unwrap();
        assert!(check(&tmp).unwrap().is_empty());
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
