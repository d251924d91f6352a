//! Registry-completeness gate: the exhibit registry, the golden exhibit
//! list, and the committed manifest must all name exactly the same 25
//! artifacts. A new exhibit that is registered but not golden-gated (or
//! vice versa) fails here, before any hashes are compared.

use cw_core::exhibit::REGISTRY;
use cw_verify::golden::{exhibit_files, manifest_path, parse_manifest, workspace_root};

/// Registry names + `.txt`, in registry order.
fn registry_files() -> Vec<String> {
    REGISTRY
        .iter()
        .map(|e| format!("{}.txt", e.name()))
        .collect()
}

#[test]
fn registry_matches_golden_exhibit_list() {
    let registry: Vec<String> = registry_files();
    assert_eq!(
        registry,
        exhibit_files(),
        "cw_core::exhibit::REGISTRY and cw_verify::golden::exhibit_files disagree \
         (every registered exhibit must be golden-gated, in the same canonical order)"
    );
}

#[test]
fn registry_matches_committed_manifest() {
    let root = workspace_root();
    let text = std::fs::read_to_string(manifest_path(&root))
        .expect("tests/golden/MANIFEST.sha256 must exist");
    let manifest: Vec<String> = parse_manifest(&text)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let mut registry = registry_files();
    registry.sort();
    let mut sorted_manifest = manifest.clone();
    sorted_manifest.sort();
    assert_eq!(
        registry, sorted_manifest,
        "MANIFEST.sha256 entries must be exactly the registered exhibits"
    );
    assert_eq!(manifest.len(), 25, "the paper has 25 golden exhibits");
}

#[test]
fn cw_list_inventory_is_the_registry() {
    // `cw list` prints one line per REGISTRY entry, so checking the
    // registry's names/titles here gates the CLI inventory too.
    for e in REGISTRY {
        assert!(!e.name().is_empty());
        assert!(!e.title().is_empty());
        assert!(
            e.name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "exhibit name '{}' must be a valid out/<name>.txt stem",
            e.name()
        );
    }
}
