//! Registry self-test: every rule id in [`RULES`] must come with a
//! firing fixture and a clean fixture, and each must behave as named.
//! Registering a new rule without fixtures fails here by construction
//! — the match below has no default success arm.

use std::collections::BTreeSet;
use std::path::PathBuf;

use nagano_lint::{lint_source, lint_workspace, RULES};

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint a token-rule fixture as if it lived in a serving hot-path
/// crate, so every per-file rule is in scope.
fn fired_by(fixture: &str) -> BTreeSet<String> {
    let path = fixtures().join(fixture);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    lint_source("crates/httpd/src/fixture.rs", &source)
        .iter()
        .map(|d| d.rule.to_string())
        .collect()
}

/// Rule ids a semantic fixture workspace produces through the full
/// cross-file pipeline.
fn fired_by_workspace(root: &str) -> BTreeSet<String> {
    lint_workspace(&fixtures().join(root))
        .unwrap_or_else(|e| panic!("missing fixture workspace {root}: {e}"))
        .diagnostics
        .iter()
        .map(|d| d.rule.to_string())
        .collect()
}

#[test]
fn every_registered_rule_has_a_firing_and_a_clean_fixture() {
    let semantic_fired = fired_by_workspace("semantic");
    let semantic_clean = fired_by_workspace("semantic_clean");
    for rule in RULES {
        let id = rule.id;
        let lower = id.to_ascii_lowercase();
        match id {
            "A000" | "D001" | "D002" | "D003" | "R001" | "R002" | "R003" | "T001" | "T002" => {
                let fixture = match id {
                    // A000's historical firing fixture doubles as the
                    // does-not-suppress test; a000.rs isolates the rule.
                    "A000" => "a000.rs".to_string(),
                    _ => format!("{lower}.rs"),
                };
                let fired = fired_by(&fixture);
                assert!(
                    fired.contains(id),
                    "{fixture} must fire {id}, got {fired:?}"
                );
                let clean = fired_by(&format!("{lower}_clean.rs"));
                assert!(
                    clean.is_empty(),
                    "{lower}_clean.rs must be clean, got {clean:?}"
                );
            }
            "L001" | "L002" => {
                assert!(
                    semantic_fired.contains(id),
                    "fixtures/semantic must fire {id}, got {semantic_fired:?}"
                );
                assert!(
                    semantic_clean.is_empty(),
                    "fixtures/semantic_clean must be clean, got {semantic_clean:?}"
                );
            }
            other => panic!(
                "rule {other} has no fixtures — add {lower}.rs + {lower}_clean.rs \
                 (or a semantic workspace pair) and teach this test about it"
            ),
        }
    }
}

#[test]
fn the_semantic_workspace_fires_exactly_the_semantic_rules() {
    // The same contract CI's lint-fixtures step enforces with
    // `--expect L001,L002`.
    let fired = fired_by_workspace("semantic");
    let expected: BTreeSet<String> = ["L001", "L002"].iter().map(|s| s.to_string()).collect();
    assert_eq!(fired, expected);
}
