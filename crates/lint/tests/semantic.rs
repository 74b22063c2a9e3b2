//! The lock rules, driven end-to-end through [`lint_workspace`] over
//! the two committed fixture workspaces and over this workspace itself:
//! `fixtures/semantic/` seeds one defect per rule, and
//! `fixtures/semantic_clean/` is the same code with the defects fixed.
//! The fixtures are lexed by the linter, never compiled by cargo.

use std::path::{Path, PathBuf};

use nagano_lint::lint_workspace;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn seeded_defects_fire_at_their_exact_sites() {
    let report = lint_workspace(&fixture_root("semantic")).expect("scan fixture workspace");
    let got: Vec<(&str, &str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("L001", "crates/trigger/src/ledger.rs", 19),
            ("L002", "crates/trigger/src/queue.rs", 28),
        ],
        "full report: {:#?}",
        report.diagnostics
    );
}

#[test]
fn l001_reports_both_acquisition_chains() {
    let report = lint_workspace(&fixture_root("semantic")).expect("scan fixture workspace");
    let l001 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "L001")
        .expect("L001 fires");
    // The message must name both locks and both hold-then-take chains,
    // including the call edge the cycle crosses.
    assert!(l001.message.contains("ledger.rs::ledger"), "{l001:?}");
    assert!(l001.message.contains("queue.rs::inbox"), "{l001:?}");
    assert!(
        l001.message.contains("note_inbox_depth (call at line 20)"),
        "{l001:?}"
    );
    assert!(
        l001.message.contains("stamp_ledger (call at line 16)"),
        "{l001:?}"
    );
}

#[test]
fn l002_names_the_blocking_call_and_the_held_guard() {
    let report = lint_workspace(&fixture_root("semantic")).expect("scan fixture workspace");
    let l002 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "L002")
        .expect("L002 fires");
    assert!(l002.message.contains("`.recv()`"), "{l002:?}");
    assert!(l002.message.contains("drain_one"), "{l002:?}");
    assert!(l002.message.contains("queue.rs::inbox"), "{l002:?}");
}

#[test]
fn the_fixed_mirror_workspace_is_clean() {
    let report = lint_workspace(&fixture_root("semantic_clean")).expect("scan mirror workspace");
    assert!(
        report.is_clean(),
        "semantic_clean should be defect-free:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(report.files_scanned, 2);
}

#[test]
fn the_workspace_has_no_lock_order_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has lock-order findings:\n{:#?}",
        report.diagnostics
    );
}
