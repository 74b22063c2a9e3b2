//! `nagano-lint` — the workspace's cross-file lock-order analysis.
//!
//! The determinism and robustness contract (DESIGN.md §8, §10) is
//! enforced by clippy from the workspace's `clippy.toml` and four crate
//! attributes: no wall clock, no entropy-seeded hasher, no std
//! `HashMap`/`HashSet`, no unbounded channel, no `unwrap`/`expect` in
//! the serving crates. What no existing tool sees is the order in which
//! locks are taken across files, and that is all this crate checks:
//!
//! | rule | enforces |
//! |------|----------|
//! | L001 | no cycles in the cross-file lock-acquisition graph (deadlock) |
//! | L002 | no guard held across a blocking call in serving crates |
//!
//! Linting runs in two passes. Pass 1 ([`model`]) lexes every
//! production file once and builds a cross-file workspace model (fn
//! symbol table, lock acquisitions with live-guard tracking, resolvable
//! call edges). Pass 2 ([`locks`]) runs L001/L002 over that model. Test
//! code (`#[cfg(test)]` / `#[test]`) is stripped before either pass.
//!
//! The analyzer is dependency-free by design: it lexes Rust directly
//! (comments, strings, raw strings, and test items handled in
//! [`lexer`]). Findings are sorted by `(file, line, rule, message)`, so
//! two runs over one tree report the same thing. The sweep over this
//! workspace is a test: `tests/semantic.rs`,
//! `the_workspace_has_no_lock_order_findings`.

mod lexer;
mod locks;
mod model;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use locks::Diagnostic;

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All findings, ordered by (file, line, rule, message).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Collect the production Rust sources of the workspace rooted at
/// `root`: every `crates/*/src/**/*.rs` plus `examples/**/*.rs`.
/// Integration-test crates and fixtures are not scanned. The listing is
/// sorted, so two runs over the same tree visit files in the same order.
fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for krate in sorted_dir(&crates_dir)? {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        collect_rs(&examples, &mut files)?;
    }
    Ok(files)
}

fn sorted_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for path in sorted_dir(dir)? {
        if path.is_dir() {
            // Never descend into build output.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lint every production source file under `root`: build the
/// cross-file model, then run the lock rules over it.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut sources: Vec<model::SourceFile> = Vec::new();
    for path in workspace_files(root)? {
        let source = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push(model::SourceFile::parse(&rel, &source));
    }
    let mut diagnostics = locks::run(&model::WorkspaceModel::build(&sources));
    diagnostics.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(LintReport {
        files_scanned: sources.len(),
        diagnostics,
    })
}
