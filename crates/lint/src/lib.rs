//! `nagano-lint` — workspace determinism, robustness & lock-order linter.
//!
//! The reproduction's north star (DESIGN.md §8, ROADMAP) is that the
//! simulation is *deterministic*: same seed → same propagation traces,
//! same freshness percentiles, byte-identical telemetry exports. This
//! crate enforces that contract statically, plus the robustness rule
//! that the serving hot path never panics, plus — since the v2
//! cross-file engine — a deadlock-free lock order. (That the Object
//! Dependence Graph is complete is not a lint: the renderer cannot read
//! a row without registering its edge, `nagano-pagegen`'s `reads`
//! module, and `tests/fragment_equivalence.rs` checks cache ≡ fresh
//! render after every transaction.)
//!
//! | rule | enforces |
//! |------|----------|
//! | D001 | no `Instant::now`/`SystemTime::now` outside `simcore`/`bench` |
//! | D002 | no `thread_rng`/OS entropy — only the seeded simcore RNG |
//! | D003 | no `std::collections::HashMap`/`HashSet` (randomized order) |
//! | L001 | no cycles in the cross-file lock-acquisition graph (deadlock) |
//! | L002 | no guard held across a blocking call in serving crates |
//! | R001 | no `.unwrap()`/`.expect()` in `httpd`/`cache`/`trigger`/`odg` |
//! | R002 | no unbounded crossbeam channels in serving/propagation crates |
//! | R003 | retry loops bounded with seeded backoff — no bare `loop` retries or unjittered sleeps |
//! | T001 | metric names match `nagano_<subsystem>_<metric>` |
//! | T002 | trace span names match `nagano_<subsystem>_<name>`; registered metrics are documented in DESIGN.md |
//!
//! Linting runs in two passes. Pass 1 ([`model`]) lexes every
//! production file once, runs the per-file token rules, and builds a
//! cross-file workspace model (fn symbol table, lock acquisitions with
//! live-guard tracking, resolvable call edges). Pass 2 runs the
//! semantic rules over that model: [`locks`] (L001/L002).
//!
//! An intentional exception carries an inline allowlist annotation with
//! a mandatory reason (syntax in DESIGN.md §10) — there is no other way
//! to carry one; a malformed annotation is itself an error (A000). Test
//! code (`#[cfg(test)]` / `#[test]`) is exempt.
//!
//! The analyzer is dependency-free by design: it lexes Rust directly
//! (comments, strings, raw strings, and test items handled in
//! [`lexer`]) instead of pulling a parser crate into the gate that is
//! supposed to keep the build honest. All output — including the
//! `--json` and SARIF exports in [`export`] — is sorted by
//! `(file, line, rule, message)` and byte-identical across runs, so
//! lint results fall under the same determinism gate as the telemetry.

mod export;
mod lexer;
mod locks;
mod model;
mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use export::{render_json, render_sarif};
pub use lexer::{lex, strip_tests, Allow, LexOutput, MalformedAllow, TokKind, Token};
pub use rules::{lint_metric_docs, lint_source, Diagnostic, RuleInfo, RULES};

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
/// Integration-test crates and fixtures are not scanned (the rules
/// exempt test code anyway). The listing is sorted, so two runs over
/// the same tree visit files in the same order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
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

/// Lint every production source file under `root`: the per-file token
/// rules, then the cross-file semantic pass (lock graph) over the
/// workspace model. When the root has a `DESIGN.md`, every
/// metric registered in code must also appear in its metric table
/// (rule T002's documentation half).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let design = fs::read_to_string(root.join("DESIGN.md")).ok();
    let mut sources: Vec<model::SourceFile> = Vec::new();
    for path in workspace_files(root)? {
        let source = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        report.diagnostics.extend(lint_source(&rel, &source));
        if let Some(design) = &design {
            report
                .diagnostics
                .extend(lint_metric_docs(&rel, &source, design));
        }
        sources.push(model::SourceFile::parse(&rel, &source));
        report.files_scanned += 1;
    }

    // Pass 2: semantic rules over the cross-file model. The per-file
    // allowlists apply to these too (a semantic finding is suppressed
    // by an annotation in the file it is reported against).
    let workspace = model::WorkspaceModel::build(&sources);
    let mut semantic = locks::run(&workspace);
    let allows_by_file: BTreeMap<&str, &[Allow]> = sources
        .iter()
        .map(|s| (s.rel.as_str(), s.allows.as_slice()))
        .collect();
    semantic.retain(|d| {
        !allows_by_file
            .get(d.file.as_str())
            .is_some_and(|allows| rules::suppressed(d, allows))
    });
    report.diagnostics.extend(semantic);

    report.diagnostics.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(report)
}
