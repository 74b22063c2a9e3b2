//! CLI entry point: `cargo run -p nagano-lint [-- OPTIONS]`.
//!
//! Exits 0 when the workspace is clean, 1 when there are findings, and
//! 2 on I/O or usage errors. `--json` emits the machine-readable form
//! consumed by tooling, `--sarif` the SARIF 2.1.0 document CI uploads;
//! the default output is one finding per line in `rule file:line
//! message` shape with an indented suggestion.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use nagano_lint::{lint_workspace, render_json, render_sarif, RULES};

struct Options {
    json: bool,
    sarif: bool,
    sarif_file: Option<PathBuf>,
    expect: Option<BTreeSet<String>>,
    root: Option<PathBuf>,
}

fn main() -> ExitCode {
    let mut opts = Options {
        json: false,
        sarif: false,
        sarif_file: None,
        expect: None,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--rules" => {
                for rule in RULES {
                    println!("{}  {}", rule.id, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--sarif-file" | "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("{arg} requires a path");
                    return ExitCode::from(2);
                };
                let p = PathBuf::from(p);
                if arg == "--sarif-file" {
                    opts.sarif_file = Some(p);
                } else {
                    opts.root = Some(p);
                }
            }
            "--expect" => match args.next() {
                Some(ids) => {
                    opts.expect = Some(
                        ids.split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                    );
                }
                None => {
                    eprintln!("--expect requires a comma-separated rule list");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!(
                    "nagano-lint: workspace determinism, robustness & lock-order linter\n\n\
                     usage: cargo run -p nagano-lint [-- OPTIONS]\n\n\
                     options:\n  \
                     --json                  machine-readable output\n  \
                     --sarif                 SARIF 2.1.0 output on stdout\n  \
                     --sarif-file <path>     also write the SARIF document to <path>\n  \
                     --expect <ID,ID,...>    exit 0 iff exactly these rule ids fire (fixture CI)\n  \
                     --rules                 list the rule registry\n  \
                     --root <path>           workspace root (default: this repo)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let root = opts.root.clone().unwrap_or_else(default_root);

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nagano-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diagnostics = report.diagnostics;

    // The SARIF artifact is written whatever the verdict — CI uploads
    // it from failing runs too.
    if let Some(path) = &opts.sarif_file {
        if let Err(e) = std::fs::write(path, render_sarif(&diagnostics, report.files_scanned)) {
            eprintln!("nagano-lint: cannot write SARIF {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if opts.sarif {
        println!("{}", render_sarif(&diagnostics, report.files_scanned));
    } else if opts.json {
        println!("{}", render_json(&diagnostics, report.files_scanned));
    } else {
        for d in &diagnostics {
            println!("{} {}:{} {}", d.rule, d.file, d.line, d.message);
            println!("     fix: {}", d.suggestion);
        }
    }

    // Fixture mode: assert that exactly the expected rule set fires.
    if let Some(expected) = &opts.expect {
        let fired: BTreeSet<String> = diagnostics.iter().map(|d| d.rule.to_string()).collect();
        if &fired == expected {
            if !opts.sarif && !opts.json {
                println!(
                    "nagano-lint: expected rule set {{{}}} fired",
                    expected.iter().cloned().collect::<Vec<_>>().join(", ")
                );
            }
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "nagano-lint: expected rules {{{}}} but got {{{}}}",
            expected.iter().cloned().collect::<Vec<_>>().join(", "),
            fired.into_iter().collect::<Vec<_>>().join(", ")
        );
        return ExitCode::FAILURE;
    }

    if !opts.sarif && !opts.json {
        if diagnostics.is_empty() {
            println!(
                "nagano-lint: clean — {} files, {} rules",
                report.files_scanned,
                RULES.len()
            );
        } else {
            println!(
                "nagano-lint: {} violation(s) in {} file(s) scanned",
                diagnostics.len(),
                report.files_scanned
            );
        }
    }

    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repo root: two levels above this crate's manifest when built by
/// cargo, the current directory otherwise.
fn default_root() -> PathBuf {
    match option_env!("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../.."),
        None => PathBuf::from("."),
    }
}
