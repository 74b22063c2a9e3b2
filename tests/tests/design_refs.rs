//! Every reference to a numbered section of DESIGN.md — `DESIGN.md` or
//! `DESIGN`, a space, `§` and the number — in the crates, the tests, the
//! examples, the benchmark harness, CI, `clippy.toml` and `README.md`
//! names a heading DESIGN.md has. A section renumbered or cut without its references
//! fails here.

use std::fs;
use std::path::{Path, PathBuf};

/// Where references are looked for, from the repository root.
const SCANNED: [&str; 7] = [
    "crates",
    "tests",
    "examples",
    "benchmark/src",
    ".github",
    "clippy.toml",
    "README.md",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The numbers DESIGN.md's headings carry: `6` for `## 6. Model notes`,
/// `13a` for `### 13a. The wall-clock ledger`.
fn sections(design: &str) -> Vec<&str> {
    design
        .lines()
        .filter_map(|line| {
            let title = line.strip_prefix("##")?.trim_start_matches('#');
            let (number, _) = title.trim_start().split_once(". ")?;
            let digits = number.strip_suffix(|c: char| c.is_ascii_lowercase());
            let digits = digits.unwrap_or(number);
            let numbered = !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
            numbered.then_some(number)
        })
        .collect()
}

/// The section numbers `text` refers to, with the line of each.
fn references(text: &str) -> Vec<(usize, &str)> {
    text.match_indices("DESIGN")
        .filter_map(|(at, name)| {
            let rest = &text[at + name.len()..];
            let rest = rest
                .strip_prefix(".md")
                .unwrap_or(rest)
                .strip_prefix(" §")?;
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric())
                .unwrap_or(rest.len());
            let line = text[..at].matches('\n').count() + 1;
            (end > 0).then(|| (line, &rest[..end]))
        })
        .collect()
}

/// Every file under `path`, or `path` itself if it is one.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    match fs::read_dir(path) {
        Ok(entries) => {
            for entry in entries {
                files(&entry.expect("read a directory entry").path(), out);
            }
        }
        Err(_) => out.push(path.to_path_buf()),
    }
}

#[test]
fn every_design_reference_names_a_section() {
    let root = root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let sections = sections(&design);
    assert!(sections.contains(&"13a"), "headings: {sections:?}");
    let mut paths = Vec::new();
    for scanned in SCANNED {
        files(&root.join(scanned), &mut paths);
    }
    let (mut seen, mut dangling) = (0, Vec::new());
    for path in &paths {
        // Binary files hold no references.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        for (line, section) in references(&text) {
            seen += 1;
            if !sections.contains(&section) {
                let file = path.strip_prefix(&root).unwrap_or(path).display();
                dangling.push(format!("{file}:{line}: §{section}"));
            }
        }
    }
    assert!(
        seen >= 30,
        "found only {seen} references: is the scan blind?"
    );
    assert!(
        dangling.is_empty(),
        "references to sections DESIGN.md does not have: {dangling:#?}"
    );
}

#[test]
fn a_reference_to_a_missing_section_is_caught() {
    // Built at run time, so that the scan above does not find it here.
    let planted = format!("see DESIGN.md {s}99 and (DESIGN {s}13a, above)", s = '§');
    assert_eq!(references(&planted), vec![(1, "99"), (1, "13a")]);
    let sections = sections("## 13. The serve path\n### 13a. The wall-clock ledger\n");
    assert_eq!(sections, vec!["13", "13a"]);
    assert!(!sections.contains(&"99"));
}
