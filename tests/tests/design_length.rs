//! DESIGN.md may shrink but not grow: a change that adds lines to it
//! takes as many out elsewhere. The cap only ever comes down, each time
//! the file does, toward a DESIGN.md of about 1,200 lines that describes
//! the system as it is.

use std::path::Path;

/// The most lines DESIGN.md may have.
const MAX_LINES: usize = 2_281;

#[test]
fn design_md_stays_within_its_line_cap() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../DESIGN.md");
    let design = std::fs::read_to_string(&path).expect("DESIGN.md is readable");
    let lines = design.lines().count();
    assert!(
        lines <= MAX_LINES,
        "DESIGN.md has {lines} lines, over its cap of {MAX_LINES}: shorten it"
    );
}
