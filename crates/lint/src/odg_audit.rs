//! Pass 2, ODG rules: O001 (renderer reads data with no covering ODG
//! edge) and O002 (registered edge whose data is never read).
//!
//! The paper's correctness story rests on the Object Dependence Graph
//! being *complete*: one missing edge and the trigger monitor serves a
//! stale page forever. This pass audits the renderer source in
//! `crates/pagegen` directly: every `match` over `PageKey` /
//! `FragmentKey` is an ODG registration site, and within each arm we
//! compare
//!
//! * the **reads** — `db.<method>(…)` calls, on the render's `DbView`
//!   or on `self.db` alike, mapped to the data family they touch
//!   (`events_on_day` reads `data:today:*` and `data:event:*`,
//!   `medal_standings` reads `data:medals:*`, …) — against
//! * the **edges** — `deps.push(Dependency::…)` calls, classified by
//!   the key expression (`today_data_key(day)` → today,
//!   `FragmentKey::MedalTable` → a fragment edge, `c.data_key()` → the
//!   arm binder's family, …).
//!
//! A memoised page section (a country's roster, an event's block on the
//! home page) is rendered by a closure written inside its page's arm, so
//! its reads and its `deps.push` sites are audited as that arm's.
//!
//! Fragments are hybrid vertices (data → fragment → page, the paper's
//! Figure 15), so a read is also covered when the arm registers a
//! fragment edge whose own arm registers the data family — the
//! fragment-to-family closure is computed across *all* pagegen files
//! first, which is what makes the audit cross-file.
//!
//! O001 fires on an uncovered read (and on `inline_fragment(V)` with no
//! `Fragment(V)` edge); O002 fires on a dead edge — a registered data
//! family the arm never reads, or a fragment edge never inlined. The
//! purely static arms (Welcome/Nagano/Fun/Venue) are exempt from O001:
//! they are regenerated never and invalidated never by design.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{TokKind, Token};
use crate::model::SourceFile;
use crate::rules::Diagnostic;

/// Data-key families (the `<family>` in `data:<family>:<id>`).
type Family = &'static str;

/// `db.<method>(…)` → the data families the method reads. Covers every
/// query of `nagano_db::DbView`, which keeps the owned getters' names.
const METHOD_FAMILIES: &[(&str, &[Family])] = &[
    ("athlete", &["athlete"]),
    ("athletes_of_country", &["country"]),
    ("athletes_of_sport", &["sport"]),
    ("country", &["country"]),
    ("event", &["event"]),
    ("events_of_sport", &["sport"]),
    ("events_on_day", &["today", "event"]),
    ("medal_standings", &["medals"]),
    ("medals_of", &["medals"]),
    ("news", &["news"]),
    ("news_on_day", &["today", "news"]),
    ("photos_for_event", &["event", "photo"]),
    ("results_for_athlete", &["athlete"]),
    ("results_for_event", &["event"]),
    ("sport", &["sport"]),
];

/// Typed-id constructors → family (`Dependency::new(EventId(n).data_key())`).
const ID_CTORS: &[(&str, Family)] = &[
    ("AthleteId", "athlete"),
    ("CountryId", "country"),
    ("EventId", "event"),
    ("NewsId", "news"),
    ("PhotoId", "photo"),
    ("SportId", "sport"),
];

/// Arm-binder variants → the family `<binder>.data_key()` resolves to.
const BINDER_FAMILY: &[(&str, Family)] = &[
    ("Athlete", "athlete"),
    ("Country", "country"),
    ("Event", "event"),
    ("News", "news"),
    ("ResultTable", "event"),
    ("Sport", "sport"),
    ("Venue", "sport"),
];

/// Well-known loop locals whose `.data_key()` family is their row type.
const LOCAL_NAMES: &[(&str, Family)] =
    &[("article", "news"), ("event", "event"), ("photo", "photo")];

/// Arms that render fixed content: no data reads expected, O001 off.
const STATIC_ARMS: &[&str] = &["Fun", "Nagano", "Venue", "Welcome"];

/// One classified ODG edge registration.
#[derive(Debug, Clone, PartialEq)]
enum Dep {
    /// Edge to a raw data key of this family.
    Data(Family),
    /// Edge to a fragment object (hybrid vertex).
    Fragment(String),
    /// Key expression we could not classify — ignored by both rules.
    Unknown,
}

/// One `match` arm of an ODG registration site.
#[derive(Debug)]
struct Arm {
    file: String,
    /// Variant name (`Home`, `Country`, `ResultTable`, …).
    variant: String,
    /// Arm pattern binder (`day` in `Home(day)`), if any.
    binder: Option<String>,
    /// True when the arm matches a `FragmentKey` variant.
    is_fragment: bool,
    /// (method, line, families) per `db` read.
    reads: Vec<(String, u32, &'static [Family])>,
    /// (classification, `push` line) per registered edge.
    deps: Vec<(Dep, u32)>,
    /// (fragment variant, line) per `inline_fragment` call.
    inlines: Vec<(String, u32)>,
}

fn lookup<V: Copy>(table: &[(&str, V)], key: &str) -> Option<V> {
    table
        .binary_search_by_key(&key, |(k, _)| k)
        .ok()
        .map(|i| table[i].1)
}

/// Run the ODG audit over the parsed pagegen files.
pub fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut arms: Vec<Arm> = Vec::new();
    for f in files.iter().filter(|f| f.krate == "pagegen") {
        collect_arms(f, &mut arms);
    }
    // Fragment → data-family closure: a page arm registering a
    // Fragment(V) edge is covered for every family V's own arm
    // registers (union across files; deterministic BTree order).
    let mut frag_families: BTreeMap<String, BTreeSet<Family>> = BTreeMap::new();
    for arm in arms.iter().filter(|a| a.is_fragment) {
        let entry = frag_families.entry(arm.variant.clone()).or_default();
        for (dep, _) in &arm.deps {
            if let Dep::Data(fam) = dep {
                entry.insert(fam);
            }
        }
    }
    let mut diags = Vec::new();
    for arm in &arms {
        audit_arm(arm, &frag_families, &mut diags);
    }
    diags
}

fn audit_arm(
    arm: &Arm,
    frag_families: &BTreeMap<String, BTreeSet<Family>>,
    diags: &mut Vec<Diagnostic>,
) {
    // Families covered by this arm's registered edges.
    let mut covered: BTreeSet<Family> = BTreeSet::new();
    for (dep, _) in &arm.deps {
        match dep {
            Dep::Data(fam) => {
                covered.insert(fam);
            }
            Dep::Fragment(v) => {
                if let Some(fams) = frag_families.get(v) {
                    covered.extend(fams.iter().copied());
                }
            }
            Dep::Unknown => {}
        }
    }
    // Families this arm actually reads.
    let mut read_families: BTreeSet<Family> = BTreeSet::new();
    for (_, _, fams) in &arm.reads {
        read_families.extend(fams.iter().copied());
    }

    // O001: uncovered reads (one finding per read line + family).
    if !STATIC_ARMS.contains(&arm.variant.as_str()) {
        let mut seen: BTreeSet<(u32, Family)> = BTreeSet::new();
        for (method, line, fams) in &arm.reads {
            for fam in fams.iter() {
                if !covered.contains(fam) && seen.insert((*line, fam)) {
                    diags.push(Diagnostic {
                        rule: "O001",
                        file: arm.file.clone(),
                        line: *line,
                        message: format!(
                            "arm `{}` reads `db.{}()` (`data:{}:*`) but registers no covering \
                             ODG edge — updates to that data will not invalidate this object",
                            arm.variant, method, fam
                        ),
                        suggestion: format!(
                            "push a Dependency on the `data:{fam}` key (or on a fragment whose \
                             arm registers it)"
                        ),
                    });
                }
            }
        }
        // An inlined fragment body without the fragment edge is the
        // same staleness hole one level up.
        for (v, line) in &arm.inlines {
            if !arm
                .deps
                .iter()
                .any(|(d, _)| matches!(d, Dep::Fragment(fv) if fv == v))
            {
                diags.push(Diagnostic {
                    rule: "O001",
                    file: arm.file.clone(),
                    line: *line,
                    message: format!(
                        "arm `{}` inlines fragment `{}` without registering its fragment edge",
                        arm.variant, v
                    ),
                    suggestion: format!(
                        "push a Dependency on PageKey::Fragment(FragmentKey::{v}).object_key()"
                    ),
                });
            }
        }
    }

    // O002: dead edges.
    for (dep, line) in &arm.deps {
        match dep {
            Dep::Data(fam) if !read_families.contains(fam) => {
                diags.push(Diagnostic {
                    rule: "O002",
                    file: arm.file.clone(),
                    line: *line,
                    message: format!(
                        "arm `{}` registers an ODG edge on `data:{}:*` but never reads that \
                         data — every update there causes a wasted invalidation",
                        arm.variant, fam
                    ),
                    suggestion: "remove the dead edge, or render the data it tracks".to_string(),
                });
            }
            Dep::Fragment(v) if !arm.inlines.iter().any(|(iv, _)| iv == v) && !arm.is_fragment => {
                diags.push(Diagnostic {
                    rule: "O002",
                    file: arm.file.clone(),
                    line: *line,
                    message: format!(
                        "arm `{}` registers a fragment edge on `{}` but never inlines it",
                        arm.variant, v
                    ),
                    suggestion: "remove the dead fragment edge, or inline the fragment".to_string(),
                });
            }
            _ => {}
        }
    }
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// Find every ODG `match` in the file and split it into arms.
fn collect_arms(file: &SourceFile, out: &mut Vec<Arm>) {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) == Some("match") {
            if let Some(end) = parse_match(file, toks, i, out) {
                i = end;
                continue;
            }
        }
        i += 1;
    }
}

/// Parse the `match` starting at `i` if it is an ODG site (first arm
/// pattern names `PageKey` or `FragmentKey`); returns the index just
/// past its body on success.
fn parse_match(file: &SourceFile, toks: &[Token], i: usize, out: &mut Vec<Arm>) -> Option<usize> {
    // Body `{` = first `{` at paren/bracket depth 0 after the scrutinee.
    let mut j = i + 1;
    let mut depth = 0i32;
    let open = loop {
        match toks.get(j).map(|t| &t.kind)? {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    let body_end = matching_brace(toks, open)?;

    // Split arms at depth 0 inside the body.
    let mut arms: Vec<(usize, usize, usize)> = Vec::new(); // (pat_start, body_start, end)
    let mut k = open + 1;
    while k < body_end {
        let pat_start = k;
        // Pattern runs to the `=>` at depth 0.
        let mut d = 0i32;
        let arrow = loop {
            if k >= body_end {
                return finish(file, toks, &arms, out, body_end);
            }
            match &toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                TokKind::Punct('=') if d == 0 && punct_at(toks, k + 1, '>') => break k,
                _ => {}
            }
            k += 1;
        };
        let body_start = arrow + 2;
        // Body: a block (runs to just past its matching brace) or an
        // expression (runs to the `,` at depth 0 / the match body end).
        let arm_end = if punct_at(toks, body_start, '{') {
            matching_brace(toks, body_start)? + 1
        } else {
            let mut d = 0i32;
            let mut m = body_start;
            loop {
                if m >= body_end {
                    break body_end;
                }
                match &toks[m].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                    TokKind::Punct(',') if d == 0 => break m,
                    _ => {}
                }
                m += 1;
            }
        };
        arms.push((pat_start, body_start, arm_end));
        k = arm_end;
        if punct_at(toks, k, ',') {
            k += 1;
        }
    }
    finish(file, toks, &arms, out, body_end)
}

/// Validate the first arm's pattern, then extract every arm.
fn finish(
    file: &SourceFile,
    toks: &[Token],
    arms: &[(usize, usize, usize)],
    out: &mut Vec<Arm>,
    body_end: usize,
) -> Option<usize> {
    let (ps, bs, _) = *arms.first()?;
    let first_pat: Vec<&str> = (ps..bs).filter_map(|i| ident_at(toks, i)).collect();
    if !first_pat.contains(&"PageKey") && !first_pat.contains(&"FragmentKey") {
        return None;
    }
    for &(ps, bs, ae) in arms {
        out.push(extract_arm(file, toks, ps, bs, ae));
    }
    Some(body_end + 1)
}

/// Index of the `}` matching the `{` at `i`.
fn matching_brace(toks: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Pull variant, binder, reads, deps, and inlines out of one arm.
fn extract_arm(file: &SourceFile, toks: &[Token], ps: usize, bs: usize, ae: usize) -> Arm {
    // Pattern: variant = ident after the `::` following PageKey /
    // FragmentKey (innermost wins: `PageKey::Fragment(f)` → Fragment);
    // binder = first ident inside the parens after the variant.
    let mut variant = String::new();
    let mut binder: Option<String> = None;
    let mut is_fragment = false;
    let mut p = ps;
    while p + 3 < bs + 1 && p < bs {
        if let Some(head @ ("PageKey" | "FragmentKey")) = ident_at(toks, p) {
            if punct_at(toks, p + 1, ':') && punct_at(toks, p + 2, ':') {
                if let Some(v) = ident_at(toks, p + 3) {
                    variant = v.to_string();
                    is_fragment = head == "FragmentKey";
                    if punct_at(toks, p + 4, '(') {
                        binder = ident_at(toks, p + 5).map(str::to_string);
                    }
                }
            }
        }
        p += 1;
    }

    let mut arm = Arm {
        file: file.rel.clone(),
        variant,
        binder,
        is_fragment,
        reads: Vec::new(),
        deps: Vec::new(),
        inlines: Vec::new(),
    };

    let mut i = bs;
    while i < ae {
        match ident_at(toks, i) {
            // `db . <method> (`  or  `db ( ) . <method> (`
            Some("db") => {
                let m = if punct_at(toks, i + 1, '.') {
                    i + 2
                } else if punct_at(toks, i + 1, '(')
                    && punct_at(toks, i + 2, ')')
                    && punct_at(toks, i + 3, '.')
                {
                    i + 4
                } else {
                    i += 1;
                    continue;
                };
                if let Some(method) = ident_at(toks, m) {
                    if punct_at(toks, m + 1, '(') {
                        if let Some(fams) = lookup(METHOD_FAMILIES, method) {
                            arm.reads.push((method.to_string(), toks[m].line, fams));
                        }
                    }
                }
            }
            // `deps . push ( <key expr> ... )`
            Some("deps")
                if punct_at(toks, i + 1, '.')
                    && ident_at(toks, i + 2) == Some("push")
                    && punct_at(toks, i + 3, '(') =>
            {
                let close = matching_paren(toks, i + 3).unwrap_or(ae);
                let dep = classify_dep(toks, i + 4, close, &arm);
                arm.deps.push((dep, toks[i + 2].line));
                i = close;
            }
            // `inline_fragment ( FragmentKey :: V ... )`
            Some("inline_fragment") if punct_at(toks, i + 1, '(') => {
                let close = matching_paren(toks, i + 1).unwrap_or(ae);
                let mut q = i + 2;
                while q < close {
                    if ident_at(toks, q) == Some("FragmentKey")
                        && punct_at(toks, q + 1, ':')
                        && punct_at(toks, q + 2, ':')
                    {
                        if let Some(v) = ident_at(toks, q + 3) {
                            arm.inlines.push((v.to_string(), toks[q].line));
                            break;
                        }
                    }
                    q += 1;
                }
                i = close;
            }
            _ => {}
        }
        i += 1;
    }
    arm
}

/// Index of the `)` matching the `(` at `i`.
fn matching_paren(toks: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Classify the key expression of one `deps.push(…)`.
fn classify_dep(toks: &[Token], start: usize, end: usize, arm: &Arm) -> Dep {
    // Fragment edges first: `FragmentKey::V` anywhere in the argument.
    let mut i = start;
    while i < end {
        if ident_at(toks, i) == Some("FragmentKey")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
        {
            if let Some(v) = ident_at(toks, i + 3) {
                return Dep::Fragment(v.to_string());
            }
        }
        i += 1;
    }
    // Named key helpers and typed-id constructors.
    for i in start..end {
        match ident_at(toks, i) {
            Some("today_data_key") => return Dep::Data("today"),
            Some("medals_data_key") => return Dep::Data("medals"),
            Some(word) => {
                if let Some(fam) = lookup(ID_CTORS, word) {
                    return Dep::Data(fam);
                }
            }
            None => {}
        }
    }
    // `<chain root>.data_key()`: the arm binder's family, or a
    // well-known loop local.
    for i in start..end {
        if ident_at(toks, i) == Some("data_key") && i > 0 && punct_at(toks, i - 1, '.') {
            // Walk the dotted chain back to its root ident.
            let mut j = i - 2;
            while j >= 2 && ident_at(toks, j).is_some() && punct_at(toks, j - 1, '.') {
                j -= 2;
            }
            if let Some(root) = ident_at(toks, j) {
                if arm.binder.as_deref() == Some(root) {
                    if let Some(fam) = lookup(BINDER_FAMILY, &arm.variant) {
                        return Dep::Data(fam);
                    }
                }
                if let Some(fam) = lookup(LOCAL_NAMES, root) {
                    return Dep::Data(fam);
                }
            }
            return Dep::Unknown;
        }
    }
    Dep::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect();
        run(&parsed)
    }

    const COVERED: &str = "
        impl R {
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Athlete(a) => {
                        deps.push(Dependency::new(a.data_key()));
                        let row = self.db.athlete(a);
                        let rs = self.db.results_for_athlete(a);
                    }
                }
            }
        }
    ";

    #[test]
    fn covered_reads_are_clean() {
        assert!(run_on(&[("crates/pagegen/src/r.rs", COVERED)]).is_empty());
    }

    #[test]
    fn uncovered_read_fires_o001_at_the_read_line() {
        let src = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Country(c) => {
                        deps.push(Dependency::new(c.data_key()));
                        let rows = self.db.athletes_of_country(c);
                        let standings = self.db.medal_standings();
                    }
                }
            }
        ";
        let diags = run_on(&[("crates/pagegen/src/r.rs", src)]);
        let o001: Vec<_> = diags.iter().filter(|d| d.rule == "O001").collect();
        assert_eq!(o001.len(), 1, "{diags:?}");
        assert_eq!(o001[0].line, 7);
        assert!(o001[0].message.contains("medal_standings"));
        // The country edge itself is live (athletes_of_country reads it).
        assert!(diags.iter().all(|d| d.rule != "O002"), "{diags:?}");
    }

    #[test]
    fn dead_edge_fires_o002_at_the_push_line() {
        let src = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Athlete(a) => {
                        deps.push(Dependency::new(a.data_key()));
                        deps.push(Dependency::weighted(
                            nagano_db::schema::medals_data_key(),
                            0.25,
                        ));
                        let row = self.db.athlete(a);
                    }
                }
            }
        ";
        let diags = run_on(&[("crates/pagegen/src/r.rs", src)]);
        let o002: Vec<_> = diags.iter().filter(|d| d.rule == "O002").collect();
        assert_eq!(o002.len(), 1, "{diags:?}");
        assert_eq!(o002[0].line, 6);
        assert!(o002[0].message.contains("data:medals"));
    }

    #[test]
    fn fragment_edges_cover_reads_across_files() {
        let page = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Home(day) => {
                        deps.push(Dependency::weighted(
                            nagano_db::schema::today_data_key(day), 2.0));
                        for event in self.db.events_on_day(day) {
                            deps.push(Dependency::new(
                                PageKey::Fragment(FragmentKey::ResultTable(event.id))
                                    .object_key()));
                            self.inline_fragment(FragmentKey::ResultTable(event.id), html);
                        }
                    }
                }
            }
        ";
        let frag = "
            fn compose_fragment(&self, f: FragmentKey, deps: &mut Vec<Dependency>) {
                match f {
                    FragmentKey::ResultTable(e) => {
                        deps.push(Dependency::new(e.data_key()));
                        let rows = self.db.results_for_event(e);
                    }
                }
            }
        ";
        let diags = run_on(&[
            ("crates/pagegen/src/page.rs", page),
            ("crates/pagegen/src/frag.rs", frag),
        ]);
        // events_on_day reads today (direct edge) + event (covered via
        // the ResultTable fragment's own edge, cross-file).
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cached_fragment_slot_form_is_recognized() {
        // A call spread over several lines, with arguments after the
        // buffer: the audit must still see the inline and the loop-local
        // `event.….data_key()` edge (LOCAL_NAMES).
        let page = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Home(day) => {
                        deps.push(Dependency::weighted(
                            nagano_db::schema::today_data_key(day), 2.0));
                        for event in self.db.events_on_day(day) {
                            deps.push(Dependency::new(
                                PageKey::Fragment(FragmentKey::ResultTable(event.id))
                                    .object_key()));
                            deps.push(Dependency::weighted(event.id.data_key(), 1.0));
                            self.inline_fragment(
                                FragmentKey::ResultTable(event.id),
                                html,
                                slots.as_deref_mut(),
                            );
                        }
                    }
                }
            }
        ";
        let frag = "
            fn compose_fragment(&self, f: FragmentKey, deps: &mut Vec<Dependency>) {
                match f {
                    FragmentKey::ResultTable(e) => {
                        deps.push(Dependency::new(e.data_key()));
                        let rows = self.db.results_for_event(e);
                    }
                }
            }
        ";
        let diags = run_on(&[
            ("crates/pagegen/src/page.rs", page),
            ("crates/pagegen/src/frag.rs", frag),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn memoised_sections_keep_their_reads_and_edges_in_the_arm() {
        // A memoised section is a closure handed to `compose_fragment`
        // from inside the page's arm: its reads and its `deps.push` sites
        // (on the closure's own `deps`) are the arm's.
        let page = |edge: &str| {
            format!(
                "
            fn compose(&self, db: &DbView, key: PageKey, deps: &mut Vec<Dependency>) {{
                match key {{
                    PageKey::Country(c) => {{
                        deps.push(Dependency::new(c.data_key()));
                        self.compose_fragment(db, Section::Roster(c), html, None, |html, _| {{
                            for a in db.athletes_of_country(c).take(50) {{
                                html.push_str(&a.name);
                            }}
                        }});
                    }}
                    PageKey::Home(day) => {{
                        deps.push(Dependency::weighted(
                            nagano_db::schema::today_data_key(day), 2.0));
                        for event in db.events_on_day(day) {{
                            let section = Section::HomeEvent(event.id);
                            self.compose_fragment(db, section, html, Some(deps), |html, deps| {{
                                {edge}
                                let winner = db.results_for_event(event.id).next();
                            }});
                        }}
                    }}
                }}
            }}
        "
            )
        };
        let covered = page("deps.push(Dependency::weighted(event.id.data_key(), 1.0));");
        let diags = run_on(&[("crates/pagegen/src/r.rs", &covered)]);
        assert!(diags.is_empty(), "{diags:?}");
        let uncovered = page("");
        let diags = run_on(&[("crates/pagegen/src/r.rs", &uncovered)]);
        let o001: Vec<_> = diags.iter().filter(|d| d.rule == "O001").collect();
        assert!(!o001.is_empty(), "{diags:?}");
        assert!(o001.iter().all(|d| d.message.contains("data:event")));
        assert!(o001.iter().any(|d| d.message.contains("results_for_event")));
    }

    #[test]
    fn dead_event_local_edge_is_o002() {
        // `event.id.data_key()` classifies via LOCAL_NAMES, so an arm
        // registering it without any event-family read is a dead edge.
        let src = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Medals => {
                        deps.push(Dependency::weighted(event.id.data_key(), 1.0));
                        for (c, m) in self.db.medal_standings().iter() {
                            let _ = writeln!(html, \"<span>{c} {}</span>\", m.gold);
                        }
                        deps.push(Dependency::new(nagano_db::schema::medals_data_key()));
                    }
                }
            }
        ";
        let diags = run_on(&[("crates/pagegen/src/r.rs", src)]);
        let o002: Vec<_> = diags.iter().filter(|d| d.rule == "O002").collect();
        assert_eq!(o002.len(), 1, "{diags:?}");
        assert!(o002[0].message.contains("data:event"), "{o002:?}");
    }

    #[test]
    fn fragment_edge_without_inline_is_dead() {
        let src = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Medals => {
                        deps.push(Dependency::new(
                            PageKey::Fragment(FragmentKey::MedalTable).object_key()));
                    }
                }
            }
        ";
        let diags = run_on(&[("crates/pagegen/src/r.rs", src)]);
        assert_eq!(
            diags.iter().filter(|d| d.rule == "O002").count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn inline_without_fragment_edge_is_o001() {
        let src = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Medals => {
                        self.inline_fragment(FragmentKey::MedalTable, html);
                    }
                }
            }
        ";
        let diags = run_on(&[("crates/pagegen/src/r.rs", src)]);
        assert_eq!(
            diags.iter().filter(|d| d.rule == "O001").count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn static_arms_are_exempt_from_o001() {
        let src = "
            fn compose(&self, key: PageKey, deps: &mut Vec<Dependency>) {
                match key {
                    PageKey::Venue(s) => {
                        let venue = self.db.sport(s);
                    }
                    PageKey::Welcome => {
                        let x = self.db.sport(s);
                    }
                }
            }
        ";
        assert!(run_on(&[("crates/pagegen/src/r.rs", src)]).is_empty());
    }

    #[test]
    fn non_pagegen_files_are_ignored() {
        assert!(run_on(&[("crates/cache/src/r.rs", COVERED)]).is_empty());
    }
}
