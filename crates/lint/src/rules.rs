//! The rule registry and the token-pattern checks behind each rule.
//!
//! Every rule produces machine-readable [`Diagnostic`]s (rule id,
//! file:line, message, suggestion). Diagnostics can be suppressed by an
//! allowlist annotation (see DESIGN.md §10) on the same line or the
//! line directly above; the annotation must carry a reason, and a
//! marker comment that fails to parse is itself reported as `A000` so a
//! typo cannot silently disable a rule.

use crate::lexer::{lex, strip_tests, Allow, TokKind, Token};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D001`, `R001`, …).
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

/// Registry entry describing one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id.
    pub id: &'static str,
    /// One-line summary of what the rule enforces.
    pub summary: &'static str,
}

/// The rule registry, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "A000",
        summary: "allowlist annotations must parse and carry a reason (not suppressible)",
    },
    RuleInfo {
        id: "D001",
        summary: "no Instant::now/SystemTime::now outside simcore and bench — use the sim clock",
    },
    RuleInfo {
        id: "D002",
        summary: "no thread_rng/OS entropy — only the seeded simcore DeterministicRng",
    },
    RuleInfo {
        id: "D003",
        summary: "no std HashMap/HashSet in deterministic paths — FxHashMap + sorted iteration, or BTreeMap",
    },
    RuleInfo {
        id: "L001",
        summary: "no lock-order inversions — a cycle in the cross-file lock-acquisition \
                  graph is a potential deadlock",
    },
    RuleInfo {
        id: "L002",
        summary: "no guard held across a blocking call (channel send/recv, join, accept) \
                  in serving/propagation crates",
    },
    RuleInfo {
        id: "R001",
        summary: "no .unwrap()/.expect() in serving hot-path crates (httpd, cache, trigger, odg)",
    },
    RuleInfo {
        id: "R002",
        summary: "no crossbeam::channel::unbounded in serving/propagation crates — bound every queue",
    },
    RuleInfo {
        id: "R003",
        summary: "retry loops must be bounded with seeded backoff — no bare `loop` \
                  retries, no unjittered sleeps inside a `loop` body",
    },
    RuleInfo {
        id: "T001",
        summary: "metric names must match nagano_<subsystem>_<metric>",
    },
    RuleInfo {
        id: "T002",
        summary: "trace span names must match nagano_<subsystem>_<name>, and every \
                  registered metric must appear in DESIGN.md's metric table",
    },
];

/// Metric-registration methods whose first argument is a metric name.
const METRIC_FNS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "bind_counter",
    "bind_gauge",
    "bind_histogram",
];

/// Trace methods taking a span name: for the first three the name is
/// the first argument; `add_child` takes a parent index first.
const SPAN_FNS: &[&str] = &["span", "span_with", "add_span", "add_child"];

/// Subsystem segment allowed directly after the `nagano_` prefix.
const SUBSYSTEMS: &[&str] = &[
    "bench",
    "cache",
    "cluster",
    "core",
    "db",
    "httpd",
    "odg",
    "pagegen",
    "sim",
    "site",
    "telemetry",
    "trigger",
    "workload",
];

/// Which rules apply to a file, derived from its repo-relative path.
struct Scope {
    d001: bool,
    d002: bool,
    r001: bool,
    r002: bool,
    r003: bool,
}

impl Scope {
    fn of(rel_path: &str) -> Scope {
        let krate = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or(if rel_path.starts_with("examples") {
                "examples"
            } else {
                ""
            });
        Scope {
            // simcore owns the clock; bench measures real machines.
            d001: !matches!(krate, "simcore" | "bench"),
            // simcore owns the RNG.
            d002: krate != "simcore",
            // The serving hot path.
            r001: matches!(krate, "httpd" | "cache" | "trigger" | "odg"),
            // Serving + update-propagation crates: an unbounded queue
            // here turns overload into memory exhaustion instead of
            // back-pressure or shedding.
            r002: matches!(
                krate,
                "httpd" | "cache" | "trigger" | "odg" | "db" | "cluster" | "core" | "telemetry"
            ),
            // The serving path plus core, where the resilience
            // primitives (CircuitBreaker, RetryBackoff) live: a retry
            // loop here must be bounded and jittered or it turns one
            // backend hiccup into a synchronized stampede.
            r003: matches!(krate, "httpd" | "cache" | "trigger" | "odg" | "core"),
        }
    }
}

/// Lint one source file. `rel_path` is the repo-relative path (used for
/// rule scoping and reporting); `source` is the file's text.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let toks = strip_tests(&lexed.tokens);
    let scope = Scope::of(rel_path);
    let mut diags: Vec<Diagnostic> = Vec::new();

    for m in &lexed.malformed {
        diags.push(Diagnostic {
            rule: "A000",
            file: rel_path.to_string(),
            line: m.line,
            message: format!("malformed allowlist annotation: {}", m.detail),
            suggestion: "write `// nagano-lint: allow(<RULE>) — <reason>`".to_string(),
        });
    }
    if scope.d001 {
        rule_d001(rel_path, &toks, &mut diags);
    }
    if scope.d002 {
        rule_d002(rel_path, &toks, &mut diags);
    }
    rule_d003(rel_path, &toks, &mut diags);
    if scope.r001 {
        rule_r001(rel_path, &toks, &mut diags);
    }
    if scope.r002 {
        rule_r002(rel_path, &toks, &mut diags);
    }
    if scope.r003 {
        rule_r003(rel_path, &toks, &mut diags);
    }
    rule_t001(rel_path, &toks, &mut diags);
    rule_t002(rel_path, &toks, &mut diags);

    diags.retain(|d| d.rule == "A000" || !suppressed(d, &lexed.allows));
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// An allowlist annotation suppresses a diagnostic of its rule on the
/// same line (trailing comment) or the line directly below (comment
/// above the offending statement). Shared with the semantic passes,
/// whose diagnostics are filtered in `lint_workspace`.
pub(crate) fn suppressed(d: &Diagnostic, allows: &[Allow]) -> bool {
    allows
        .iter()
        .any(|a| a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line))
}

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn strlit(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::StrLit(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// D001: `Instant::now` / `SystemTime::now` outside simcore/bench.
fn rule_d001(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if (name == "Instant" || name == "SystemTime")
            && punct(toks, i + 1, ':')
            && punct(toks, i + 2, ':')
            && ident(toks, i + 3) == Some("now")
        {
            diags.push(Diagnostic {
                rule: "D001",
                file: file.to_string(),
                line: toks[i].line,
                message: format!("wall-clock `{name}::now` in deterministic code"),
                suggestion: "use the simcore clock (SimTime/SimDuration); host time is only \
                             allowed in simcore, bench, or under an allowlist annotation"
                    .to_string(),
            });
        }
    }
}

/// D002: OS entropy / unseeded RNG construction.
fn rule_d002(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    const ENTROPY: &[&str] = &[
        "thread_rng",
        "OsRng",
        "from_entropy",
        "from_os_rng",
        "getrandom",
    ];
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        let qualified_rand_rng = name == "rand"
            && punct(toks, i + 1, ':')
            && punct(toks, i + 2, ':')
            && ident(toks, i + 3) == Some("rng");
        if ENTROPY.contains(&name) || qualified_rand_rng {
            diags.push(Diagnostic {
                rule: "D002",
                file: file.to_string(),
                line: toks[i].line,
                message: format!("OS-entropy RNG source `{name}`"),
                suggestion: "use nagano_simcore::DeterministicRng seeded from the run seed \
                             (fork per component for independent streams)"
                    .to_string(),
            });
        }
    }
}

/// D003: `std::collections::{HashMap,HashSet}` anywhere in the
/// workspace — their iteration order is seeded per-process.
fn rule_d003(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    let mut i = 0usize;
    while i < toks.len() {
        let at_std_collections = ident(toks, i) == Some("std")
            && punct(toks, i + 1, ':')
            && punct(toks, i + 2, ':')
            && ident(toks, i + 3) == Some("collections");
        if !at_std_collections {
            i += 1;
            continue;
        }
        // Scan the rest of the path / use-group up to the statement end.
        let mut j = i + 4;
        while j < toks.len() && !punct(toks, j, ';') {
            if let Some(name) = ident(toks, j) {
                if name == "HashMap" || name == "HashSet" {
                    diags.push(Diagnostic {
                        rule: "D003",
                        file: file.to_string(),
                        line: toks[j].line,
                        message: format!("randomized-order `std::collections::{name}`"),
                        suggestion: "use rustc_hash::FxHashMap/FxHashSet with sorted \
                                     iteration, or a BTreeMap/BTreeSet"
                            .to_string(),
                    });
                }
            }
            j += 1;
        }
        i = j;
    }
}

/// R001: `.unwrap()` / `.expect(` in serving hot-path crates.
fn rule_r001(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if !punct(toks, i, '.') {
            continue;
        }
        let Some(name) = ident(toks, i + 1) else {
            continue;
        };
        if (name == "unwrap" || name == "expect") && punct(toks, i + 2, '(') {
            diags.push(Diagnostic {
                rule: "R001",
                file: file.to_string(),
                line: toks[i + 1].line,
                message: format!("`.{name}()` in a serving hot-path crate"),
                suggestion: "return a typed error that maps to a 4xx/5xx response (or \
                             recover locally); a panic here is a node-level outage"
                    .to_string(),
            });
        }
    }
}

/// R002: `crossbeam::channel::unbounded` in serving/propagation crates.
/// Fires on the qualified call (`channel::unbounded(`) and on the
/// imported name inside a `channel::{...}` use-group; other `unbounded`
/// identifiers (e.g. `CacheConfig::unbounded`) stay clean.
fn rule_r002(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if ident(toks, i) != Some("unbounded") {
            continue;
        }
        let qualified = i >= 3
            && punct(toks, i - 1, ':')
            && punct(toks, i - 2, ':')
            && ident(toks, i - 3) == Some("channel");
        if qualified || in_channel_use_group(toks, i) {
            diags.push(Diagnostic {
                rule: "R002",
                file: file.to_string(),
                line: toks[i].line,
                message: "unbounded crossbeam channel in a serving/propagation crate".to_string(),
                suggestion: "use a bounded channel sized to the component's queue budget and \
                             shed or back-pressure on Full; if the queue is provably bounded \
                             elsewhere, add an allowlist annotation with the reason"
                    .to_string(),
            });
        }
    }
}

/// Is token `i` a member of a `channel::{...}` use-group? Walks back
/// over group members (idents, commas, `::` pairs) to the opening `{`
/// and requires a `channel::` path right before it.
fn in_channel_use_group(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct('{') => {
                return j >= 3
                    && punct(toks, j - 1, ':')
                    && punct(toks, j - 2, ':')
                    && ident(toks, j - 3) == Some("channel");
            }
            TokKind::Punct(',') | TokKind::Punct(':') | TokKind::Ident(_) => {}
            _ => return false,
        }
    }
    false
}

/// Identifiers that mark a `loop` body as bounded and backoff-driven.
const BACKOFF_MARKERS: &[&str] = &["backoff", "max_attempts", "max_retries"];

/// R003: retry loops must be bounded with seeded backoff. Fires on
/// (a) a bare `loop` body that manipulates a `retry*` counter with no
/// backoff or attempt bound in sight, and (b) a `sleep(...)` inside a
/// `loop` body whose argument never references a backoff/delay/jitter
/// value — a fixed-interval retry synchronizes every failing client
/// into a stampede. `while`/`for` loops are exempt: the condition is
/// their bound.
fn rule_r003(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    // Nested loops scan overlapping bodies; dedup sleep findings by line.
    let mut sleep_lines: Vec<u32> = Vec::new();
    for i in 0..toks.len() {
        if ident(toks, i) != Some("loop") || !punct(toks, i + 1, '{') {
            continue;
        }
        // The matching close brace bounds the loop body.
        let body_start = i + 2;
        let mut depth = 1i32;
        let mut end = body_start;
        while end < toks.len() {
            match &toks[end].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let body = &toks[body_start..end];
        let has_marker = body.iter().any(|t| match &t.kind {
            TokKind::Ident(s) => BACKOFF_MARKERS.iter().any(|m| s.contains(m)),
            _ => false,
        });
        let retries = body.iter().any(|t| match &t.kind {
            TokKind::Ident(s) => s.starts_with("retry"),
            _ => false,
        });
        if retries && !has_marker {
            diags.push(Diagnostic {
                rule: "R003",
                file: file.to_string(),
                line: toks[i].line,
                message: "unbounded retry loop with no backoff".to_string(),
                suggestion: "bound the attempts and space them with the seeded \
                             nagano::RetryBackoff (exponential delay + jitter drawn from \
                             the run's DeterministicRng) so failures shed instead of spin"
                    .to_string(),
            });
        }
        for k in 0..body.len() {
            if ident(body, k) != Some("sleep") || !punct(body, k + 1, '(') {
                continue;
            }
            let line = body[k].line;
            if sleep_lines.contains(&line) {
                continue;
            }
            // Scan the argument list for a backoff-derived delay.
            let mut arg_depth = 1i32;
            let mut j = k + 2;
            let mut jittered = false;
            while j < body.len() && arg_depth > 0 {
                match &body[j].kind {
                    TokKind::Punct('(') => arg_depth += 1,
                    TokKind::Punct(')') => arg_depth -= 1,
                    TokKind::Ident(s)
                        if s.contains("backoff") || s.contains("delay") || s.contains("jitter") =>
                    {
                        jittered = true
                    }
                    _ => {}
                }
                j += 1;
            }
            if !jittered {
                sleep_lines.push(line);
                diags.push(Diagnostic {
                    rule: "R003",
                    file: file.to_string(),
                    line,
                    message: "fixed-interval sleep inside a retry loop".to_string(),
                    suggestion: "sleep for a RetryBackoff::next_delay value (seeded \
                                 exponential backoff + jitter) instead of a constant; \
                                 synchronized retries arrive as a thundering herd"
                        .to_string(),
                });
            }
        }
    }
}

/// T001: metric names passed to registry methods must follow the
/// `nagano_<subsystem>_<metric>` convention.
fn rule_t001(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if !punct(toks, i, '.') {
            continue;
        }
        let Some(name) = ident(toks, i + 1) else {
            continue;
        };
        if !METRIC_FNS.contains(&name) || !punct(toks, i + 2, '(') {
            continue;
        }
        let Some(metric) = strlit(toks, i + 3) else {
            continue; // Name built dynamically — out of static reach.
        };
        if !valid_metric_name(metric) {
            diags.push(Diagnostic {
                rule: "T001",
                file: file.to_string(),
                line: toks[i + 1].line,
                message: format!("non-conforming metric name \"{metric}\""),
                suggestion: format!(
                    "rename to nagano_<subsystem>_<metric> (subsystems: {})",
                    SUBSYSTEMS.join(", ")
                ),
            });
        }
    }
}

/// T002 (span half): span names passed to `Trace::{span, span_with,
/// add_span, add_child}` must follow the same
/// `nagano_<subsystem>_<name>` convention as metrics, so trace exports
/// and the metric plane share one vocabulary.
fn rule_t002(file: &str, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if !punct(toks, i, '.') {
            continue;
        }
        let Some(fn_name) = ident(toks, i + 1) else {
            continue;
        };
        if !SPAN_FNS.contains(&fn_name) || !punct(toks, i + 2, '(') {
            continue;
        }
        let name_at = if fn_name == "add_child" {
            // Skip the parent-index expression: first comma at depth 0.
            let Some(at) = skip_argument(toks, i + 3) else {
                continue;
            };
            at
        } else {
            i + 3
        };
        let Some(span_name) = strlit(toks, name_at) else {
            continue; // Name built dynamically — out of static reach.
        };
        if !valid_metric_name(span_name) {
            diags.push(Diagnostic {
                rule: "T002",
                file: file.to_string(),
                line: toks[name_at].line,
                message: format!("non-conforming trace span name \"{span_name}\""),
                suggestion: format!(
                    "rename to nagano_<subsystem>_<name> (subsystems: {})",
                    SUBSYSTEMS.join(", ")
                ),
            });
        }
    }
}

/// Starting at token `start` (inside a call's parens), return the index
/// of the token right after the first `,` at nesting depth 0, or `None`
/// if the argument list closes first.
fn skip_argument(toks: &[Token], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            TokKind::Punct(',') if depth == 0 => return Some(j + 1),
            _ => {}
        }
        j += 1;
    }
    None
}

/// T002 (docs half): every metric registered by name in production code
/// must appear — backtick-quoted — in DESIGN.md's metric table, so the
/// documented observability surface can never silently lag the code.
/// Only conforming names are checked; non-conforming ones are already
/// T001 findings. Workspace-level entry point: [`lint_source`] cannot
/// see DESIGN.md, so `lint_workspace` calls this with its contents.
pub fn lint_metric_docs(rel_path: &str, source: &str, design: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let toks = strip_tests(&lexed.tokens);
    let mut diags = Vec::new();
    for i in 0..toks.len() {
        if !punct(&toks, i, '.') {
            continue;
        }
        let Some(name) = ident(&toks, i + 1) else {
            continue;
        };
        if !METRIC_FNS.contains(&name) || !punct(&toks, i + 2, '(') {
            continue;
        }
        let Some(metric) = strlit(&toks, i + 3) else {
            continue;
        };
        if valid_metric_name(metric) && !design.contains(&format!("`{metric}`")) {
            diags.push(Diagnostic {
                rule: "T002",
                file: rel_path.to_string(),
                line: toks[i + 1].line,
                message: format!("metric \"{metric}\" is not documented in DESIGN.md"),
                suggestion: "add a row for it to DESIGN.md's metric table (§9), \
                             backtick-quoting the metric name"
                    .to_string(),
            });
        }
    }
    diags.retain(|d| !suppressed(d, &lexed.allows));
    diags
}

/// `nagano_<subsystem>_<metric>` with a known subsystem, all
/// `[a-z0-9_]`, and a non-empty metric part.
fn valid_metric_name(name: &str) -> bool {
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return false;
    }
    let Some(rest) = name.strip_prefix("nagano_") else {
        return false;
    };
    let Some(sub) = rest.split('_').next() else {
        return false;
    };
    if !SUBSYSTEMS.contains(&sub) {
        return false;
    }
    let metric = &rest[sub.len()..];
    metric.starts_with('_') && metric.len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("nagano_cache_hits_total"));
        assert!(valid_metric_name("nagano_trigger_latency_seconds"));
        assert!(!valid_metric_name("cache_hits"), "missing prefix");
        assert!(!valid_metric_name("nagano_bogus_value"), "bad subsystem");
        assert!(!valid_metric_name("nagano_cache"), "no metric part");
        assert!(!valid_metric_name("nagano_cache_Hits"), "uppercase");
    }

    #[test]
    fn scope_exemptions() {
        let src = "pub fn f() { let _ = Instant::now(); }";
        assert!(lint_source("crates/simcore/src/time.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/run.rs", src).is_empty());
        assert_eq!(lint_source("crates/cluster/src/sim.rs", src).len(), 1);
    }

    #[test]
    fn r001_only_in_hot_path_crates() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(lint_source("crates/cache/src/cache.rs", src).len(), 1);
        assert!(lint_source("crates/workload/src/gen.rs", src).is_empty());
    }

    #[test]
    fn r002_scope_and_decoys() {
        let src = "pub fn f() { let (_t, _r) = crossbeam::channel::unbounded::<u8>(); }";
        assert_eq!(lint_source("crates/trigger/src/runner.rs", src).len(), 1);
        assert_eq!(lint_source("crates/db/src/replication.rs", src).len(), 1);
        assert!(
            lint_source("crates/workload/src/gen.rs", src).is_empty(),
            "workload is outside the serving/propagation scope"
        );
        let decoy = "pub fn f() { let _ = CacheConfig::unbounded(); }";
        assert!(lint_source("crates/cache/src/cache.rs", decoy).is_empty());
        let grouped = "use crossbeam::channel::{bounded, unbounded};";
        assert_eq!(lint_source("crates/httpd/src/server.rs", grouped).len(), 1);
    }

    #[test]
    fn r003_scope_and_markers() {
        let bare = "pub fn f() { let mut retry = 0; loop { retry += 1; } }";
        assert_eq!(lint_source("crates/core/src/backoff.rs", bare).len(), 1);
        assert!(
            lint_source("crates/workload/src/gen.rs", bare).is_empty(),
            "workload is outside the retry-discipline scope"
        );
        let bounded =
            "pub fn f(b: &mut RetryBackoff) { loop { let Some(d) = b.backoff_delay() else \
             { break }; use_it(d); } }";
        assert!(lint_source("crates/core/src/backoff.rs", bounded).is_empty());
        let fixed = "pub fn f() { loop { sleep(POLL_INTERVAL); } }";
        assert_eq!(lint_source("crates/cache/src/cache.rs", fixed).len(), 1);
        let jittered = "pub fn f(d: f64) { loop { sleep(jitter_delay(d)); } }";
        assert!(lint_source("crates/cache/src/cache.rs", jittered).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
        assert!(lint_source("crates/cache/src/cache.rs", src).is_empty());
    }

    #[test]
    fn diagnostics_are_ordered_and_complete() {
        let src = "use std::collections::HashMap;\npub fn f() { let _ = Instant::now(); }\n";
        let diags = lint_source("crates/cluster/src/sim.rs", src);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].rule, "D003");
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[1].rule, "D001");
        assert_eq!(diags[1].line, 2);
        assert!(!diags[1].suggestion.is_empty());
    }
}
