//! Pass 1 of the semantic analysis: a cross-file model of the workspace.
//!
//! The lock rules (L001/L002 in [`crate::locks`]) need to see the
//! workspace whole: which `fn` items exist, which locks each one acquires, which guards are still
//! live at each call site, and which calls can be resolved to other
//! workspace functions. This module builds that model from the same
//! hand-rolled token stream — no `syn`, no type information — so every
//! judgement is a *name-based approximation* tuned to stay on the
//! useful side of precision:
//!
//! * a **lock acquisition** is a zero-argument `.lock()` / `.read()` /
//!   `.write()` call; the lock's identity is `(file, receiver)` where
//!   the receiver is the identifier (or method name) the guard came
//!   from, e.g. `monitor.rs::deferred` or `cache.rs::shard_for`;
//! * **guard liveness** is tracked by brace depth: a `let`-bound guard
//!   lives to the end of its enclosing block (or an explicit `drop`),
//!   while an expression-position guard lives to the end of its
//!   statement — including across `match`/`if let` bodies whose
//!   scrutinee holds it, which is exactly Rust's temporary-lifetime
//!   rule that makes those guards deadlock-prone;
//! * a **call edge** is created only when the callee's name resolves
//!   unambiguously — defined in the same file, or unique across the
//!   workspace — and is not on the stop list of ubiquitous std method
//!   names (`get`, `insert`, `len`, …) that would otherwise alias
//!   workspace functions. Unresolvable calls are dropped: the model
//!   under-approximates rather than invent edges.
//!
//! Everything downstream iterates `BTreeMap`s and sorted `Vec`s, so the
//! model (and therefore every semantic diagnostic) is deterministic.

use std::collections::BTreeMap;

use crate::lexer::{lex, strip_tests, TokKind, Token};

/// One parsed production source file (tests already stripped).
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    /// Crate name (`trigger`, `cache`, …; `examples` for examples/).
    pub krate: String,
    /// Production token stream.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Lex and test-strip one file.
    pub fn parse(rel: &str, source: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            krate: crate_of(rel),
            tokens: strip_tests(&lex(source)),
        }
    }
}

/// Crate name from a repo-relative path.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or(if rel.starts_with("examples") {
            "examples"
        } else {
            ""
        })
        .to_string()
}

/// A lock that is live (its guard not yet dropped) at some point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldLock {
    /// Canonical lock id: `<file>::<receiver>`.
    pub lock: String,
    /// Line the guard was acquired on.
    pub line: u32,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Canonical lock id.
    pub lock: String,
    /// Acquisition line.
    pub line: u32,
    /// Locks already held when this one is acquired.
    pub held: Vec<HeldLock>,
}

/// How a call names its target — drives resolution confidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `self.f(…)` — almost surely a method of the enclosing type.
    SelfMethod,
    /// `expr.f(…)` with any other receiver — the receiver's type is
    /// unknown, so name-based resolution would routinely alias
    /// workspace functions (`self.stats.invalidate(…)` is not
    /// `Cache::invalidate`). Never resolved.
    Method,
    /// `f(…)` / `path::f(…)` — a free or associated function.
    Free,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub callee: String,
    /// How the callee is addressed.
    pub kind: CallKind,
    /// Call line.
    pub line: u32,
    /// Locks held at the call.
    pub held: Vec<HeldLock>,
}

/// A blocking operation (channel recv/send, thread join, TCP accept).
#[derive(Debug, Clone)]
pub struct BlockingCall {
    /// The blocking method name.
    pub method: String,
    /// Call line.
    pub line: u32,
    /// Locks held across the blocking point.
    pub held: Vec<HeldLock>,
}

/// Everything the model knows about one `fn` item.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Function name (methods keep just the method name).
    pub name: String,
    /// Defining file (repo-relative).
    pub file: String,
    /// Crate the function lives in.
    pub krate: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Lock acquisitions, in body order.
    pub acquisitions: Vec<Acquisition>,
    /// Calls (with the held-lock snapshot), in body order.
    pub calls: Vec<CallSite>,
    /// Blocking calls made while at least one guard is live.
    pub blocking: Vec<BlockingCall>,
}

/// The cross-file workspace model.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// All functions, in (file, line) order.
    pub fns: Vec<FnModel>,
    /// Name → indices into `fns` (for call resolution).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// Ubiquitous std method names that would alias workspace functions if
/// we resolved calls to them by name alone. Calls to these never create
/// call-graph edges (their direct effects are modelled elsewhere:
/// `.lock()`/`.recv()`/… have their own detectors).
const CALL_STOPLIST: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "drop",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "for_each",
    "from",
    "get",
    "get_mut",
    "get_or_init",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "ok",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "pop",
    "position",
    "push",
    "read",
    "recv",
    "remove",
    "reserve",
    "retain",
    "rev",
    "send",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "trim",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "with_capacity",
    "write",
    "zip",
];

/// Keywords that look like a call when followed by `(`.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// Blocking methods for L002. `recv`/`join`/`accept` must be zero-arg
/// (a one-arg `.join(",")` is a slice join, a `.read(&mut buf)` is I/O);
/// `send`/`recv_timeout` take arguments by nature. `try_send`/`try_recv`
/// are non-blocking and deliberately absent.
const BLOCKING_ZERO_ARG: &[&str] = &["recv", "join", "accept"];
const BLOCKING_ANY_ARG: &[&str] = &["send", "recv_timeout"];

impl WorkspaceModel {
    /// Build the model from parsed files.
    pub fn build(files: &[SourceFile]) -> WorkspaceModel {
        let mut model = WorkspaceModel::default();
        for f in files {
            extract_fns(f, &mut model.fns);
        }
        model
            .fns
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        for (i, f) in model.fns.iter().enumerate() {
            model.by_name.entry(f.name.clone()).or_default().push(i);
        }
        model
    }

    /// Resolve a call by name: same-file definition first, then a
    /// workspace-unique one. Stop-listed names, ambiguous names, and
    /// method calls on non-`self` receivers resolve to nothing — the
    /// model under-approximates rather than invent edges.
    pub fn resolve(&self, call: &CallSite, from_file: &str) -> Option<usize> {
        if call.kind == CallKind::Method || CALL_STOPLIST.contains(&call.callee.as_str()) {
            return None;
        }
        let candidates = self.by_name.get(&call.callee)?;
        if let Some(&i) = candidates.iter().find(|&&i| self.fns[i].file == from_file) {
            return Some(i);
        }
        if candidates.len() == 1 {
            return Some(candidates[0]);
        }
        None
    }
}

/// A live guard during the body walk.
#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    line: u32,
    /// Brace depth at creation.
    depth: i32,
    /// Statement temporary (dies at its statement/expression end) vs a
    /// `let`-bound guard (dies at block end or explicit `drop`).
    temp: bool,
    /// Binder name for `drop(<name>)` recognition.
    binder: Option<String>,
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

/// Find every `fn` item in the file and model its body. Nested fn
/// spans are excluded from the enclosing fn's walk so their locks are
/// attributed to the right owner.
fn extract_fns(file: &SourceFile, out: &mut Vec<FnModel>) {
    let toks = &file.tokens;
    // (name, fn-keyword index, body range)
    let mut spans: Vec<(String, usize, usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) == Some("fn") {
            if let Some(name) = ident_at(toks, i + 1) {
                // Scan the signature for the body `{` (or `;` for a
                // bodyless trait method).
                let mut j = i + 2;
                let mut body: Option<(usize, usize)> = None;
                while j < toks.len() {
                    match &toks[j].kind {
                        TokKind::Punct('{') => {
                            body = Some((j, skip_brace(toks, j)));
                            break;
                        }
                        TokKind::Punct(';') => break,
                        _ => j += 1,
                    }
                }
                if let Some((bs, be)) = body {
                    spans.push((name.to_string(), i, bs, be));
                }
            }
        }
        i += 1;
    }
    for (si, (name, fn_idx, bs, be)) in spans.iter().enumerate() {
        // Token ranges of fns nested inside this one.
        let nested: Vec<(usize, usize)> = spans
            .iter()
            .enumerate()
            .filter(|(oi, (_, ofi, _, obe))| *oi != si && *ofi > *bs && *obe <= *be)
            .map(|(_, (_, ofi, _, obe))| (*ofi, *obe))
            .collect();
        let mut f = FnModel {
            name: name.clone(),
            file: file.rel.clone(),
            krate: file.krate.clone(),
            line: toks[*fn_idx].line,
            acquisitions: Vec::new(),
            calls: Vec::new(),
            blocking: Vec::new(),
        };
        walk_body(toks, *bs, *be, &nested, &mut f);
        out.push(f);
    }
}

/// Index just past the `}` matching the `{` at `i`.
fn skip_brace(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Walk one fn body tracking live guards; record acquisitions, calls,
/// and blocking operations. `body` is the index of the opening `{`;
/// `end` is just past the closing `}`.
fn walk_body(toks: &[Token], body: usize, end: usize, nested: &[(usize, usize)], f: &mut FnModel) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // `let`-pattern tracking: binder = last ident before the `=`.
    let mut collecting_let = false;
    let mut let_idents: Vec<String> = Vec::new();
    let mut pending_binder: Option<String> = None;
    // A `*` after the `=` means the let binds a deref-copied value —
    // the guard itself is a statement temporary (`let id =
    // *self.applied.lock();` holds nothing afterwards).
    let mut deref_after_eq = false;

    let mut i = body;
    while i < end {
        // Skip nested fn definitions wholesale (they are balanced, so
        // depth tracking stays consistent).
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, _)| ns == i) {
            i = ne;
            continue;
        }
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                guards.retain(|g| {
                    if g.temp {
                        g.depth < depth
                    } else {
                        g.depth <= depth
                    }
                });
            }
            TokKind::Punct(';') => {
                guards.retain(|g| !(g.temp && depth <= g.depth));
                collecting_let = false;
                pending_binder = None;
            }
            // A `,` at the guard's brace depth ends a match-arm
            // expression (`Feed::Master => log.since(*w.lock()),`) — the
            // arm's temporaries die there. (This also ends temps at
            // argument commas, a deliberate under-approximation: such a
            // guard still dies at the same statement's `;`.)
            TokKind::Punct(',') => {
                guards.retain(|g| !(g.temp && depth <= g.depth));
            }
            // `=` (not `==`/`=>`/`<=` …) ends a let pattern.
            TokKind::Punct('=')
                if collecting_let && !punct_at(toks, i + 1, '=') && !punct_at(toks, i + 1, '>') =>
            {
                pending_binder = let_idents.last().cloned();
                collecting_let = false;
                deref_after_eq = false;
            }
            TokKind::Punct('*') if pending_binder.is_some() => {
                deref_after_eq = true;
            }
            TokKind::Ident(word) => {
                if word == "let" {
                    collecting_let = true;
                    let_idents.clear();
                } else if word == "drop" && punct_at(toks, i + 1, '(') {
                    if let Some(name) = ident_at(toks, i + 2) {
                        if punct_at(toks, i + 3, ')') {
                            guards.retain(|g| g.binder.as_deref() != Some(name));
                        }
                    }
                } else if collecting_let {
                    if word != "mut" && word != "ref" {
                        let_idents.push(word.clone());
                    }
                } else if is_acquisition(toks, i) {
                    let recv = receiver_name(toks, i - 1);
                    let lock = format!("{}::{}", f.file, recv);
                    f.acquisitions.push(Acquisition {
                        lock: lock.clone(),
                        line: toks[i].line,
                        held: guards
                            .iter()
                            .map(|g| HeldLock {
                                lock: g.lock.clone(),
                                line: g.line,
                            })
                            .collect(),
                    });
                    let temp = deref_after_eq || !guard_is_let_bound(toks, i + 3, end);
                    guards.push(Guard {
                        lock,
                        line: toks[i].line,
                        depth,
                        temp,
                        binder: if temp { None } else { pending_binder.take() },
                    });
                } else if punct_at(toks, i + 1, '(') && !KEYWORDS.contains(&word.as_str()) {
                    let zero_arg = punct_at(toks, i + 2, ')');
                    let method = i > body && punct_at(toks, i - 1, '.');
                    let kind = if !method {
                        CallKind::Free
                    } else if ident_at(toks, i.wrapping_sub(2)) == Some("self") {
                        CallKind::SelfMethod
                    } else {
                        CallKind::Method
                    };
                    let blocking = method
                        && ((BLOCKING_ZERO_ARG.contains(&word.as_str()) && zero_arg)
                            || BLOCKING_ANY_ARG.contains(&word.as_str()));
                    let held: Vec<HeldLock> = guards
                        .iter()
                        .map(|g| HeldLock {
                            lock: g.lock.clone(),
                            line: g.line,
                        })
                        .collect();
                    if blocking {
                        f.blocking.push(BlockingCall {
                            method: word.clone(),
                            line: toks[i].line,
                            held,
                        });
                    } else {
                        // Calls with nothing held still matter: they
                        // carry the transitive lock-set propagation.
                        f.calls.push(CallSite {
                            callee: word.clone(),
                            kind,
                            line: toks[i].line,
                            held,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Is the ident at `i` a zero-argument `.lock()` / `.read()` /
/// `.write()` acquisition?
fn is_acquisition(toks: &[Token], i: usize) -> bool {
    matches!(ident_at(toks, i), Some("lock" | "read" | "write"))
        && i > 0
        && punct_at(toks, i - 1, '.')
        && punct_at(toks, i + 1, '(')
        && punct_at(toks, i + 2, ')')
}

/// Walk back from the `.` before an acquisition to name its receiver:
/// `self.deferred.lock()` → `deferred`, `self.shard_for(k).lock()` →
/// `shard_for`, `report_cache().lock()` → `report_cache`.
fn receiver_name(toks: &[Token], dot: usize) -> String {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Ident(s) => return s.clone(),
            TokKind::Punct('.') => continue, // tuple index (`self.0.lock()`)
            TokKind::Punct(')') | TokKind::Punct(']') => {
                // Skip the balanced group, then expect the callee/array
                // name right before it.
                let open = if toks[j].kind == TokKind::Punct(')') {
                    '('
                } else {
                    '['
                };
                let close = if open == '(' { ')' } else { ']' };
                let mut depth = 0i32;
                loop {
                    match &toks[j].kind {
                        TokKind::Punct(c) if *c == close => depth += 1,
                        TokKind::Punct(c) if *c == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                // Loop continues: the token before the group names it.
            }
            _ => return "<expr>".to_string(),
        }
    }
    "<expr>".to_string()
}

/// After an acquisition's `( )` at `after` (index of the token past the
/// `)`), decide whether the guard is `let`-bound: skip a chain of
/// `.expect("…")` / `.unwrap()` / `?`, then require `;`. Anything else
/// (another method, a `{` scrutinee, an argument position) makes it a
/// statement temporary.
fn guard_is_let_bound(toks: &[Token], mut j: usize, end: usize) -> bool {
    while j < end {
        if punct_at(toks, j, '?') {
            j += 1;
            continue;
        }
        if punct_at(toks, j, '.') {
            match ident_at(toks, j + 1) {
                Some("expect") | Some("unwrap") if punct_at(toks, j + 2, '(') => {
                    j = skip_paren(toks, j + 2);
                    continue;
                }
                _ => return false,
            }
        }
        return punct_at(toks, j, ';');
    }
    false
}

/// Index just past the `)` matching the `(` at `i`.
fn skip_paren(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(rel: &str, src: &str) -> WorkspaceModel {
        WorkspaceModel::build(&[SourceFile::parse(rel, src)])
    }

    #[test]
    fn let_bound_guard_is_held_at_later_calls() {
        let src = "
            impl S {
                fn f(&self) {
                    let mut q = self.queue.lock();
                    self.helper();
                    q.push(1);
                }
            }
        ";
        let m = model_of("crates/cache/src/a.rs", src);
        let f = &m.fns[0];
        let helper = f.calls.iter().find(|c| c.callee == "helper").unwrap();
        assert_eq!(helper.held.len(), 1);
        assert!(helper.held[0].lock.ends_with("::queue"));
    }

    #[test]
    fn block_scoped_guard_dies_at_the_brace() {
        let src = "
            fn f(&self) {
                { let g = self.queue.lock(); g.touch(); }
                self.helper();
            }
        ";
        let m = model_of("crates/cache/src/a.rs", src);
        let helper = m.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "helper")
            .unwrap();
        assert!(helper.held.is_empty());
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "
            fn f(&self) {
                let g = self.queue.lock();
                drop(g);
                self.helper();
            }
        ";
        let m = model_of("crates/cache/src/a.rs", src);
        let helper = m.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "helper")
            .unwrap();
        assert!(helper.held.is_empty());
    }

    #[test]
    fn statement_temp_dies_at_its_semicolon() {
        let src = "
            fn f(&self) {
                let n = self.queue.lock().len();
                self.helper();
            }
        ";
        let m = model_of("crates/cache/src/a.rs", src);
        let helper = m.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "helper")
            .unwrap();
        assert!(
            helper.held.is_empty(),
            "temp guard must not outlive its statement"
        );
    }

    #[test]
    fn scrutinee_temp_is_held_through_the_match_body() {
        // Rust's temporary-lifetime rule: the guard in a match scrutinee
        // lives to the end of the match — the classic deadlock shape.
        let src = "
            fn f(&self) {
                match self.queue.lock() {
                    q => { self.inside(); }
                }
                self.after();
            }
        ";
        let m = model_of("crates/cache/src/a.rs", src);
        let f = &m.fns[0];
        let inside = f.calls.iter().find(|c| c.callee == "inside").unwrap();
        assert_eq!(inside.held.len(), 1);
        let after = f.calls.iter().find(|c| c.callee == "after").unwrap();
        assert!(after.held.is_empty());
    }

    #[test]
    fn receiver_names_are_canonical() {
        let src = "
            fn f(&self) {
                let a = self.deferred.lock();
                let b = self.shard_for(key).lock();
                let c = report_cache().lock();
                let d = self.0.lock();
                a.use_all(b, c, d);
            }
        ";
        let m = model_of("crates/trigger/src/m.rs", src);
        let locks: Vec<&str> = m.fns[0]
            .acquisitions
            .iter()
            .map(|a| a.lock.as_str())
            .collect();
        assert_eq!(
            locks,
            vec![
                "crates/trigger/src/m.rs::deferred",
                "crates/trigger/src/m.rs::shard_for",
                "crates/trigger/src/m.rs::report_cache",
                "crates/trigger/src/m.rs::self",
            ]
        );
    }

    #[test]
    fn blocking_calls_record_held_guards() {
        let src = "
            fn f(&self) {
                let g = self.inbox.lock();
                let v = self.rx.recv();
                let s = parts.join(\",\");
                g.push(v);
            }
        ";
        let m = model_of("crates/trigger/src/m.rs", src);
        let blocking = &m.fns[0].blocking;
        assert_eq!(blocking.len(), 1, "slice join must not count: {blocking:?}");
        assert_eq!(blocking[0].method, "recv");
        assert_eq!(blocking[0].held.len(), 1);
    }

    #[test]
    fn rwlock_read_write_are_acquisitions_but_io_read_is_not() {
        let src = "
            fn f(&self) {
                let t = self.tables.write();
                let n = stream.read(&mut buf);
                t.mark(n);
            }
        ";
        let m = model_of("crates/db/src/d.rs", src);
        assert_eq!(m.fns[0].acquisitions.len(), 1);
        assert!(m.fns[0].acquisitions[0].lock.ends_with("::tables"));
    }

    #[test]
    fn call_resolution_prefers_same_file_then_unique() {
        let a = SourceFile::parse(
            "crates/x/src/a.rs",
            "fn caller(&self) { helper(); unique_elsewhere(); get(); self.stats.helper(1); }
             fn helper() {}",
        );
        let b = SourceFile::parse(
            "crates/y/src/b.rs",
            "fn helper() {} fn unique_elsewhere() {}",
        );
        let m = WorkspaceModel::build(&[a, b]);
        let caller = m.fns.iter().find(|f| f.name == "caller").unwrap();
        let call = |name: &str, kind: CallKind| {
            caller
                .calls
                .iter()
                .find(|c| c.callee == name && c.kind == kind)
                .unwrap()
        };
        let same = m
            .resolve(call("helper", CallKind::Free), "crates/x/src/a.rs")
            .unwrap();
        assert_eq!(m.fns[same].file, "crates/x/src/a.rs");
        let uniq = m
            .resolve(
                call("unique_elsewhere", CallKind::Free),
                "crates/x/src/a.rs",
            )
            .unwrap();
        assert_eq!(m.fns[uniq].file, "crates/y/src/b.rs");
        assert!(
            m.resolve(call("get", CallKind::Free), "crates/x/src/a.rs")
                .is_none(),
            "stop-listed"
        );
        assert!(
            m.resolve(call("helper", CallKind::Method), "crates/x/src/a.rs")
                .is_none(),
            "a non-self receiver's type is unknown — never resolved"
        );
    }

    #[test]
    fn match_arm_temp_guard_dies_at_the_arm_comma() {
        // Two expression match arms each taking the same lock for a
        // copied read — the first arm's temporary dies at its `,`, so
        // the second acquisition must not see it as held (this is the
        // `Replica::catch_up` shape; modeling it wrong invents an
        // applied→applied deadlock cycle).
        let src = "
            fn catch_up(&self) {
                let feed = self.current.lock();
                match &*feed {
                    Feed::Master => self.log.since(*self.applied.lock()),
                    Feed::Peer(log) => log.since(*self.applied.lock()),
                }
            }
        ";
        let m = model_of("crates/db/src/r.rs", src);
        let applied: Vec<&Acquisition> = m.fns[0]
            .acquisitions
            .iter()
            .filter(|a| a.lock.ends_with("::applied"))
            .collect();
        assert_eq!(applied.len(), 2);
        for a in applied {
            assert!(
                a.held.iter().all(|h| !h.lock.ends_with("::applied")),
                "arm temp from the previous arm must be dead at line {}",
                a.line
            );
            assert!(a.held.iter().any(|h| h.lock.ends_with("::current")));
        }
    }

    #[test]
    fn deref_copy_let_does_not_hold_the_guard() {
        // `let id = *self.applied.lock();` binds the copied value, not
        // the guard — the guard dies with the statement.
        let src = "
            fn deliver(&self) {
                let applied = *self.applied.lock();
                self.apply(applied);
            }
        ";
        let m = model_of("crates/db/src/r.rs", src);
        let apply = m.fns[0].calls.iter().find(|c| c.callee == "apply").unwrap();
        assert!(apply.held.is_empty());
        assert_eq!(apply.kind, CallKind::SelfMethod);
    }
}
