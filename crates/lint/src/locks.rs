//! Pass 2, lock rules: L001 (lock-order inversion) and L002 (guard
//! held across a blocking call).
//!
//! L001 builds a *lock-acquisition graph*: an edge `A → B` means some
//! execution acquires lock `B` while already holding lock `A` — either
//! directly inside one function, or transitively (a function called
//! with `A` held eventually acquires `B`). Any cycle in that graph is a
//! potential deadlock: two threads entering the cycle from different
//! points can each hold the lock the other wants. Cycles are found as
//! strongly connected components (a self-loop — re-acquiring the same
//! lock — is also reported: `parking_lot` mutexes are not reentrant).
//! Each SCC produces exactly one diagnostic listing every acquisition
//! chain, with the `file:line` witness of each hold site and the call
//! path the transitive edges travel through.
//!
//! L002 flags a guard that is live across a blocking operation
//! (channel `send`/`recv`/`recv_timeout`, `JoinHandle::join`, TCP
//! `accept`) in the serving/propagation crates — the shape that turns
//! one slow peer into a pile-up behind the lock.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::WorkspaceModel;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`L001` or `L002`).
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

/// Crates where holding a lock across a blocking call is a finding.
const L002_SCOPE: &[&str] = &[
    "cache",
    "cluster",
    "core",
    "db",
    "httpd",
    "odg",
    "telemetry",
    "trigger",
];

/// How a lock edge was witnessed: where the held lock was taken, where
/// the inner lock was taken, and (for transitive edges) the call chain
/// between them.
#[derive(Debug, Clone)]
struct Witness {
    /// File of the *hold* site (where the outer guard was acquired).
    file: String,
    /// Line of the outer acquisition.
    hold_line: u32,
    /// Line the edge's inner acquisition happens on (in `inner_file`).
    inner_file: String,
    inner_line: u32,
    /// Function names the edge travels through (empty = direct nesting).
    via: Vec<String>,
}

/// A lock reachable from a function, with the shortest-discovered call
/// path to its acquisition site.
#[derive(Debug, Clone)]
struct Reach {
    file: String,
    line: u32,
    via: Vec<String>,
}

/// Run both lock rules over the model.
pub fn run(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut diags = l001(model);
    diags.extend(l002(model));
    diags
}

/// Fixpoint: for every function, the set of locks its execution can
/// acquire (directly or through resolvable calls), each with a witness
/// path. First-inserted witness wins, and iteration order is
/// deterministic, so witnesses are stable across runs.
fn lock_reach(model: &WorkspaceModel) -> Vec<BTreeMap<String, Reach>> {
    let n = model.fns.len();
    let mut reach: Vec<BTreeMap<String, Reach>> = vec![BTreeMap::new(); n];
    for (i, f) in model.fns.iter().enumerate() {
        for acq in &f.acquisitions {
            reach[i].entry(acq.lock.clone()).or_insert(Reach {
                file: f.file.clone(),
                line: acq.line,
                via: Vec::new(),
            });
        }
    }
    // Resolve call targets once.
    let edges: Vec<Vec<usize>> = model
        .fns
        .iter()
        .map(|f| {
            let mut tgts: Vec<usize> = f
                .calls
                .iter()
                .filter_map(|c| model.resolve(c, &f.file))
                .collect();
            tgts.sort_unstable();
            tgts.dedup();
            tgts
        })
        .collect();
    // Bounded fixpoint (call-graph depth is small; the bound is a
    // safety net against pathological inputs).
    for _ in 0..64 {
        let mut changed = false;
        for i in 0..n {
            let mut additions: Vec<(String, Reach)> = Vec::new();
            for &t in &edges[i] {
                if t == i {
                    continue;
                }
                for (lock, r) in &reach[t] {
                    if !reach[i].contains_key(lock) {
                        let mut via = vec![model.fns[t].name.clone()];
                        via.extend(r.via.iter().cloned());
                        additions.push((
                            lock.clone(),
                            Reach {
                                file: r.file.clone(),
                                line: r.line,
                                via,
                            },
                        ));
                    }
                }
            }
            for (lock, r) in additions {
                reach[i].entry(lock).or_insert(r);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    reach
}

/// L001: build the acquisition-order graph and report every SCC with
/// more than one node (or a self-loop) as a potential deadlock cycle.
fn l001(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let reach = lock_reach(model);
    // edge (outer → inner) → first witness.
    let mut graph: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let add = |graph: &mut BTreeMap<(String, String), Witness>,
               outer: &crate::model::HeldLock,
               f: &crate::model::FnModel,
               inner: &str,
               inner_file: &str,
               inner_line: u32,
               via: Vec<String>| {
        graph
            .entry((outer.lock.clone(), inner.to_string()))
            .or_insert(Witness {
                file: f.file.clone(),
                hold_line: outer.line,
                inner_file: inner_file.to_string(),
                inner_line,
                via,
            });
    };
    for f in &model.fns {
        // Direct nesting: an acquisition with guards already held.
        for acq in &f.acquisitions {
            for held in &acq.held {
                add(
                    &mut graph,
                    held,
                    f,
                    &acq.lock,
                    &f.file,
                    acq.line,
                    Vec::new(),
                );
            }
        }
        // Transitive: a call made with guards held reaches locks.
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            let Some(t) = model.resolve(call, &f.file) else {
                continue;
            };
            for (lock, r) in &reach[t] {
                for held in &call.held {
                    let mut via = vec![format!(
                        "{} (call at line {})",
                        model.fns[t].name, call.line
                    )];
                    via.extend(r.via.iter().cloned());
                    add(&mut graph, held, f, lock, &r.file, r.line, via);
                }
            }
        }
    }
    // Node set + adjacency for SCC computation.
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in graph.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let idx: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let names: Vec<&str> = nodes.iter().copied().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    let mut self_loop: Vec<bool> = vec![false; names.len()];
    for (a, b) in graph.keys() {
        let (ia, ib) = (idx[a.as_str()], idx[b.as_str()]);
        if ia == ib {
            self_loop[ia] = true;
        } else {
            adj[ia].push(ib);
        }
    }
    let sccs = tarjan(&adj);
    let mut diags = Vec::new();
    for scc in sccs {
        let cyclic = scc.len() > 1 || (scc.len() == 1 && self_loop[scc[0]]);
        if !cyclic {
            continue;
        }
        // Collect every edge inside the SCC, sorted, and report one
        // diagnostic anchored at the first edge's hold site.
        let in_scc: BTreeSet<usize> = scc.iter().copied().collect();
        let cycle_edges: Vec<(&(String, String), &Witness)> = graph
            .iter()
            .filter(|((a, b), _)| {
                in_scc.contains(&idx[a.as_str()]) && in_scc.contains(&idx[b.as_str()])
            })
            .collect();
        let Some((_, anchor)) = cycle_edges.first() else {
            continue;
        };
        let chains: Vec<String> = cycle_edges
            .iter()
            .map(|((outer, inner), w)| {
                let route = if w.via.is_empty() {
                    String::new()
                } else {
                    format!(" via {}", w.via.join(" -> "))
                };
                format!(
                    "holds {} ({}:{}) then takes {} ({}:{}){}",
                    short(outer),
                    w.file,
                    w.hold_line,
                    short(inner),
                    w.inner_file,
                    w.inner_line,
                    route
                )
            })
            .collect();
        let locks: Vec<String> = scc.iter().map(|&i| short(names[i]).to_string()).collect();
        diags.push(Diagnostic {
            rule: "L001",
            file: anchor.file.clone(),
            line: anchor.hold_line,
            message: format!(
                "lock-order inversion: cycle between {{{}}} — {}",
                locks.join(", "),
                chains.join("; ")
            ),
            suggestion: "impose a single acquisition order (or drop the outer guard before \
                         taking the inner lock)"
                .to_string(),
        });
    }
    diags
}

/// L002: a guard live across a blocking call in a serving crate.
fn l002(model: &WorkspaceModel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &model.fns {
        if !L002_SCOPE.contains(&f.krate.as_str()) {
            continue;
        }
        for b in &f.blocking {
            if b.held.is_empty() {
                continue;
            }
            let held: Vec<String> = b
                .held
                .iter()
                .map(|h| format!("{} (line {})", short(&h.lock), h.line))
                .collect();
            diags.push(Diagnostic {
                rule: "L002",
                file: f.file.clone(),
                line: b.line,
                message: format!(
                    "guard held across blocking `.{}()` in fn `{}`: {}",
                    b.method,
                    f.name,
                    held.join(", ")
                ),
                suggestion: "release the guard before blocking (scope it, or clone the data \
                             out and drop it)"
                    .to_string(),
            });
        }
    }
    diags
}

/// `crates/trigger/src/monitor.rs::deferred` → `monitor.rs::deferred`.
fn short(lock: &str) -> &str {
    match lock.rfind('/') {
        Some(i) => &lock[i + 1..],
        None => lock,
    }
}

/// Iterative Tarjan SCC (deterministic: nodes visited in index order,
/// neighbours in insertion order).
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS stack: (node, neighbour cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs.sort_by(|a, b| a.first().cmp(&b.first()));
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn run_on(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect();
        run(&WorkspaceModel::build(&parsed))
    }

    #[test]
    fn direct_two_lock_inversion_is_a_cycle() {
        let src = "
            impl S {
                fn ab(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    a.merge(b);
                }
                fn ba(&self) {
                    let b = self.beta.lock();
                    let a = self.alpha.lock();
                    b.merge(a);
                }
            }
        ";
        let diags = run_on(&[("crates/trigger/src/x.rs", src)]);
        let l001: Vec<_> = diags.iter().filter(|d| d.rule == "L001").collect();
        assert_eq!(l001.len(), 1, "{diags:?}");
        assert!(l001[0].message.contains("x.rs::alpha"));
        assert!(l001[0].message.contains("x.rs::beta"));
    }

    #[test]
    fn cross_file_transitive_inversion_is_found_with_the_call_path() {
        let a = "
            impl S {
                fn enqueue(&self) {
                    let g = self.inbox.lock();
                    self.stamp_ledger(g.depth());
                }
                fn peek_inbox(&self, t: u64) {
                    let g = self.inbox.lock();
                    g.check(t);
                }
            }
        ";
        let b = "
            impl S {
                fn stamp_ledger(&self, n: usize) {
                    let l = self.ledger.lock();
                    l.note(n);
                }
                fn settle(&self) {
                    let l = self.ledger.lock();
                    self.peek_inbox(l.total());
                }
            }
        ";
        // a.rs::inbox → b.rs::ledger (via stamp_ledger) and
        // b.rs::ledger → a.rs::inbox (via peek_inbox): a cycle.
        let diags = run_on(&[
            ("crates/trigger/src/a.rs", a),
            ("crates/trigger/src/b.rs", b),
        ]);
        let l001: Vec<_> = diags.iter().filter(|d| d.rule == "L001").collect();
        assert_eq!(l001.len(), 1, "{diags:?}");
        assert!(l001[0].message.contains("via"), "{}", l001[0].message);
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            impl S {
                fn one(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    a.merge(b);
                }
                fn two(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    b.merge(a);
                }
            }
        ";
        let diags = run_on(&[("crates/trigger/src/x.rs", src)]);
        assert!(diags.iter().all(|d| d.rule != "L001"), "{diags:?}");
    }

    #[test]
    fn self_reacquisition_is_a_cycle() {
        let src = "
            impl S {
                fn f(&self) {
                    let a = self.alpha.lock();
                    self.g(a.len());
                }
                fn g(&self, n: usize) {
                    let a = self.alpha.lock();
                    a.push(n);
                }
            }
        ";
        let diags = run_on(&[("crates/cache/src/x.rs", src)]);
        assert!(diags.iter().any(|d| d.rule == "L001"), "{diags:?}");
    }

    #[test]
    fn chained_call_on_the_guard_is_not_a_cycle() {
        // `.record(x)` here is a method of the locked histogram, not a
        // recursive call to the enclosing fn of the same name.
        let src = "
            impl H {
                fn record(&self, x: f64) {
                    self.0.lock().expect(\"histogram poisoned\").record(x);
                }
            }
        ";
        let diags = run_on(&[("crates/telemetry/src/x.rs", src)]);
        assert!(diags.iter().all(|d| d.rule != "L001"), "{diags:?}");
    }

    #[test]
    fn guard_across_recv_fires_l002_in_scope_only() {
        let src = "
            fn pump(&self) {
                let g = self.inbox.lock();
                let msg = self.rx.recv();
                g.push(msg);
            }
        ";
        let hot = run_on(&[("crates/trigger/src/x.rs", src)]);
        assert_eq!(hot.iter().filter(|d| d.rule == "L002").count(), 1);
        let cold = run_on(&[("crates/bench/src/x.rs", src)]);
        assert!(cold.iter().all(|d| d.rule != "L002"));
    }

    #[test]
    fn scoped_guard_released_before_recv_is_clean() {
        let src = "
            fn pump(&self) {
                { let g = self.inbox.lock(); g.touch(); }
                let msg = self.rx.recv();
                self.apply(msg);
            }
        ";
        let diags = run_on(&[("crates/trigger/src/x.rs", src)]);
        assert!(diags.iter().all(|d| d.rule != "L002"), "{diags:?}");
    }
}
