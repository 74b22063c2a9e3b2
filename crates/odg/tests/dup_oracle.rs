//! Differential oracle for DUP.
//!
//! The reference below is the traversal the engine ran before its graph
//! became a slot table: vertices in a hash map keyed by id, a hash set of
//! the reachable, a hash map of in-degrees for Kahn's order, a hash map
//! of accumulated staleness. It keeps a graph of its own, so a slot table
//! that loses an edge, or scratch that remembers a propagation too many,
//! cannot mislead both sides. Engine and reference are driven by the same
//! random histories — sparse and huge ids, hybrids, weights, cycles,
//! vertices and edges removed and re-added between propagations, both
//! staleness policies — and must agree on everything a propagation
//! reports, after every step.
//!
//! Weights and magnitudes are powers of two, so every staleness is exact
//! and the order two traversals add contributions in cannot show.

use proptest::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};

use nagano_odg::graph::OdgSnapshot;
use nagano_odg::{DupEngine, NodeId, NodeKind, OdgError, Propagation, StalenessPolicy};

/// The ids histories draw from: dense, sparse, the million-range of the
/// `odg` experiment, and the top of the id space.
const IDS: [NodeId; 12] = [
    NodeId(0),
    NodeId(1),
    NodeId(2),
    NodeId(7),
    NodeId(1_000),
    NodeId(65_536),
    NodeId(1_000_000),
    NodeId(1_000_007),
    NodeId(3_000_000_000),
    NodeId(u32::MAX - 2),
    NodeId(u32::MAX - 1),
    NodeId(u32::MAX),
];

/// An id no history ever adds.
const UNKNOWN: NodeId = NodeId(424_242);

const WEIGHTS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
const MAGNITUDES: [f64; 4] = [1.0, 2.0, 0.5, 0.0];
const THRESHOLDS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

#[derive(Debug, Clone)]
struct RefNode {
    kind: NodeKind,
    out: Vec<(NodeId, f64)>,
}

/// The reference graph and traversal.
#[derive(Debug, Default)]
struct Reference {
    nodes: FxHashMap<NodeId, RefNode>,
    policy: StalenessPolicy,
}

impl Reference {
    fn ensure_node(&mut self, id: NodeId, kind: NodeKind) {
        let node = self.nodes.entry(id).or_insert(RefNode {
            kind,
            out: Vec::new(),
        });
        if node.kind != kind {
            node.kind = NodeKind::Hybrid;
        }
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<(), OdgError> {
        if !self.nodes.contains_key(&to) {
            return Err(OdgError::UnknownNode(to));
        }
        let node = self
            .nodes
            .get_mut(&from)
            .ok_or(OdgError::UnknownNode(from))?;
        match node.out.iter_mut().find(|e| e.0 == to) {
            Some(e) => e.1 = weight,
            None => node.out.push((to, weight)),
        }
        Ok(())
    }

    fn add_dependency(&mut self, data: NodeId, object: NodeId, weight: f64) {
        self.ensure_node(data, NodeKind::UnderlyingData);
        self.ensure_node(object, NodeKind::Object);
        self.add_edge(data, object, weight)
            .expect("both ends ensured");
    }

    fn remove_node(&mut self, id: NodeId) -> bool {
        let known = self.nodes.remove(&id).is_some();
        for node in self.nodes.values_mut() {
            node.out.retain(|e| e.0 != id);
        }
        known
    }

    fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let Some(node) = self.nodes.get_mut(&from) else {
            return false;
        };
        let before = node.out.len();
        node.out.retain(|e| e.0 != to);
        node.out.len() != before
    }

    fn successors(&self, id: NodeId) -> &[(NodeId, f64)] {
        self.nodes.get(&id).map_or(&[], |n| n.out.as_slice())
    }

    fn is_object(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.kind.is_object())
    }

    fn snapshot(&self) -> OdgSnapshot {
        let mut nodes: Vec<_> = self.nodes.iter().map(|(id, n)| (id.0, n.kind)).collect();
        nodes.sort_unstable_by_key(|&(id, _)| id);
        let mut edges: Vec<_> = self
            .nodes
            .iter()
            .flat_map(|(from, n)| n.out.iter().map(move |e| (from.0, e.0 .0, e.1)))
            .collect();
        edges.sort_unstable_by_key(|e| (e.0, e.1));
        OdgSnapshot { nodes, edges }
    }

    fn reachable(&self, sources: &[NodeId]) -> FxHashSet<NodeId> {
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut queue: Vec<NodeId> = Vec::with_capacity(sources.len());
        for &s in sources {
            if self.nodes.contains_key(&s) && seen.insert(s) {
                queue.push(s);
            }
        }
        while let Some(v) = queue.pop() {
            for &(to, _) in self.successors(v) {
                if seen.insert(to) {
                    queue.push(to);
                }
            }
        }
        seen
    }

    fn topo_order_within(&self, nodes: &FxHashSet<NodeId>) -> Option<Vec<NodeId>> {
        let mut indeg: FxHashMap<NodeId, usize> = FxHashMap::default();
        for &n in nodes {
            indeg.entry(n).or_insert(0);
            for &(to, _) in self.successors(n) {
                if nodes.contains(&to) {
                    *indeg.entry(to).or_insert(0) += 1;
                }
            }
        }
        let mut ready: Vec<NodeId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        ready.sort_unstable();
        let mut order = Vec::with_capacity(nodes.len());
        while let Some(n) = ready.pop() {
            order.push(n);
            for &(to, _) in self.successors(n) {
                if let Some(d) = indeg.get_mut(&to) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(to);
                    }
                }
            }
        }
        (order.len() == nodes.len()).then_some(order)
    }

    fn propagate(&self, changes: &[(NodeId, f64)]) -> Propagation {
        let sources: Vec<NodeId> = changes.iter().map(|&(id, _)| id).collect();
        let reachable = self.reachable(&sources);
        let mut prop = Propagation {
            visited: reachable.len(),
            ..Default::default()
        };
        let Some(order) = self.topo_order_within(&reachable) else {
            prop.cycle_fallback = true;
            prop.stale = reachable
                .iter()
                .filter(|&&id| self.is_object(id))
                .map(|&id| (id, f64::INFINITY))
                .collect();
            prop.stale.sort_unstable_by_key(|&(id, _)| id);
            return prop;
        };
        let mut acc: FxHashMap<NodeId, f64> = FxHashMap::default();
        for &(id, m) in changes {
            if self.nodes.contains_key(&id) {
                *acc.entry(id).or_insert(0.0) += m;
            }
        }
        for &v in &order {
            let contribution = acc.get(&v).copied().unwrap_or(0.0);
            if contribution == 0.0 {
                continue;
            }
            for &(to, w) in self.successors(v) {
                *acc.entry(to).or_insert(0.0) += contribution * w;
            }
        }
        for (id, s) in acc {
            if s == 0.0 || !self.is_object(id) {
                continue;
            }
            let stale = match self.policy {
                StalenessPolicy::Strict => true,
                StalenessPolicy::Threshold(t) => s >= t,
            };
            if stale {
                prop.stale.push((id, s));
            } else {
                prop.tolerated.push((id, s));
            }
        }
        prop.stale.sort_unstable_by_key(|&(id, _)| id);
        prop.tolerated.sort_unstable_by_key(|&(id, _)| id);
        prop
    }
}

/// What a history is allowed to build.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Unit edges from the lower half of [`IDS`] to the upper: stays a
    /// simple ODG, the shape of the paper's Figure 2.
    Bipartite,
    /// Weighted edges from an earlier id to a later one: hybrids, no
    /// cycles.
    Layered,
    /// Any edge, self-loops included.
    Free,
}

/// What the propagations of a history came to, so that a test can tell
/// whether its histories reach what they are meant to.
#[derive(Debug, Default)]
struct Coverage {
    /// Propagations over a graph with a hybrid vertex.
    hybrids: usize,
    cycles: usize,
    tolerated: usize,
    /// Objects reported through a vertex that is not a changed one.
    transitive: usize,
}

impl Coverage {
    fn count(&mut self, engine: &DupEngine, prop: &Propagation, changes: &[(NodeId, f64)]) {
        self.hybrids += usize::from(engine.graph().stats().hybrid_nodes > 0);
        self.cycles += usize::from(prop.cycle_fallback);
        self.tolerated += prop.tolerated.len();
        self.transitive += prop
            .stale
            .iter()
            .filter(|(id, _)| changes.iter().all(|c| c.0 != *id))
            .count();
    }
}

fn check(
    engine: &mut DupEngine,
    reference: &Reference,
    changes: &[(NodeId, f64)],
    ids_only: bool,
) -> Propagation {
    let got = if ids_only {
        let ids: Vec<NodeId> = changes.iter().map(|&(id, _)| id).collect();
        engine.propagate_ids(&ids)
    } else {
        engine.propagate(changes)
    };
    let want = reference.propagate(changes);
    assert_eq!(got.stale, want.stale, "stale, for {changes:?}");
    assert_eq!(got.tolerated, want.tolerated, "tolerated, for {changes:?}");
    assert_eq!(got.visited, want.visited, "visited, for {changes:?}");
    assert_eq!(got.cycle_fallback, want.cycle_fallback, "{changes:?}");
    got
}

/// Run one history against both sides. `ops` are `(op, a, b, c)` draws.
fn run_history(shape: Shape, ops: &[(u8, u32, u32, u32)]) -> Coverage {
    let mut coverage = Coverage::default();
    let mut engine = DupEngine::new();
    let mut reference = Reference::default();
    let pick = |i: u32| IDS[i as usize % IDS.len()];
    for &(op, a, b, c) in ops {
        let (mut from, mut to) = (a as usize % IDS.len(), b as usize % IDS.len());
        match shape {
            Shape::Bipartite => {
                from %= IDS.len() / 2;
                to = IDS.len() / 2 + to % (IDS.len() / 2);
            }
            Shape::Layered if from > to => std::mem::swap(&mut from, &mut to),
            Shape::Layered | Shape::Free => {}
        }
        let (from, to) = (IDS[from], IDS[to]);
        match op {
            0 if shape != Shape::Bipartite => {
                let kind =
                    [NodeKind::UnderlyingData, NodeKind::Object, NodeKind::Hybrid][c as usize % 3];
                engine.graph_mut().ensure_node(from, kind);
                reference.ensure_node(from, kind);
            }
            0..=3 => {
                if shape == Shape::Layered && from == to {
                    continue;
                }
                let weight = match shape {
                    Shape::Bipartite => 1.0,
                    _ => WEIGHTS[c as usize % WEIGHTS.len()],
                };
                engine
                    .add_dependency(from, to, weight)
                    .expect("finite positive weight");
                reference.add_dependency(from, to, weight);
            }
            4 => {
                let id = pick(a);
                assert_eq!(
                    engine.graph_mut().remove_node(id).is_ok(),
                    reference.remove_node(id)
                );
            }
            5 => {
                assert_eq!(
                    engine.graph_mut().remove_edge(from, to),
                    reference.remove_edge(from, to)
                );
            }
            6 => {
                let policy = match c % 5 {
                    4 => StalenessPolicy::Strict,
                    t => StalenessPolicy::Threshold(THRESHOLDS[t as usize]),
                };
                engine.set_policy(policy);
                reference.policy = policy;
            }
            _ => {
                // `a` chooses the sources by bit; `b` throws in an id the
                // graph has never seen and a repeat; `c` the magnitudes.
                let mut changes: Vec<(NodeId, f64)> = (0..IDS.len())
                    .filter(|i| a >> i & 1 == 1)
                    .map(|i| (IDS[i], MAGNITUDES[(c as usize + i) % MAGNITUDES.len()]))
                    .collect();
                if b & 1 == 1 {
                    changes.push((UNKNOWN, 1.0));
                }
                if b & 2 == 2 {
                    if let Some(&first) = changes.first() {
                        changes.push(first);
                    }
                }
                let ids_only = c % 3 == 0;
                if ids_only {
                    changes.iter_mut().for_each(|change| change.1 = 1.0);
                }
                let prop = check(&mut engine, &reference, &changes, ids_only);
                coverage.count(&engine, &prop, &changes);
            }
        }
        engine.graph().validate().expect("graph invariants");
        assert_eq!(engine.graph().snapshot(), reference.snapshot());
    }
    // Whatever the history left behind: every vertex on its own, then all.
    let all: Vec<(NodeId, f64)> = IDS.iter().map(|&id| (id, 1.0)).collect();
    for change in &all {
        check(&mut engine, &reference, std::slice::from_ref(change), true);
    }
    check(&mut engine, &reference, &all, false);
    coverage
}

fn history() -> impl Strategy<Value = Vec<(u8, u32, u32, u32)>> {
    proptest::collection::vec((0..10u8, 0..4096u32, 0..4096u32, 0..60u32), 1..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_reference_on_bipartite_histories(ops in history()) {
        run_history(Shape::Bipartite, &ops);
    }

    #[test]
    fn engine_matches_reference_on_layered_histories(ops in history()) {
        run_history(Shape::Layered, &ops);
    }

    #[test]
    fn engine_matches_reference_on_free_histories(ops in history()) {
        run_history(Shape::Free, &ops);
    }
}

/// The shapes must lead where they are meant to: one fixed history, long
/// enough to be representative, through each.
#[test]
fn histories_reach_hybrids_cycles_and_tolerance() {
    let ops: Vec<(u8, u32, u32, u32)> = (0..600u32)
        .map(|i| {
            let x = i.wrapping_mul(2_654_435_761);
            ((x >> 7) as u8 % 10, x >> 3, x >> 11, x >> 17)
        })
        .collect();
    let propagations = ops.iter().filter(|op| op.0 >= 7).count();
    let bipartite = run_history(Shape::Bipartite, &ops);
    assert_eq!(bipartite.hybrids + bipartite.cycles, 0, "{bipartite:?}");
    assert!(
        bipartite.transitive > 0 && bipartite.tolerated > 0,
        "{bipartite:?}"
    );
    let layered = run_history(Shape::Layered, &ops);
    assert_eq!(layered.cycles, 0, "{layered:?}");
    assert!(layered.hybrids > propagations / 2, "{layered:?}");
    assert!(
        layered.transitive > 0 && layered.tolerated > 0,
        "{layered:?}"
    );
    let free = run_history(Shape::Free, &ops);
    assert!(free.cycles > 0 && free.cycles < propagations, "{free:?}");
    assert!(free.transitive > 0, "{free:?}");
}

#[test]
fn a_vertex_added_after_a_propagation_is_reached_by_the_next() {
    let n = NodeId;
    let mut e = DupEngine::new();
    e.add_dependency(n(1), n(2), 0.5).unwrap();
    let p = e.propagate_ids(&[n(1)]);
    assert_eq!(p.stale, vec![(n(2), 0.5)]);
    // Two vertices the engine's scratch has never been sized for: one
    // behind the old sink, one beside it.
    e.add_dependency(n(2), n(u32::MAX), 2.0).unwrap();
    e.add_dependency(n(1), n(1_000_000), 0.25).unwrap();
    let p = e.propagate_ids(&[n(1)]);
    assert_eq!(
        p.stale,
        vec![(n(2), 0.5), (n(1_000_000), 0.25), (n(u32::MAX), 1.0)]
    );
    assert_eq!(p.visited, 4);
    // A vertex that takes over a removed one's slot starts unreached, and
    // with nothing of what the slot accumulated.
    e.graph_mut().remove_node(n(2)).unwrap();
    e.add_dependency(n(7), n(8), 0.5).unwrap();
    let p = e.propagate_ids(&[n(7)]);
    assert_eq!(p.stale, vec![(n(8), 0.5)]);
    let p = e.propagate_ids(&[n(1)]);
    assert_eq!(p.stale, vec![(n(1_000_000), 0.25)]);
    assert_eq!(p.visited, 2);
}
