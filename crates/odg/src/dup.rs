//! The Data Update Propagation engine.
//!
//! Given a batch of changed underlying data, [`DupEngine::propagate`]
//! determines which cached objects have become obsolete and *how* obsolete
//! (their accumulated staleness), per §2 of the paper. One traversal
//! serves every graph shape:
//!
//! * The affected subgraph is walked in topological order, accumulating
//!   weighted staleness: a change of magnitude `m` at `v` contributes
//!   `m · w(v→u)` to each successor `u`, and contributions sum across
//!   paths. On a **simple ODG** (bipartite, unweighted) that is the
//!   paper's direct lookup: each object gets the summed magnitude of the
//!   changed data feeding it.
//! * **Cyclic ODGs** (possible, since applications register arbitrary
//!   dependencies) fall back to a conservative rule: every reachable object
//!   is treated as fully stale. Correctness (no stale page served believing
//!   it fresh) is preserved; precision is sacrificed only in the cyclic
//!   case.
//!
//! The staleness policy decides what to do with slightly-obsolete objects:
//! the paper notes "it is often possible to save considerable CPU cycles by
//! allowing pages to remain in the cache which are only slightly obsolete".

use crate::graph::{NodeId, NodeKind, Odg, OdgError};

/// How accumulated staleness maps to the stale/tolerated verdict.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StalenessPolicy {
    /// Every affected object is stale, regardless of weight.
    #[default]
    Strict,
    /// Objects whose accumulated staleness is below the threshold are
    /// *tolerated*: left in the cache, slightly obsolete, saving the
    /// regeneration cost.
    Threshold(f64),
}

impl StalenessPolicy {
    fn is_stale(self, staleness: f64) -> bool {
        match self {
            StalenessPolicy::Strict => true,
            StalenessPolicy::Threshold(t) => staleness >= t,
        }
    }

    /// The acyclic verdict: affected objects sorted into the stale and the
    /// tolerated, each by id. An object that accumulated nothing is
    /// neither.
    fn verdicts(
        self,
        staleness: impl IntoIterator<Item = (NodeId, f64)>,
        visited: usize,
    ) -> Propagation {
        let staleness = staleness.into_iter();
        // Sized once, for the usual verdict: stale.
        let mut stale = Vec::with_capacity(staleness.size_hint().1.unwrap_or(0));
        let mut tolerated = Vec::new();
        for (id, s) in staleness.filter(|&(_, s)| s != 0.0) {
            if self.is_stale(s) {
                stale.push((id, s));
            } else {
                tolerated.push((id, s));
            }
        }
        stale.sort_unstable_by_key(|&(id, _)| id);
        tolerated.sort_unstable_by_key(|&(id, _)| id);
        Propagation {
            stale,
            tolerated,
            visited,
            cycle_fallback: false,
        }
    }
}

/// Result of one propagation.
#[derive(Debug, Clone, Default)]
pub struct Propagation {
    /// Objects that must be invalidated or regenerated, with their
    /// accumulated staleness, sorted by id.
    pub stale: Vec<(NodeId, f64)>,
    /// Affected objects left in the cache under a threshold policy,
    /// sorted by id.
    pub tolerated: Vec<(NodeId, f64)>,
    /// Number of graph nodes visited by the traversal (work metric).
    pub visited: usize,
    /// Whether the conservative cyclic fallback fired.
    pub cycle_fallback: bool,
}

impl Propagation {
    /// Ids of stale objects.
    pub fn stale_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.stale.iter().map(|&(id, _)| id)
    }

    /// Total number of affected objects (stale + tolerated).
    pub fn affected_count(&self) -> usize {
        self.stale.len() + self.tolerated.len()
    }
}

/// What the traversal knows of one slot. A cell means something
/// only while its `mark` is the current epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// The epoch in which the slot was last reached.
    mark: u32,
    /// Edges into the slot from reached slots not yet ordered.
    indeg: u32,
    /// Staleness accumulated by the slot.
    acc: f64,
}

/// Working memory of the traversal, kept between propagations so
/// that one allocates nothing but its result.
///
/// A propagation starts by taking the next epoch, which un-reaches every
/// slot at once — those of vertices added since, and one a removed vertex
/// left to a new one, included — without touching any.
#[derive(Debug, Default)]
struct Scratch {
    epoch: u32,
    /// One cell per slot of the graph's table.
    cells: Vec<Cell>,
    /// The slots reached, in discovery order; the search's own queue.
    reached: Vec<u32>,
    /// Kahn's queue, which read front to back is the topological order.
    order: Vec<u32>,
}

impl Scratch {
    /// Start a propagation over a table of `slots` slots.
    fn begin(&mut self, slots: usize) {
        if self.cells.len() < slots {
            self.cells.resize(slots, Cell::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: marks from 2³² propagations ago must not read as
            // this one's, and 0 is what fresh cells are marked with.
            self.cells.fill(Cell::default());
            self.epoch = 1;
        }
        self.reached.clear();
        self.order.clear();
    }

    /// Count `slot` as reached, if it is not yet, and hand out its cell.
    fn reach(&mut self, slot: u32) -> &mut Cell {
        let cell = &mut self.cells[slot as usize];
        if cell.mark != self.epoch {
            *cell = Cell {
                mark: self.epoch,
                indeg: 0,
                acc: 0.0,
            };
            self.reached.push(slot);
        }
        cell
    }
}

/// The DUP engine: an [`Odg`] plus propagation state.
///
/// ```
/// use nagano_odg::{DupEngine, NodeId};
///
/// let mut dup = DupEngine::new();
/// // A result record feeds an event page and the medal standings page.
/// dup.add_dependency(NodeId(1), NodeId(100), 1.0).unwrap();
/// dup.add_dependency(NodeId(1), NodeId(101), 1.0).unwrap();
///
/// let prop = dup.propagate_ids(&[NodeId(1)]);
/// assert_eq!(prop.stale.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DupEngine {
    odg: Odg,
    policy: StalenessPolicy,
    scratch: Scratch,
}

impl DupEngine {
    /// New engine with an empty graph and the [`StalenessPolicy::Strict`]
    /// policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// New engine around an existing graph.
    pub fn with_graph(odg: Odg) -> Self {
        DupEngine {
            odg,
            ..Self::default()
        }
    }

    /// Set the staleness policy.
    pub fn set_policy(&mut self, policy: StalenessPolicy) {
        self.policy = policy;
    }

    /// Current policy.
    pub fn policy(&self) -> StalenessPolicy {
        self.policy
    }

    /// Immutable access to the graph.
    pub fn graph(&self) -> &Odg {
        &self.odg
    }

    /// Mutable access to the graph: the next propagation sees every
    /// change made through it.
    pub fn graph_mut(&mut self) -> &mut Odg {
        &mut self.odg
    }

    /// Convenience: register that `data` affects `object` with `weight`,
    /// creating nodes as needed (upgrading kinds to hybrid when an id plays
    /// both roles).
    pub fn add_dependency(
        &mut self,
        data: NodeId,
        object: NodeId,
        weight: f64,
    ) -> Result<(), OdgError> {
        self.odg.ensure_node(data, NodeKind::UnderlyingData);
        self.odg.ensure_node(object, NodeKind::Object);
        self.odg.add_edge(data, object, weight)
    }

    /// Propagate a batch of unit-magnitude changes.
    pub fn propagate_ids(&mut self, changed: &[NodeId]) -> Propagation {
        self.traverse(changed.iter().map(|&id| (id, 1.0)))
    }

    /// Propagate a batch of changes with explicit magnitudes.
    pub fn propagate(&mut self, changes: &[(NodeId, f64)]) -> Propagation {
        self.traverse(changes.iter().copied())
    }

    /// The traversal, over the slot table and the engine's
    /// scratch: the id → slot map is asked once per change, every edge is
    /// followed by slot, and nothing is allocated but the result.
    ///
    /// One search from the changed vertices reaches the affected subgraph
    /// and counts, for each vertex in it, the edges into it from within
    /// it. Kahn's algorithm over those counts hands each vertex on once
    /// everything feeding it has been — by which time its staleness is
    /// final — so ordering and accumulating are one pass. The order is
    /// that of the changes and of the edge lists: no hash decides it.
    fn traverse(&mut self, changes: impl Iterator<Item = (NodeId, f64)>) -> Propagation {
        let (odg, scratch) = (&self.odg, &mut self.scratch);
        scratch.begin(odg.slot_count());
        for (id, magnitude) in changes {
            if let Some(slot) = odg.slot_of(id) {
                scratch.reach(slot).acc += magnitude;
            }
        }
        let mut next = 0;
        while let Some(&v) = scratch.reached.get(next) {
            next += 1;
            for e in &odg.node(v).out {
                scratch.reach(e.slot).indeg += 1;
            }
        }

        let Scratch {
            cells,
            reached,
            order,
            ..
        } = scratch;
        order.extend(reached.iter().filter(|&&s| cells[s as usize].indeg == 0));
        let mut next = 0;
        while let Some(&v) = order.get(next) {
            next += 1;
            let contribution = cells[v as usize].acc;
            for e in &odg.node(v).out {
                let to = &mut cells[e.slot as usize];
                if contribution != 0.0 {
                    to.acc += contribution * e.weight;
                }
                to.indeg -= 1;
                if to.indeg == 0 {
                    order.push(e.slot);
                }
            }
        }

        // Only objects are cacheable; vertices that are pure data do not
        // appear in the result.
        let objects = reached.iter().filter_map(|&s| {
            let node = odg.node(s);
            node.kind
                .is_object()
                .then_some((node.id, cells[s as usize].acc))
        });
        let visited = reached.len();
        if order.len() < visited {
            // Cyclic affected subgraph: conservative fallback. Weight
            // accumulation is not well-defined on a cycle, so treat
            // every reachable object as fully stale.
            let mut stale: Vec<(NodeId, f64)> =
                objects.map(|(id, _)| (id, f64::INFINITY)).collect();
            stale.sort_unstable_by_key(|&(id, _)| id);
            return Propagation {
                stale,
                visited,
                cycle_fallback: true,
                ..Default::default()
            };
        }
        self.policy.verdicts(objects, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The Figure 1 graph (see `graph::tests::figure1`).
    fn figure1_engine() -> DupEngine {
        let mut g = Odg::new();
        for i in 1..=4 {
            g.add_node(n(i), NodeKind::UnderlyingData).unwrap();
        }
        g.add_node(n(5), NodeKind::Hybrid).unwrap();
        g.add_node(n(6), NodeKind::Hybrid).unwrap();
        g.add_node(n(7), NodeKind::Object).unwrap();
        g.add_edge(n(1), n(5), 5.0).unwrap();
        g.add_edge(n(2), n(5), 1.0).unwrap();
        g.add_edge(n(2), n(6), 1.0).unwrap();
        g.add_edge(n(3), n(6), 1.0).unwrap();
        g.add_edge(n(4), n(7), 1.0).unwrap();
        g.add_edge(n(5), n(7), 1.0).unwrap();
        g.add_edge(n(6), n(7), 1.0).unwrap();
        DupEngine::with_graph(g)
    }

    #[test]
    fn figure1_change_to_go2() {
        let mut e = figure1_engine();
        let p = e.propagate_ids(&[n(2)]);
        assert!(!p.cycle_fallback);
        let ids: Vec<u32> = p.stale_ids().map(|x| x.0).collect();
        assert_eq!(ids, vec![5, 6, 7]);
        // go7 receives contributions along go2->go5->go7 and go2->go6->go7.
        let go7 = p.stale.iter().find(|&&(id, _)| id == n(7)).unwrap().1;
        assert!((go7 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn figure1_weights_scale_importance() {
        // go1 -> go5 has weight 5: a change to go1 makes go5 five times as
        // obsolete as the same change to go2 would.
        let mut e = figure1_engine();
        let p1 = e.propagate_ids(&[n(1)]);
        let via_go1 = p1.stale.iter().find(|&&(id, _)| id == n(5)).unwrap().1;
        let p2 = e.propagate_ids(&[n(2)]);
        let via_go2 = p2.stale.iter().find(|&&(id, _)| id == n(5)).unwrap().1;
        assert!((via_go1 / via_go2 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_policy_tolerates_slightly_stale() {
        let mut e = figure1_engine();
        e.set_policy(StalenessPolicy::Threshold(2.0));
        let p = e.propagate_ids(&[n(2)]);
        // go5 and go6 accumulate 1.0 (< 2.0): tolerated. go7 accumulates
        // 2.0 (>= 2.0): stale.
        let stale: Vec<u32> = p.stale_ids().map(|x| x.0).collect();
        assert_eq!(stale, vec![7]);
        let tolerated: Vec<u32> = p.tolerated.iter().map(|&(id, _)| id.0).collect();
        assert_eq!(tolerated, vec![5, 6]);
        assert_eq!(p.affected_count(), 3);
    }

    #[test]
    fn magnitudes_scale_linearly() {
        let mut e = figure1_engine();
        let p = e.propagate(&[(n(2), 3.0)]);
        let go7 = p.stale.iter().find(|&&(id, _)| id == n(7)).unwrap().1;
        assert!((go7 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn batch_changes_sum() {
        let mut e = figure1_engine();
        let p = e.propagate(&[(n(1), 1.0), (n(2), 1.0)]);
        let go5 = p.stale.iter().find(|&&(id, _)| id == n(5)).unwrap().1;
        assert!((go5 - 6.0).abs() < 1e-12); // 5·1 + 1·1
    }

    #[test]
    fn visited_counts_each_vertex_reached_once() {
        // 1 → {10, 11}, 2 → {11}: a simple ODG.
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(10), 1.0).unwrap();
        e.add_dependency(n(1), n(11), 1.0).unwrap();
        e.add_dependency(n(2), n(11), 1.0).unwrap();
        // An id the graph has never seen reaches nothing; one named twice
        // is still one vertex (and twice the magnitude).
        let p = e.propagate_ids(&[n(1), n(42), n(1), n(2)]);
        assert_eq!(p.visited, 4, "1, 2, 10 and 11");
        assert_eq!(p.stale, vec![(n(10), 2.0), (n(11), 3.0)]);
        // A changed object is reached too, once.
        let p = e.propagate_ids(&[n(10), n(10), n(1)]);
        assert_eq!(p.visited, 3, "1, 10 and 11");
    }

    #[test]
    fn scratch_marks_do_not_outlive_an_epoch_wrap() {
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(2), 0.5).unwrap();
        e.add_dependency(n(3), n(4), 0.5).unwrap();
        // Epoch 1 marks the slots of 1 and 2.
        assert_eq!(e.propagate_ids(&[n(1)]).stale, vec![(n(2), 0.5)]);
        // 2³² propagations later the counter is back at 1: those marks
        // must not read as this propagation's.
        e.scratch.epoch = u32::MAX;
        let p = e.propagate_ids(&[n(1)]);
        assert_eq!(e.scratch.epoch, 1);
        assert_eq!(p.stale, vec![(n(2), 0.5)]);
        assert_eq!(p.visited, 2);
        // Nor is 0, which fresh scratch is filled with, ever an epoch.
        e.scratch.epoch = u32::MAX;
        assert_eq!(e.propagate_ids(&[n(3)]).stale, vec![(n(4), 0.5)]);
        assert_eq!(e.propagate_ids(&[n(1), n(3)]).affected_count(), 2);
    }

    #[test]
    fn simple_path_reports_directly_changed_objects() {
        // Regression: a change to an *object* node in a simple graph must
        // mark that object stale, whether or not any data feeds it.
        let mut e = DupEngine::new();
        e.graph_mut()
            .add_node(n(1), NodeKind::UnderlyingData)
            .unwrap();
        e.graph_mut().add_node(n(2), NodeKind::Object).unwrap();
        e.graph_mut().add_node(n(3), NodeKind::Object).unwrap();
        e.graph_mut().add_edge(n(1), n(2), 1.0).unwrap();
        assert_eq!(e.propagate_ids(&[n(3)]).stale, vec![(n(3), 1.0)]);
        assert_eq!(e.propagate_ids(&[n(2)]).stale, vec![(n(2), 1.0)]);
    }

    #[test]
    fn cyclic_graph_conservative_fallback() {
        let mut e = DupEngine::new();
        let g = e.graph_mut();
        for i in 1..=3 {
            g.add_node(n(i), NodeKind::Hybrid).unwrap();
        }
        g.add_node(n(4), NodeKind::Object).unwrap();
        g.add_edge(n(1), n(2), 1.0).unwrap();
        g.add_edge(n(2), n(3), 1.0).unwrap();
        g.add_edge(n(3), n(1), 1.0).unwrap(); // cycle
        g.add_edge(n(3), n(4), 1.0).unwrap();
        let p = e.propagate_ids(&[n(1)]);
        assert!(p.cycle_fallback);
        let ids: Vec<u32> = p.stale_ids().map(|x| x.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert!(p.stale.iter().all(|&(_, s)| s == f64::INFINITY));
    }

    #[test]
    fn threshold_boundary_general_path() {
        // 1 → 2 (w 0.75) → 3, a general ODG: a weighted edge and a hybrid
        // vertex. Both 2 and 3 accumulate exactly 0.75.
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(2), 0.75).unwrap();
        e.add_dependency(n(2), n(3), 1.0).unwrap();
        e.set_policy(StalenessPolicy::Threshold(0.75));
        let p = e.propagate_ids(&[n(1)]);
        // Exactly at threshold is STALE (`>=`), not tolerated — the
        // conservative side of the boundary.
        assert_eq!(p.stale_ids().collect::<Vec<_>>(), vec![n(2), n(3)]);
        assert!(p.tolerated.is_empty());
        // One representable step above the accumulation tolerates both.
        e.set_policy(StalenessPolicy::Threshold(0.75 + f64::EPSILON));
        let p = e.propagate_ids(&[n(1)]);
        assert!(p.stale.is_empty());
        let tolerated: Vec<NodeId> = p.tolerated.iter().map(|&(id, _)| id).collect();
        assert_eq!(tolerated, vec![n(2), n(3)]);
        assert_eq!(p.affected_count(), 2);
    }

    #[test]
    fn threshold_boundary_simple_path() {
        // An unweighted bipartite (simple) graph, where contributions sum:
        // the same `>=` boundary rule.
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(10), 1.0).unwrap();
        e.add_dependency(n(2), n(10), 1.0).unwrap();
        e.set_policy(StalenessPolicy::Threshold(2.0));
        let p = e.propagate_ids(&[n(1), n(2)]);
        // Object 10 accumulates exactly 2.0: at-threshold is stale.
        assert_eq!(p.stale, vec![(n(10), 2.0)]);
        assert!(p.tolerated.is_empty());
        // Epsilon above the accumulated staleness: tolerated instead.
        e.set_policy(StalenessPolicy::Threshold(2.0 + 4.0 * f64::EPSILON));
        let p = e.propagate_ids(&[n(1), n(2)]);
        assert!(p.stale.is_empty());
        assert_eq!(p.tolerated, vec![(n(10), 2.0)]);
    }

    #[test]
    fn cycle_outside_affected_subgraph_stays_precise() {
        let mut e = DupEngine::new();
        // A weighted chain plus a cycle the change never reaches: the
        // fallback must not fire for unaffected cycles.
        e.add_dependency(n(1), n(2), 1.5).unwrap();
        e.add_dependency(n(10), n(11), 1.0).unwrap();
        e.add_dependency(n(11), n(10), 1.0).unwrap();
        let p = e.propagate_ids(&[n(1)]);
        assert!(!p.cycle_fallback);
        assert_eq!(p.stale_ids().collect::<Vec<_>>(), vec![n(2)]);
        let s2 = p.stale[0].1;
        assert!((s2 - 1.5).abs() < 1e-12, "precise weight, got {s2}");
    }

    #[test]
    fn cyclic_fallback_overrides_threshold_tolerance() {
        // Weight accumulation is undefined on a cycle, so even a huge
        // tolerance threshold must not tolerate anything: every reachable
        // object is infinitely stale (INFINITY >= t for any finite t).
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(2), 1.0).unwrap();
        e.add_dependency(n(2), n(1), 1.0).unwrap();
        e.set_policy(StalenessPolicy::Threshold(1e9));
        let p = e.propagate_ids(&[n(1)]);
        assert!(p.cycle_fallback);
        assert!(p.tolerated.is_empty(), "cycles never tolerate");
        assert_eq!(p.stale_ids().collect::<Vec<_>>(), vec![n(1), n(2)]);
        assert!(p.stale.iter().all(|&(_, s)| s == f64::INFINITY));
    }

    #[test]
    fn pure_data_sources_not_reported_stale() {
        let mut e = figure1_engine();
        let p = e.propagate_ids(&[n(1)]);
        assert!(!p.stale_ids().any(|id| id == n(1)));
    }

    #[test]
    fn changes_to_unknown_nodes_are_noops() {
        let mut e = figure1_engine();
        let p = e.propagate_ids(&[n(42)]);
        assert_eq!(p.affected_count(), 0);
    }

    #[test]
    fn change_with_no_dependents() {
        let mut e = DupEngine::new();
        e.graph_mut()
            .add_node(n(1), NodeKind::UnderlyingData)
            .unwrap();
        let p = e.propagate_ids(&[n(1)]);
        assert_eq!(p.affected_count(), 0);
    }

    #[test]
    fn add_dependency_creates_hybrid_chains() {
        let mut e = DupEngine::new();
        // fragment n(2) is object of n(1) and data for n(3).
        e.add_dependency(n(1), n(2), 1.0).unwrap();
        e.add_dependency(n(2), n(3), 1.0).unwrap();
        assert_eq!(e.graph().kind(n(2)), Some(NodeKind::Hybrid));
        let p = e.propagate_ids(&[n(1)]);
        let ids: Vec<u32> = p.stale_ids().map(|x| x.0).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn diamond_accumulates_across_paths() {
        // 1 -> {2,3} -> 4 with weights 2 on each hop: object 4 gets
        // 2·2 + 2·2 = 8.
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(2), 2.0).unwrap();
        e.add_dependency(n(1), n(3), 2.0).unwrap();
        e.add_dependency(n(2), n(4), 2.0).unwrap();
        e.add_dependency(n(3), n(4), 2.0).unwrap();
        let p = e.propagate_ids(&[n(1)]);
        let s4 = p.stale.iter().find(|&&(id, _)| id == n(4)).unwrap().1;
        assert!((s4 - 8.0).abs() < 1e-12);
    }
}
