//! The Data Update Propagation engine.
//!
//! Given a batch of changed underlying data, [`DupEngine::propagate`]
//! determines which cached objects have become obsolete and *how* obsolete
//! (their accumulated staleness), per §2 of the paper:
//!
//! * **Simple ODGs** take a bipartite fast path: one hash lookup per
//!   changed datum (see [`crate::SimpleOdg`]).
//! * **General ODGs** are traversed in topological order of the affected
//!   subgraph, accumulating weighted staleness: a change of magnitude `m`
//!   at `v` contributes `m · w(v→u)` to each successor `u`, and
//!   contributions sum across paths.
//! * **Cyclic ODGs** (possible, since applications register arbitrary
//!   dependencies) fall back to a conservative rule: every reachable object
//!   is treated as fully stale. Correctness (no stale page served believing
//!   it fresh) is preserved; precision is sacrificed only in the cyclic
//!   case.
//!
//! The staleness policy decides what to do with slightly-obsolete objects:
//! the paper notes "it is often possible to save considerable CPU cycles by
//! allowing pages to remain in the cache which are only slightly obsolete".

use rustc_hash::FxHashMap;

use crate::graph::{NodeId, NodeKind, Odg, OdgError};
use crate::simple::SimpleOdg;

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
    /// Whether the bipartite simple-ODG fast path was used.
    pub used_simple_path: bool,
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
/// assert!(prop.used_simple_path); // bipartite + unweighted = simple ODG
/// ```
#[derive(Debug, Default)]
pub struct DupEngine {
    odg: Odg,
    policy: StalenessPolicy,
    /// Cached simple-ODG specialisation, keyed by the graph generation at
    /// which it was built.
    simple_cache: Option<(u64, bool, SimpleOdg)>,
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
            policy: StalenessPolicy::Strict,
            simple_cache: None,
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

    /// Mutable access to the graph (invalidates the simple-path cache via
    /// the generation counter, so no explicit flush is needed).
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
        let changes: Vec<(NodeId, f64)> = changed.iter().map(|&id| (id, 1.0)).collect();
        self.propagate(&changes)
    }

    /// Propagate a batch of changes with explicit magnitudes.
    pub fn propagate(&mut self, changes: &[(NodeId, f64)]) -> Propagation {
        self.refresh_simple_cache();
        if let Some((_, true, simple)) = &self.simple_cache {
            // Fast path: bipartite lookup; every affected object gets the
            // summed magnitude of the data feeding it. A changed node that
            // is itself an object is stale directly (matching the general
            // path, which includes sources in the accumulation).
            let mut staleness: FxHashMap<NodeId, f64> = FxHashMap::default();
            for &(d, m) in changes {
                if self.odg.kind(d).map(NodeKind::is_object).unwrap_or(false) {
                    *staleness.entry(d).or_insert(0.0) += m;
                }
                for &o in simple.objects_for(d) {
                    *staleness.entry(o).or_insert(0.0) += m;
                }
            }
            let visited = changes.len() + staleness.len();
            let mut prop = self.finish(staleness, visited);
            prop.used_simple_path = true;
            return prop;
        }
        self.propagate_general(changes)
    }

    fn refresh_simple_cache(&mut self) {
        let gen = self.odg.generation();
        let fresh = matches!(&self.simple_cache, Some((g, _, _)) if *g == gen);
        if !fresh {
            let is_simple = self.odg.is_simple();
            let simple = if is_simple {
                SimpleOdg::from_graph(&self.odg)
            } else {
                SimpleOdg::new()
            };
            self.simple_cache = Some((gen, is_simple, simple));
        }
    }

    /// Force the general (traversal) algorithm even on simple graphs —
    /// used by the ablation benchmarks to quantify the fast path's benefit.
    pub fn propagate_general(&mut self, changes: &[(NodeId, f64)]) -> Propagation {
        let sources: Vec<NodeId> = changes
            .iter()
            .map(|&(id, _)| id)
            .filter(|&id| self.odg.contains(id))
            .collect();
        let reachable = self.odg.reachable(&sources);
        let visited = reachable.len();

        match self.odg.topo_order_within(&reachable) {
            Some(order) => {
                let mut acc: FxHashMap<NodeId, f64> = FxHashMap::default();
                for &(id, m) in changes {
                    if self.odg.contains(id) {
                        *acc.entry(id).or_insert(0.0) += m;
                    }
                }
                for &v in &order {
                    let contribution = acc.get(&v).copied().unwrap_or(0.0);
                    if contribution == 0.0 {
                        continue;
                    }
                    for e in self.odg.successors(v) {
                        *acc.entry(e.to).or_insert(0.0) += contribution * e.weight;
                    }
                }
                // Only objects are cacheable; sources that are pure data do
                // not appear in the result.
                let staleness: FxHashMap<NodeId, f64> = acc
                    .into_iter()
                    .filter(|(id, _)| self.odg.kind(*id).map(NodeKind::is_object).unwrap_or(false))
                    .collect();
                self.finish(staleness, visited)
            }
            None => {
                // Cyclic affected subgraph: conservative fallback. Weight
                // accumulation is not well-defined on a cycle, so treat
                // every reachable object as fully stale.
                let staleness: FxHashMap<NodeId, f64> = reachable
                    .iter()
                    .filter(|&&id| self.odg.kind(id).map(NodeKind::is_object).unwrap_or(false))
                    .map(|&id| (id, f64::INFINITY))
                    .collect();
                let mut prop = Propagation {
                    cycle_fallback: true,
                    ..Default::default()
                };
                let mut stale: Vec<(NodeId, f64)> = staleness.into_iter().collect();
                stale.sort_unstable_by_key(|&(id, _)| id);
                prop.stale = stale;
                prop.visited = visited;
                prop
            }
        }
    }

    fn finish(&self, staleness: FxHashMap<NodeId, f64>, visited: usize) -> Propagation {
        let mut stale = Vec::new();
        let mut tolerated = Vec::new();
        for (id, s) in staleness {
            if s == 0.0 {
                continue;
            }
            if self.policy.is_stale(s) {
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
            used_simple_path: false,
            cycle_fallback: false,
        }
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
        assert!(!p.used_simple_path);
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
    fn simple_graph_uses_fast_path() {
        let mut e = DupEngine::new();
        let mut g = Odg::new();
        g.add_node(n(1), NodeKind::UnderlyingData).unwrap();
        g.add_node(n(2), NodeKind::Object).unwrap();
        g.add_node(n(3), NodeKind::Object).unwrap();
        g.add_edge(n(1), n(2), 1.0).unwrap();
        g.add_edge(n(1), n(3), 1.0).unwrap();
        *e.graph_mut() = g;
        let p = e.propagate_ids(&[n(1)]);
        assert!(p.used_simple_path);
        let ids: Vec<u32> = p.stale_ids().map(|x| x.0).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn simple_cache_invalidates_on_mutation() {
        let mut e = DupEngine::new();
        e.graph_mut()
            .add_node(n(1), NodeKind::UnderlyingData)
            .unwrap();
        e.graph_mut().add_node(n(2), NodeKind::Object).unwrap();
        e.graph_mut().add_edge(n(1), n(2), 1.0).unwrap();
        assert!(e.propagate_ids(&[n(1)]).used_simple_path);
        // A weighted edge makes the graph non-simple; the cached fast path
        // must be dropped automatically.
        e.graph_mut().add_node(n(3), NodeKind::Object).unwrap();
        e.graph_mut().add_edge(n(1), n(3), 2.0).unwrap();
        let p = e.propagate_ids(&[n(1)]);
        assert!(!p.used_simple_path);
        assert_eq!(p.stale.len(), 2);
    }

    #[test]
    fn re_registering_a_dependency_keeps_the_simple_cache() {
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(2), 1.0).unwrap();
        assert!(e.propagate_ids(&[n(1)]).used_simple_path);
        let built = e.graph().generation();
        // What every regeneration of an unchanged page does.
        e.add_dependency(n(1), n(2), 1.0).unwrap();
        assert_eq!(e.graph().generation(), built);
        assert!(matches!(&e.simple_cache, Some((g, true, _)) if *g == built));
        // A changed weight is a mutation, and is seen.
        e.add_dependency(n(1), n(2), 3.0).unwrap();
        assert!(e.graph().generation() > built);
        assert!(!e.propagate_ids(&[n(1)]).used_simple_path);
    }

    #[test]
    fn simple_and_general_agree_on_simple_graphs() {
        let mut e = DupEngine::new();
        for d in 0..10 {
            for o in 0..5 {
                e.add_dependency(n(d), n(100 + d * 5 + o), 1.0).unwrap();
            }
        }
        let changed = [n(0), n(3), n(7)];
        let fast = e.propagate_ids(&changed);
        assert!(fast.used_simple_path);
        let changes: Vec<(NodeId, f64)> = changed.iter().map(|&c| (c, 1.0)).collect();
        let slow = e.propagate_general(&changes);
        assert_eq!(
            fast.stale_ids().collect::<Vec<_>>(),
            slow.stale_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn simple_path_reports_directly_changed_objects() {
        // Regression: a change to an *object* node in a simple graph must
        // mark that object stale, exactly as the general traversal does.
        let mut e = DupEngine::new();
        e.graph_mut()
            .add_node(n(1), NodeKind::UnderlyingData)
            .unwrap();
        e.graph_mut().add_node(n(2), NodeKind::Object).unwrap();
        e.graph_mut().add_node(n(3), NodeKind::Object).unwrap();
        e.graph_mut().add_edge(n(1), n(2), 1.0).unwrap();
        let p = e.propagate_ids(&[n(3)]);
        assert!(p.used_simple_path);
        assert_eq!(p.stale_ids().collect::<Vec<_>>(), vec![n(3)]);
        // And it agrees with the general path.
        let g = e.propagate_general(&[(n(3), 1.0)]);
        assert_eq!(g.stale_ids().collect::<Vec<_>>(), vec![n(3)]);
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
        // 1 → 2 (w 0.75) → 3: the weighted edge forces the general
        // traversal; both 2 and 3 accumulate exactly 0.75.
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(2), 0.75).unwrap();
        e.add_dependency(n(2), n(3), 1.0).unwrap();
        e.set_policy(StalenessPolicy::Threshold(0.75));
        let p = e.propagate_ids(&[n(1)]);
        assert!(!p.used_simple_path);
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
        // Unweighted bipartite graph: the fast path must apply the same
        // `>=` boundary rule as the general traversal.
        let mut e = DupEngine::new();
        e.add_dependency(n(1), n(10), 1.0).unwrap();
        e.add_dependency(n(2), n(10), 1.0).unwrap();
        e.set_policy(StalenessPolicy::Threshold(2.0));
        let p = e.propagate_ids(&[n(1), n(2)]);
        assert!(p.used_simple_path);
        // Object 10 accumulates exactly 2.0: at-threshold is stale.
        assert_eq!(p.stale_ids().collect::<Vec<_>>(), vec![n(10)]);
        assert!(p.tolerated.is_empty());
        // Epsilon above the accumulated staleness: tolerated instead.
        e.set_policy(StalenessPolicy::Threshold(2.0 + 4.0 * f64::EPSILON));
        let p = e.propagate_ids(&[n(1), n(2)]);
        assert!(p.used_simple_path);
        assert!(p.stale.is_empty());
        assert_eq!(p.tolerated.len(), 1);
        // And the general path agrees on both sides of the boundary.
        let g = e.propagate_general(&[(n(1), 1.0), (n(2), 1.0)]);
        assert!(g.stale.is_empty());
        assert_eq!(g.tolerated.len(), 1);
    }

    #[test]
    fn cycle_outside_affected_subgraph_stays_precise() {
        let mut e = DupEngine::new();
        // Weighted chain (general path) plus a cycle the change never
        // reaches: the fallback must not fire for unaffected cycles.
        e.add_dependency(n(1), n(2), 1.5).unwrap();
        e.add_dependency(n(10), n(11), 1.0).unwrap();
        e.add_dependency(n(11), n(10), 1.0).unwrap();
        let p = e.propagate_ids(&[n(1)]);
        assert!(!p.cycle_fallback);
        assert!(!p.used_simple_path);
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
