//! The object dependence graph itself: nodes, weighted edges, incremental
//! mutation, and structural queries.
//!
//! Terminology follows §2 of the paper: a vertex represents an object or
//! underlying data ("it is possible for an item to constitute both an
//! object and underlying data" — [`NodeKind::Hybrid`]); an edge from `v` to
//! `u` indicates that a change to `v` also affects `u`.
//!
//! Vertices live in a **slot table**: a `Vec` of nodes, and one
//! `NodeId → slot` map beside it. An edge names its target by id *and* by
//! slot, so a traversal asks the map once per vertex it is handed and then
//! follows slots; ids stay arbitrary (sparse, huge) and the table stays as
//! dense as the graph. The graph only grows: a vertex keeps the slot it
//! was given, so an edge's slot never goes stale.

use std::fmt;

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// Dense identifier for a graph node. Produced by
/// [`crate::Interner`] or assigned directly by callers.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a vertex represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Underlying data: changes originate here (database records).
    UnderlyingData,
    /// An object: a cacheable item (page or fragment).
    Object,
    /// Both at once — e.g. a page fragment that is cached itself *and*
    /// feeds into composed pages (Figure 15 of the paper).
    Hybrid,
}

impl NodeKind {
    /// Whether this node's value can live in the cache.
    pub fn is_object(self) -> bool {
        matches!(self, NodeKind::Object | NodeKind::Hybrid)
    }
}

/// A weighted dependence edge. The weight is "correlated with the importance
/// of data dependencies" (Figure 1): higher means a change matters more to
/// the downstream object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The affected node.
    pub to: NodeId,
    /// Importance of the dependence; `1.0` for unweighted graphs.
    pub weight: f64,
    /// Where `to` lives in the slot table: a vertex keeps its slot for as
    /// long as the graph lives.
    pub(crate) slot: u32,
}

/// One slot of the table.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) kind: NodeKind,
    pub(crate) out: Vec<Edge>,
}

/// Errors from graph mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OdgError {
    /// Operation referenced a node that does not exist.
    UnknownNode(NodeId),
    /// Edge weight was not finite and positive.
    BadWeight,
}

impl fmt::Display for OdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdgError::UnknownNode(id) => write!(f, "unknown node {id}"),
            OdgError::BadWeight => write!(f, "edge weight must be finite and positive"),
        }
    }
}

impl std::error::Error for OdgError {}

/// A serialisable point-in-time copy of a graph (export / debugging).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OdgSnapshot {
    /// `(id, kind)` pairs, sorted by id.
    pub nodes: Vec<(u32, NodeKind)>,
    /// `(from, to, weight)` triples, sorted.
    pub edges: Vec<(u32, u32, f64)>,
}

/// The object dependence graph.
///
/// "ODGs are constantly changing" (§2): nodes and edges are added as pages
/// are rendered and read new data, so all mutation is incremental. The
/// graph only grows: no caller retires a page, and a vertex, once added,
/// keeps its slot and its edges.
#[derive(Debug, Default, Clone)]
pub struct Odg {
    /// The slot table, one slot per vertex, in the order they were added.
    slots: Vec<Node>,
    /// Where each vertex lives.
    index: FxHashMap<NodeId, u32>,
    edge_count: usize,
}

impl Odg {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes: what per-slot scratch must be sized to.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `id` exists.
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// The kind of node `id`.
    pub fn kind(&self, id: NodeId) -> Option<NodeKind> {
        self.get(id).map(|n| n.kind)
    }

    /// The slot `id` lives in: the one hash lookup a traversal pays per
    /// vertex it is handed by id.
    pub(crate) fn slot_of(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The vertex in `slot`, which an edge or [`Odg::slot_of`] named.
    pub(crate) fn node(&self, slot: u32) -> &Node {
        &self.slots[slot as usize]
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node {
        &mut self.slots[slot as usize]
    }

    fn get(&self, id: NodeId) -> Option<&Node> {
        self.slot_of(id).map(|slot| self.node(slot))
    }

    /// Insert a node if absent; upgrade its kind to [`NodeKind::Hybrid`]
    /// when the existing kind differs (an item that turns out to be both
    /// data and object).
    pub fn ensure_node(&mut self, id: NodeId, kind: NodeKind) -> NodeKind {
        let Some(slot) = self.slot_of(id) else {
            // One slot per distinct `u32` id at most: the cast is exact.
            self.index.insert(id, self.slots.len() as u32);
            self.slots.push(Node {
                id,
                kind,
                out: Vec::new(),
            });
            return kind;
        };
        let node = self.node_mut(slot);
        if node.kind != kind {
            node.kind = NodeKind::Hybrid;
        }
        node.kind
    }

    /// Add (or re-weight) the edge `from → to`. Errors on unknown endpoints
    /// or a non-positive/non-finite weight, leaving the graph unchanged.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<(), OdgError> {
        if !(weight.is_finite() && weight > 0.0) {
            return Err(OdgError::BadWeight);
        }
        let from_slot = self.slot_of(from).ok_or(OdgError::UnknownNode(from))?;
        if let Some(e) = self.node_mut(from_slot).out.iter_mut().find(|e| e.to == to) {
            e.weight = weight;
        } else {
            let slot = self.slot_of(to).ok_or(OdgError::UnknownNode(to))?;
            self.node_mut(from_slot).out.push(Edge { to, weight, slot });
            self.edge_count += 1;
        }
        Ok(())
    }

    /// Successors (the nodes affected by a change to `id`).
    pub fn successors(&self, id: NodeId) -> &[Edge] {
        self.get(id).map(|n| n.out.as_slice()).unwrap_or(&[])
    }

    /// Verify internal invariants: the index and the slot table describe
    /// the same vertices, every edge names the slot its target lives in,
    /// the edge count is exact, and weights are positive and finite.
    /// Returns a description of the first violation found. Cheap enough
    /// for debug assertions on graphs of hundreds of thousands of edges.
    pub fn validate(&self) -> Result<(), String> {
        if self.index.len() != self.slots.len() {
            return Err(format!(
                "slot table drift: {} indexed, {} slots",
                self.index.len(),
                self.slots.len()
            ));
        }
        let mut counted = 0usize;
        for (slot, node) in self.slots.iter().enumerate() {
            let id = node.id;
            if self.slot_of(id) != Some(slot as u32) {
                return Err(format!("{id} sits in slot {slot}, which the index denies"));
            }
            for e in &node.out {
                counted += 1;
                if !(e.weight.is_finite() && e.weight > 0.0) {
                    return Err(format!("edge {id}->{} has bad weight {}", e.to, e.weight));
                }
                if self.slot_of(e.to) != Some(e.slot) {
                    return Err(format!("edge {id}->{} names slot {}", e.to, e.slot));
                }
            }
        }
        if counted != self.edge_count {
            return Err(format!(
                "edge count drift: counted {counted}, recorded {}",
                self.edge_count
            ));
        }
        Ok(())
    }

    /// Export a serialisable snapshot (sorted, so snapshots of equal
    /// graphs compare equal regardless of how they were built).
    pub fn snapshot(&self) -> OdgSnapshot {
        let mut nodes: Vec<(u32, NodeKind)> = self.slots.iter().map(|n| (n.id.0, n.kind)).collect();
        nodes.sort_unstable_by_key(|&(id, _)| id);
        let mut edges: Vec<(u32, u32, f64)> = self
            .slots
            .iter()
            .flat_map(|n| n.out.iter().map(move |e| (n.id.0, e.to.0, e.weight)))
            .collect();
        edges.sort_unstable_by_key(|a| (a.0, a.1));
        OdgSnapshot { nodes, edges }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Build the Figure 1 graph from the paper:
    /// go1..go4 are underlying data; go5..go7 are objects/hybrids.
    /// Edges: go1->go5 (w=5), go2->go5 (w=1), go2->go6, go3->go6,
    /// go4->go7, go5->go7, go6->go7.
    pub(crate) fn figure1() -> Odg {
        let mut g = Odg::new();
        for i in 1..=4 {
            g.ensure_node(n(i), NodeKind::UnderlyingData);
        }
        g.ensure_node(n(5), NodeKind::Hybrid);
        g.ensure_node(n(6), NodeKind::Hybrid);
        g.ensure_node(n(7), NodeKind::Object);
        g.add_edge(n(1), n(5), 5.0).unwrap();
        g.add_edge(n(2), n(5), 1.0).unwrap();
        g.add_edge(n(2), n(6), 1.0).unwrap();
        g.add_edge(n(3), n(6), 1.0).unwrap();
        g.add_edge(n(4), n(7), 1.0).unwrap();
        g.add_edge(n(5), n(7), 1.0).unwrap();
        g.add_edge(n(6), n(7), 1.0).unwrap();
        g
    }

    #[test]
    fn figure1_reachability_matches_paper() {
        // "If node go2 changes ... DUP determines that nodes go5 and go6
        // also change. By transitivity, go7 also changes."
        let mut dup = crate::DupEngine::with_graph(figure1());
        let p = dup.propagate_ids(&[n(2)]);
        let ids: Vec<u32> = p.stale_ids().map(|x| x.0).collect();
        assert_eq!(ids, vec![5, 6, 7]);
        assert_eq!(p.visited, 4, "go2 and the three it reaches");
    }

    #[test]
    fn counts_and_membership() {
        let g = figure1();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 7);
        assert!(g.contains(n(5)));
        assert!(!g.contains(n(99)));
        assert_eq!(g.kind(n(1)), Some(NodeKind::UnderlyingData));
        assert_eq!(g.kind(n(7)), Some(NodeKind::Object));
    }

    #[test]
    fn edges_to_unknown_nodes_rejected() {
        let mut g = Odg::new();
        g.ensure_node(n(1), NodeKind::UnderlyingData);
        assert_eq!(
            g.add_edge(n(1), n(2), 1.0),
            Err(OdgError::UnknownNode(n(2)))
        );
        assert_eq!(
            g.add_edge(n(3), n(1), 1.0),
            Err(OdgError::UnknownNode(n(3)))
        );
    }

    #[test]
    fn bad_weights_rejected() {
        let mut g = Odg::new();
        g.ensure_node(n(1), NodeKind::UnderlyingData);
        g.ensure_node(n(2), NodeKind::Object);
        assert_eq!(g.add_edge(n(1), n(2), 0.0), Err(OdgError::BadWeight));
        assert_eq!(g.add_edge(n(1), n(2), -1.0), Err(OdgError::BadWeight));
        assert_eq!(g.add_edge(n(1), n(2), f64::NAN), Err(OdgError::BadWeight));
        assert_eq!(
            g.add_edge(n(1), n(2), f64::INFINITY),
            Err(OdgError::BadWeight)
        );
    }

    #[test]
    fn re_adding_edge_updates_weight_without_duplicating() {
        let mut g = Odg::new();
        g.ensure_node(n(1), NodeKind::UnderlyingData);
        g.ensure_node(n(2), NodeKind::Object);
        g.add_edge(n(1), n(2), 1.0).unwrap();
        g.add_edge(n(1), n(2), 3.0).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(n(1))[0].weight, 3.0);
    }

    #[test]
    fn ensure_node_upgrades_to_hybrid() {
        let mut g = Odg::new();
        assert_eq!(g.ensure_node(n(1), NodeKind::Object), NodeKind::Object);
        assert_eq!(
            g.ensure_node(n(1), NodeKind::UnderlyingData),
            NodeKind::Hybrid
        );
        assert_eq!(g.kind(n(1)), Some(NodeKind::Hybrid));
    }

    #[test]
    fn re_registering_leaves_the_graph_as_it_was() {
        let mut g = Odg::new();
        g.ensure_node(n(1), NodeKind::UnderlyingData);
        g.ensure_node(n(2), NodeKind::Object);
        g.add_edge(n(1), n(2), 0.5).unwrap();
        let settled = g.snapshot();
        // What every regeneration of an unchanged page does: the same
        // nodes with the same kinds, the same edge with the same weight.
        assert_eq!(
            g.ensure_node(n(1), NodeKind::UnderlyingData),
            NodeKind::UnderlyingData
        );
        assert_eq!(g.ensure_node(n(2), NodeKind::Object), NodeKind::Object);
        g.add_edge(n(1), n(2), 0.5).unwrap();
        assert_eq!(g.snapshot(), settled);
        assert_eq!(g.edge_count(), 1);
        // A new weight and a kind upgrade each show; asking again for the
        // hybrid it already is does not.
        g.add_edge(n(1), n(2), 2.0).unwrap();
        assert_eq!(g.snapshot().edges, vec![(1, 2, 2.0)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(
            g.ensure_node(n(2), NodeKind::UnderlyingData),
            NodeKind::Hybrid
        );
        let upgraded = g.snapshot();
        assert_eq!(
            upgraded.nodes,
            vec![(1, NodeKind::UnderlyingData), (2, NodeKind::Hybrid)]
        );
        assert_eq!(g.ensure_node(n(2), NodeKind::Object), NodeKind::Hybrid);
        assert_eq!(g.ensure_node(n(2), NodeKind::Hybrid), NodeKind::Hybrid);
        assert_eq!(g.snapshot(), upgraded);
        g.validate().expect("well-formed");
    }

    #[test]
    fn cycle_detection() {
        let mut g = Odg::new();
        for i in 1..=3 {
            g.ensure_node(n(i), NodeKind::Hybrid);
        }
        g.add_edge(n(1), n(2), 1.0).unwrap();
        g.add_edge(n(2), n(3), 1.0).unwrap();
        let mut dup = crate::DupEngine::with_graph(g);
        assert!(!dup.propagate_ids(&[n(1)]).cycle_fallback);
        dup.graph_mut().add_edge(n(3), n(1), 1.0).unwrap();
        assert!(dup.propagate_ids(&[n(1)]).cycle_fallback);
    }

    #[test]
    fn topo_order_respects_edges() {
        // Every datum changes: go7 sums what go4, go5 and go6 hand it, so
        // it is right only if go5 and go6 were finished before it was.
        let mut dup = crate::DupEngine::with_graph(figure1());
        let p = dup.propagate_ids(&[n(1), n(2), n(3), n(4)]);
        assert!(!p.cycle_fallback);
        assert_eq!(p.visited, 7);
        // go5 = 5 + 1, go6 = 1 + 1, go7 = 1 + go5 + go6.
        assert_eq!(p.stale, vec![(n(5), 6.0), (n(6), 2.0), (n(7), 9.0)]);
    }

    #[test]
    fn topo_order_detects_cycles() {
        let mut g = Odg::new();
        g.ensure_node(n(1), NodeKind::Hybrid);
        g.ensure_node(n(2), NodeKind::Hybrid);
        g.add_edge(n(1), n(2), 1.0).unwrap();
        g.add_edge(n(2), n(1), 1.0).unwrap();
        let p = crate::DupEngine::with_graph(g).propagate_ids(&[n(1)]);
        assert!(p.cycle_fallback);
        assert_eq!(p.visited, 2);
    }

    #[test]
    fn reachable_ignores_unknown_sources() {
        let mut dup = crate::DupEngine::with_graph(figure1());
        assert_eq!(dup.propagate_ids(&[n(42)]).visited, 0);
        // Beside a known one, an unknown id reaches nothing either.
        let p = dup.propagate_ids(&[n(42), n(4)]);
        assert_eq!(p.visited, 2, "go4 and go7");
        assert_eq!(p.stale, vec![(n(7), 1.0)]);
    }

    #[test]
    fn validate_accepts_wellformed_and_survives_mutation() {
        let mut g = figure1();
        g.validate().expect("figure 1 is well-formed");
        g.ensure_node(n(8), NodeKind::Object);
        g.add_edge(n(5), n(8), 2.0).unwrap();
        g.add_edge(n(1), n(5), 2.0).unwrap();
        g.ensure_node(n(8), NodeKind::UnderlyingData);
        g.validate().expect("still well-formed after churn");
    }

    #[test]
    fn validate_names_each_broken_invariant() {
        let broken = |at: &str, corrupt: fn(&mut Odg)| {
            let mut g = figure1();
            corrupt(&mut g);
            let why = g.validate().expect_err("a broken graph");
            assert!(why.contains(at), "{why}");
        };
        broken("slot table drift", |g| {
            g.index.remove(&n(7));
        });
        broken("which the index denies", |g| {
            g.index.insert(n(1), 2);
            g.index.insert(n(2), 1);
        });
        broken("bad weight", |g| g.slots[0].out[0].weight = 0.0);
        broken("names slot", |g| g.slots[0].out[0].slot = 0);
        broken("edge count drift", |g| g.edge_count += 1);
    }

    #[test]
    fn snapshot_is_canonical_and_serialisable() {
        let g = figure1();
        let snap = g.snapshot();
        assert_eq!(snap.nodes.len(), 7);
        assert_eq!(snap.edges.len(), 7);
        assert!(snap
            .edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        // Round-trips through JSON.
        let json = serde_json::to_string(&snap).unwrap();
        let back: OdgSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // Equal graphs produce equal snapshots.
        assert_eq!(figure1().snapshot(), snap);
    }
}
