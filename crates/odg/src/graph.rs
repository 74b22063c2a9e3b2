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
//! dense as the graph. A removed vertex vacates its slot for the next one
//! added.

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
    /// Where `to` lives in the slot table, for as long as the edge exists:
    /// removing a vertex removes every edge into it first.
    pub(crate) slot: u32,
}

/// One slot of the table.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) kind: NodeKind,
    pub(crate) out: Vec<Edge>,
    preds: Vec<NodeId>,
    /// Cleared when the vertex is removed: the slot then holds no edges,
    /// none points at it, and it waits on the free list.
    occupied: bool,
}

/// Errors from graph mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OdgError {
    /// Operation referenced a node that does not exist.
    UnknownNode(NodeId),
    /// Attempted to insert a duplicate node id.
    DuplicateNode(NodeId),
    /// Edge weight was not finite and positive.
    BadWeight,
}

impl fmt::Display for OdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdgError::UnknownNode(id) => write!(f, "unknown node {id}"),
            OdgError::DuplicateNode(id) => write!(f, "duplicate node {id}"),
            OdgError::BadWeight => write!(f, "edge weight must be finite and positive"),
        }
    }
}

impl std::error::Error for OdgError {}

/// Aggregate statistics about a graph (diagnostics / capacity planning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Total vertices.
    pub nodes: usize,
    /// Total edges.
    pub edges: usize,
    /// Pure underlying-data vertices.
    pub data_nodes: usize,
    /// Pure object vertices.
    pub object_nodes: usize,
    /// Hybrid vertices.
    pub hybrid_nodes: usize,
    /// Largest out-degree (widest single-datum fan-out).
    pub max_out_degree: usize,
    /// Largest in-degree (most-composed object).
    pub max_in_degree: usize,
    /// Edges with non-unit weights.
    pub weighted_edges: usize,
}

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
/// are first generated and removed as pages are retired, so all mutation is
/// incremental. Both forward and reverse adjacency are maintained to make
/// node removal and reverse queries cheap.
#[derive(Debug, Default, Clone)]
pub struct Odg {
    /// The slot table, vacated slots (listed in `free`) included.
    slots: Vec<Node>,
    /// Where each vertex lives.
    index: FxHashMap<NodeId, u32>,
    /// Vacated slots, reused last-vacated-first.
    free: Vec<u32>,
    edge_count: usize,
}

impl Odg {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.index.len()
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

    /// Slots in the table, vacated ones included: what per-slot scratch
    /// must be sized to.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The vertex in `slot`, which an edge or [`Odg::slot_of`] named:
    /// neither ever names a vacated slot.
    pub(crate) fn node(&self, slot: u32) -> &Node {
        &self.slots[slot as usize]
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node {
        &mut self.slots[slot as usize]
    }

    fn get(&self, id: NodeId) -> Option<&Node> {
        self.slot_of(id).map(|slot| self.node(slot))
    }

    /// The occupied slots, in table order.
    fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.slots.iter().filter(|n| n.occupied)
    }

    /// Put a vertex the index does not know into a slot.
    fn insert(&mut self, id: NodeId, kind: NodeKind) {
        let node = Node {
            id,
            kind,
            out: Vec::new(),
            preds: Vec::new(),
            occupied: true,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = node;
                slot
            }
            None => {
                // One slot per distinct `u32` id at most: the cast is exact.
                self.slots.push(node);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, slot);
    }

    /// Insert a new node. Errors if the id already exists.
    pub fn add_node(&mut self, id: NodeId, kind: NodeKind) -> Result<(), OdgError> {
        if self.contains(id) {
            return Err(OdgError::DuplicateNode(id));
        }
        self.insert(id, kind);
        Ok(())
    }

    /// Insert a node if absent; upgrade its kind to [`NodeKind::Hybrid`]
    /// when the existing kind differs (an item that turns out to be both
    /// data and object).
    pub fn ensure_node(&mut self, id: NodeId, kind: NodeKind) -> NodeKind {
        let Some(slot) = self.slot_of(id) else {
            self.insert(id, kind);
            return kind;
        };
        let node = self.node_mut(slot);
        if node.kind != kind {
            node.kind = NodeKind::Hybrid;
        }
        node.kind
    }

    /// Remove a node and all incident edges. Errors if the node is unknown.
    pub fn remove_node(&mut self, id: NodeId) -> Result<(), OdgError> {
        let slot = self.index.remove(&id).ok_or(OdgError::UnknownNode(id))?;
        let node = self.node_mut(slot);
        node.occupied = false;
        let (out, preds) = (
            std::mem::take(&mut node.out),
            std::mem::take(&mut node.preds),
        );
        self.free.push(slot);
        self.edge_count -= out.len();
        // A self-loop finds its own slot emptied, and its own id unknown.
        for e in &out {
            self.node_mut(e.slot).preds.retain(|&p| p != id);
        }
        for &p in &preds {
            if let Some(pred_slot) = self.slot_of(p) {
                let pred = self.node_mut(pred_slot);
                let before = pred.out.len();
                pred.out.retain(|e| e.slot != slot);
                self.edge_count -= before - pred.out.len();
            }
        }
        Ok(())
    }

    /// Add (or re-weight) the edge `from → to`. Errors on unknown endpoints
    /// or a non-positive/non-finite weight.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<(), OdgError> {
        if !(weight.is_finite() && weight > 0.0) {
            return Err(OdgError::BadWeight);
        }
        let from_slot = self.slot_of(from).ok_or(OdgError::UnknownNode(from))?;
        if let Some(e) = self.node_mut(from_slot).out.iter_mut().find(|e| e.to == to) {
            e.weight = weight;
        } else {
            // Backlink first: both endpoints are still untouched if `to`
            // is unknown, so a failed call leaves the graph unchanged.
            let slot = self.slot_of(to).ok_or(OdgError::UnknownNode(to))?;
            self.node_mut(slot).preds.push(from);
            self.node_mut(from_slot).out.push(Edge { to, weight, slot });
            self.edge_count += 1;
        }
        Ok(())
    }

    /// Remove the edge `from → to`; returns whether it existed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let Some(from_slot) = self.slot_of(from) else {
            return false;
        };
        let out = &mut self.node_mut(from_slot).out;
        let Some(at) = out.iter().position(|e| e.to == to) else {
            return false;
        };
        let edge = out.remove(at);
        self.edge_count -= 1;
        let preds = &mut self.node_mut(edge.slot).preds;
        if let Some(at) = preds.iter().position(|&p| p == from) {
            preds.swap_remove(at);
        }
        true
    }

    /// Successors (the nodes affected by a change to `id`).
    pub fn successors(&self, id: NodeId) -> &[Edge] {
        self.get(id).map(|n| n.out.as_slice()).unwrap_or(&[])
    }

    /// Predecessors (the nodes whose changes affect `id`).
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        self.get(id).map(|n| n.preds.as_slice()).unwrap_or(&[])
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> GraphStats {
        let mut stats = GraphStats {
            nodes: self.node_count(),
            edges: self.edge_count,
            data_nodes: 0,
            object_nodes: 0,
            hybrid_nodes: 0,
            max_out_degree: 0,
            max_in_degree: 0,
            weighted_edges: 0,
        };
        for node in self.nodes() {
            match node.kind {
                NodeKind::UnderlyingData => stats.data_nodes += 1,
                NodeKind::Object => stats.object_nodes += 1,
                NodeKind::Hybrid => stats.hybrid_nodes += 1,
            }
            stats.max_out_degree = stats.max_out_degree.max(node.out.len());
            stats.max_in_degree = stats.max_in_degree.max(node.preds.len());
            stats.weighted_edges += node.out.iter().filter(|e| e.weight != 1.0).count();
        }
        stats
    }

    /// Verify internal invariants: the index, the slot table and the free
    /// list describe the same vertices, forward and reverse adjacency
    /// agree, every edge names the slot its target lives in, the edge
    /// count is exact, and weights are positive and finite. Returns a
    /// description of the first violation found. Cheap enough for debug
    /// assertions on graphs of hundreds of thousands of edges.
    pub fn validate(&self) -> Result<(), String> {
        let occupied = self.nodes().count();
        if occupied != self.index.len() || occupied + self.free.len() != self.slots.len() {
            return Err(format!(
                "slot table drift: {occupied} occupied, {} indexed, {} free, {} slots",
                self.index.len(),
                self.free.len(),
                self.slots.len()
            ));
        }
        let vacated = |n: &Node| !n.occupied && n.out.is_empty() && n.preds.is_empty();
        if let Some(&slot) = self.free.iter().find(|&&s| !vacated(self.node(s))) {
            return Err(format!("free slot {slot} is occupied"));
        }
        let mut counted = 0usize;
        for (slot, node) in self.slots.iter().enumerate() {
            if !node.occupied {
                continue;
            }
            let id = node.id;
            if self.slot_of(id) != Some(slot as u32) {
                return Err(format!("{id} sits in slot {slot}, which the index denies"));
            }
            for e in &node.out {
                counted += 1;
                if !(e.weight.is_finite() && e.weight > 0.0) {
                    return Err(format!("edge {id}->{} has bad weight {}", e.to, e.weight));
                }
                let Some(succ) = self.get(e.to) else {
                    return Err(format!("edge {id}->{} points at a missing node", e.to));
                };
                if self.slot_of(e.to) != Some(e.slot) {
                    return Err(format!("edge {id}->{} names slot {}", e.to, e.slot));
                }
                if !succ.preds.contains(&id) {
                    return Err(format!(
                        "edge {id}->{} missing from reverse adjacency",
                        e.to
                    ));
                }
            }
            for &p in &node.preds {
                let Some(pred) = self.get(p) else {
                    return Err(format!("pred {p} of {id} is a missing node"));
                };
                if !pred.out.iter().any(|e| e.to == id) {
                    return Err(format!("pred {p} of {id} missing from forward adjacency"));
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
        let mut nodes: Vec<(u32, NodeKind)> = self.nodes().map(|n| (n.id.0, n.kind)).collect();
        nodes.sort_unstable_by_key(|&(id, _)| id);
        let mut edges: Vec<(u32, u32, f64)> = self
            .nodes()
            .flat_map(|n| n.out.iter().map(move |e| (n.id.0, e.to.0, e.weight)))
            .collect();
        edges.sort_unstable_by_key(|a| (a.0, a.1));
        OdgSnapshot { nodes, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Build the Figure 1 graph from the paper:
    /// go1..go4 are underlying data; go5..go7 are objects/hybrids.
    /// Edges: go1->go5 (w=5), go2->go5 (w=1), go2->go6, go3->go6,
    /// go4->go7, go5->go7, go6->go7.
    fn figure1() -> Odg {
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
    fn duplicate_node_rejected() {
        let mut g = figure1();
        assert_eq!(
            g.add_node(n(1), NodeKind::Object),
            Err(OdgError::DuplicateNode(n(1)))
        );
    }

    #[test]
    fn edges_to_unknown_nodes_rejected() {
        let mut g = Odg::new();
        g.add_node(n(1), NodeKind::UnderlyingData).unwrap();
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
        g.add_node(n(1), NodeKind::UnderlyingData).unwrap();
        g.add_node(n(2), NodeKind::Object).unwrap();
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
        g.add_node(n(1), NodeKind::UnderlyingData).unwrap();
        g.add_node(n(2), NodeKind::Object).unwrap();
        g.add_edge(n(1), n(2), 1.0).unwrap();
        g.add_edge(n(1), n(2), 3.0).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(n(1))[0].weight, 3.0);
        assert_eq!(g.predecessors(n(2)), &[n(1)]);
    }

    #[test]
    fn remove_edge() {
        let mut g = figure1();
        assert!(g.remove_edge(n(2), n(5)));
        assert!(!g.remove_edge(n(2), n(5)));
        assert_eq!(g.edge_count(), 6);
        // go2 still feeds go6; go5 hears only from go1.
        let to: Vec<NodeId> = g.successors(n(2)).iter().map(|e| e.to).collect();
        assert_eq!(to, vec![n(6)]);
        assert_eq!(g.predecessors(n(5)), &[n(1)]);
        g.validate().expect("well-formed after removal");
    }

    #[test]
    fn remove_node_cleans_both_directions() {
        let mut g = figure1();
        g.remove_node(n(5)).unwrap();
        assert_eq!(g.node_count(), 6);
        // go1->go5, go2->go5, go5->go7 all gone.
        assert_eq!(g.edge_count(), 4);
        assert!(g.successors(n(1)).is_empty());
        assert!(!g.predecessors(n(7)).contains(&n(5)));
        assert_eq!(g.remove_node(n(5)), Err(OdgError::UnknownNode(n(5))));
        g.validate().expect("well-formed after removal");
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
        assert!(!g.remove_edge(n(2), n(1)));
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
    fn stats_summarise_figure1() {
        let g = figure1();
        let s = g.stats();
        assert_eq!(s.nodes, 7);
        assert_eq!(s.edges, 7);
        assert_eq!(s.data_nodes, 4);
        assert_eq!(s.object_nodes, 1);
        assert_eq!(s.hybrid_nodes, 2);
        assert_eq!(s.max_out_degree, 2); // go2 feeds go5 and go6
        assert_eq!(s.max_in_degree, 3); // go7 composed from go4, go5, go6
        assert_eq!(s.weighted_edges, 1); // the weight-5 edge
    }

    #[test]
    fn cycle_detection() {
        let mut g = Odg::new();
        for i in 1..=3 {
            g.add_node(n(i), NodeKind::Hybrid).unwrap();
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
        g.add_node(n(1), NodeKind::Hybrid).unwrap();
        g.add_node(n(2), NodeKind::Hybrid).unwrap();
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
        g.remove_node(n(5)).unwrap();
        g.validate().expect("still well-formed after removal");
        g.add_node(n(5), NodeKind::Object).unwrap();
        g.add_edge(n(1), n(5), 2.0).unwrap();
        g.remove_edge(n(1), n(5));
        g.validate().expect("still well-formed after churn");
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
