//! Property-based tests for the ODG and the DUP engine.
//!
//! The reference model is a naive transitive-closure / path-enumeration
//! implementation; DUP must agree with it on arbitrary random graphs.

use proptest::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};

use nagano_odg::{DupEngine, NodeId, NodeKind, Odg, StalenessPolicy};

/// A randomly generated DAG description: `n` nodes, edges only from lower
/// to higher ids (guaranteeing acyclicity).
#[derive(Debug, Clone)]
struct DagSpec {
    n: u32,
    edges: Vec<(u32, u32, f64)>,
}

fn dag_strategy(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = DagSpec> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge =
            (0..n - 1).prop_flat_map(move |from| ((from + 1)..n).prop_map(move |to| (from, to)));
        proptest::collection::vec((edge, 1..=8u32), 0..max_edges).prop_map(move |raw| {
            // Deduplicate (from, to) pairs, last weight winning — matching
            // `Odg::add_edge`'s re-weighting semantics.
            let mut dedup: FxHashMap<(u32, u32), f64> = FxHashMap::default();
            for ((f, t), w) in raw {
                dedup.insert((f, t), w as f64);
            }
            let mut edges: Vec<(u32, u32, f64)> =
                dedup.into_iter().map(|((f, t), w)| (f, t, w)).collect();
            edges.sort_by_key(|&(f, t, _)| (f, t));
            DagSpec { n, edges }
        })
    })
}

/// Build an engine from a spec. Nodes with outgoing edges and no incoming
/// edges are data, sinks are objects, the rest hybrid — mirroring how a
/// real application registers dependencies.
fn build(spec: &DagSpec) -> DupEngine {
    let mut has_in = vec![false; spec.n as usize];
    let mut has_out = vec![false; spec.n as usize];
    for &(f, t, _) in &spec.edges {
        has_out[f as usize] = true;
        has_in[t as usize] = true;
    }
    let mut g = Odg::new();
    for i in 0..spec.n {
        let kind = match (has_in[i as usize], has_out[i as usize]) {
            (false, _) => NodeKind::UnderlyingData,
            (true, false) => NodeKind::Object,
            (true, true) => NodeKind::Hybrid,
        };
        g.add_node(NodeId(i), kind).unwrap();
    }
    for &(f, t, w) in &spec.edges {
        g.add_edge(NodeId(f), NodeId(t), w).unwrap();
    }
    DupEngine::with_graph(g)
}

/// Reference: set of objects reachable from the sources, via adjacency
/// lists rebuilt from the spec.
fn reference_affected(spec: &DagSpec, sources: &[u32]) -> FxHashSet<u32> {
    let mut adj: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut has_in = vec![false; spec.n as usize];
    for &(f, t, _) in &spec.edges {
        adj.entry(f).or_default().push(t);
        has_in[t as usize] = true;
    }
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut stack: Vec<u32> = sources.iter().copied().filter(|&s| s < spec.n).collect();
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        for &t in adj.get(&v).map(|v| v.as_slice()).unwrap_or(&[]) {
            if !seen.contains(&t) {
                stack.push(t);
            }
        }
    }
    // Affected *objects*: reachable nodes that have an incoming edge —
    // pure-data roots are not cacheable; hybrid roots (with incoming
    // edges) are.
    seen.retain(|&v| has_in[v as usize]);
    seen
}

/// Reference staleness: sum over all paths of the product of edge weights,
/// computed by dynamic programming over the DAG (ids are topo-ordered by
/// construction).
fn reference_staleness(spec: &DagSpec, sources: &[(u32, f64)]) -> FxHashMap<u32, f64> {
    let mut acc: FxHashMap<u32, f64> = FxHashMap::default();
    for &(s, m) in sources {
        if s < spec.n {
            *acc.entry(s).or_insert(0.0) += m;
        }
    }
    let mut edges = spec.edges.clone();
    edges.sort_by_key(|&(f, _, _)| f);
    for v in 0..spec.n {
        let contribution = acc.get(&v).copied().unwrap_or(0.0);
        if contribution == 0.0 {
            continue;
        }
        for &(f, t, w) in &edges {
            if f == v {
                *acc.entry(t).or_insert(0.0) += contribution * w;
            }
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dup_matches_reference_closure(
        spec in dag_strategy(24, 60),
        source_seed in 0..1000u32,
    ) {
        let mut engine = build(&spec);
        let sources: Vec<u32> = (0..spec.n)
            .filter(|i| (i.wrapping_mul(2654435761).wrapping_add(source_seed)) % 3 == 0)
            .collect();
        let ids: Vec<NodeId> = sources.iter().map(|&s| NodeId(s)).collect();
        let prop = engine.propagate_ids(&ids);
        prop_assert!(!prop.cycle_fallback, "DAG must not trigger cycle fallback");
        let got: FxHashSet<u32> = prop.stale_ids().map(|id| id.0).collect();
        let want = reference_affected(&spec, &sources);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn staleness_equals_path_weight_sum(
        spec in dag_strategy(16, 40),
        magnitude in 1..5u32,
    ) {
        let mut engine = build(&spec);
        // Change every pure-data root with the given magnitude.
        let mut has_in = vec![false; spec.n as usize];
        for &(_, t, _) in &spec.edges {
            has_in[t as usize] = true;
        }
        let sources: Vec<(u32, f64)> = (0..spec.n)
            .filter(|&i| !has_in[i as usize])
            .map(|i| (i, magnitude as f64))
            .collect();
        let changes: Vec<(NodeId, f64)> = sources.iter().map(|&(s, m)| (NodeId(s), m)).collect();
        let prop = engine.propagate(&changes);
        let want = reference_staleness(&spec, &sources);
        for (id, s) in prop.stale.iter().chain(prop.tolerated.iter()) {
            let expect = want.get(&id.0).copied().unwrap_or(0.0);
            prop_assert!((s - expect).abs() < 1e-9 * expect.max(1.0),
                "node {} got {} want {}", id.0, s, expect);
        }
    }

    #[test]
    fn threshold_partitions_affected_set(
        spec in dag_strategy(16, 40),
        threshold in 1..20u32,
    ) {
        let mut strict = build(&spec);
        let mut thresholded = build(&spec);
        thresholded.set_policy(StalenessPolicy::Threshold(threshold as f64));
        let sources: Vec<NodeId> = (0..spec.n.min(4)).map(NodeId).collect();
        let a = strict.propagate_ids(&sources);
        let b = thresholded.propagate_ids(&sources);
        // Threshold never changes the affected set, only its partition.
        prop_assert_eq!(a.affected_count(), b.affected_count());
        let all_a: Vec<NodeId> = a.stale_ids().collect();
        let mut all_b: Vec<NodeId> = b
            .stale
            .iter()
            .chain(b.tolerated.iter())
            .map(|&(id, _)| id)
            .collect();
        all_b.sort_unstable();
        prop_assert_eq!(all_a, all_b);
        for &(_, s) in &b.stale {
            prop_assert!(s >= threshold as f64);
        }
        for &(_, s) in &b.tolerated {
            prop_assert!(s < threshold as f64);
        }
    }

    #[test]
    fn edge_count_survives_random_mutation(
        ops in proptest::collection::vec((0..30u32, 0..30u32, 0..3u8), 1..200),
    ) {
        let mut g = Odg::new();
        let mut model: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut nodes: FxHashSet<u32> = FxHashSet::default();
        for (a, b, op) in ops {
            match op {
                0 => {
                    if nodes.insert(a) {
                        g.add_node(NodeId(a), NodeKind::Hybrid).unwrap();
                    }
                }
                1 => {
                    if nodes.contains(&a) && nodes.contains(&b) {
                        g.add_edge(NodeId(a), NodeId(b), 1.0).unwrap();
                        model.insert((a, b));
                    }
                }
                _ => {
                    let removed = g.remove_edge(NodeId(a), NodeId(b));
                    prop_assert_eq!(removed, model.remove(&(a, b)));
                }
            }
            prop_assert_eq!(g.edge_count(), model.len());
            prop_assert_eq!(g.node_count(), nodes.len());
            if let Err(e) = g.validate() {
                prop_assert!(false, "invariant violation: {}", e);
            }
        }
        // Adjacency is consistent with the model in both directions.
        for &(a, b) in &model {
            prop_assert!(g.successors(NodeId(a)).iter().any(|e| e.to == NodeId(b)));
            prop_assert!(g.predecessors(NodeId(b)).contains(&NodeId(a)));
        }
    }

    #[test]
    fn simple_odg_matches_manual_union(
        deps in proptest::collection::vec((0..15u32, 100..120u32), 0..80),
        changed in proptest::collection::vec(0..15u32, 0..10),
    ) {
        // A simple ODG (§2): unit edges from data to objects only. DUP on
        // it is the union of the objects each changed datum feeds.
        let mut engine = DupEngine::new();
        let mut model: FxHashMap<u32, FxHashSet<u32>> = FxHashMap::default();
        for &(d, o) in &deps {
            engine.add_dependency(NodeId(d), NodeId(o), 1.0).unwrap();
            model.entry(d).or_default().insert(o);
        }
        let ids: Vec<NodeId> = changed.iter().map(|&c| NodeId(c)).collect();
        let prop = engine.propagate_ids(&ids);
        prop_assert!(!prop.cycle_fallback);
        let got: Vec<u32> = prop.stale_ids().map(|id| id.0).collect();
        let mut want: Vec<u32> = changed
            .iter()
            .flat_map(|c| model.get(c).cloned().unwrap_or_default())
            .collect::<FxHashSet<u32>>()
            .into_iter()
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
