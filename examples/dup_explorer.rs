//! DUP explorer: builds the paper's Figure 1 object dependence graph and
//! walks through propagation, weighted staleness and the threshold policy,
//! then Figure 2's simple ODG through the same traversal.
//!
//! Run with: `cargo run -p nagano-examples --bin dup_explorer`

use nagano_odg::{DupEngine, Interner, NodeKind, StalenessPolicy};

fn main() {
    println!("== DUP explorer: Figure 1 of the paper ==\n");

    // Vertices go1..go4 are underlying data; go5, go6 are hybrids (both
    // object and data); go7 is an object. Edge go1->go5 carries weight 5.
    let mut names = Interner::new();
    let ids: Vec<_> = (1..=7).map(|i| names.intern(&format!("go{i}"))).collect();
    let id = |i: usize| ids[i - 1];

    let mut engine = DupEngine::new();
    {
        let g = engine.graph_mut();
        for i in 1..=4 {
            g.add_node(id(i), NodeKind::UnderlyingData).unwrap();
        }
        g.add_node(id(5), NodeKind::Hybrid).unwrap();
        g.add_node(id(6), NodeKind::Hybrid).unwrap();
        g.add_node(id(7), NodeKind::Object).unwrap();
        g.add_edge(id(1), id(5), 5.0).unwrap();
        g.add_edge(id(2), id(5), 1.0).unwrap();
        g.add_edge(id(2), id(6), 1.0).unwrap();
        g.add_edge(id(3), id(6), 1.0).unwrap();
        g.add_edge(id(4), id(7), 1.0).unwrap();
        g.add_edge(id(5), id(7), 1.0).unwrap();
        g.add_edge(id(6), id(7), 1.0).unwrap();
    }
    let stats = engine.graph().stats();
    println!(
        "graph: {} nodes ({} data, {} hybrid, {} object), {} edges ({} weighted)",
        stats.nodes,
        stats.data_nodes,
        stats.hybrid_nodes,
        stats.object_nodes,
        stats.edges,
        stats.weighted_edges
    );
    engine.graph().validate().expect("graph invariants hold");
    println!(
        "max fan-out {}, max fan-in {}\n",
        stats.max_out_degree, stats.max_in_degree
    );

    // The paper's walkthrough: go2 changes.
    println!("-- go2 changes (strict policy) --");
    let prop = engine.propagate_ids(&[id(2)]);
    for (node, staleness) in &prop.stale {
        println!(
            "  {} is obsolete (accumulated staleness {staleness})",
            names.name(*node).unwrap()
        );
    }
    println!("  ({} nodes visited by the traversal)\n", prop.visited);

    // Weighted importance: go1 vs go2 both feed go5, at weights 5 vs 1.
    println!("-- weighted importance --");
    let via1 = engine.propagate_ids(&[id(1)]);
    let s5 = via1.stale.iter().find(|&&(n, _)| n == id(5)).unwrap().1;
    println!("  change to go1 makes go5 staleness {s5} (edge weight 5)");
    let via2 = engine.propagate_ids(&[id(2)]);
    let s5b = via2.stale.iter().find(|&&(n, _)| n == id(5)).unwrap().1;
    println!("  change to go2 makes go5 staleness {s5b} (edge weight 1)\n");

    // Threshold policy: tolerate slightly obsolete pages.
    println!("-- threshold policy (tolerate staleness < 2) --");
    engine.set_policy(StalenessPolicy::Threshold(2.0));
    let prop = engine.propagate_ids(&[id(2)]);
    for (node, s) in &prop.stale {
        println!(
            "  regenerate {} (staleness {s})",
            names.name(*node).unwrap()
        );
    }
    for (node, s) in &prop.tolerated {
        println!(
            "  tolerate  {} (staleness {s} — stays in cache, slightly obsolete)",
            names.name(*node).unwrap()
        );
    }
    println!();

    // A simple ODG (Figure 2): bipartite and unweighted, so the traversal
    // comes to the direct data -> objects lookup.
    println!("-- simple ODG (Figure 2): the same traversal --");
    let mut simple = DupEngine::new();
    let mut names2 = Interner::new();
    for d in 1..=2 {
        for o in 1..=3 {
            if (d + o) % 2 == 0 || o == 2 {
                let data = names2.intern(&format!("u{d}"));
                let obj = names2.intern(&format!("o{o}"));
                simple.add_dependency(data, obj, 1.0).unwrap();
            }
        }
    }
    let u1 = names2.get("u1").unwrap();
    let prop = simple.propagate_ids(&[u1]);
    println!(
        "  u1 changed -> {} objects affected, {} nodes visited",
        prop.stale.len(),
        prop.visited
    );
    for (node, _) in &prop.stale {
        println!("    {}", names2.name(*node).unwrap());
    }

    // A cyclic graph falls back to the conservative rule.
    println!("\n-- cyclic graph: conservative fallback --");
    let mut cyclic = DupEngine::new();
    let a = nagano_odg::NodeId(100);
    let b = nagano_odg::NodeId(101);
    cyclic.graph_mut().add_node(a, NodeKind::Hybrid).unwrap();
    cyclic.graph_mut().add_node(b, NodeKind::Hybrid).unwrap();
    cyclic.graph_mut().add_edge(a, b, 1.0).unwrap();
    cyclic.graph_mut().add_edge(b, a, 1.0).unwrap();
    let prop = cyclic.propagate_ids(&[a]);
    println!(
        "  cycle_fallback = {}, {} objects conservatively treated as stale",
        prop.cycle_fallback,
        prop.stale.len()
    );
}
