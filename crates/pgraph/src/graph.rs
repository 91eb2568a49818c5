//! The mutable property-graph store.
//!
//! [`PropertyGraph`] realizes Definition 2.1 of the paper: a finite set of
//! nodes `N`, a disjoint finite set of edges `E`, a binary incidence function
//! `rho`, a labelling function `lambda` and a property assignment `sigma`.
//!
//! Labels and property keys are interned into dense ids so that per-node
//! storage is a few words plus the property payload; incidence is maintained
//! in both directions so reasoning rules can navigate shareholdings upstream
//! (who owns x?) and downstream (what does x own?) in O(degree).

use std::collections::HashMap;

use crate::id::{EdgeId, KeyId, LabelId, NodeId};
use crate::value::Value;

/// A string interner mapping names to dense `u32` ids.
#[derive(Default, Debug, Clone)]
pub(crate) struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// Payload of a node: its label and property list.
#[derive(Debug, Clone)]
pub struct NodeData {
    pub(crate) label: LabelId,
    /// Sorted by key id; graphs carry few properties per node, so a sorted
    /// vec beats a map on both footprint and lookup time.
    pub(crate) props: Vec<(KeyId, Value)>,
}

/// Payload of an edge: label, endpoints and property list.
#[derive(Debug, Clone)]
pub struct EdgeData {
    pub(crate) label: LabelId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) props: Vec<(KeyId, Value)>,
}

/// An in-memory labelled property graph (Definition 2.1).
#[derive(Default, Debug, Clone)]
pub struct PropertyGraph {
    labels: Interner,
    keys: Interner,
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
}

impl PropertyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity for `n` nodes and `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        PropertyGraph {
            labels: Interner::default(),
            keys: Interner::default(),
            nodes: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
            out: Vec::with_capacity(n),
            inc: Vec::with_capacity(n),
        }
    }

    /// Number of nodes `|N|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Interns a label name, returning its id.
    pub fn label_id(&mut self, name: &str) -> LabelId {
        LabelId(self.labels.intern(name))
    }

    /// Looks up a label id without interning.
    pub fn find_label(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name).map(LabelId)
    }

    /// Returns the name of a label id.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.labels.name(id.0)
    }

    /// Number of distinct labels interned so far.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Interns a property key, returning its id.
    pub fn key_id(&mut self, name: &str) -> KeyId {
        KeyId(self.keys.intern(name))
    }

    /// Looks up a property-key id without interning.
    pub fn find_key(&self, name: &str) -> Option<KeyId> {
        self.keys.get(name).map(KeyId)
    }

    /// Returns the name of a property key.
    pub fn key_name(&self, id: KeyId) -> &str {
        self.keys.name(id.0)
    }

    /// Adds a node with the given label name and no properties.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        let label = self.label_id(label);
        self.add_node_with(label, Vec::new())
    }

    /// Adds a node with an interned label and a property list.
    ///
    /// The property list is sorted and deduplicated on insertion (last write
    /// wins for duplicate keys).
    pub fn add_node_with(&mut self, label: LabelId, mut props: Vec<(KeyId, Value)>) -> NodeId {
        normalize_props(&mut props);
        let id = NodeId::from_usize(self.nodes.len());
        self.nodes.push(NodeData { label, props });
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Adds an edge with the given label name and no properties.
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, label: &str, src: NodeId, dst: NodeId) -> EdgeId {
        let label = self.label_id(label);
        self.add_edge_with(label, src, dst, Vec::new())
    }

    /// Adds an edge with an interned label and a property list.
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge_with(
        &mut self,
        label: LabelId,
        src: NodeId,
        dst: NodeId,
        mut props: Vec<(KeyId, Value)>,
    ) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "src {src} out of bounds");
        assert!(dst.index() < self.nodes.len(), "dst {dst} out of bounds");
        normalize_props(&mut props);
        let id = EdgeId::from_usize(self.edges.len());
        self.edges.push(EdgeData {
            label,
            src,
            dst,
            props,
        });
        self.out[src.index()].push(id);
        self.inc[dst.index()].push(id);
        id
    }

    /// Sets (or overwrites) a node property.
    pub fn set_node_prop(&mut self, node: NodeId, key: &str, value: Value) {
        let key = self.key_id(key);
        upsert(&mut self.nodes[node.index()].props, key, value);
    }

    /// Sets (or overwrites) an edge property.
    pub fn set_edge_prop(&mut self, edge: EdgeId, key: &str, value: Value) {
        let key = self.key_id(key);
        upsert(&mut self.edges[edge.index()].props, key, value);
    }

    /// Returns σ(node, key), if assigned.
    pub fn node_prop(&self, node: NodeId, key: &str) -> Option<&Value> {
        self.node_prop_id(node, self.find_key(key)?)
    }

    /// Returns σ(node, key) for an interned key.
    pub fn node_prop_id(&self, node: NodeId, key: KeyId) -> Option<&Value> {
        lookup(&self.nodes[node.index()].props, key)
    }

    /// Returns σ(edge, key), if assigned.
    pub fn edge_prop(&self, edge: EdgeId, key: &str) -> Option<&Value> {
        let key = self.find_key(key)?;
        lookup(&self.edges[edge.index()].props, key)
    }

    /// Returns the full (key, value) list of a node, sorted by key id.
    pub fn node_props(&self, node: NodeId) -> &[(KeyId, Value)] {
        &self.nodes[node.index()].props
    }

    /// Returns the full (key, value) list of an edge, sorted by key id.
    pub fn edge_props(&self, edge: EdgeId) -> &[(KeyId, Value)] {
        &self.edges[edge.index()].props
    }

    /// Returns λ(node).
    pub fn node_label(&self, node: NodeId) -> LabelId {
        self.nodes[node.index()].label
    }

    /// Returns λ(edge).
    pub fn edge_label(&self, edge: EdgeId) -> LabelId {
        self.edges[edge.index()].label
    }

    /// Returns ρ(edge) = (src, dst).
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.index()];
        (e.src, e.dst)
    }

    /// Edges leaving `node`.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out[node.index()]
    }

    /// Edges entering `node`.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.inc[node.index()]
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out[node.index()].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.inc[node.index()].len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_usize)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_usize)
    }

    /// Successor nodes of `node` (one entry per parallel edge).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out[node.index()]
            .iter()
            .map(move |e| self.edges[e.index()].dst)
    }

    /// Predecessor nodes of `node` (one entry per parallel edge).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.inc[node.index()]
            .iter()
            .map(move |e| self.edges[e.index()].src)
    }

    /// Nodes carrying a specific label.
    pub fn nodes_with_label(&self, label: LabelId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.label == label)
            .map(|(i, _)| NodeId::from_usize(i))
    }

    /// Counts self-loop edges (x owns shares of itself — the buy-back
    /// phenomenon discussed in Section 2 of the paper).
    pub fn self_loop_count(&self) -> usize {
        self.edges.iter().filter(|e| e.src == e.dst).count()
    }

    /// Removes an edge, keeping edge ids dense by swap-moving the last
    /// edge into the freed slot. The removed id and the id of the
    /// previously-last edge are both invalidated: the latter now names the
    /// moved edge. Callers holding edge ids across a removal must re-look
    /// them up. Returns the removed edge's endpoints.
    ///
    /// # Panics
    /// Panics if `edge` is out of bounds.
    pub fn remove_edge(&mut self, edge: EdgeId) -> (NodeId, NodeId) {
        let last = EdgeId::from_usize(self.edges.len() - 1);
        let (src, dst) = self.endpoints(edge);
        self.out[src.index()].retain(|&e| e != edge);
        self.inc[dst.index()].retain(|&e| e != edge);
        if edge != last {
            // Rename the last edge to the freed slot in both incidence
            // lists, then physically move it.
            let (ls, ld) = self.endpoints(last);
            for e in self.out[ls.index()].iter_mut() {
                if *e == last {
                    *e = edge;
                }
            }
            for e in self.inc[ld.index()].iter_mut() {
                if *e == last {
                    *e = edge;
                }
            }
        }
        self.edges.swap_remove(edge.index());
        (src, dst)
    }
}

/// Sorts by key and keeps the last write for duplicated keys.
fn normalize_props(props: &mut Vec<(KeyId, Value)>) {
    if props.len() > 1 {
        props.sort_by_key(|(k, _)| *k);
        // Keep the last occurrence of each key: reverse, dedup keeps first.
        props.reverse();
        props.dedup_by_key(|(k, _)| *k);
        props.reverse();
    }
}

fn upsert(props: &mut Vec<(KeyId, Value)>, key: KeyId, value: Value) {
    match props.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(i) => props[i].1 = value,
        Err(i) => props.insert(i, (key, value)),
    }
}

fn lookup(props: &[(KeyId, Value)], key: KeyId) -> Option<&Value> {
    props
        .binary_search_by_key(&key, |(k, _)| *k)
        .ok()
        .map(|i| &props[i].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (PropertyGraph, NodeId, NodeId, EdgeId) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("Company");
        let b = g.add_node("Person");
        let e = g.add_edge("Shareholding", b, a);
        g.set_edge_prop(e, "w", Value::from(0.6));
        g.set_node_prop(a, "name", Value::from("ACME"));
        (g, a, b, e)
    }

    #[test]
    fn counts_and_labels() {
        let (g, a, b, e) = tiny();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.label_name(g.node_label(a)), "Company");
        assert_eq!(g.label_name(g.node_label(b)), "Person");
        assert_eq!(g.label_name(g.edge_label(e)), "Shareholding");
    }

    #[test]
    fn incidence_both_directions() {
        let (g, a, b, e) = tiny();
        assert_eq!(g.endpoints(e), (b, a));
        assert_eq!(g.out_edges(b), &[e]);
        assert_eq!(g.in_edges(a), &[e]);
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.successors(b).collect::<Vec<_>>(), vec![a]);
        assert_eq!(g.predecessors(a).collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn properties_upsert_and_lookup() {
        let (mut g, a, _, e) = tiny();
        assert_eq!(g.node_prop(a, "name").unwrap().as_str(), Some("ACME"));
        assert_eq!(g.edge_prop(e, "w").unwrap().as_f64(), Some(0.6));
        assert!(g.node_prop(a, "missing").is_none());
        g.set_node_prop(a, "name", Value::from("ACME2"));
        assert_eq!(g.node_prop(a, "name").unwrap().as_str(), Some("ACME2"));
    }

    #[test]
    fn add_node_with_dedups_props() {
        let mut g = PropertyGraph::new();
        let l = g.label_id("X");
        let k = g.key_id("p");
        let n = g.add_node_with(l, vec![(k, Value::Int(1)), (k, Value::Int(2))]);
        assert_eq!(g.node_prop(n, "p").unwrap().as_i64(), Some(2));
        assert_eq!(g.node_props(n).len(), 1);
    }

    #[test]
    fn self_loops_counted() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("C");
        let b = g.add_node("C");
        g.add_edge("S", a, a);
        g.add_edge("S", a, b);
        assert_eq!(g.self_loop_count(), 1);
    }

    #[test]
    fn nodes_with_label_filters() {
        let (g, a, _, _) = tiny();
        let c = g.find_label("Company").unwrap();
        assert_eq!(g.nodes_with_label(c).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_endpoint_panics() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("C");
        g.add_edge("S", a, NodeId(99));
    }

    #[test]
    fn remove_edge_unlinks_and_compacts() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("C");
        let b = g.add_node("C");
        let c = g.add_node("C");
        let e0 = g.add_edge("S", a, b);
        let e1 = g.add_edge("S", b, c);
        let e2 = g.add_edge("S", a, c);
        g.set_edge_prop(e2, "w", Value::from(0.7));
        // Remove a middle edge: the last edge (a→c) is renamed to its slot.
        assert_eq!(g.remove_edge(e1), (b, c));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.endpoints(EdgeId(1)), (a, c));
        assert_eq!(g.edge_prop(EdgeId(1), "w").unwrap().as_f64(), Some(0.7));
        assert_eq!(g.out_edges(a), &[e0, EdgeId(1)]);
        assert_eq!(g.in_edges(c), &[EdgeId(1)]);
        assert!(g.in_edges(b).iter().all(|&e| g.endpoints(e).1 == b));
        // Remove the (new) last edge: no rename needed.
        assert_eq!(g.remove_edge(EdgeId(1)), (a, c));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_edges(a), &[e0]);
        assert!(g.in_edges(c).is_empty());
        // Remove the only remaining edge.
        g.remove_edge(e0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.out_edges(a).is_empty() && g.in_edges(b).is_empty());
    }
}

/// Extracts the subgraph induced by `nodes`: the selected nodes (with
/// labels and properties) and every edge whose endpoints are both
/// selected. Node ids are compacted to `0..nodes.len()` in the order
/// given; the returned map sends old ids to new ones.
///
/// The paper's Figure 4(a) scenarios are "subsets from the Italian
/// company graph" — this is the extraction primitive.
pub fn induced_subgraph(
    g: &PropertyGraph,
    nodes: &[NodeId],
) -> (PropertyGraph, std::collections::HashMap<NodeId, NodeId>) {
    let mut out = PropertyGraph::with_capacity(nodes.len(), nodes.len());
    let mut remap: std::collections::HashMap<NodeId, NodeId> =
        std::collections::HashMap::with_capacity(nodes.len());
    for &n in nodes {
        let label = out.label_id(g.label_name(g.node_label(n)));
        let props = g
            .node_props(n)
            .iter()
            .map(|(k, v)| (out.key_id(g.key_name(*k)), v.clone()))
            .collect();
        let new = out.add_node_with(label, props);
        remap.insert(n, new);
    }
    for e in g.edge_ids() {
        let (s, d) = g.endpoints(e);
        let (Some(&ns), Some(&nd)) = (remap.get(&s), remap.get(&d)) else {
            continue;
        };
        let label = out.label_id(g.label_name(g.edge_label(e)));
        let props = g
            .edge_props(e)
            .iter()
            .map(|(k, v)| (out.key_id(g.key_name(*k)), v.clone()))
            .collect();
        out.add_edge_with(label, ns, nd, props);
    }
    (out, remap)
}

#[cfg(test)]
mod subgraph_tests {
    use super::*;

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("Person");
        let b = g.add_node("Company");
        let c = g.add_node("Company");
        g.set_node_prop(b, "name", Value::from("ACME"));
        let e = g.add_edge("S", a, b);
        g.set_edge_prop(e, "w", Value::from(0.5));
        g.add_edge("S", b, c); // crosses the cut: dropped
        let (sub, remap) = induced_subgraph(&g, &[b, a]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        // b was listed first → new id 0; labels and properties survive.
        assert_eq!(remap[&b], NodeId(0));
        assert_eq!(sub.label_name(sub.node_label(NodeId(0))), "Company");
        assert_eq!(
            sub.node_prop(NodeId(0), "name").unwrap().as_str(),
            Some("ACME")
        );
        let e0 = sub.edge_ids().next().unwrap();
        assert_eq!(sub.endpoints(e0), (remap[&a], remap[&b]));
        assert_eq!(sub.edge_prop(e0, "w").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn empty_selection() {
        let mut g = PropertyGraph::new();
        g.add_node("C");
        let (sub, remap) = induced_subgraph(&g, &[]);
        assert_eq!(sub.node_count(), 0);
        assert!(remap.is_empty());
    }
}
