//! Typed view over company property graphs (Definition 2.2).
//!
//! [`CompanyGraph`] wraps a [`pgraph::PropertyGraph`] whose nodes carry the
//! labels `Person`/`Company` and whose `Shareholding` edges carry a share
//! fraction `w ∈ (0, 1]`. Derived links added by reasoning (Control,
//! CloseLink, PartnerOf, …) coexist in the same graph under their own edge
//! labels, so the augmented graph remains a regular property graph — the
//! paper's `U`.

use pgraph::{Csr, EdgeId, KeyId, LabelId, NodeId, PropertyGraph, Value};

/// Node label of persons.
pub const PERSON: &str = "Person";
/// Node label of companies.
pub const COMPANY: &str = "Company";
/// Edge label of shareholdings.
pub const SHAREHOLDING: &str = "Shareholding";
/// Edge property holding the share fraction.
pub const SHARE_W: &str = "w";

/// Interned node property keys of the person features that personal-link
/// detection compares ([`crate::family::pair_distances`]).
#[derive(Debug, Clone, Copy)]
pub struct PersonKeys {
    /// `surname`.
    pub surname: KeyId,
    /// `address`.
    pub address: KeyId,
    /// `birth` (days since the epoch).
    pub birth: KeyId,
    /// `birth_city`.
    pub birth_city: KeyId,
}

/// A typed company ownership graph.
#[derive(Debug, Clone)]
pub struct CompanyGraph {
    g: PropertyGraph,
    person: LabelId,
    company: LabelId,
    shareholding: LabelId,
    person_keys: PersonKeys,
}

impl CompanyGraph {
    /// Wraps a property graph, interning the standard labels and the
    /// person-feature keys. Interning a key sets no property, and a key
    /// first set after construction resolves to the same id.
    pub fn new(mut g: PropertyGraph) -> Self {
        let person = g.label_id(PERSON);
        let company = g.label_id(COMPANY);
        let shareholding = g.label_id(SHAREHOLDING);
        let person_keys = PersonKeys {
            surname: g.key_id("surname"),
            address: g.key_id("address"),
            birth: g.key_id("birth"),
            birth_city: g.key_id("birth_city"),
        };
        CompanyGraph {
            g,
            person,
            company,
            shareholding,
            person_keys,
        }
    }

    /// The interned person-feature keys.
    pub fn person_keys(&self) -> PersonKeys {
        self.person_keys
    }

    /// The underlying property graph.
    pub fn graph(&self) -> &PropertyGraph {
        &self.g
    }

    /// Mutable access to the underlying property graph.
    pub fn graph_mut(&mut self) -> &mut PropertyGraph {
        &mut self.g
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.g.node_count()
    }

    /// True if `n` is a person.
    pub fn is_person(&self, n: NodeId) -> bool {
        self.g.node_label(n) == self.person
    }

    /// True if `n` is a company.
    pub fn is_company(&self, n: NodeId) -> bool {
        self.g.node_label(n) == self.company
    }

    /// All person nodes.
    pub fn persons(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.g.nodes_with_label(self.person)
    }

    /// All company nodes.
    pub fn companies(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.g.nodes_with_label(self.company)
    }

    /// All shareholding edges.
    pub fn share_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.g
            .edge_ids()
            .filter(move |&e| self.g.edge_label(e) == self.shareholding)
    }

    /// Share fraction of a shareholding edge (0.0 if absent).
    pub fn share(&self, e: EdgeId) -> f64 {
        self.g
            .edge_prop(e, SHARE_W)
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    }

    /// Shareholders of a company: `(owner, weight)` pairs.
    pub fn shareholders(&self, c: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.g
            .in_edges(c)
            .iter()
            .filter(|&&e| self.g.edge_label(e) == self.shareholding)
            .map(|&e| {
                let (src, _) = self.g.endpoints(e);
                (src, self.share(e))
            })
    }

    /// Holdings of a node: `(company, weight)` pairs it owns shares of.
    pub fn holdings(&self, x: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.g
            .out_edges(x)
            .iter()
            .filter(|&&e| self.g.edge_label(e) == self.shareholding)
            .map(|&e| {
                let (_, dst) = self.g.endpoints(e);
                (dst, self.share(e))
            })
    }

    /// A string property of a node.
    pub fn str_prop(&self, n: NodeId, key: &str) -> Option<&str> {
        self.g.node_prop(n, key).and_then(|v| v.as_str())
    }

    /// An integer property of a node.
    pub fn int_prop(&self, n: NodeId, key: &str) -> Option<i64> {
        self.g.node_prop(n, key).and_then(|v| v.as_i64())
    }

    /// A string property of a node, by interned key.
    pub fn str_prop_id(&self, n: NodeId, key: KeyId) -> Option<&str> {
        self.g.node_prop_id(n, key).and_then(|v| v.as_str())
    }

    /// An integer property of a node, by interned key.
    pub fn int_prop_id(&self, n: NodeId, key: KeyId) -> Option<i64> {
        self.g.node_prop_id(n, key).and_then(|v| v.as_i64())
    }

    /// Adds a derived (intensional) edge with the given class label,
    /// returning its id. Duplicate class edges between the same endpoints
    /// are not added twice; the existing id is returned instead.
    pub fn add_link(&mut self, class: &str, a: NodeId, b: NodeId) -> EdgeId {
        let label = self.g.label_id(class);
        if let Some(e) = self.link_edge(label, a, b) {
            return e;
        }
        self.g.add_edge_with(label, a, b, Vec::new())
    }

    /// Adds a derived edge `a → b` of `class` unless one of that class
    /// already joins the pair in either direction; returns whether it was
    /// added. Resolves the label once and scans each endpoint's out-edges
    /// once.
    pub fn add_link_if_unlinked(&mut self, class: &str, a: NodeId, b: NodeId) -> bool {
        let label = self.g.label_id(class);
        if self.link_edge(label, a, b).is_some() || self.link_edge(label, b, a).is_some() {
            return false;
        }
        self.g.add_edge_with(label, a, b, Vec::new());
        true
    }

    /// Finds a derived edge of `class` from `a` to `b`.
    pub fn find_link(&self, class: &str, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.link_edge(self.g.find_label(class)?, a, b)
    }

    fn link_edge(&self, label: LabelId, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.g
            .out_edges(a)
            .iter()
            .copied()
            .find(|&e| self.g.edge_label(e) == label && self.g.endpoints(e).1 == b)
    }

    /// Targets of the derived edges of `class` leaving `a`, ascending.
    pub fn link_targets(&self, class: &str, a: NodeId) -> Vec<NodeId> {
        let Some(label) = self.g.find_label(class) else {
            return Vec::new();
        };
        let out = self.g.out_edges(a).iter();
        let mut targets: Vec<NodeId> = out
            .filter(|&&e| self.g.edge_label(e) == label)
            .map(|&e| self.g.endpoints(e).1)
            .collect();
        targets.sort_unstable();
        targets
    }

    /// All derived edges of a class as `(src, dst)` pairs.
    pub fn links_of(&self, class: &str) -> Vec<(NodeId, NodeId)> {
        let Some(label) = self.g.find_label(class) else {
            return Vec::new();
        };
        self.g
            .edge_ids()
            .filter(|&e| self.g.edge_label(e) == label)
            .map(|e| self.g.endpoints(e))
            .collect()
    }

    /// Finds the shareholding edge `owner → company`, if present.
    pub fn find_share(&self, owner: NodeId, company: NodeId) -> Option<EdgeId> {
        self.g.out_edges(owner).iter().copied().find(|&e| {
            self.g.edge_label(e) == self.shareholding && self.g.endpoints(e).1 == company
        })
    }

    /// Adds or updates the shareholding `owner → company` to fraction `w`,
    /// returning the previous fraction when the edge already existed.
    pub fn set_share(&mut self, owner: NodeId, company: NodeId, w: f64) -> Option<f64> {
        if let Some(e) = self.find_share(owner, company) {
            let old = self.share(e);
            self.g.set_edge_prop(e, SHARE_W, Value::float(w));
            Some(old)
        } else {
            let e = self.g.add_edge(SHAREHOLDING, owner, company);
            self.g.set_edge_prop(e, SHARE_W, Value::float(w));
            None
        }
    }

    /// Removes the shareholding `owner → company`, returning its fraction.
    /// Edge ids held by the caller are invalidated (swap-remove).
    pub fn remove_share(&mut self, owner: NodeId, company: NodeId) -> Option<f64> {
        let e = self.find_share(owner, company)?;
        let w = self.share(e);
        self.g.remove_edge(e);
        Some(w)
    }

    /// Removes a derived edge of `class` from `a` to `b`; returns whether
    /// one was present. Edge ids held by the caller are invalidated.
    pub fn remove_link(&mut self, class: &str, a: NodeId, b: NodeId) -> bool {
        match self.find_link(class, a, b) {
            Some(e) => {
                self.g.remove_edge(e);
                true
            }
            None => false,
        }
    }

    /// CSR snapshot over the shareholding weights (derived links included
    /// with weight 1.0; build before augmenting for a pure ownership view).
    pub fn csr(&self) -> Csr {
        Csr::from_graph(&self.g, SHARE_W)
    }
}

/// Fluent construction of small company graphs (tests, examples, the
/// paper's figures).
#[derive(Debug, Default)]
pub struct CompanyGraphBuilder {
    g: PropertyGraph,
}

impl CompanyGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a person with a `name` property.
    pub fn person(&mut self, name: &str) -> NodeId {
        let n = self.g.add_node(PERSON);
        self.g.set_node_prop(n, "name", Value::from(name));
        n
    }

    /// Adds a company with a `name` property.
    pub fn company(&mut self, name: &str) -> NodeId {
        let n = self.g.add_node(COMPANY);
        self.g.set_node_prop(n, "name", Value::from(name));
        n
    }

    /// Adds a shareholding edge `owner → company` with share `w`.
    pub fn share(&mut self, owner: NodeId, company: NodeId, w: f64) -> EdgeId {
        let e = self.g.add_edge(SHAREHOLDING, owner, company);
        self.g.set_edge_prop(e, SHARE_W, Value::float(w));
        e
    }

    /// Sets an extra node property.
    pub fn prop(&mut self, n: NodeId, key: &str, value: Value) -> &mut Self {
        self.g.set_node_prop(n, key, value);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> CompanyGraph {
        CompanyGraph::new(self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (CompanyGraph, NodeId, NodeId, NodeId) {
        let mut b = CompanyGraphBuilder::new();
        let p = b.person("P");
        let c = b.company("C");
        let d = b.company("D");
        b.share(p, c, 0.6);
        b.share(c, d, 0.4);
        b.share(p, d, 0.2);
        (b.build(), p, c, d)
    }

    #[test]
    fn labels_and_membership() {
        let (g, p, c, _) = tiny();
        assert!(g.is_person(p));
        assert!(g.is_company(c));
        assert!(!g.is_company(p));
        assert_eq!(g.persons().count(), 1);
        assert_eq!(g.companies().count(), 2);
        assert_eq!(g.share_edges().count(), 3);
    }

    #[test]
    fn shareholders_and_holdings() {
        let (g, p, c, d) = tiny();
        let sh: Vec<(NodeId, f64)> = g.shareholders(d).collect();
        assert_eq!(sh.len(), 2);
        assert!(sh.contains(&(c, 0.4)));
        assert!(sh.contains(&(p, 0.2)));
        let h: Vec<(NodeId, f64)> = g.holdings(p).collect();
        assert_eq!(h.len(), 2);
        assert!(h.contains(&(c, 0.6)));
    }

    #[test]
    fn links_are_separate_from_shareholdings() {
        let (mut g, p, _, d) = tiny();
        let e1 = g.add_link("Control", p, d);
        let e2 = g.add_link("Control", p, d);
        assert_eq!(e1, e2, "deduplicated");
        assert_eq!(g.links_of("Control"), vec![(p, d)]);
        assert_eq!(g.share_edges().count(), 3, "shareholdings unchanged");
        assert!(g.find_link("Control", p, d).is_some());
        assert!(g.find_link("CloseLink", p, d).is_none());
    }

    #[test]
    fn add_link_if_unlinked_checks_both_directions() {
        let (mut g, p, c, d) = tiny();
        assert!(g.add_link_if_unlinked("PartnerOf", p, d));
        assert!(!g.add_link_if_unlinked("PartnerOf", p, d));
        assert!(!g.add_link_if_unlinked("PartnerOf", d, p), "reverse pair");
        assert!(g.add_link_if_unlinked("SiblingOf", d, p), "other class");
        assert!(g.add_link_if_unlinked("PartnerOf", p, c));
        assert_eq!(g.links_of("PartnerOf"), vec![(p, d), (p, c)]);
        assert_eq!(g.links_of("SiblingOf"), vec![(d, p)]);
    }

    #[test]
    fn properties_roundtrip() {
        let (g, p, _, _) = tiny();
        assert_eq!(g.str_prop(p, "name"), Some("P"));
        assert_eq!(g.str_prop(p, "missing"), None);
    }

    #[test]
    fn csr_reflects_weights() {
        let (g, p, _, _) = tiny();
        let csr = g.csr();
        assert_eq!(csr.out_weights(p), &[0.6, 0.2]);
    }

    #[test]
    fn share_mutators_roundtrip() {
        let (mut g, p, c, d) = tiny();
        assert!(g.find_share(p, c).is_some());
        assert!(g.find_share(c, p).is_none());
        // Update in place.
        assert_eq!(g.set_share(p, c, 0.9), Some(0.6));
        assert_eq!(g.share(g.find_share(p, c).unwrap()), 0.9);
        assert_eq!(g.share_edges().count(), 3);
        // Fresh edge.
        assert_eq!(g.set_share(d, c, 0.1), None);
        assert_eq!(g.share_edges().count(), 4);
        // Removal returns the weight and drops the edge.
        assert_eq!(g.remove_share(p, c), Some(0.9));
        assert!(g.find_share(p, c).is_none());
        assert_eq!(g.remove_share(p, c), None);
        assert_eq!(g.share_edges().count(), 3);
    }

    #[test]
    fn remove_link_drops_derived_edges_only() {
        let (mut g, p, _, d) = tiny();
        g.add_link("Control", p, d);
        assert!(g.remove_link("Control", p, d));
        assert!(!g.remove_link("Control", p, d));
        assert!(g.links_of("Control").is_empty());
        assert_eq!(g.share_edges().count(), 3, "shareholdings untouched");
    }
}
