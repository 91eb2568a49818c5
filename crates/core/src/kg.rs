//! The knowledge-graph facade — the paper's *reasoning API* (Section 5).
//!
//! The VADA-LINK architecture stores the property graph (the extensional
//! component), keeps the Vadalog rule sets in a repository, and lets
//! enterprise applications interact with the KG through a reasoning API.
//! [`KnowledgeGraph`] is that API: it owns the company graph, runs the
//! intensional programs on demand, materializes the derived links back
//! into the graph (output mapping), and — when provenance is enabled —
//! explains any derived fact with its derivation tree.

use std::fmt;

use datalog::{
    explain::Derivation, ChangeSet, Const, Database, DatalogError, Engine, EngineOptions,
    FunctionRegistry, IncrementalEngine, Program, Update, UpdateStats,
};
use pgraph::NodeId;

use self::error_free::sym_pair;
use crate::augment::{augment, augment_delta, AugmentOptions, AugmentStats, CandidatePredicate};
use crate::mapping::{load_for, materialize_links, node_of, node_symbol};
use crate::model::CompanyGraph;
use crate::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};

/// Hidden re-export point for small helpers (keeps `kg` self-contained).
pub(crate) mod error_free {
    use datalog::{Const, Database};
    use pgraph::NodeId;

    /// Symbols of a node pair.
    pub fn sym_pair(db: &mut Database, a: NodeId, b: NodeId) -> (Const, Const) {
        (crate::mapping::sym_of(db, a), crate::mapping::sym_of(db, b))
    }
}

/// Edge label of derived control links.
pub const CONTROL_LINK: &str = "Control";
/// Edge label of derived close links.
pub const CLOSE_LINK: &str = "CloseLink";

/// One edit of the ownership layer: set (insert or change) or remove a
/// shareholding edge.
#[derive(Debug, Clone, Copy)]
pub struct OwnershipChange {
    /// The shareholder.
    pub owner: NodeId,
    /// The owned company.
    pub company: NodeId,
    /// `Some(w)` sets the share fraction to `w`; `None` removes the
    /// holding.
    pub share: Option<f64>,
}

impl OwnershipChange {
    /// Sets (inserts or updates) the holding `owner → company` to `w`.
    pub fn set(owner: NodeId, company: NodeId, w: f64) -> Self {
        OwnershipChange {
            owner,
            company,
            share: Some(w),
        }
    }

    /// Removes the holding `owner → company`.
    pub fn remove(owner: NodeId, company: NodeId) -> Self {
        OwnershipChange {
            owner,
            company,
            share: None,
        }
    }
}

/// Net effect of an update on one derived link class.
#[derive(Debug, Clone, Default)]
pub struct LinkDiff {
    /// Pairs whose link was derived by the update.
    pub added: Vec<(NodeId, NodeId)>,
    /// Pairs whose link lost all derivations.
    pub removed: Vec<(NodeId, NodeId)>,
}

/// Result of [`KnowledgeGraph::apply_ownership_changes`]: the link diffs
/// already materialized into the graph, plus the nodes an augmentation
/// delta pass should re-examine.
#[derive(Debug, Default)]
pub struct KgUpdate {
    /// `Control` edge changes.
    pub control: LinkDiff,
    /// `CloseLink` edge changes.
    pub close_links: LinkDiff,
    /// Nodes incident to a changed ownership edge — feed these to
    /// [`KnowledgeGraph::augment_changed`] to re-evaluate only the
    /// affected `Candidate` pairs.
    pub touched: Vec<NodeId>,
    /// Propagation statistics of the control session.
    pub control_stats: UpdateStats,
    /// Propagation statistics of the close-link session.
    pub closelink_stats: UpdateStats,
}

/// A company knowledge graph: extensional property graph + on-demand
/// intensional reasoning.
pub struct KnowledgeGraph {
    graph: CompanyGraph,
    provenance: bool,
    /// Databases of the last run per program, kept for explanations.
    control_db: Option<Database>,
    closelink_db: Option<Database>,
    /// Incremental maintenance sessions (opened by
    /// [`KnowledgeGraph::track_changes`]).
    control_session: Option<IncrementalEngine>,
    closelink_session: Option<IncrementalEngine>,
}

impl fmt::Debug for KnowledgeGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KnowledgeGraph")
            .field("graph", &self.graph)
            .field("provenance", &self.provenance)
            .field("tracking", &self.control_session.is_some())
            .finish()
    }
}

impl KnowledgeGraph {
    /// Wraps a company graph.
    pub fn new(graph: CompanyGraph) -> Self {
        KnowledgeGraph {
            graph,
            provenance: false,
            control_db: None,
            closelink_db: None,
            control_session: None,
            closelink_session: None,
        }
    }

    /// Enables provenance recording (needed for explanations).
    pub fn with_provenance(mut self) -> Self {
        self.provenance = true;
        self
    }

    /// The extensional component.
    pub fn graph(&self) -> &CompanyGraph {
        &self.graph
    }

    /// Mutable access (invalidates previous derivations' databases and
    /// any open incremental sessions — arbitrary mutation can bypass
    /// them; use [`KnowledgeGraph::apply_ownership_changes`] to keep
    /// sessions live).
    pub fn graph_mut(&mut self) -> &mut CompanyGraph {
        self.control_db = None;
        self.closelink_db = None;
        self.control_session = None;
        self.closelink_session = None;
        &mut self.graph
    }

    /// Adds a person node without invalidating open incremental sessions.
    /// The node joins the reasoning state with its first ownership change.
    pub fn add_person(&mut self, name: &str) -> NodeId {
        let n = self.graph.graph_mut().add_node(crate::model::PERSON);
        self.graph
            .graph_mut()
            .set_node_prop(n, "name", pgraph::Value::from(name));
        n
    }

    /// Adds a company node without invalidating open incremental sessions.
    /// The node joins the reasoning state with its first ownership change.
    pub fn add_company(&mut self, name: &str) -> NodeId {
        let n = self.graph.graph_mut().add_node(crate::model::COMPANY);
        self.graph
            .graph_mut()
            .set_node_prop(n, "name", pgraph::Value::from(name));
        n
    }

    /// The engine of a bundled program and a database holding the source
    /// relations its bodies read.
    fn prepare(&self, src: &str) -> (Engine, Database) {
        let program = Program::parse(src).expect("bundled programs are valid");
        let opts = EngineOptions {
            provenance: self.provenance,
            ..Default::default()
        };
        let engine = Engine::with(&program, FunctionRegistry::default(), opts)
            .expect("bundled programs compile");
        (engine, load_for(&self.graph, &program))
    }

    /// Derives company control (Algorithm 5) and materializes `Control`
    /// edges. Returns the number of new edges.
    pub fn derive_control(&mut self) -> usize {
        let (engine, mut db) = self.prepare(CONTROL_PROGRAM);
        engine.run(&mut db).expect("fixpoint");
        let added = materialize_links(&mut self.graph, &db, "control", CONTROL_LINK);
        self.control_db = Some(db);
        added
    }

    /// Derives close links (Algorithm 6) at threshold `t` and materializes
    /// `CloseLink` edges. Returns the number of new edges.
    pub fn derive_close_links(&mut self, t: f64) -> usize {
        let (engine, mut db) = self.prepare(CLOSELINK_PROGRAM);
        db.assert_fact("th", &[datalog::Const::float(t)])
            .expect("arity");
        engine.run(&mut db).expect("fixpoint");
        let added = materialize_links(&mut self.graph, &db, "close_link", CLOSE_LINK);
        self.closelink_db = Some(db);
        added
    }

    /// Opens incremental maintenance over the ownership layer: derives
    /// control and close links (threshold `t`) once through
    /// [`IncrementalEngine`] sessions, materializes the links, and keeps
    /// both sessions so later [`KnowledgeGraph::apply_ownership_changes`]
    /// calls re-evaluate only what an update touches. Returns the numbers
    /// of `Control` and `CloseLink` edges added by the initial derivation.
    ///
    /// Incompatible with provenance recording (explanations need the
    /// batch [`KnowledgeGraph::derive_control`] path).
    pub fn track_changes(&mut self, t: f64) -> Result<(usize, usize), DatalogError> {
        if self.provenance {
            return Err(DatalogError::Validation(
                "incremental tracking does not support provenance — use derive_control / \
                 derive_close_links for explainable batch runs"
                    .into(),
            ));
        }
        let control = Program::parse(CONTROL_PROGRAM).expect("bundled programs are valid");
        let db = load_for(&self.graph, &control);
        let control_session = IncrementalEngine::new(&control, db)?;
        let added_control = materialize_links(
            &mut self.graph,
            control_session.db(),
            "control",
            CONTROL_LINK,
        );

        let closelink = Program::parse(CLOSELINK_PROGRAM).expect("bundled programs are valid");
        let mut db = load_for(&self.graph, &closelink);
        db.assert_fact("th", &[Const::float(t)]).expect("arity");
        let closelink_session = IncrementalEngine::new(&closelink, db)?;
        let added_close = materialize_links(
            &mut self.graph,
            closelink_session.db(),
            "close_link",
            CLOSE_LINK,
        );

        self.control_session = Some(control_session);
        self.closelink_session = Some(closelink_session);
        self.control_db = None;
        self.closelink_db = None;
        Ok((added_control, added_close))
    }

    /// True when incremental sessions are open.
    pub fn is_tracking(&self) -> bool {
        self.control_session.is_some() && self.closelink_session.is_some()
    }

    /// Applies a batch of ownership edits to the graph and propagates it
    /// through the open incremental sessions: only the derived facts an
    /// edit can reach are re-evaluated, and the resulting `Control` /
    /// `CloseLink` edge diff is materialized into the graph. Requires a
    /// prior [`KnowledgeGraph::track_changes`].
    ///
    /// Setting a share to its current value, or removing an absent
    /// holding, is a no-op. Nodes added after `track_changes` (via
    /// [`KnowledgeGraph::add_person`] / [`KnowledgeGraph::add_company`])
    /// enter the reasoning state with their first change here.
    pub fn apply_ownership_changes(
        &mut self,
        changes: &[OwnershipChange],
    ) -> Result<KgUpdate, DatalogError> {
        if !self.is_tracking() {
            return Err(DatalogError::Validation(
                "no incremental session open — call track_changes first".into(),
            ));
        }
        // Apply to the extensional graph, recording the own-fact delta.
        let mut del: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let mut ins: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let mut touched: Vec<NodeId> = Vec::new();
        for ch in changes {
            match ch.share {
                Some(w) => {
                    match self.graph.set_share(ch.owner, ch.company, w) {
                        Some(old) if old == w => continue,
                        Some(old) => del.push((ch.owner, ch.company, old)),
                        None => {}
                    }
                    ins.push((ch.owner, ch.company, w));
                }
                None => match self.graph.remove_share(ch.owner, ch.company) {
                    Some(old) => del.push((ch.owner, ch.company, old)),
                    None => continue,
                },
            }
            touched.push(ch.owner);
            touched.push(ch.company);
        }
        touched.sort_unstable();
        touched.dedup();
        self.control_db = None;
        self.closelink_db = None;

        let mut out = KgUpdate {
            touched,
            ..KgUpdate::default()
        };
        let session = self.control_session.as_mut().expect("tracking");
        let cs = push_ownership_update(session, &self.graph, &del, &ins, &out.touched)?;
        out.control = link_diff(session.db(), &cs, "control");
        out.control_stats = cs.stats;
        let session = self.closelink_session.as_mut().expect("tracking");
        let cs = push_ownership_update(session, &self.graph, &del, &ins, &out.touched)?;
        out.close_links = link_diff(session.db(), &cs, "close_link");
        out.closelink_stats = cs.stats;

        for &(a, b) in &out.control.added {
            self.graph.add_link(CONTROL_LINK, a, b);
        }
        for &(a, b) in &out.control.removed {
            self.graph.remove_link(CONTROL_LINK, a, b);
        }
        for &(a, b) in &out.close_links.added {
            self.graph.add_link(CLOSE_LINK, a, b);
        }
        for &(a, b) in &out.close_links.removed {
            self.graph.remove_link(CLOSE_LINK, a, b);
        }
        Ok(out)
    }

    /// Re-evaluates only the `Candidate` pairs affected by a change (see
    /// [`augment_delta`]): typically fed with [`KgUpdate::touched`] after
    /// [`KnowledgeGraph::apply_ownership_changes`].
    pub fn augment_changed(
        &mut self,
        candidates: &[&dyn CandidatePredicate],
        touched: &[NodeId],
        opts: &AugmentOptions,
    ) -> AugmentStats {
        self.control_db = None;
        self.closelink_db = None;
        augment_delta(&mut self.graph, candidates, touched, opts)
    }

    /// Runs the augmentation loop (Algorithm 1) with the given candidates.
    pub fn augment(
        &mut self,
        candidates: &[&dyn CandidatePredicate],
        opts: &AugmentOptions,
    ) -> AugmentStats {
        self.control_db = None;
        self.closelink_db = None;
        augment(&mut self.graph, candidates, opts)
    }

    /// All materialized control pairs.
    pub fn control_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.graph.links_of(CONTROL_LINK)
    }

    /// All materialized close-link pairs.
    pub fn close_link_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.graph.links_of(CLOSE_LINK)
    }

    /// Explains why `x` controls `y` (requires provenance + a prior
    /// [`KnowledgeGraph::derive_control`] run).
    pub fn explain_control(&mut self, x: NodeId, y: NodeId, depth: usize) -> Option<Derivation> {
        let db = self.control_db.as_mut()?;
        let (xs, ys) = sym_pair(db, x, y);
        datalog::explain::explain(db, "control", &[xs, ys], depth)
    }

    /// Explains why `x` and `y` are closely linked (requires provenance +
    /// a prior [`KnowledgeGraph::derive_close_links`] run). Both
    /// directions are tried — the close-link relation is symmetric.
    pub fn explain_close_link(&mut self, x: NodeId, y: NodeId, depth: usize) -> Option<Derivation> {
        let db = self.closelink_db.as_mut()?;
        let (xs, ys) = sym_pair(db, x, y);
        datalog::explain::explain(db, "close_link", &[xs, ys], depth)
            .or_else(|| datalog::explain::explain(db, "close_link", &[ys, xs], depth))
    }
}

/// Translates an ownership delta into a datalog [`Update`] on `own` and
/// pushes it through `session`. Membership facts of every touched node are
/// included as inserts — a no-op for nodes the session already knows,
/// and the entry ticket for nodes added after the session opened.
fn push_ownership_update(
    session: &mut IncrementalEngine,
    graph: &CompanyGraph,
    del: &[(NodeId, NodeId, f64)],
    ins: &[(NodeId, NodeId, f64)],
    touched: &[NodeId],
) -> Result<ChangeSet, DatalogError> {
    let mut update = Update::default();
    for &(o, c, w) in del {
        let os = session.sym(&node_symbol(o));
        let cs = session.sym(&node_symbol(c));
        update
            .delete
            .push(("own".to_owned(), vec![os, cs, Const::float(w)]));
    }
    for &n in touched {
        let s = session.sym(&node_symbol(n));
        let pred = if graph.is_person(n) {
            "person"
        } else {
            "company"
        };
        update.insert.push((pred.to_owned(), vec![s]));
    }
    for &(o, c, w) in ins {
        let os = session.sym(&node_symbol(o));
        let cs = session.sym(&node_symbol(c));
        update
            .insert
            .push(("own".to_owned(), vec![os, cs, Const::float(w)]));
    }
    session.apply_update(&update)
}

/// Extracts the node-pair diff of one derived link predicate from a
/// [`ChangeSet`] (self-pairs skipped, like the output mapping).
fn link_diff(db: &Database, cs: &ChangeSet, pred: &str) -> LinkDiff {
    let pick = |facts: &[(String, Vec<Const>)]| {
        let mut out: Vec<(NodeId, NodeId)> = Vec::new();
        for (p, t) in facts {
            if p == pred && t.len() >= 2 {
                if let (Some(a), Some(b)) = (node_of(db, t[0]), node_of(db, t[1])) {
                    if a != b {
                        out.push((a, b));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    LinkDiff {
        added: pick(&cs.inserted),
        removed: pick(&cs.deleted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_graphs::figure1;

    #[test]
    fn derive_and_query_control() {
        let f = figure1();
        let mut kg = KnowledgeGraph::new(f.graph);
        let added = kg.derive_control();
        assert!(added > 0);
        let pairs = kg.control_pairs();
        // P1 (node 0) controls C (node 2) among others.
        assert!(pairs.iter().any(|&(x, _)| x == NodeId(0)));
        // Idempotent.
        assert_eq!(kg.derive_control(), 0);
        assert_eq!(kg.control_pairs(), pairs);
    }

    #[test]
    fn derive_close_links_materializes_edges() {
        let f = figure1();
        let mut kg = KnowledgeGraph::new(f.graph);
        let added = kg.derive_close_links(0.2);
        assert!(added > 0);
        assert_eq!(kg.close_link_pairs().len(), added);
    }

    #[test]
    fn close_link_explanations() {
        let f = figure1();
        let g_node = f.node("G");
        let i_node = f.node("I");
        let mut kg = KnowledgeGraph::new(f.graph).with_provenance();
        kg.derive_close_links(0.2);
        let d = kg
            .explain_close_link(g_node, i_node, 6)
            .expect("G-I derived");
        let rendered = d.render();
        assert!(rendered.contains("acc_own"), "{rendered}");
    }

    #[test]
    fn explanations_require_provenance() {
        let f = figure1();
        let p1 = f.node("P1");
        let e = f.node("E");
        // Without provenance: derivation trees degrade to leaves.
        let mut kg = KnowledgeGraph::new(figure1().graph);
        kg.derive_control();
        let d = kg.explain_control(p1, e, 5).expect("fact exists");
        assert!(d.premises.is_empty());
        // With provenance: the indirect control of E has premises.
        let mut kg = KnowledgeGraph::new(f.graph).with_provenance();
        kg.derive_control();
        let d = kg.explain_control(p1, e, 5).expect("fact exists");
        assert!(!d.premises.is_empty());
        assert!(d.render().contains("own"));
    }

    type PairSet = Vec<(NodeId, NodeId)>;

    /// Derives control + close links from scratch on (a clone of) `g` and
    /// returns both sorted pair sets — the oracle for incremental runs.
    fn batch_oracle(g: &CompanyGraph, t: f64) -> (PairSet, PairSet) {
        let mut kg = KnowledgeGraph::new(g.clone());
        kg.derive_control();
        kg.derive_close_links(t);
        let mut control = kg.control_pairs();
        control.sort_unstable();
        let mut close = kg.close_link_pairs();
        close.sort_unstable();
        (control, close)
    }

    fn assert_matches_oracle(kg: &KnowledgeGraph, t: f64) {
        let (control, close) = batch_oracle(kg.graph(), t);
        let mut got_control = kg.control_pairs();
        got_control.sort_unstable();
        let mut got_close = kg.close_link_pairs();
        got_close.sort_unstable();
        assert_eq!(got_control, control, "control links diverged from batch");
        assert_eq!(got_close, close, "close links diverged from batch");
    }

    #[test]
    fn track_changes_matches_batch_derivation() {
        let f = figure1();
        let mut kg = KnowledgeGraph::new(f.graph);
        let (c, cl) = kg.track_changes(0.2).expect("sessions open");
        assert!(c > 0 && cl > 0);
        assert!(kg.is_tracking());
        assert_matches_oracle(&kg, 0.2);
    }

    #[test]
    fn ownership_updates_maintain_links_incrementally() {
        let f = figure1();
        let p1 = f.node("P1");
        let c = f.node("C");
        let d = f.node("D");
        let mut kg = KnowledgeGraph::new(f.graph);
        kg.track_changes(0.2).expect("sessions open");

        // Weaken P1's direct stake in C: downstream control collapses and
        // the diff must report removals (deletion → rederivation path).
        let up = kg
            .apply_ownership_changes(&[OwnershipChange::set(p1, c, 0.1)])
            .expect("update");
        assert!(
            !up.control.removed.is_empty(),
            "control links must be retracted: {up:?}"
        );
        assert_eq!(up.touched, {
            let mut t = vec![p1, c];
            t.sort_unstable();
            t
        });
        assert_matches_oracle(&kg, 0.2);

        // Restore it: the same links come back.
        let up = kg
            .apply_ownership_changes(&[OwnershipChange::set(p1, c, 0.6)])
            .expect("update");
        assert!(!up.control.added.is_empty());
        assert_matches_oracle(&kg, 0.2);

        // Remove an edge entirely.
        kg.apply_ownership_changes(&[OwnershipChange::remove(c, d)])
            .expect("update");
        assert!(kg.graph().find_share(c, d).is_none());
        assert_matches_oracle(&kg, 0.2);
    }

    #[test]
    fn new_companies_join_the_reasoning_state() {
        let f = figure1();
        let p1 = f.node("P1");
        let mut kg = KnowledgeGraph::new(f.graph);
        kg.track_changes(0.2).expect("sessions open");
        let fresh = kg.add_company("FreshCo");
        let up = kg
            .apply_ownership_changes(&[OwnershipChange::set(p1, fresh, 0.8)])
            .expect("update");
        assert!(
            up.control.added.contains(&(p1, fresh)),
            "P1 controls the new company: {:?}",
            up.control.added
        );
        assert!(kg.control_pairs().contains(&(p1, fresh)));
        assert_matches_oracle(&kg, 0.2);
    }

    #[test]
    fn noop_changes_produce_empty_diffs() {
        let f = figure1();
        let p1 = f.node("P1");
        let c = f.node("C");
        let w = {
            let e = f.graph.find_share(p1, c).expect("exists");
            f.graph.share(e)
        };
        let mut kg = KnowledgeGraph::new(f.graph);
        kg.track_changes(0.2).expect("sessions open");
        let up = kg
            .apply_ownership_changes(&[
                OwnershipChange::set(p1, c, w),
                OwnershipChange::remove(c, p1),
            ])
            .expect("update");
        assert!(up.touched.is_empty());
        assert!(up.control.added.is_empty() && up.control.removed.is_empty());
        assert!(up.close_links.added.is_empty() && up.close_links.removed.is_empty());
    }

    #[test]
    fn tracking_requires_a_session_and_rejects_provenance() {
        let f = figure1();
        let mut kg = KnowledgeGraph::new(f.graph.clone());
        assert!(kg
            .apply_ownership_changes(&[OwnershipChange::remove(NodeId(0), NodeId(1))])
            .is_err());
        let mut kg = KnowledgeGraph::new(f.graph).with_provenance();
        assert!(kg.track_changes(0.2).is_err());
    }

    #[test]
    fn graph_mut_drops_sessions() {
        let f = figure1();
        let mut kg = KnowledgeGraph::new(f.graph);
        kg.track_changes(0.2).expect("sessions open");
        let _ = kg.graph_mut();
        assert!(!kg.is_tracking());
    }

    #[test]
    fn graph_mut_invalidates_cached_derivations() {
        let f = figure1();
        let p1 = f.node("P1");
        let c = f.node("C");
        let mut kg = KnowledgeGraph::new(f.graph).with_provenance();
        kg.derive_control();
        assert!(kg.explain_control(p1, c, 3).is_some());
        let _ = kg.graph_mut();
        assert!(kg.explain_control(p1, c, 3).is_none(), "cache dropped");
    }
}
