//! Input/output mappings between company graphs and the reasoning engine
//! (Algorithms 2 and 4 of the paper).
//!
//! The *input mapping* loads the property graph into the extensional
//! component of the knowledge graph as the relational representation of
//! Section 3:
//!
//! * `person(id)` / `company(id)` — node membership;
//! * `person_attr(id, name, surname, birth, birth_city, sex, address)`;
//! * `company_attr(id, name, address, inc_date, legal_form, sector)`;
//! * `own(x, y, w)` — shareholding with its share fraction.
//!
//! It is demand-driven: [`load_predicates`] loads the subset of these five
//! the caller names — the facade and the program runners name the
//! predicates their program's bodies read — and [`load_facts`] is the same
//! loader asked for all of them.
//!
//! Node identifiers are the stable symbols `n<index>` ([`node_symbol`]);
//! [`node_of`] and [`sym_of`] convert between them and
//! [`pgraph::NodeId`]s. **The interning order is a contract**: every
//! person's symbol in [`CompanyGraph::persons`] order, then every
//! company's, whatever is loaded, with a node's attribute strings right
//! after its symbol when its `*_attr` relation is loaded. Rounds sort
//! `Const::Sym` by id and monotonic sums add contributors in that order,
//! so a partial load — a subsequence of the full one — evaluates
//! isomorphically to a full load, and a full load reproduces symbol ids,
//! predicate ids and row order of every snapshot and WAL written before.
//!
//! The *output mapping* reads derived link predicates (e.g. `control`)
//! back into typed edges of the property graph.

use datalog::{Const, Database, Program};
use pgraph::NodeId;

use crate::model::CompanyGraph;

/// The extensional predicates of the input mapping.
pub const SOURCE_PREDICATES: [&str; 5] =
    ["person", "person_attr", "company", "company_attr", "own"];

/// Loads the whole extensional component (input mapping, Algorithm 2's
/// source relations): [`load_predicates`] asked for every source
/// predicate.
pub fn load_facts(g: &CompanyGraph, db: &mut Database) {
    load_predicates(g, db, SOURCE_PREDICATES);
}

/// A fresh database holding the source relations the bodies of `program`
/// read — all that evaluating it can observe of the graph.
pub fn load_for(g: &CompanyGraph, program: &Program) -> Database {
    let mut db = Database::new();
    load_predicates(g, &mut db, program.body_predicates());
    db
}

/// Loads the source relations named in `wanted` (names that are not
/// [`SOURCE_PREDICATES`] are ignored, so a program's body predicates can
/// be passed as they are). Every node symbol is interned exactly once, in
/// the order the module doc fixes, and every mention reads it from a
/// dense `NodeId → Const` table; each relation is appended in one
/// [`Database::assert_facts`] call. A predicate with no rows is not
/// created, as if its facts had been asserted one by one.
pub fn load_predicates<'a>(
    g: &CompanyGraph,
    db: &mut Database,
    wanted: impl IntoIterator<Item = &'a str>,
) {
    let wanted: Vec<&str> = wanted.into_iter().collect();
    let want = |pred: &str| wanted.contains(&pred);
    let text = |db: &mut Database, n: NodeId, key: &str| db.sym(g.str_prop(n, key).unwrap_or(""));
    let int = |n: NodeId, key: &str| Const::Int(g.int_prop(n, key).unwrap_or(0));

    // Every node symbol is formatted into this one buffer.
    let mut name = String::new();
    let mut node_sym = |db: &mut Database, n: NodeId| {
        use std::fmt::Write as _;
        name.clear();
        write!(name, "n{}", n.index()).expect("writing to a String");
        db.sym(&name)
    };

    let mut syms: Vec<Option<Const>> = vec![None; g.node_count()];
    let mut person_attr: Vec<[Const; 7]> = Vec::new();
    let with_attrs = want("person_attr");
    for p in g.persons() {
        let id = node_sym(db, p);
        syms[p.index()] = Some(id);
        if with_attrs {
            person_attr.push([
                id,
                text(db, p, "name"),
                text(db, p, "surname"),
                int(p, "birth"),
                text(db, p, "birth_city"),
                text(db, p, "sex"),
                text(db, p, "address"),
            ]);
        }
    }
    let mut company_attr: Vec<[Const; 6]> = Vec::new();
    let with_attrs = want("company_attr");
    for c in g.companies() {
        let id = node_sym(db, c);
        syms[c.index()] = Some(id);
        if with_attrs {
            company_attr.push([
                id,
                text(db, c, "name"),
                text(db, c, "address"),
                int(c, "inc_date"),
                text(db, c, "legal_form"),
                text(db, c, "sector"),
            ]);
        }
    }

    if want("own") {
        // An endpoint that is neither person nor company gets its symbol
        // at this first mention.
        for e in g.share_edges() {
            let (src, dst) = g.graph().endpoints(e);
            for n in [src, dst] {
                syms[n.index()].get_or_insert_with(|| node_sym(db, n));
            }
        }
    }

    let node = |n: NodeId| syms[n.index()].expect("interned above");
    if want("person") {
        append(db, "person", g.persons().map(|p| [node(p)]));
    }
    append(db, "person_attr", person_attr);
    if want("company") {
        append(db, "company", g.companies().map(|c| [node(c)]));
    }
    append(db, "company_attr", company_attr);
    if want("own") {
        let stakes = g.share_edges().map(|e| {
            let (src, dst) = g.graph().endpoints(e);
            [node(src), node(dst), Const::float(g.share(e))]
        });
        append(db, "own", stakes);
    }
}

/// One relation's rows into `db`; nothing at all when there are none.
fn append<R: AsRef<[Const]>>(db: &mut Database, pred: &str, rows: impl IntoIterator<Item = R>) {
    let mut rows = rows.into_iter().peekable();
    if rows.peek().is_some() {
        db.assert_facts(pred, rows).expect("arity");
    }
}

/// The symbol text of a node: `n<index>`.
pub fn node_symbol(n: NodeId) -> String {
    format!("n{}", n.index())
}

/// The symbol constant of a node (`n<index>`).
pub fn sym_of(db: &mut Database, n: NodeId) -> Const {
    db.sym(&node_symbol(n))
}

/// Inverse of [`node_symbol`].
fn parse_node(s: &str) -> Option<NodeId> {
    let idx: u32 = s.strip_prefix('n')?.parse().ok()?;
    Some(NodeId(idx))
}

/// Parses a node symbol (`n<index>`) back into a [`NodeId`].
pub fn node_of(db: &Database, c: Const) -> Option<NodeId> {
    parse_node(db.resolve(c)?)
}

/// Reads a binary derived relation back as node pairs (output mapping,
/// Algorithm 4): tuples whose first two terms are node symbols. Each
/// symbol is parsed once, into a reverse `sym id → NodeId` table, not
/// once per cell.
pub fn read_pairs(db: &Database, pred: &str) -> Vec<(NodeId, NodeId)> {
    let Some(rel) = db.relation(pred) else {
        return Vec::new();
    };
    let nodes: Vec<Option<NodeId>> = db.symbol_table().iter().map(parse_node).collect();
    let node = |c: Const| match c {
        Const::Sym(s) => nodes[s as usize],
        _ => None,
    };
    let mut out = Vec::new();
    for row in rel.rows() {
        if let (Some(a), Some(b)) = (node(row[0]), node(row[1])) {
            if a != b {
                out.push((a, b));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Materializes a derived relation as typed edges in the property graph
/// (the final step of the output mapping). Returns the number of edges
/// added.
pub fn materialize_links(g: &mut CompanyGraph, db: &Database, pred: &str, class: &str) -> usize {
    let pairs = read_pairs(db, pred);
    let mut added = 0usize;
    // The pairs are sorted: one run per source, whose out-list is read
    // once for the targets already linked. Reading it per pair is
    // quadratic on a close-link hub, which has thousands of both.
    for run in pairs.chunk_by(|x, y| x.0 == y.0) {
        let a = run[0].0;
        let linked = g.link_targets(class, a);
        for &(_, b) in run {
            if linked.binary_search(&b).is_err() {
                g.graph_mut().add_edge(class, a, b);
                added += 1;
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_graphs::figure1;

    #[test]
    fn facts_cover_the_graph() {
        let f = figure1();
        let mut db = Database::new();
        load_facts(&f.graph, &mut db);
        assert_eq!(db.fact_count("person"), 2);
        assert_eq!(db.fact_count("company"), 8);
        assert_eq!(db.fact_count("own"), 12);
        assert_eq!(db.fact_count("person_attr"), 2);
        assert_eq!(db.fact_count("company_attr"), 8);
    }

    #[test]
    fn node_symbols_roundtrip() {
        let f = figure1();
        let mut db = Database::new();
        load_facts(&f.graph, &mut db);
        let p1 = f.node("P1");
        let c = sym_of(&mut db, p1);
        assert_eq!(node_of(&db, c), Some(p1));
        assert_eq!(node_of(&db, Const::Int(3)), None);
        let bogus = db.sym("xyz");
        assert_eq!(node_of(&db, bogus), None);
    }

    #[test]
    fn read_pairs_skips_self_and_dedups() {
        let f = figure1();
        let mut db = Database::new();
        load_facts(&f.graph, &mut db);
        let a = sym_of(&mut db, f.node("P1"));
        let b = sym_of(&mut db, f.node("C"));
        db.assert_fact("x", &[a, b]).unwrap();
        db.assert_fact("x", &[a, a]).unwrap();
        let pairs = read_pairs(&db, "x");
        assert_eq!(pairs, vec![(f.node("P1"), f.node("C"))]);
        assert!(read_pairs(&db, "missing").is_empty());
    }

    #[test]
    fn materialize_adds_typed_edges_once() {
        let mut f = figure1();
        let mut db = Database::new();
        load_facts(&f.graph, &mut db);
        let a = sym_of(&mut db, f.node("P1"));
        let b = sym_of(&mut db, f.node("C"));
        db.assert_fact("ctl", &[a, b]).unwrap();
        assert_eq!(materialize_links(&mut f.graph, &db, "ctl", "Control"), 1);
        assert_eq!(materialize_links(&mut f.graph, &db, "ctl", "Control"), 0);
        assert_eq!(f.graph.links_of("Control").len(), 1);
    }
}
