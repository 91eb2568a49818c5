//! Stratifiability pass (V005, V016).
//!
//! The engine evaluates negation stratum by stratum, which requires that
//! no predicate depends on its own negation: in the dependency graph
//! (edges from body predicates to head predicates, marked *negative* when
//! the body occurrence is negated) no strongly connected component may
//! contain a negative edge. When one does, the pass reports V005 with an
//! explicit cycle witness — the chain of predicates through which the
//! negation feeds back into itself — rather than a bare "not
//! stratifiable".
//!
//! Recursion through the *monotonic* `m*` aggregates is legal (the whole
//! point of Vadalog's aggregation design, and what the paper's company
//! control query relies on); the pass notes it as V016 info so a reader
//! knows the program exploits that extension.
//!
//! The pass returns the graph it checked (`DepGraph`), and the engine
//! layers its components into strata.

use crate::ast::Literal;

use super::diagnostics::{DiagCode, Diagnostic, Severity};
use super::{AnalysisConfig, ProgramIndex};

/// The predicate dependency graph over [`ProgramIndex`] ids and its
/// strongly connected components. The engine's stratifier
/// ([`crate::eval::resolve::compile`]) layers the same components, so the
/// program the pass accepts is the program the engine stratifies.
pub(crate) struct DepGraph {
    /// `adj[b]` lists every predicate derived by a rule that reads `b`;
    /// conjunctive heads are linked both ways.
    pub adj: Vec<Vec<usize>>,
    /// Component of every predicate ([`sccs`]).
    pub comp: Vec<usize>,
    /// Negative dependencies: (body pred, head pred, rule index).
    negative: Vec<(usize, usize, usize)>,
}

impl DepGraph {
    fn new(ix: &ProgramIndex<'_>) -> Self {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); ix.len()];
        let mut negative = Vec::new();
        for (ri, rule) in ix.program.rules.iter().enumerate() {
            let heads: Vec<usize> = rule
                .head
                .iter()
                .filter_map(|h| ix.id(&h.pred).map(|id| id as usize))
                .collect();
            // Conjunctive heads are derived together, so they share a
            // stratum: link them mutually.
            for &h in heads.iter().skip(1) {
                adj[heads[0]].push(h);
                adj[h].push(heads[0]);
            }
            for lit in &rule.body {
                let (Literal::Atom(a) | Literal::Negated(a)) = lit else {
                    continue;
                };
                let Some(bid) = ix.id(&a.pred) else {
                    continue;
                };
                for &hid in &heads {
                    adj[bid as usize].push(hid);
                    if matches!(lit, Literal::Negated(_)) {
                        negative.push((bid as usize, hid, ri));
                    }
                }
            }
        }
        let comp = sccs(&adj);
        DepGraph {
            adj,
            comp,
            negative,
        }
    }
}

/// Runs the pass; returns the dependency graph it checked.
pub(crate) fn run(
    ix: &ProgramIndex<'_>,
    _cfg: &AnalysisConfig,
    out: &mut Vec<Diagnostic>,
) -> DepGraph {
    let graph = DepGraph::new(ix);
    let (adj, comp) = (&graph.adj, &graph.comp);

    let mut reported: Vec<(usize, usize, usize)> = Vec::new();
    for &(from, to, ri) in &graph.negative {
        if comp[from] != comp[to] || reported.contains(&(from, to, ri)) {
            continue;
        }
        reported.push((from, to, ri));
        let rule = &ix.program.rules[ri];
        out.push(Diagnostic {
            code: DiagCode::V005,
            severity: Severity::Error,
            rule: Some(ri),
            span: Some(rule.span),
            message: format!(
                "program is not stratifiable: {} depends on `not {}` and {}",
                ix.name(to as u32),
                ix.name(from as u32),
                cycle_witness(ix, adj, comp, to, from)
            ),
        });
    }

    // Recursion through a monotonic aggregate: legal, but worth a note.
    for (ri, rule) in ix.program.rules.iter().enumerate() {
        if rule.aggregate().is_none() {
            continue;
        }
        let recursive = rule.head.iter().any(|h| {
            let hid = match ix.id(&h.pred) {
                Some(id) => id as usize,
                None => return false,
            };
            rule.positive_atoms().any(|a| {
                ix.id(&a.pred)
                    .is_some_and(|bid| comp[bid as usize] == comp[hid])
            })
        });
        if recursive {
            out.push(Diagnostic {
                code: DiagCode::V016,
                severity: Severity::Info,
                rule: Some(ri),
                span: Some(rule.span),
                message: format!(
                    "monotonic aggregate {} participates in recursion (allowed: the \
                     m* family is monotone under set containment)",
                    rule.aggregate().map(|a| a.func.name()).unwrap_or("m*")
                ),
            });
        }
    }
    graph
}

/// Explains how `from` (the negated predicate) is in turn derived from
/// `to` (the negating rule's head) inside one strongly connected
/// component: the chain that closes the negation cycle.
fn cycle_witness(
    ix: &ProgramIndex<'_>,
    adj: &[Vec<usize>],
    comp: &[usize],
    to: usize,
    from: usize,
) -> String {
    if to == from {
        return format!("the rule derives {} itself", ix.name(to as u32));
    }
    // BFS from `to` to `from` inside the component; an edge v -> w means
    // "w depends on v", so the discovered path spells out the derivation
    // chain that feeds the negated predicate.
    let mut parent: Vec<Option<usize>> = vec![None; adj.len()];
    let mut queue = std::collections::VecDeque::new();
    parent[to] = Some(to);
    queue.push_back(to);
    'bfs: while let Some(v) = queue.pop_front() {
        for &w in &adj[v] {
            if comp[w] == comp[to] && parent[w].is_none() {
                parent[w] = Some(v);
                if w == from {
                    break 'bfs;
                }
                queue.push_back(w);
            }
        }
    }
    if parent[from].is_none() {
        // Unreachable for members of one SCC; keep the message useful anyway.
        return format!("{} is mutually recursive with it", ix.name(from as u32));
    }
    let mut path = vec![from];
    let mut v = from;
    while let Some(p) = parent[v] {
        if p == v {
            break;
        }
        path.push(p);
        v = p;
    }
    path.reverse();
    let names: Vec<&str> = path.iter().map(|&p| ix.name(p as u32)).collect();
    format!(
        "{} is derived back from it via {}",
        ix.name(from as u32),
        names.join(" -> ")
    )
}

/// Strongly connected components (iterative Tarjan); returns the component
/// id of every node. Also splits the incremental engine's unit graph.
pub(crate) fn sccs(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(frame) = frames.last_mut() {
            let (v, ci) = (frame.0, frame.1);
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                frame.1 += 1;
                let w = adj[v][ci];
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("Tarjan stack invariant");
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                frames.pop();
                if let Some(up) = frames.last() {
                    let u = up.0;
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_with, AnalysisConfig};
    use super::*;
    use crate::ast::Program;

    fn analysis(src: &str) -> super::super::Analysis {
        analyze_with(&Program::parse(src).unwrap(), &AnalysisConfig::default())
    }

    #[test]
    fn stratified_negation_is_accepted() {
        let a = analysis("t(X) :- e(X). s(X) :- u(X), not t(X).");
        assert!(!a.diagnostics.iter().any(|d| d.code == DiagCode::V005));
    }

    #[test]
    fn direct_self_negation_is_rejected() {
        let a = analysis("p(X) :- e(X), not p(X).");
        let d = a
            .errors()
            .find(|d| d.code == DiagCode::V005)
            .expect("V005 expected");
        assert_eq!(d.rule, Some(0));
        assert!(d.message.contains("not p"), "{}", d.message);
    }

    #[test]
    fn negation_cycle_witness_names_the_chain() {
        let a = analysis(
            "a(X) :- e(X), not b(X).\n\
             b(X) :- c(X).\n\
             c(X) :- a(X).",
        );
        let d = a
            .errors()
            .find(|d| d.code == DiagCode::V005)
            .expect("V005 expected");
        // The negated edge is b -> a (rule 0); the witness explains how a
        // feeds back into b.
        assert_eq!(d.rule, Some(0));
        for p in ["a", "b", "c"] {
            assert!(d.message.contains(p), "{}", d.message);
        }
    }

    #[test]
    fn conjunctive_heads_share_a_stratum() {
        // a and b are derived together, so they live in one stratum; the
        // negation of a inside the cycle through b is a V005 even though
        // no plain derivation path leads back to a.
        let a = analysis(
            "a(X), b(X) :- e(X).\n\
             c(X) :- u(X), not a(X).\n\
             b(X) :- c(X).",
        );
        assert!(
            a.errors().any(|d| d.code == DiagCode::V005),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn recursive_monotonic_aggregate_is_an_info_note() {
        let a = analysis(
            "control(X, X) :- company(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), Z != Y, msum(W, <Z>) > 0.5.",
        );
        assert!(a.is_clean());
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::V016)
            .expect("V016 expected");
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.rule, Some(1));
    }

    #[test]
    fn nonrecursive_aggregate_has_no_note() {
        let a = analysis("total(X, V) :- own(X, Y, W), V = msum(W, <Y>).");
        assert!(!a.diagnostics.iter().any(|d| d.code == DiagCode::V016));
    }
}
