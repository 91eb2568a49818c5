//! Sequential-vs-parallel differential tests across every parallel kernel.
//!
//! Each hot path that gained a parallel execution mode is run at threads
//! 1, 2 and 8 on the paper's example graphs and on `gen` synthetic graphs,
//! and the results are compared against the sequential reference:
//!
//! * **random walks** — byte-identical corpora (walks are a pure function
//!   of `(seed, walk index)`; threads only decide who computes them);
//! * **linkage scoring** — bit-identical score vectors (pairs are
//!   enumerated deterministically before any thread runs);
//! * **SGNS training** — *statistically* equivalent: the sharded mode is a
//!   different (deterministic) schedule, so embeddings differ numerically
//!   but must induce the same downstream k-means clustering.

use embed::{generate_walks, kmeans, train_sgns, SgnsConfig, WalkConfig};
use gen::company::{generate, CompanyGraphConfig};
use linkage::{jaro_winkler, numeric_distance, score_blocks, FeatureBlocker};
use pgraph::{Csr, NodeId, PropertyGraph};
use vada_link::model::CompanyGraph;
use vada_link::paper_graphs::figure1;

const THREADS: [usize; 3] = [1, 2, 8];

/// SplitMix64: deterministic inputs without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A mid-sized synthetic company graph (large enough that the walk
/// generator's parallel path genuinely runs: > 20k walks).
fn synthetic_graph() -> CompanyGraph {
    let out = generate(&CompanyGraphConfig {
        persons: 2_000,
        companies: 1_000,
        seed: 0xD1FF,
        ..Default::default()
    });
    CompanyGraph::new(out.graph)
}

// ---------------------------------------------------------------------------
// Random walks: byte-identical across thread counts
// ---------------------------------------------------------------------------

fn walk_config(threads: usize) -> WalkConfig {
    WalkConfig {
        walk_length: 12,
        walks_per_node: 8,
        p: 1.0,
        q: 0.5,
        seed: 0xA1C,
        threads,
    }
}

#[test]
fn walks_are_identical_across_thread_counts() {
    for csr in [
        Csr::from_graph(synthetic_graph().graph(), "w"),
        Csr::from_graph(figure1().graph.graph(), "w"),
    ] {
        let reference = generate_walks(&csr, &walk_config(1));
        assert!(!reference.is_empty());
        for threads in [2, 8] {
            let got = generate_walks(&csr, &walk_config(threads));
            assert_eq!(got, reference, "threads={threads} corpus diverged");
        }
    }
}

// ---------------------------------------------------------------------------
// Linkage scoring: bit-identical across thread counts
// ---------------------------------------------------------------------------

#[test]
fn linkage_scores_are_identical_across_thread_counts() {
    // Synthetic person records: (surname-ish token, birth year).
    let mut rng = Rng(0x11AC);
    let items: Vec<(String, i64)> = (0..4_000)
        .map(|_| {
            (
                format!("name{}", rng.below(300)),
                1930 + rng.below(80) as i64,
            )
        })
        .collect();
    let blocker = FeatureBlocker::with_block_count(64);
    let run = |threads: usize| -> Vec<(usize, usize, u64)> {
        score_blocks(
            &blocker,
            &items,
            threads,
            |it| it.0.clone(),
            |a, b| {
                let s = 0.5 * jaro_winkler(&a.0, &b.0)
                    + 0.5 * numeric_distance(a.1 as f64, b.1 as f64, 50.0);
                s.to_bits() // compare exact bit patterns, not approximate floats
            },
        )
        .into_iter()
        .collect()
    };
    let reference = run(1);
    assert!(!reference.is_empty());
    for threads in [2, 8] {
        assert_eq!(run(threads), reference, "threads={threads} diverged");
    }
}

// ---------------------------------------------------------------------------
// SGNS: statistically equivalent via downstream k-means agreement
// ---------------------------------------------------------------------------

/// Two dense cliques joined by a single bridge edge — the structure the
/// first-level clustering must recover regardless of training schedule.
fn two_cliques(size: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for _ in 0..2 * size {
        g.add_node("C");
    }
    for c in 0..2 {
        let base = c * size;
        for i in 0..size {
            for j in i + 1..size {
                g.add_edge("S", NodeId((base + i) as u32), NodeId((base + j) as u32));
            }
        }
    }
    g.add_edge("S", NodeId(0), NodeId(size as u32));
    g
}

/// Fraction of node pairs on which two clusterings agree (same-cluster vs
/// different-cluster) — the Rand index.
fn rand_index(a: &[u32], b: &[u32]) -> f64 {
    let n = a.len();
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += 1;
            if (a[i] == a[j]) == (b[i] == b[j]) {
                agree += 1;
            }
        }
    }
    agree as f64 / total.max(1) as f64
}

#[test]
fn sgns_thread_counts_agree_on_downstream_clustering() {
    // A generously sized fixture: with 8 shards each worker trains only 8
    // walks per 64-walk batch against frozen matrices, so on *small*
    // graphs (where every worker touches the same embedding rows) the
    // summed per-shard deltas overshoot and the schedule degrades. From
    // ~100 nodes per community upward the row collisions thin out and the
    // sharded optimum matches the sequential one.
    let size = 100;
    let g = two_cliques(size);
    let csr = Csr::from_graph(&g, "w");
    let walks = generate_walks(
        &csr,
        &WalkConfig {
            walk_length: 15,
            walks_per_node: 10,
            p: 1.0,
            q: 1.0,
            seed: 7,
            threads: 0,
        },
    );
    let assignments: Vec<Vec<u32>> = THREADS
        .iter()
        .map(|&threads| {
            let emb = train_sgns(
                csr.node_count(),
                &walks,
                &SgnsConfig {
                    dims: 16,
                    window: 4,
                    negatives: 5,
                    epochs: 3,
                    learning_rate: 0.025,
                    seed: 7 ^ 0x5EED,
                    threads,
                },
            );
            kmeans(&emb, 2, 50, 11)
        })
        .collect();
    // Each thread count must separate the cliques (allowing the bridge
    // endpoints and a few strays), and all clusterings must agree pairwise.
    for (t, assign) in THREADS.iter().zip(&assignments) {
        let count =
            |lo: usize, hi: usize, label: u32| (lo..hi).filter(|&i| assign[i] == label).count();
        let a_label = assign[1];
        let b_label = assign[size + 1];
        assert_ne!(a_label, b_label, "threads={t}: cliques merged: {assign:?}");
        assert!(
            count(0, size, a_label) >= size - 3,
            "threads={t}: clique A impure: {assign:?}"
        );
        assert!(
            count(size, 2 * size, b_label) >= size - 3,
            "threads={t}: clique B impure: {assign:?}"
        );
    }
    for (t, assign) in THREADS.iter().zip(&assignments).skip(1) {
        let ri = rand_index(&assignments[0], assign);
        assert!(
            ri >= 0.80,
            "threads={t}: clustering diverged from sequential (Rand index {ri:.3})"
        );
    }
}
