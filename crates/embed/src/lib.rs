//! # embed — node2vec embeddings and clustering
//!
//! This crate implements the `#GraphEmbedClust` primitive of the paper's
//! Algorithm 3 from scratch: **node2vec** \[Grover & Leskovec, KDD 2016\]
//! (second-order biased random walks with return parameter `p` and in-out
//! parameter `q`, trained with skip-gram and negative sampling) plus
//! **k-means++** clustering of the learned vectors.
//!
//! In VADA-LINK, the embedding provides the *first-level clustering* of the
//! two-level blocking scheme: nodes that share ownership neighbourhoods or
//! topological roles land in the same cluster and are then sub-blocked by
//! feature hashing before pairwise `Candidate` evaluation.
//!
//! Every stochastic component is seeded, so embeddings are reproducible
//! bit for bit.
//!
//! ```
//! use pgraph::{Csr, PropertyGraph};
//! use embed::{Node2VecConfig, node2vec, kmeans};
//!
//! let mut g = PropertyGraph::new();
//! let a = g.add_node("C");
//! let b = g.add_node("C");
//! g.add_edge("S", a, b);
//! let csr = Csr::from_graph(&g, "w");
//! let cfg = Node2VecConfig { dims: 8, ..Default::default() };
//! let emb = node2vec(&csr, &cfg);
//! let clusters = kmeans(&emb, 2, 10, 42);
//! assert_eq!(clusters.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod alias;
pub mod embedding;
pub mod kmeans;
pub mod sgns;
pub mod walks;

pub use embedding::Embedding;
pub use kmeans::kmeans;
pub use sgns::{train_sgns, SgnsConfig};
pub use walks::{generate_walks, WalkConfig};

use pgraph::Csr;

/// End-to-end node2vec configuration.
#[derive(Debug, Clone)]
pub struct Node2VecConfig {
    /// Embedding dimensionality.
    pub dims: usize,
    /// Walk length (number of nodes per walk).
    pub walk_length: usize,
    /// Walks started per node.
    pub walks_per_node: usize,
    /// Skip-gram window size.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs over the walk corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed).
    pub learning_rate: f32,
    /// node2vec return parameter `p` (likelihood of revisiting).
    pub p: f64,
    /// node2vec in-out parameter `q` (BFS- vs DFS-like exploration).
    pub q: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for SGNS training: `1` (default) is the exact
    /// sequential reference, `> 1` the sharded parallel mode, `0` resolves
    /// via [`par::threads`]. Walk generation always parallelizes (it is
    /// thread-count-invariant); see [`walks`] and [`sgns`].
    pub threads: usize,
}

impl Default for Node2VecConfig {
    fn default() -> Self {
        Node2VecConfig {
            dims: 64,
            walk_length: 20,
            walks_per_node: 5,
            window: 4,
            negatives: 5,
            epochs: 2,
            learning_rate: 0.025,
            p: 1.0,
            q: 1.0,
            seed: 0xB0CCA,
            threads: 1,
        }
    }
}

/// Runs node2vec end to end: walks, then SGNS training.
pub fn node2vec(csr: &Csr, cfg: &Node2VecConfig) -> Embedding {
    let walks = generate_walks(
        csr,
        &WalkConfig {
            walk_length: cfg.walk_length,
            walks_per_node: cfg.walks_per_node,
            p: cfg.p,
            q: cfg.q,
            seed: cfg.seed,
            threads: 0,
        },
    );
    train_sgns(
        csr.node_count(),
        &walks,
        &SgnsConfig {
            dims: cfg.dims,
            window: cfg.window,
            negatives: cfg.negatives,
            epochs: cfg.epochs,
            learning_rate: cfg.learning_rate,
            seed: cfg.seed ^ 0x5EED,
            threads: cfg.threads,
        },
    )
}
