//! Skip-gram with negative sampling (SGNS) over walk corpora.
//!
//! The word2vec training objective specialized to node sequences: for each
//! (center, context) pair within a window, push the pair's vectors together
//! and push `negatives` random nodes (sampled ∝ degree^0.75 from corpus
//! frequency) away.
//!
//! Two training modes share the same initialization, negative-sampling
//! distribution and learning-rate schedule:
//!
//! * **Sequential reference** (`threads ≤ 1`, the default): plain
//!   single-threaded SGD, fully deterministic for a given seed. This is
//!   the seed implementation every parallel run is differentially tested
//!   against.
//! * **Sharded batch-synchronous** (`threads > 1`): deterministic local
//!   SGD, a Hogwild variant with the races removed. Walks are processed in
//!   fixed-size batches; each worker trains a contiguous chunk of the
//!   batch *sequentially, with fresh updates* on a copy-on-first-touch
//!   overlay of the frozen matrices, drawing negatives from per-walk RNG
//!   streams split from the master seed with SplitMix64, exactly like
//!   [`crate::walks`]. At the batch barrier the per-row deltas
//!   (`local − frozen`) are applied in worker/first-touch order, so
//!   training is *byte-reproducible for a given (seed, thread count)* and
//!   statistically equivalent to — but not bit-identical with — the
//!   sequential reference (workers don't see each other's updates until
//!   the barrier).
//!
//! The statistical equivalence holds for the corpora the sharded mode is
//! built for: graphs large enough that concurrent shards mostly touch
//! *different* embedding rows. On very small graphs (≲ 100 nodes) every
//! shard updates the same rows from the same frozen state, the summed
//! deltas overshoot, and high shard counts can degrade the optimum — use
//! the sequential mode there (it is also faster at that size).
//!
//! Both modes run the same per-pair kernel over row slices: the center row
//! is copied once per (center, context) pair — exact, since it only
//! changes after the pair's targets are done — and each target's output
//! row is one `&mut [f32]`, walked by the dot product and the two update
//! loops in ascending dimension order. That order is part of the output:
//! a reordered or multi-accumulator dot product changes every embedding
//! bit, and `sequential_training_is_bit_pinned` fails on it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alias::AliasTable;
use crate::embedding::Embedding;
use crate::walks::splitmix64;

/// SGNS hyperparameters.
#[derive(Debug, Clone)]
pub struct SgnsConfig {
    /// Embedding dimensionality.
    pub dims: usize,
    /// Window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads: `1` (default) runs the exact sequential reference
    /// algorithm; `> 1` the sharded batch-synchronous mode; `0` resolves
    /// via [`par::threads`].
    pub threads: usize,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dims: 64,
            window: 4,
            negatives: 5,
            epochs: 2,
            learning_rate: 0.025,
            seed: 0,
            threads: 1,
        }
    }
}

/// Walks per synchronization batch in the sharded mode: small enough that
/// gradients stay near-fresh (quality), large enough to amortize the
/// per-batch thread spawn (throughput).
const BATCH_WALKS: usize = 64;

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Trains node embeddings on a walk corpus; returns the input vectors.
pub fn train_sgns(n_nodes: usize, walks: &[Vec<u32>], cfg: &SgnsConfig) -> Embedding {
    let threads = par::resolve(cfg.threads);
    let d = cfg.dims;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Input and output (context) matrices. Inputs start small-random,
    // outputs at zero (word2vec convention). Both modes share this init.
    let mut input = Embedding::zeros(n_nodes, d);
    for i in 0..n_nodes {
        for x in input.vector_mut(i) {
            *x = (rng.random::<f32>() - 0.5) / d as f32;
        }
    }
    let mut output = vec![0.0f32; n_nodes * d];

    if n_nodes == 0 || walks.is_empty() {
        return input;
    }

    // Negative-sampling distribution: corpus frequency ^ 0.75.
    let mut freq = vec![0.0f64; n_nodes];
    for w in walks {
        for &v in w {
            freq[v as usize] += 1.0;
        }
    }
    for f in &mut freq {
        *f = f.powf(0.75);
    }
    if freq.iter().sum::<f64>() <= 0.0 {
        return input;
    }
    let neg_table = AliasTable::new(&freq);

    // Total update steps for the learning-rate schedule.
    let pairs_estimate: usize = walks.iter().map(|w| w.len() * 2 * cfg.window).sum();
    let total_steps = (pairs_estimate * cfg.epochs).max(1);

    if threads <= 1 {
        train_sequential(
            &mut input,
            &mut output,
            walks,
            cfg,
            &neg_table,
            total_steps,
            &mut rng,
        );
    } else {
        train_sharded(
            &mut input,
            &mut output,
            walks,
            cfg,
            &neg_table,
            total_steps,
            threads,
        );
    }
    input
}

/// The sequential reference: one global RNG stream, every update visible
/// to the next pair. Byte-for-byte the historical `train_sgns` behavior.
#[allow(clippy::too_many_arguments)]
fn train_sequential(
    input: &mut Embedding,
    output: &mut [f32],
    walks: &[Vec<u32>],
    cfg: &SgnsConfig,
    neg_table: &AliasTable,
    total_steps: usize,
    rng: &mut StdRng,
) {
    let d = cfg.dims;
    let mut step = 0usize;
    let mut grad = vec![0.0f32; d];
    let mut cvec = vec![0.0f32; d];
    for _epoch in 0..cfg.epochs {
        for walk in walks {
            for (ci, &center) in walk.iter().enumerate() {
                let lo = ci.saturating_sub(cfg.window);
                let hi = (ci + cfg.window + 1).min(walk.len());
                for (xi, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                    if xi == ci {
                        continue;
                    }
                    let progress = step as f32 / total_steps as f32;
                    let lr = cfg.learning_rate * (1.0 - progress).max(0.05);
                    step += 1;
                    grad.iter_mut().for_each(|g| *g = 0.0);
                    // The center row cannot change during the k-loop (its
                    // gradient is applied after), so a copy is exact.
                    cvec.copy_from_slice(input.vector(center as usize));
                    // Positive pair + negatives.
                    for k in 0..=cfg.negatives {
                        let (target, label) = if k == 0 {
                            (context as usize, 1.0f32)
                        } else {
                            (neg_table.sample(rng) as usize, 0.0f32)
                        };
                        if k > 0 && target == context as usize {
                            continue;
                        }
                        let ovec = &mut output[target * d..target * d + d];
                        let mut dot = 0.0f32;
                        for (c, o) in cvec.iter().zip(&*ovec) {
                            dot += c * o;
                        }
                        let g = (label - sigmoid(dot)) * lr;
                        for ((gj, o), c) in grad.iter_mut().zip(ovec.iter_mut()).zip(&cvec) {
                            *gj += g * *o;
                            *o += g * c;
                        }
                    }
                    for (c, gj) in input.vector_mut(center as usize).iter_mut().zip(&grad) {
                        *c += gj;
                    }
                }
            }
        }
    }
}

/// One worker's copy-on-first-touch overlay of the frozen matrices.
///
/// The worker trains its walk chunk with plain *fresh* SGD on overlay rows
/// (local SGD); at the barrier each row contributes the delta
/// `local − frozen`. Rows live in a `Vec` in first-touch order — never a
/// `HashMap` — so the merge order, and with it every floating-point
/// rounding, is deterministic.
struct ShardBuf {
    /// Row id of slot `i` (input row `r`, or `n + r` for output row `r`).
    touched: Vec<u32>,
    /// Working copy of each touched row, updated in place by the worker.
    local: Vec<Vec<f32>>,
    /// Frozen snapshot of each touched row, captured at first touch.
    frozen: Vec<Vec<f32>>,
    /// Row → slot index + a generation stamp to reset in O(1).
    slot_of: Vec<(u32, u32)>,
    generation: u32,
}

impl ShardBuf {
    fn new(rows: usize) -> Self {
        ShardBuf {
            touched: Vec::new(),
            local: Vec::new(),
            frozen: Vec::new(),
            slot_of: vec![(0, u32::MAX); rows],
            generation: 1,
        }
    }

    /// The worker's live copy of `row`, initialized from `src` on first
    /// touch.
    fn row_mut(&mut self, row: u32, src: &[f32]) -> &mut [f32] {
        let (slot, stamp) = self.slot_of[row as usize];
        let slot = if stamp == self.generation {
            slot as usize
        } else {
            let s = self.touched.len();
            self.touched.push(row);
            self.local.push(src.to_vec());
            self.frozen.push(src.to_vec());
            self.slot_of[row as usize] = (s as u32, self.generation);
            s
        };
        &mut self.local[slot]
    }
}

/// The sharded batch-synchronous mode (deterministic local SGD). Walks are
/// cut into fixed [`BATCH_WALKS`]-sized batches; each worker takes one
/// contiguous chunk of the batch and trains it *sequentially, with fresh
/// updates* on a sparse overlay of the frozen matrices, drawing negatives
/// from per-walk RNG streams. At the barrier the per-row deltas
/// (`local − frozen`) are applied in worker/first-touch order. The result
/// is a pure function of `(corpus, cfg, thread count)`.
fn train_sharded(
    input: &mut Embedding,
    output: &mut [f32],
    walks: &[Vec<u32>],
    cfg: &SgnsConfig,
    neg_table: &AliasTable,
    total_steps: usize,
    threads: usize,
) {
    let d = cfg.dims;
    let n = input.len();
    // Pair-count prefix sums: walk `i`'s first update is global step
    // `prefix[i]`, keeping the learning-rate schedule aligned with the
    // sequential reference no matter how walks are sharded.
    let mut prefix = Vec::with_capacity(walks.len() + 1);
    let mut acc = 0usize;
    prefix.push(0);
    for w in walks {
        acc += pair_count(w.len(), cfg.window);
        prefix.push(acc);
    }
    let pairs_per_epoch = acc;

    for epoch in 0..cfg.epochs {
        let epoch_base = epoch * pairs_per_epoch;
        let mut batch_start = 0usize;
        while batch_start < walks.len() {
            let batch_end = (batch_start + BATCH_WALKS).min(walks.len());
            // Freeze the matrices for this batch.
            let input_ref = &*input;
            let output_ref = &*output;
            let prefix_ref = &prefix;
            let buffers: Vec<ShardBuf> = par::par_ranges(
                batch_end - batch_start,
                threads,
                0, // one contiguous chunk per worker: assignment is static
                |r| {
                    let mut buf = ShardBuf::new(2 * n);
                    let mut grad = vec![0.0f32; d];
                    let mut cvec = vec![0.0f32; d];
                    for off in r {
                        let wi = batch_start + off;
                        train_one_walk_sharded(
                            &walks[wi],
                            wi,
                            epoch,
                            epoch_base + prefix_ref[wi],
                            input_ref,
                            output_ref,
                            cfg,
                            neg_table,
                            total_steps,
                            &mut buf,
                            &mut grad,
                            &mut cvec,
                        );
                    }
                    buf
                },
            );
            // Deterministic merge: worker order, first-touch order within.
            for buf in buffers {
                for (slot, &row) in buf.touched.iter().enumerate() {
                    let local = &buf.local[slot];
                    let frozen = &buf.frozen[slot];
                    let dest = if (row as usize) < n {
                        input.vector_mut(row as usize)
                    } else {
                        let base = (row as usize - n) * d;
                        &mut output[base..base + d]
                    };
                    for j in 0..d {
                        dest[j] += local[j] - frozen[j];
                    }
                }
            }
            batch_start = batch_end;
        }
    }
}

/// Exact number of (center, context) updates the training loop performs on
/// a walk of `len` nodes.
fn pair_count(len: usize, window: usize) -> usize {
    (0..len)
        .map(|ci| (ci + window + 1).min(len) - ci.saturating_sub(window) - 1)
        .sum()
}

/// Trains one walk with fresh SGD on the worker's overlay. Negatives come
/// from an RNG stream split from the master seed by `(epoch, walk index)` —
/// the same SplitMix64 scheme as walk generation — so the draws do not
/// depend on which worker runs the walk.
#[allow(clippy::too_many_arguments)]
fn train_one_walk_sharded(
    walk: &[u32],
    wi: usize,
    epoch: usize,
    start_step: usize,
    input: &Embedding,
    output: &[f32],
    cfg: &SgnsConfig,
    neg_table: &AliasTable,
    total_steps: usize,
    buf: &mut ShardBuf,
    grad: &mut [f32],
    cvec: &mut [f32],
) {
    let d = cfg.dims;
    let n = input.len();
    let mut rng = StdRng::seed_from_u64(splitmix64(
        cfg.seed ^ (wi as u64) ^ ((epoch as u64) << 40) ^ 0x5A4D5,
    ));
    let mut step = start_step;
    for (ci, &center) in walk.iter().enumerate() {
        let lo = ci.saturating_sub(cfg.window);
        let hi = (ci + cfg.window + 1).min(walk.len());
        for (xi, &context) in walk.iter().enumerate().take(hi).skip(lo) {
            if xi == ci {
                continue;
            }
            let progress = step as f32 / total_steps as f32;
            let lr = cfg.learning_rate * (1.0 - progress).max(0.05);
            step += 1;
            grad.iter_mut().for_each(|g| *g = 0.0);
            // The center row cannot change during the k-loop (its gradient
            // is applied after), so a copy is exact, not an approximation.
            cvec.copy_from_slice(buf.row_mut(center, input.vector(center as usize)));
            for k in 0..=cfg.negatives {
                let (target, label) = if k == 0 {
                    (context as usize, 1.0f32)
                } else {
                    (neg_table.sample(&mut rng) as usize, 0.0f32)
                };
                if k > 0 && target == context as usize {
                    continue;
                }
                let ovec = buf.row_mut((n + target) as u32, &output[target * d..target * d + d]);
                let mut dot = 0.0f32;
                for j in 0..d {
                    dot += cvec[j] * ovec[j];
                }
                let g = (label - sigmoid(dot)) * lr;
                for j in 0..d {
                    grad[j] += g * ovec[j];
                    ovec[j] += g * cvec[j];
                }
            }
            let cv = buf.row_mut(center, input.vector(center as usize));
            for j in 0..d {
                cv[j] += grad[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::cosine;

    /// Corpus with two "communities" {0,1,2} and {3,4,5} that never co-occur.
    fn two_community_corpus() -> Vec<Vec<u32>> {
        let mut walks = Vec::new();
        for _ in 0..80 {
            walks.push(vec![0, 1, 2, 1, 0, 2, 1, 2]);
            walks.push(vec![3, 4, 5, 4, 3, 5, 4, 5]);
        }
        walks
    }

    #[test]
    fn communities_separate_in_embedding_space() {
        let cfg = SgnsConfig {
            dims: 16,
            epochs: 3,
            seed: 11,
            ..Default::default()
        };
        let emb = train_sgns(6, &two_community_corpus(), &cfg);
        // Intra-community similarity must exceed inter-community similarity.
        let intra =
            (cosine(emb.vector(0), emb.vector(1)) + cosine(emb.vector(3), emb.vector(4))) / 2.0;
        let inter =
            (cosine(emb.vector(0), emb.vector(3)) + cosine(emb.vector(2), emb.vector(5))) / 2.0;
        assert!(
            intra > inter + 0.2,
            "intra {intra} should clearly exceed inter {inter}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SgnsConfig {
            dims: 8,
            epochs: 1,
            seed: 5,
            ..Default::default()
        };
        let corpus = two_community_corpus();
        let a = train_sgns(6, &corpus, &cfg);
        let b = train_sgns(6, &corpus, &cfg);
        assert_eq!(a.vector(0), b.vector(0));
        assert_eq!(a.vector(5), b.vector(5));
    }

    #[test]
    fn empty_corpus_returns_init() {
        let cfg = SgnsConfig {
            dims: 4,
            ..Default::default()
        };
        let emb = train_sgns(3, &[], &cfg);
        assert_eq!(emb.len(), 3);
        assert_eq!(emb.dims(), 4);
    }

    #[test]
    fn zero_nodes_ok() {
        let emb = train_sgns(0, &[], &SgnsConfig::default());
        assert_eq!(emb.len(), 0);
    }

    #[test]
    fn pair_count_is_exact() {
        // Must match the number of (center, context) iterations the
        // training loops actually perform, or the lr schedules diverge.
        for (len, window) in [(0usize, 4usize), (1, 4), (5, 2), (8, 4), (20, 3)] {
            let walk: Vec<u32> = (0..len as u32).collect();
            let mut brute = 0usize;
            for ci in 0..walk.len() {
                let lo = ci.saturating_sub(window);
                let hi = (ci + window + 1).min(walk.len());
                brute += (lo..hi).filter(|&xi| xi != ci).count();
            }
            assert_eq!(pair_count(len, window), brute, "len {len} window {window}");
        }
    }

    #[test]
    fn sharded_mode_reproducible_per_seed_and_threads() {
        // Same seed + same thread count => byte-identical embeddings.
        let cfg = SgnsConfig {
            dims: 8,
            epochs: 2,
            seed: 7,
            threads: 2,
            ..Default::default()
        };
        let corpus = two_community_corpus();
        let a = train_sgns(6, &corpus, &cfg);
        let b = train_sgns(6, &corpus, &cfg);
        for i in 0..6 {
            assert_eq!(a.vector(i), b.vector(i), "node {i} diverged across runs");
        }
    }

    #[test]
    fn sharded_mode_separates_communities() {
        // The parallel mode must reach the same qualitative optimum as the
        // sequential reference, even though the trajectories differ.
        for threads in [2usize, 8] {
            // Eight shards over a six-node corpus is the worst case for
            // batch-synchronous staleness (see module docs), so give the
            // optimizer enough epochs that separation does not hinge on a
            // lucky initial stream.
            let cfg = SgnsConfig {
                dims: 16,
                epochs: 8,
                seed: 11,
                threads,
                ..Default::default()
            };
            let emb = train_sgns(6, &two_community_corpus(), &cfg);
            let intra =
                (cosine(emb.vector(0), emb.vector(1)) + cosine(emb.vector(3), emb.vector(4))) / 2.0;
            let inter =
                (cosine(emb.vector(0), emb.vector(3)) + cosine(emb.vector(2), emb.vector(5))) / 2.0;
            assert!(
                intra > inter + 0.2,
                "threads {threads}: intra {intra} should clearly exceed inter {inter}"
            );
        }
    }

    /// FNV-1a over the bits of every `f32` of an embedding.
    fn bits_hash(e: &Embedding, mut h: u64) -> u64 {
        for i in 0..e.len() {
            for x in e.vector(i) {
                for b in x.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn sequential_training_is_bit_pinned() {
        // The augmentation loop's shape (`core::augment::fast_node2vec`):
        // 300 nodes, two walks of ten per node, dims 32, window 3,
        // negatives 3, one epoch. Node 299 never appears in a walk, so its
        // row must come back exactly as initialized.
        let n = 300u32;
        let mut walks = Vec::new();
        let mut s = 0x5EED_u64;
        for start in 0..n - 1 {
            for _ in 0..2 {
                let mut walk = vec![start];
                for _ in 1..10 {
                    s = splitmix64(s);
                    walk.push((s % u64::from(n - 1)) as u32);
                }
                walks.push(walk);
            }
        }
        let cfg = SgnsConfig {
            dims: 32,
            window: 3,
            negatives: 3,
            epochs: 1,
            learning_rate: 0.05,
            seed: 0xE5B,
            threads: 1,
        };
        let big = train_sgns(n as usize, &walks, &cfg);
        // Three nodes with very skewed frequencies: negatives repeat within
        // a pair and often equal the context (the skipped draw).
        let skewed: Vec<Vec<u32>> = (0..40)
            .map(|i| vec![0, 1, 0, 0, 2, 0, 1, 0, (i % 3) as u32, 0])
            .collect();
        let small = train_sgns(3, &skewed, &cfg);
        let init = train_sgns(n as usize, &[], &cfg);
        assert_eq!(big.vector(299), init.vector(299), "isolated row moved");
        // Recorded from the training loop as it stood before its rows were
        // read as slices: any change to the summation order, the RNG draw
        // order or the learning-rate schedule changes this value.
        let h = bits_hash(&small, bits_hash(&big, 0xcbf2_9ce4_8422_2325));
        assert_eq!(
            h, 0xc49c_b5cd_f20b_715f,
            "SGNS output bits changed: {h:#018x}"
        );
    }

    #[test]
    fn vectors_move_during_training() {
        let cfg = SgnsConfig {
            dims: 8,
            epochs: 1,
            seed: 2,
            ..Default::default()
        };
        let corpus = two_community_corpus();
        let trained = train_sgns(6, &corpus, &cfg);
        // Norm grows well beyond the tiny random init.
        let norm: f32 = trained.vector(1).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm > 0.05, "norm {norm}");
    }
}
