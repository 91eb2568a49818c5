//! Thread scaling of the parallel embedding kernels (random walks and
//! SGNS training) on the Figure 4(b) superdense workload — see
//! EXPERIMENTS.md for recorded numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use embed::{generate_walks, train_sgns, SgnsConfig, WalkConfig};
use gen::ba::{generate_ba, BaConfig, DensityPreset};
use pgraph::Csr;

const NODES: usize = 2_000;
const SEED: u64 = 0xEDB7;
const THREADS: [usize; 3] = [1, 2, 4];

fn workload() -> Csr {
    let g = generate_ba(&BaConfig::with_density(
        NODES,
        DensityPreset::Superdense,
        SEED,
    ));
    Csr::from_graph(&g, "w")
}

fn bench_walks(c: &mut Criterion) {
    let csr = workload();
    let mut group = c.benchmark_group("thread_scaling/walks");
    group.sample_size(10);
    for &t in &THREADS {
        let cfg = WalkConfig {
            walk_length: 40,
            walks_per_node: 20,
            p: 1.0,
            q: 0.5,
            seed: SEED,
            threads: t,
        };
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| black_box(generate_walks(&csr, &cfg)));
        });
    }
    group.finish();
}

fn bench_sgns(c: &mut Criterion) {
    let csr = workload();
    let walks = generate_walks(
        &csr,
        &WalkConfig {
            walk_length: 40,
            walks_per_node: 20,
            p: 1.0,
            q: 0.5,
            seed: SEED,
            threads: 0,
        },
    );
    let mut group = c.benchmark_group("thread_scaling/sgns");
    group.sample_size(10);
    for &t in &THREADS {
        let cfg = SgnsConfig {
            dims: 32,
            window: 2,
            negatives: 2,
            epochs: 2,
            learning_rate: 0.025,
            seed: SEED ^ 0x5EED,
            threads: t,
        };
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| black_box(train_sgns(csr.node_count(), &walks, &cfg)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_walks, bench_sgns);
criterion_main!(benches);
