//! Per-round cost of the sampled federation path — the unit step of the
//! million-client scale cell: seeded client sampling, lazy materialization
//! out of the embedding arena, sparse local training, and (item-sharded)
//! robust aggregation, over a 50k-client population at 256 clients/round.
//! The arena-snapshot bench isolates what evaluation pays to flatten the
//! pool's user embeddings, and the sampling bench the per-round client draw
//! at the million-client scale cell's width.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use frs_bench::bench_sampled_simulation;
use frs_federation::sample_clients;
use frs_linalg::SeedStream;

fn sampled_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("round");

    let mut sim = bench_sampled_simulation(50_000, "median");
    group.bench_function("sampled_mf_50k", |b| {
        b.iter(|| black_box(sim.run_round()));
    });

    let mut sharded = bench_sampled_simulation(50_000, "median:shards=8");
    group.bench_function("sampled_sharded_mf_50k", |b| {
        b.iter(|| black_box(sharded.run_round()));
    });

    group.bench_function("sampled_snapshot_50k", |b| {
        b.iter(|| black_box(sim.user_embeddings()));
    });

    // The sampling phase alone: 1024 of 1,000,000 registered clients, one
    // fresh per-round RNG per draw as the server makes it.
    let seeds = SeedStream::new(7);
    let mut round = 0u64;
    group.bench_function("sample_1m", |b| {
        b.iter(|| {
            round += 1;
            let mut rng = seeds.rng("server-sample", round);
            black_box(sample_clients(1_000_000, 1024, &mut rng))
        });
    });
    group.finish();
}

criterion_group!(benches, sampled_rounds);
criterion_main!(benches);
