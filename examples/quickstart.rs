//! Quickstart: train a federated matrix-factorization recommender on a
//! synthetic long-tail dataset and evaluate recommendation quality.
//!
//! Run with: `cargo run --release --example quickstart`

use pieck_frs::data::{leave_one_out, synth, DatasetSpec};
use pieck_frs::federation::{ClientsPerRound, FederationConfig, LazyClientPool, Simulation};
use pieck_frs::metrics::QualityReport;
use pieck_frs::model::{GlobalModel, ModelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // 1. A synthetic implicit-feedback dataset with a realistic long tail:
    //    top 15% of items carry >50% of the interactions.
    let spec = DatasetSpec::ml100k_like().scaled(0.25);
    let mut rng = StdRng::seed_from_u64(42);
    let full = synth::generate(&spec, &mut rng);
    println!(
        "dataset: {} users × {} items, {} interactions",
        full.n_users(),
        full.n_items(),
        full.n_interactions()
    );

    // 2. Leave-one-out split: one held-out test item per user.
    let split = leave_one_out(&full, &mut rng);
    let train = Arc::new(split.train.clone());

    // 3. One federated client per user, each with a private 16-dim
    //    embedding seeded from its id (no attackers); the global model is
    //    the shared item-embedding table.
    let model = GlobalModel::new(&ModelConfig::mf(16), train.n_items(), &mut rng);
    let clients = LazyClientPool::new(
        train.n_users(),
        Arc::clone(&train),
        16,
        0.1,
        |u| 42 + u as u64,
        None,
        Vec::new(),
    );
    let config = FederationConfig {
        clients_per_round: ClientsPerRound::Count(64),
        seed: 42,
        ..Default::default()
    };
    // The builder defaults to plain-sum aggregation (no defense).
    let mut sim = Simulation::builder(model, clients).config(config).build();

    // 4. Train for 150 communication rounds, reporting HR@10 as we go.
    let benign = sim.benign_ids();
    for checkpoint in [10usize, 50, 100, 150] {
        while sim.rounds_done() < checkpoint {
            sim.run_round();
        }
        let q = QualityReport::compute(sim.model(), &sim.user_embeddings(), &benign, &split, 10);
        println!(
            "round {:>4}: HR@10 = {:5.2}%   NDCG@10 = {:.4}",
            checkpoint,
            q.hr_percent(),
            q.ndcg
        );
    }
    println!(
        "\nmean round time: {:?}, total upload: {} KiB",
        sim.stats().mean_round_time(),
        sim.stats().total_upload_bytes / 1024
    );
}
