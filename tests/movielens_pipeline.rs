//! Real-data pipeline: a MovieLens-format file (written as a fixture) flows
//! through the loader, the leave-one-out split, federated training, and the
//! attack — proving the library is not synthetic-data-only.

use pieck_frs::data::{leave_one_out, load_movielens, LoadOptions};
use pieck_frs::federation::{
    Client, ClientsPerRound, FederationConfig, LazyClientPool, Simulation,
};
use pieck_frs::metrics::hit_ratio_at_k;
use pieck_frs::model::{GlobalModel, ModelConfig};
use pieck_frs::pieck::{PieckClient, PieckConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Writes a u.data-style fixture with a long-tail popularity profile:
/// 40 users, 60 items, item popularity ∝ 1/(rank+1).
fn write_fixture(path: &std::path::Path) {
    let mut rng = StdRng::seed_from_u64(99);
    let mut lines = String::new();
    for user in 1..=40u32 {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..12 {
            // Zipf-ish item draw over ids 1..=60.
            let r: f64 = rng.gen_range(0.0f64..1.0);
            let item = ((60.0f64.powf(r) - 1.0).max(0.0) as u32 % 60) + 1;
            if seen.insert(item) {
                lines.push_str(&format!("{user}\t{item}\t5\t0\n"));
            }
        }
    }
    std::fs::write(path, lines).unwrap();
}

#[test]
fn movielens_file_to_attack_pipeline() {
    let path = std::env::temp_dir().join("pieck_frs_pipeline_u.data");
    write_fixture(&path);

    let (full, maps) = load_movielens(&path, &LoadOptions::ml100k()).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        full.n_users() >= 30,
        "loader kept most users: {}",
        full.n_users()
    );
    assert!(!maps.item_from_dense.is_empty());

    let mut rng = StdRng::seed_from_u64(1);
    let split = leave_one_out(&full, &mut rng);
    let train = Arc::new(split.train.clone());
    let model = GlobalModel::new(&ModelConfig::mf(8), train.n_items(), &mut rng);

    // Benign population from the real file + 3 PIECK-UEA sybils.
    let n_benign = train.n_users();
    let target = train.coldest_items(1)[0];
    let sybils: Vec<Box<dyn Client>> = (0..3)
        .map(|i| {
            let mut cfg = PieckConfig::uea(vec![target]);
            cfg.top_n = 10;
            Box::new(PieckClient::new(n_benign + i, cfg)) as Box<dyn Client>
        })
        .collect();
    let clients = LazyClientPool::new(
        n_benign,
        Arc::clone(&train),
        8,
        0.1,
        |u| 10 + u as u64,
        None,
        sybils,
    );
    let config = FederationConfig {
        clients_per_round: ClientsPerRound::Count(24),
        seed: 2,
        ..Default::default()
    };
    let mut sim = Simulation::builder(model, clients).config(config).build();
    sim.run(60);

    // The pipeline produced a functioning recommender...
    let benign = sim.benign_ids();
    let hr = hit_ratio_at_k(sim.model(), &sim.user_embeddings(), &benign, &split, 10);
    assert!(
        hr > 0.05,
        "model should learn from the loaded file: HR {hr}"
    );
    // ...and the attack machinery ran against loaded data without issue.
    assert!(sim.stats().total_malicious_selected > 0);
}

/// The scenario/suite-level entry point for real dumps: a
/// `PaperDataset::File` flows through `paper_scenario` → `scenario::run`
/// end to end — deterministically — with no synthetic generation involved.
#[test]
fn file_dataset_runs_through_the_scenario_harness() {
    use pieck_frs::attacks::AttackKind;
    use pieck_frs::experiments::scenario;
    use pieck_frs::experiments::{paper_scenario, PaperDataset};
    use pieck_frs::model::ModelKind;

    let path = std::env::temp_dir().join("pieck_frs_scenario_u.data");
    write_fixture(&path);

    let dataset = PaperDataset::File(path.to_string_lossy().into_owned());
    // --scale does not shrink real files.
    let mut cfg = paper_scenario(dataset, ModelKind::Mf, 0.1, 5);
    assert_eq!(
        cfg.federation.clients_per_round,
        ClientsPerRound::Count(256)
    );
    assert_eq!(cfg.poison_scale, 1.0);
    cfg.federation.clients_per_round = ClientsPerRound::Count(24);
    cfg.rounds = 40;
    cfg.attack = AttackKind::PieckUea.into();

    let (full, _, targets) = scenario::build_world(&cfg);
    assert!(full.n_users() >= 30, "file decided the shape");
    assert_eq!(targets.len(), 1);

    let a = scenario::run(&cfg);
    let b = scenario::run(&cfg);
    assert!(
        a.hr_percent > 0.0,
        "learned from the file: {}",
        a.hr_percent
    );
    assert_eq!(a.er_percent, b.er_percent, "file runs are deterministic");
    assert_eq!(a.hr_percent, b.hr_percent);

    std::fs::remove_file(&path).ok();
}

/// Cache identity of file-backed cells tracks the file *content*: editing
/// the dump re-keys the cell (no stale hits), reverting restores the key,
/// and file specs key differently from synthetic ones.
#[test]
fn file_content_hash_rekeys_the_suite_cache() {
    use pieck_frs::experiments::cache::scenario_key;
    use pieck_frs::experiments::{paper_scenario, PaperDataset};
    use pieck_frs::model::ModelKind;

    let path = std::env::temp_dir().join("pieck_frs_cache_key_u.data");
    write_fixture(&path);
    let dataset = PaperDataset::File(path.to_string_lossy().into_owned());
    let cfg = paper_scenario(dataset, ModelKind::Mf, 1.0, 5);

    let original = scenario_key(&cfg);
    assert_ne!(
        original,
        scenario_key(&paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 1.0, 5)),
        "file-backed and synthetic cells never collide"
    );

    // Append one interaction: same path, different bytes ⇒ different key.
    let unedited = std::fs::read(&path).unwrap();
    let mut edited = unedited.clone();
    edited.extend_from_slice(b"39\t7\t5\t0\n");
    std::fs::write(&path, &edited).unwrap();
    let after_edit = scenario_key(&cfg);
    assert_ne!(original, after_edit, "editing the dump must re-key");

    // Reverting the bytes restores the original key.
    std::fs::write(&path, &unedited).unwrap();
    assert_eq!(original, scenario_key(&cfg));

    std::fs::remove_file(&path).ok();
}
