//! Golden SHA-256 digests of whole training trajectories.
//!
//! Each constant pins the exact final state of one cell — every bit of the
//! item table, the user embeddings and (for DL-FRS) the MLP, plus the
//! upload volume the round loop accounted. A change to how gradients are
//! laid out, accumulated, aggregated or applied that moves a single float
//! operation shows up here as a different digest. The constants are only
//! ever regenerated deliberately, by a change that means to alter results.

use std::sync::Arc;

use pieck_frs::attacks::{AttackKind, AttackSel};
use pieck_frs::defense::{DefenseKind, DefenseSel};
use pieck_frs::experiments::cache::{scenario_key, sha256_hex};
use pieck_frs::experiments::paper::PaperCommand;
use pieck_frs::experiments::scenario::{build_simulation, build_world};
use pieck_frs::experiments::suite::ExecOptions;
use pieck_frs::experiments::{paper_scenario, CommonArgs, PaperDataset};
use pieck_frs::model::ModelKind;

/// `paper scale 50000 --rounds 5`: PIECK-UEA against `median:shards=8`,
/// 1024 sampled clients per round out of 50k registered.
const SCALE_50K: &str = "7848a0d69e361a76ecb72235773c78011f37bb0c780f4be59ae5eed12c467bdb";

/// Suite cache keys of a few cells: the default ML-100K MF scenario and the
/// same scenario under parameterized attack and defense selections. A key
/// moves when the canonical config JSON, a selection's serialized form or
/// the key payload changes — every cached cell would then silently miss.
const CACHE_KEYS: [(&str, &str, &str); 5] = [
    (
        "none",
        "none",
        "44bc61eb43230dad0e8021fd3f9952f9f678cfbf811ee8222673032f00846856",
    ),
    (
        "pieck-uea:scale=2,top_n=20",
        "none",
        "70979fa0ae0f3161cc83674c277120d166d2b1e0f5a836972e259d0133a5b34b",
    ),
    (
        "none",
        "ours:beta=0.9,re2=false",
        "c135cc35c5dcb0e87f5e4f433f074e9bb180e367faadb4812439c52be3d9565a",
    ),
    (
        "none",
        "median:shards=8",
        "9992a7b75d13b1ac3748bae7292acc773a1e69cd13d473e39961a8f27367e487",
    ),
    (
        "ipe-ablation-pkl",
        "none",
        "e0e9f0462d159058a4bc66938456ab45619851f3d61e250fa5e2b77e4f8798da",
    ),
];

/// Small ML-100K-like cells under PIECK-UEA, one per (model, defense).
const CELLS: [(ModelKind, &str, &str); 12] = [
    (
        ModelKind::Mf,
        "none",
        "5eb7c394e43f73c61134b6e6fd3820cae502f308b5f7eb062e9981705340b089",
    ),
    (
        ModelKind::Mf,
        "trimmed-mean",
        "7c93d07cf4c58dad57847d8f4bf3dd6a786663f67dc1d4520a65bd36853b3a7d",
    ),
    (
        ModelKind::Mf,
        "multi-krum",
        "41152813a712d9cafbaef5889c4a1819f009e165a66fa4cc043000c0b76d4cee",
    ),
    (
        ModelKind::Mf,
        "bulyan",
        "a6f107609235fffc09f102b74c9ea3d4022cd512ee08dc93da543d7ab7d64e59",
    ),
    (
        ModelKind::Mf,
        "norm-bound",
        "f39f7311efc9c7605ad0ddf5be3ae576ac381934371de369c6c9a1534ea5f007",
    ),
    (
        ModelKind::Mf,
        "ours",
        "1820107fd2fe8afe63eb1680fc583f5ff2917d5d57f0dba9c9b4c2348be16acb",
    ),
    (
        ModelKind::Ncf,
        "none",
        "6e6d48e4117291a224cea7497844c5e1d282e06e5d8d53bbc48c30741013b5dc",
    ),
    (
        ModelKind::Ncf,
        "trimmed-mean",
        "09e8679480e556f2253105e004752e7a707e101acab93be0b17883388f10478e",
    ),
    (
        ModelKind::Ncf,
        "multi-krum",
        "b6b968a9c606bfd4b62728d6dd2dc528683411fd325323f189b25181485c4067",
    ),
    (
        ModelKind::Ncf,
        "bulyan",
        "520e1f6a5d7d03e8418292b897edf7d710b67c231d50ef452ac7f9f418f6467c",
    ),
    (
        ModelKind::Ncf,
        "norm-bound",
        "d66f484aef910543e45708e99a1db29b117b5a4a6034132519da487c76cc69de",
    ),
    (
        ModelKind::Ncf,
        "ours",
        "7401b0f430d03b04657bca9492cb894c780bb8a203d4254779e99592e1560191",
    ),
];

fn scale_digest() -> String {
    let args = CommonArgs::parse_from(
        ["scale", "50000", "--rounds", "5", "--seed", "7"].map(String::from),
    )
    .expect("scale arguments parse");
    let report = PaperCommand::Scale
        .run(&args, &ExecOptions::default())
        .expect("scale cell runs");
    report
        .to_markdown()
        .lines()
        .find(|l| l.contains("state digest"))
        .and_then(|l| l.split('|').nth(2))
        .map(|d| d.trim().to_string())
        .expect("scale report carries a state digest")
}

/// Runs one small cell for 12 rounds and digests its final state.
fn cell_digest(kind: ModelKind, defense: &str) -> String {
    let mut cfg = paper_scenario(PaperDataset::Ml100k, kind, 0.05, 13);
    cfg.attack = AttackKind::PieckUea.into();
    cfg.defense = DefenseSel::parse(defense).expect("catalog defense");
    cfg.rounds = 12;
    let (_full, split, targets) = build_world(&cfg);
    let train = Arc::new(split.train.clone());
    let mut sim = build_simulation(&cfg, Arc::clone(&train), &targets);
    for _ in 0..cfg.rounds {
        sim.run_round();
    }
    // The model's JSON carries the item table and the MLP exactly (floats
    // print as shortest round-trip decimals); embeddings go in as raw bits.
    let mut state = serde_json::to_string(sim.model())
        .expect("model serializes")
        .into_bytes();
    let embs = sim.user_embeddings();
    for u in sim.benign_ids() {
        for &x in embs.row(u) {
            state.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    state.extend_from_slice(&sim.stats().total_upload_bytes.to_le_bytes());
    sha256_hex(&state)
}

#[test]
fn scale_cell_digest_is_pinned() {
    assert_eq!(scale_digest(), SCALE_50K);
}

#[test]
fn small_cell_digests_are_pinned() {
    // Every pinned defense is a catalog entry.
    for (_, defense, _) in CELLS {
        assert!(
            DefenseKind::all().iter().any(|d| d.name() == defense),
            "{defense}"
        );
    }
    let got: Vec<String> = CELLS
        .iter()
        .map(|&(kind, defense, _)| cell_digest(kind, defense))
        .collect();
    for (&(kind, defense, want), got) in CELLS.iter().zip(&got) {
        assert_eq!(got, want, "{kind:?} under {defense}");
    }
}

#[test]
fn cache_keys_are_pinned() {
    for (attack, defense, want) in CACHE_KEYS {
        let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.05, 13);
        cfg.attack = AttackSel::parse(attack).expect("catalog attack");
        cfg.defense = DefenseSel::parse(defense).expect("catalog defense");
        assert_eq!(scenario_key(&cfg), want, "{attack} / {defense}");
    }
}
