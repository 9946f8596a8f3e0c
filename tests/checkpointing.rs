//! Integration tests of mid-scenario checkpointing: for every
//! (checkpoint-interval, kill-round) pair, a run hard-killed at the kill
//! round and resumed from its last on-disk checkpoint must finish
//! byte-identical to an uninterrupted run — including stateful attacks
//! (pieck-ipe's popularity-mining state) and the paper's defense, whose
//! per-client memories all ride the checkpoint.
//!
//! The kill is simulated deterministically: with the shutdown flag held,
//! `run_checkpointed` completes exactly one round per call, snapshots, and
//! returns `Err(Interrupted)` — so `m` calls leave on disk precisely the
//! checkpoint a SIGKILL at round `kill` with interval `N` would have left
//! (`m = ⌊kill/N⌋·N`, the last periodic write).

use std::sync::Arc;

use pieck_frs::attacks::AttackKind;
use pieck_frs::defense::DefenseKind;
use pieck_frs::experiments::cache::{scenario_key, SuiteCache};
use pieck_frs::experiments::scenario::{self, CheckpointCtl, ScenarioOutcome};
use pieck_frs::experiments::shutdown;
use pieck_frs::experiments::{paper_scenario, PaperDataset, ScenarioConfig};
use pieck_frs::model::ModelKind;
use proptest::prelude::*;

fn attack_cfg(attack: AttackKind, defense: DefenseKind, rounds: usize) -> ScenarioConfig {
    let mut cfg = paper_scenario(PaperDataset::Ml100k, ModelKind::Mf, 0.05, 11);
    cfg.attack = attack.into();
    cfg.defense = defense.into();
    cfg.rounds = rounds;
    cfg.trend_every = 4;
    cfg
}

fn temp_cache(tag: &str) -> SuiteCache {
    let dir = std::env::temp_dir().join(format!("frs-ckpt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SuiteCache::open(dir).unwrap()
}

/// Everything deterministic about an outcome. `mean_round_time` is wall
/// clock and legitimately differs between a resumed and a straight run.
fn assert_same(reference: &ScenarioOutcome, resumed: &ScenarioOutcome, what: &str) {
    assert_eq!(reference.er_percent, resumed.er_percent, "{what}: ER@K");
    assert_eq!(reference.hr_percent, resumed.hr_percent, "{what}: HR@K");
    assert_eq!(reference.ndcg, resumed.ndcg, "{what}: NDCG");
    assert_eq!(reference.targets, resumed.targets, "{what}: targets");
    assert_eq!(
        reference.total_upload_bytes, resumed.total_upload_bytes,
        "{what}: upload bytes"
    );
    assert_eq!(
        reference.trend.len(),
        resumed.trend.len(),
        "{what}: trend length"
    );
    for (a, b) in reference.trend.iter().zip(&resumed.trend) {
        assert_eq!(
            (a.round, a.er, a.hr),
            (b.round, b.er, b.hr),
            "{what}: trend"
        );
    }
}

/// Drives the simulation to exactly `rounds` completed rounds, leaving that
/// round's checkpoint on disk (one round per call under a held shutdown
/// flag). The caller must hold `shutdown::test_lock`.
fn kill_after(cfg: &ScenarioConfig, ctl: &CheckpointCtl<'_>, rounds: usize) {
    shutdown::trigger();
    for _ in 0..rounds {
        assert!(
            scenario::run_checkpointed(cfg, None, ctl).is_err(),
            "a held shutdown flag must interrupt after one round"
        );
    }
    shutdown::reset();
}

/// Checks the per-user defense state in a checkpoint against `initial`, the
/// benign users' states before any round: a user whose embedding is still
/// the initial draw was never sampled and carries a `Null` ("fresh")
/// regularizer, while every trained user carries its miner's state.
/// Returns how many users were never sampled.
fn unsampled_users_carry_null(initial: &[serde_json::Value], ckpt: &[serde_json::Value]) -> usize {
    fn field<'a>(state: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        &state.as_object().expect("benign state is an object")[key]
    }
    let mut unsampled = 0;
    for (u, (before, now)) in initial.iter().zip(ckpt).enumerate() {
        let regularizer = field(now, "regularizer");
        if field(before, "user_embedding") == field(now, "user_embedding") {
            assert!(
                regularizer.is_null(),
                "never-sampled user {u}: {regularizer:?}"
            );
            unsampled += 1;
        } else {
            assert!(
                !regularizer.is_null(),
                "trained user {u} lost its defense state"
            );
        }
    }
    unsampled
}

/// The exhaustive grid: every interval × kill-round pair over the paper's
/// own attack/defense (stateful on both sides). The resumed outcome —
/// metrics, targets, upload accounting, and the trend including points
/// sampled *before* the kill — matches the uninterrupted run exactly, and
/// completion always retires the checkpoint sidecar. Users not yet sampled
/// at the cut checkpoint a `Null` regularizer and still resume identically.
#[test]
fn every_interval_by_kill_round_pair_resumes_identical() {
    let _guard = shutdown::test_lock();
    shutdown::reset();
    let cfg = attack_cfg(AttackKind::PieckIpe, DefenseKind::Ours, 10);
    let key = scenario_key(&cfg);
    let reference = scenario::run(&cfg);
    let (_, split, targets) = scenario::build_world(&cfg);
    let n_benign = split.train.n_users();
    let initial = scenario::build_simulation(&cfg, Arc::new(split.train), &targets)
        .capture_checkpoint()
        .clients;
    let initial = &initial[..n_benign];
    assert_eq!(unsampled_users_carry_null(initial, initial), n_benign);
    let mut unsampled = 0;

    for interval in [1, 3, 5] {
        for kill_round in [1, 2, 5, 9] {
            let what = format!("interval {interval}, killed at round {kill_round}");
            let cache = temp_cache(&format!("grid-{interval}-{kill_round}"));
            let ctl = CheckpointCtl {
                cache: &cache,
                key: &key,
                every: 0,
                keep: 1,
            };
            // A hard kill at `kill_round` leaves the last periodic write.
            let persisted = kill_round / interval * interval;
            kill_after(&cfg, &ctl, persisted);
            let on_disk = cache.load_checkpoint(&key);
            assert_eq!(
                on_disk.as_ref().map(|c| c.sim.round),
                (persisted > 0).then_some(persisted),
                "{what}: on-disk checkpoint round"
            );
            if let Some(ckpt) = &on_disk {
                unsampled += unsampled_users_carry_null(initial, &ckpt.sim.clients);
            }

            let resumed = scenario::run_checkpointed(
                &cfg,
                None,
                &CheckpointCtl {
                    cache: &cache,
                    key: &key,
                    every: interval,
                    keep: 1,
                },
            )
            .expect("no shutdown requested: the resumed run must finish");
            assert_same(&reference, &resumed, &what);
            assert!(
                cache.load_checkpoint(&key).is_none(),
                "{what}: completion retires the sidecar"
            );
            let _ = std::fs::remove_dir_all(cache.dir());
        }
    }
    assert!(
        unsampled > 0,
        "some cut must precede a user's first sampling"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized slice of the same property across attack/defense
    /// combinations (both PIECK attacks and the unattacked baseline): any
    /// interval, any kill round, same bytes out.
    #[test]
    fn random_kill_points_resume_identical(
        attack_idx in 0usize..3,
        defense_on in any::<bool>(),
        interval in 1usize..=4,
        kill_round in 0usize..8,
    ) {
        let _guard = shutdown::test_lock();
        shutdown::reset();
        let attack = [AttackKind::NoAttack, AttackKind::PieckIpe, AttackKind::PieckUea][attack_idx];
        let defense = if defense_on { DefenseKind::Ours } else { DefenseKind::NoDefense };
        let cfg = attack_cfg(attack, defense, 8);
        let key = scenario_key(&cfg);
        let reference = scenario::run(&cfg);

        let cache = temp_cache(&format!("prop-{attack_idx}-{defense_on}-{interval}-{kill_round}"));
        let ctl = CheckpointCtl { cache: &cache, key: &key, every: 0, keep: 1 };
        kill_after(&cfg, &ctl, kill_round / interval * interval);
        let resumed = scenario::run_checkpointed(
            &cfg,
            None,
            &CheckpointCtl { cache: &cache, key: &key, every: interval, keep: 1 },
        )
        .expect("no shutdown requested: the resumed run must finish");
        assert_same(&reference, &resumed, &format!("{attack:?}/{defense:?}"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
