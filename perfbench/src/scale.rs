//! `scale-1m`: the `paper scale` world — 1,000,000 registered clients, 2,000
//! items, about 3M interactions, MF-16, PIECK-UEA at 0.1% malicious,
//! `median:shards=8`, 1,024 clients per round on a core budget of nproc —
//! with a 10k-user stride evaluation.

use std::sync::Arc;

use frs_attacks::AttackKind;
use frs_data::{DataSource, DatasetSpec};
use frs_defense::DefenseSel;
use frs_experiments::paper::PaperCommand;
use frs_experiments::scenario::{build_simulation, build_world};
use frs_experiments::{CommonArgs, ExecOptions, ScenarioConfig};
use frs_federation::{ClientsPerRound, CoreBudget, RoundThreads, Simulation};
use frs_metrics::{ExposureReport, QualityReport};
use frs_model::ModelKind;

use crate::replay::{self, Replay};
use crate::trace;
use crate::{clock, mem, stats, Args, Run};

const N_USERS: usize = 1_000_000;

/// Rounds a run measures: two hundred per `--seconds`, and never fewer
/// than the thousand that leave ten rounds beyond p99. On a shared 2-vCPU
/// host the round p50 of runs seconds apart differed by up to 40%, so the
/// window is as long as the run budget allows.
fn rounds_for(seconds: u64) -> usize {
    usize::try_from(seconds)
        .unwrap_or(usize::MAX)
        .saturating_mul(200)
        .max(1000)
}

/// The configuration `paper scale 1000000 --seed SEED` runs.
pub fn config(seed: u64) -> ScenarioConfig {
    let spec = DatasetSpec {
        name: format!("scale-{N_USERS}"),
        n_users: N_USERS,
        n_items: 2000,
        n_interactions: N_USERS * 3,
        item_zipf_exponent: 0.9,
        user_zipf_exponent: 0.6,
        min_interactions_per_user: 2,
        source: DataSource::Synth,
    };
    let mut cfg = ScenarioConfig::baseline(spec, ModelKind::Mf, seed);
    cfg.attack = AttackKind::PieckUea.into();
    cfg.defense = DefenseSel::parse("median:shards=8").expect("builtin defense spec");
    cfg.malicious_ratio = 0.001;
    cfg.federation.clients_per_round = ClientsPerRound::Count(1024);
    cfg.federation.round_threads = RoundThreads::Auto;
    cfg
}

fn eval_users(n: usize) -> Vec<usize> {
    (0..n).step_by((n / 10_000).max(1)).collect()
}

/// World and simulation, leased a core budget of nproc.
struct World {
    split: frs_data::TrainTestSplit,
    train: Arc<frs_data::Dataset>,
    targets: Vec<u32>,
    sim: Simulation,
}

fn set_up(cfg: &ScenarioConfig, budget: &CoreBudget) -> World {
    let (full, split, targets) = build_world(cfg);
    drop(full);
    let train = Arc::new(split.train.clone());
    let mut sim = build_simulation(cfg, Arc::clone(&train), &targets);
    sim.set_core_lease(Some(budget.lease()));
    World {
        split,
        train,
        targets,
        sim,
    }
}

/// The untraced rounds and evaluation: per-round latencies (ms), eval
/// seconds and the final state digest.
struct Pass {
    round_ms: Vec<f64>,
    rounds_wall_s: f64,
    eval_s: f64,
    digest: String,
    upload_bytes: Vec<f64>,
    items_updated: Vec<f64>,
    malicious: Vec<f64>,
}

fn run_pass(cfg: &ScenarioConfig, world: &mut World, rounds: usize) -> Pass {
    let mut pass = Pass {
        round_ms: Vec::with_capacity(rounds),
        rounds_wall_s: 0.0,
        eval_s: 0.0,
        digest: String::new(),
        upload_bytes: Vec::with_capacity(rounds),
        items_updated: Vec::with_capacity(rounds),
        malicious: Vec::with_capacity(rounds),
    };
    let start = clock::now();
    for _ in 0..rounds {
        let t = clock::now();
        let stats = world.sim.run_round();
        pass.round_ms.push(clock::ms_since(t));
        pass.upload_bytes.push(stats.upload_bytes as f64);
        pass.items_updated.push(stats.n_items_updated as f64);
        pass.malicious.push(stats.n_malicious_selected as f64);
    }
    pass.rounds_wall_s = clock::secs_since(start);
    let t = clock::now();
    let users = eval_users(world.train.n_users());
    let embs = world.sim.user_embeddings();
    let sim = &world.sim;
    let er = ExposureReport::compute(
        sim.model(),
        &embs,
        &users,
        &world.train,
        &world.targets,
        cfg.eval_k,
    );
    let hr = QualityReport::compute(sim.model(), &embs, &users, &world.split, cfg.eval_k);
    std::hint::black_box((er.mean_percent(), hr.hr_percent()));
    pass.eval_s = clock::secs_since(t);
    pass.digest = replay::state_digest(sim.model(), &embs, &users);
    pass
}

/// The digest `paper scale` reports for the same population, rounds and seed.
fn paper_scale_digest(seed: u64, rounds: usize) -> Result<String, String> {
    let args = CommonArgs::parse_from([
        "scale".to_string(),
        N_USERS.to_string(),
        "--rounds".into(),
        rounds.to_string(),
        "--seed".into(),
        seed.to_string(),
    ])?;
    let report = PaperCommand::Scale.run(&args, &ExecOptions::default())?;
    report
        .to_markdown()
        .lines()
        .find(|l| l.contains("state digest"))
        .and_then(|l| l.split('|').nth(2))
        .map(|d| d.trim().to_string())
        .ok_or_else(|| "paper scale report has no state digest".into())
}

pub fn run(args: &Args) -> Run {
    let cfg = config(args.seed);
    let budget = CoreBudget::new(crate::nproc());
    let rounds = rounds_for(args.seconds);
    let mut run = Run::new("scale-1m");
    if args.trace {
        return traced(args, &cfg, &budget, rounds, run);
    }

    // Set-up three times; keep the last world.
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..3 {
        drop(world.take());
        let t = clock::now();
        world = Some(set_up(&cfg, &budget));
        setups.push(clock::secs_since(t));
    }
    let mut world = world.expect("set up at least once");
    let pass = run_pass(&cfg, &mut world, rounds);
    let peak = mem::read().peak_mb;
    drop(world);

    let rounds_summary = stats::summarize(&pass.round_ms).expect("≥ 1000 rounds");
    run.metric("setup_s", stats::median(&setups), "s", setups.len());
    let total = setups[setups.len() - 1] + pass.rounds_wall_s + pass.eval_s;
    run.metric("total_s", total, "s", 1);
    run.metric("p50_ms", rounds_summary.p50, "ms", rounds_summary.n);
    run.metric("peak_rss_mb", peak, "MiB", 1);
    run.metric("round_p50_ms", rounds_summary.p50, "ms", rounds_summary.n);
    run.metric(
        &format!("round_p{}_ms", rounds_summary.tail_pct),
        rounds_summary.tail,
        "ms",
        rounds_summary.n,
    );
    run.metric("eval_s", pass.eval_s, "s", 1);

    let expected = paper_scale_digest(args.seed, rounds);
    let ok = expected.as_deref() == Ok(pass.digest.as_str());
    run.check(
        &format!(
            "state digest equals `paper scale` at {rounds} rounds ({})",
            pass.digest
        ),
        ok,
    );
    run.ops(rounds, if ok { 0 } else { rounds });
    run
}

/// The traced run. The traced pass goes first so the `*.rss_mb` readings
/// see a fresh process; the untraced pass then gives the reference state,
/// wall time and round latencies, and the checkpoint round-trip runs last.
fn traced(
    args: &Args,
    cfg: &ScenarioConfig,
    budget: &CoreBudget,
    rounds: usize,
    mut run: Run,
) -> Run {
    let mut tr = trace::Tracer::new(clock::now());
    let (split, targets) = replay::traced_world(cfg, &mut tr, 0);
    let train = Arc::new(split.train.clone());
    run.metric("data.rss_mb", mem::read().rss_mb, "MiB", 1);
    let sim = tr.span("federation.pool_init_ms", 0, |_| {
        build_simulation(cfg, Arc::clone(&train), &targets)
    });
    run.metric("federation.rss_mb", mem::read().rss_mb, "MiB", 1);
    drop(sim);
    let mut replay = Replay::build(
        cfg,
        Arc::clone(&train),
        &targets,
        "median-sharded",
        "model.client_ms.mf",
    );
    let t = clock::now();
    for _ in 0..rounds {
        replay.round(crate::nproc(), &mut tr);
    }
    let users = eval_users(train.n_users());
    let embs = replay.user_embeddings(&mut tr, 0);
    let (er, hr) = replay::evaluate(
        &mut tr,
        0,
        &replay.model,
        &embs,
        &users,
        &split,
        &targets,
        cfg.eval_k,
    );
    std::hint::black_box((er.mean_percent(), hr.hr_percent()));
    let traced_s = clock::secs_since(t);
    let replay_digest = replay::state_digest(&replay.model, &embs, &users);
    let sample: Vec<usize> = users.iter().copied().step_by(10).collect();
    let (score_us, rank_us) =
        replay::score_and_rank_us(&replay.model, &embs, &train, &sample, cfg.eval_k);
    run.metric(
        "model.score_us.mf",
        stats::median(&score_us),
        "us",
        score_us.len(),
    );
    run.metric(
        "linalg.top_k_us",
        stats::median(&rank_us),
        "us",
        rank_us.len(),
    );
    run.metric("metrics.users_evaluated", users.len() as f64, "count", 1);
    drop((replay, embs, split, train));

    let mut world = set_up(cfg, budget);
    let pass = run_pass(cfg, &mut world, rounds);
    let untraced_s = pass.rounds_wall_s + pass.eval_s;
    let same = replay_digest == pass.digest;
    run.check("traced replay ends on the untraced state digest", same);

    // Checkpoint capture → rebuild → restore, then one more round on both.
    let t = clock::now();
    let ckpt = world.sim.capture_checkpoint();
    run.metric(
        "federation.checkpoint_capture_ms",
        clock::ms_since(t),
        "ms",
        1,
    );
    let t = clock::now();
    let mut restored = build_simulation(cfg, Arc::clone(&world.train), &world.targets);
    let restore = restored.restore_checkpoint(&ckpt);
    run.metric("federation.restore_ms", clock::ms_since(t), "ms", 1);
    drop(ckpt);
    restored.set_core_lease(Some(budget.lease()));
    let digest_of =
        |sim: &Simulation| replay::state_digest(sim.model(), &sim.user_embeddings(), &users);
    let restored_ok = restore.is_ok() && digest_of(&restored) == pass.digest;
    run.check(
        "restored digest equals the pre-checkpoint digest",
        restored_ok,
    );
    world.sim.run_round();
    restored.run_round();
    let further_ok = digest_of(&world.sim) == digest_of(&restored);
    run.check("one further round matches on both", further_ok);

    // Everything in a round the four layer spans do not cover: sampling,
    // sorting and bookkeeping.
    let mut layered = vec![0.0; rounds];
    for name in [
        "model.client_ms.mf",
        "attacks.craft_ms",
        "defense.aggregate_ms.median-sharded",
        "model.apply_ms",
    ] {
        for (sum, ms) in layered.iter_mut().zip(tr.durations_ms(name)) {
            *sum += ms;
        }
    }
    let other = stats::median(&pass.round_ms) - stats::median(&layered);
    run.metric("federation.round_other_ms", other, "ms", rounds);
    for name in [
        "data.generate_ms",
        "data.split_ms",
        "federation.pool_init_ms",
        "model.client_ms.mf",
        "attacks.craft_ms",
        "defense.aggregate_ms.median-sharded",
        "model.apply_ms",
        "federation.user_embeddings_ms",
        "metrics.exposure_ms",
        "metrics.quality_ms",
    ] {
        let d = tr.durations_ms(name);
        run.metric(name, stats::median(&d), "ms", d.len());
    }
    run.metric(
        "federation.upload_bytes_per_round",
        stats::median(&pass.upload_bytes),
        "bytes",
        rounds,
    );
    run.metric(
        "federation.items_updated_per_round",
        stats::median(&pass.items_updated),
        "count",
        rounds,
    );
    run.metric(
        "federation.malicious_per_round",
        mean(&pass.malicious),
        "count",
        rounds,
    );
    run.metric("trace.overhead", traced_s / untraced_s, "x", 1);
    run.spans(&tr, args);
    let ok = same && restored_ok && further_ok;
    run.ops(rounds, if ok { 0 } else { rounds });
    run
}

fn mean(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for x in xs {
        total += x;
    }
    total / xs.len().max(1) as f64
}
