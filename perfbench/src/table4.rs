//! `table4`: the paper's Table IV grid through `PaperCommand::Table4` — 8
//! defenses × {A-HUM, PIECK-IPE, PIECK-UEA} × {MF-FRS, DL-FRS} on the
//! ML-100K-like preset at `--scale 0.25`, 150 rounds, 48 cells, no cache,
//! a core budget of one thread.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use frs_attacks::AttackKind;
use frs_defense::DefenseKind;
use frs_experiments::paper::PaperCommand;
use frs_experiments::scenario::{build_simulation, build_world};
use frs_experiments::{
    scenario_key, CellEvent, CommonArgs, ExecOptions, ExperimentSuite, MemorySink,
    ScenarioCheckpoint, ScenarioConfig, SuiteCache, Sweep,
};
use frs_model::ModelKind;

use crate::replay::{self, Replay};
use crate::trace::Tracer;
use crate::{clock, mem, stats, Args, Run};

/// Set-up passes over the grid per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Cell workers (`--threads`). On a 2-vCPU host, back-to-back five-seed
/// probes spread the grid's wall and its median cell 13–17% (IQR ÷ median)
/// with two workers, whose cells slowed each other, and 2% with one.
const THREADS: usize = 1;

fn args_for(seed: u64) -> CommonArgs {
    CommonArgs::parse_from([
        "table4".to_string(),
        "--seed".into(),
        seed.to_string(),
        "--threads".into(),
        THREADS.to_string(),
    ])
    .expect("table4 arguments parse")
}

/// The Table IV grid, declared as `paper table4` declares it; each cell's
/// cache key is checked against the run's `CellEvent`s, so a drift between
/// this copy and the program shows as a failed check.
fn cells(args: &CommonArgs) -> Vec<ScenarioConfig> {
    let mut suite = ExperimentSuite::new("table4", "Table IV");
    for kind in [ModelKind::Mf, ModelKind::Ncf] {
        suite = suite.sweep(
            Sweep::new(format!("defenses-{}", kind.label()), "")
                .over_models([kind])
                .over_attacks([AttackKind::AHum, AttackKind::PieckIpe, AttackKind::PieckUea])
                .over_defenses(DefenseKind::all()),
        );
    }
    suite
        .cells(&args.run_options())
        .into_iter()
        .map(|c| c.config)
        .collect()
}

/// One pass of set-up over the grid: every cell's world and simulation.
fn set_up_grid(configs: &[ScenarioConfig]) -> f64 {
    let t = clock::now();
    for cfg in configs {
        let (_full, split, targets) = build_world(cfg);
        let sim = build_simulation(cfg, Arc::new(split.train.clone()), &targets);
        std::hint::black_box(sim.n_clients());
    }
    clock::secs_since(t)
}

/// The untraced `paper table4` run: its report text, cell events and wall.
struct GridRun {
    report: String,
    events: Vec<CellEvent>,
    total_s: f64,
}

fn run_grid(args: &CommonArgs) -> Result<GridRun, String> {
    let sink = MemorySink::new();
    let exec = ExecOptions {
        sink: Some(&sink),
        ..ExecOptions::default()
    };
    let t = clock::now();
    let report = PaperCommand::Table4.run(args, &exec)?;
    let total_s = clock::secs_since(t);
    let mut events = sink.events();
    events.sort_by_key(|e| e.index);
    Ok(GridRun {
        report: report.to_markdown(),
        events,
        total_s,
    })
}

/// Per-cell verdicts: the event exists, carries the key of the declared
/// cell, and reports finite ER/HR.
fn check_cells(configs: &[ScenarioConfig], events: &[CellEvent]) -> Vec<bool> {
    configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let matching: Vec<&CellEvent> = events.iter().filter(|e| e.index == i).collect();
            matching.len() == 1
                && matching[0].key == scenario_key(cfg)
                && matching[0].total == configs.len()
                && matching[0].er_percent.is_finite()
                && matching[0].hr_percent.is_finite()
        })
        .collect()
}

/// Compares the report's SHA-256 with the one an earlier run of the same
/// seed left in the output directory (recording it when none did).
fn report_repeats(report: &str, seed: u64) -> (bool, String) {
    let digest = frs_experiments::cache::sha256_hex(report.as_bytes());
    let path = crate::out_dir().join(format!("table4-seed{seed}.report.sha256"));
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let same = previous.trim() == digest;
            (
                same,
                format!("report bytes identical to the earlier run of seed {seed}"),
            )
        }
        Err(_) => {
            let written = std::fs::write(&path, &digest).is_ok();
            (
                written,
                format!("report digest {digest} recorded for later runs of seed {seed}"),
            )
        }
    }
}

pub fn run(args: &Args) -> Run {
    let cli = args_for(args.seed);
    let configs = cells(&cli);
    let mut run = Run::new("table4");

    let setups: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        (0..SETUPS).map(|_| set_up_grid(&configs)).collect()
    };
    let grid = match run_grid(&cli) {
        Ok(grid) => grid,
        Err(e) => {
            run.check(&format!("paper table4 runs ({e})"), false);
            run.ops(configs.len(), configs.len());
            return run;
        }
    };
    let peak_mb = mem::read().peak_mb;
    let verdicts = check_cells(&configs, &grid.events);
    let cells_ok = verdicts.iter().all(|&ok| ok);
    run.check(
        &format!(
            "{} cells reported with their declared keys and finite ER/HR",
            configs.len()
        ),
        cells_ok,
    );
    let (repeats, what) = report_repeats(&grid.report, args.seed);
    run.check(&what, repeats);
    let mut failed = verdicts.iter().filter(|&&ok| !ok).count();

    let wall_ms: Vec<f64> = grid.events.iter().map(|e| e.wall_ms).collect();
    if args.trace {
        let replay_ok = traced(&configs, &grid, &mut run, args);
        failed += replay_ok.iter().filter(|&&ok| !ok).count();
    } else {
        let cell = stats::summarize(&wall_ms).expect("48 cells");
        run.metric("setup_s", stats::median(&setups), "s", setups.len());
        run.metric("total_s", grid.total_s, "s", 1);
        // The cells come in clusters of three attacks per defense and model,
        // and the plain median of 48 sits on a gap between two clusters.
        run.metric(
            "p50_ms",
            stats::harrell_davis_median(&wall_ms),
            "ms",
            cell.n,
        );
        run.metric(
            &format!("cell_p{}_ms", cell.tail_pct),
            cell.tail,
            "ms",
            cell.n,
        );
        run.metric("peak_rss_mb", peak_mb, "MiB", 1);
    }
    if !repeats {
        failed = configs.len();
    }
    run.ops(configs.len(), failed.min(configs.len()));
    run
}

/// Replays every cell through the public per-layer calls, in parallel
/// over as many workers as the suite, and checks each cell's ER/HR against
/// its `CellEvent`. Returns the per-cell verdicts.
fn traced(configs: &[ScenarioConfig], grid: &GridRun, run: &mut Run, args: &Args) -> Vec<bool> {
    let epoch = clock::now();
    let next = AtomicUsize::new(0);
    let verdicts = Mutex::new(vec![false; configs.len()]);
    let score_us: Mutex<[Vec<f64>; 2]> = Mutex::new([Vec::new(), Vec::new()]);
    let t = clock::now();
    let tracers: Vec<Tracer> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = Tracer::new(epoch);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(cfg) = configs.get(i) else { break };
                        let (er, hr, us) = replay_cell(cfg, i as u64, &mut tr);
                        let event = grid.events.iter().find(|e| e.index == i);
                        let ok = event.is_some_and(|e| e.er_percent == er && e.hr_percent == hr);
                        verdicts.lock().expect("verdicts poisoned")[i] = ok;
                        let slot = usize::from(cfg.model.kind == ModelKind::Ncf);
                        score_us.lock().expect("scores poisoned")[slot].extend(us);
                    }
                    tr
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay worker panicked"))
            .collect()
    });
    let replay_s = clock::secs_since(t);
    let mut tr = Tracer::new(epoch);
    for other in tracers {
        tr.absorb(other);
    }
    let verdicts = verdicts.into_inner().expect("verdicts poisoned");
    run.check(
        "replayed ER/HR of every cell equal its CellEvent",
        verdicts.iter().all(|&ok| ok),
    );

    let mut names: Vec<String> = [
        "data.generate_ms",
        "data.split_ms",
        "federation.pool_init_ms",
        "model.client_ms.mf",
        "model.client_ms.ncf",
        "defense.regularized_client_ms",
        "attacks.craft_ms",
        "model.apply_ms",
        "federation.user_embeddings_ms",
        "metrics.exposure_ms",
        "metrics.quality_ms",
    ]
    .map(String::from)
    .to_vec();
    names.extend(
        [
            "none",
            "norm-bound",
            "median",
            "trimmed-mean",
            "krum",
            "multi-krum",
            "bulyan",
        ]
        .map(|rule| format!("defense.aggregate_ms.{rule}")),
    );
    for name in &names {
        let d = tr.durations_ms(name);
        if !d.is_empty() {
            run.metric(name, stats::median(&d), "ms", d.len());
        }
    }
    let [mf_us, ncf_us] = score_us.into_inner().expect("scores poisoned");
    run.metric(
        "model.score_us.mf",
        stats::median(&mf_us),
        "us",
        mf_us.len(),
    );
    run.metric(
        "model.score_us.ncf",
        stats::median(&ncf_us),
        "us",
        ncf_us.len(),
    );

    let wall_ms: Vec<f64> = grid.events.iter().map(|e| e.wall_ms).collect();
    let busy_ms = {
        let mut total = 0.0;
        for ms in &wall_ms {
            total += ms;
        }
        total
    };
    run.metric(
        "experiments.cell_ms.p50",
        stats::harrell_davis_median(&wall_ms),
        "ms",
        wall_ms.len(),
    );
    let max = wall_ms.iter().copied().fold(f64::MIN, f64::max);
    run.metric("experiments.cell_ms.max", max, "ms", wall_ms.len());
    let share = busy_ms / (THREADS as f64 * grid.total_s * 1e3);
    run.metric(
        "experiments.worker_busy_share",
        share,
        "ratio",
        wall_ms.len(),
    );
    checkpoint_round_trip(&configs[0], run);
    run.metric("trace.overhead", replay_s / grid.total_s, "x", 1);
    run.spans(&tr, args);
    verdicts
}

/// Replays one cell: world, pool, rounds, evaluation. Returns its ER and
/// HR (percent) and `scores_for_user` timings (µs) for a user sample.
fn replay_cell(cfg: &ScenarioConfig, id: u64, tr: &mut Tracer) -> (f64, f64, Vec<f64>) {
    let (split, targets) = replay::traced_world(cfg, tr, id);
    let train = Arc::new(split.train.clone());
    let client_span = if cfg.defense.name() == "ours" {
        "defense.regularized_client_ms".to_string()
    } else {
        format!("model.client_ms.{}", model_tag(cfg.model.kind))
    };
    let mut replay = tr.span("federation.pool_init_ms", id, |_| {
        Replay::build(
            cfg,
            Arc::clone(&train),
            &targets,
            cfg.defense.name(),
            &client_span,
        )
    });
    for _ in 0..cfg.rounds {
        replay.round(1, tr);
    }
    let embs = replay.user_embeddings(tr, id);
    let benign = replay.pool.benign_ids();
    let (er, hr) = replay::evaluate(
        tr,
        id,
        &replay.model,
        &embs,
        &benign,
        &split,
        &targets,
        cfg.eval_k,
    );
    let sample: Vec<usize> = benign.iter().copied().step_by(12).collect();
    let (score_us, _) =
        replay::score_and_rank_us(&replay.model, &embs, &train, &sample, cfg.eval_k);
    (er.mean_percent(), hr.hr_percent(), score_us)
}

fn model_tag(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Mf => "mf",
        ModelKind::Ncf => "ncf",
    }
}

/// Persists and reloads one cell's mid-run checkpoint through
/// `SuiteCache`, timing both and recording the sidecar's size.
fn checkpoint_round_trip(cfg: &ScenarioConfig, run: &mut Run) {
    let (_full, split, targets) = build_world(cfg);
    let mut sim = build_simulation(cfg, Arc::new(split.train.clone()), &targets);
    sim.run(10);
    let ckpt = ScenarioCheckpoint {
        trend: Vec::new(),
        sim: sim.capture_checkpoint(),
    };
    let dir = crate::out_dir().join(format!("cache-{}", std::process::id()));
    let key = scenario_key(cfg);
    let ok = match SuiteCache::open(&dir) {
        Ok(cache) => {
            let t = clock::now();
            let stored = cache.store_checkpoint(&key, &ckpt).is_ok();
            run.metric(
                "experiments.checkpoint_store_ms",
                clock::ms_since(t),
                "ms",
                1,
            );
            let bytes = file_len(&dir.join(format!("{key}.ckpt.json")));
            run.metric("experiments.checkpoint_bytes", bytes, "bytes", 1);
            let t = clock::now();
            let loaded = cache.load_checkpoint(&key);
            run.metric(
                "experiments.checkpoint_load_ms",
                clock::ms_since(t),
                "ms",
                1,
            );
            stored && loaded.is_some_and(|l| l.sim.round == ckpt.sim.round)
        }
        Err(_) => false,
    };
    let _ = std::fs::remove_dir_all(&dir);
    run.check("checkpoint store → load round-trips through SuiteCache", ok);
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
