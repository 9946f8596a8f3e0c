//! `serve-mixed`: an in-process `frs_serve` TCP gateway hosting the two
//! scenarios `paper serve --scenario mf=mf --scenario ncf=ncf` trains
//! (scale 0.25, trained during set-up) on a one-worker `CoreBudget` lease,
//! driven open-loop over one connection with zipf user keys routed
//! uniformly across both scenarios.

use std::net::SocketAddr;
use std::sync::Arc;

use frs_experiments::scenario::{build_simulation, build_world};
use frs_experiments::{paper_scenario, PaperDataset};
use frs_federation::CoreBudget;
use frs_loadtest::{KeyDist, KeySampler};
use frs_model::ModelKind;
use frs_serve::{Request, Router, ScenarioHandle, ServerHandle, Snapshot, TopKResponse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{self, Outcome, Step};
use crate::{clock, mem, stats, Args, Run};

const SCENARIOS: [(&str, ModelKind); 2] = [("mf", ModelKind::Mf), ("ncf", ModelKind::Ncf)];
const LOW_RATE: f64 = 500.0;
const HIGH_RATE: f64 = 2000.0;
const RAMP: [f64; 7] = [1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0];
const LIMIT_MS: f64 = 50.0;
const BACKLOG_TOLERANCE: f64 = 0.05;
const K: usize = 10;
/// Requests in flight during a closed-loop burst: enough that the worker
/// always has a request buffered, so a burst measures answer CPU rather
/// than idle polls.
const WINDOW: usize = 64;
/// Closed-loop bursts per run; `total_s` is their median. Bursts of one
/// run spread 0.25–0.45 s on a 2-vCPU host, so five left the median
/// drifting ~20% between runs.
const BURSTS: usize = 20;

/// Trains both scenarios and boots the daemon on a one-worker lease.
fn set_up(seed: u64) -> (ServerHandle, SocketAddr) {
    let handles = SCENARIOS
        .iter()
        .map(|&(name, kind)| {
            let cfg = paper_scenario(PaperDataset::Ml100k, kind, 0.25, seed);
            let (_full, split, targets) = build_world(&cfg);
            let train = Arc::new(split.train.clone());
            let mut sim = build_simulation(&cfg, Arc::clone(&train), &targets);
            sim.run(cfg.rounds);
            let snapshot = Snapshot::new(
                cfg.rounds,
                true,
                sim.model().clone(),
                sim.user_embeddings(),
                train,
            );
            Arc::new(ScenarioHandle::new(name, snapshot))
        })
        .collect();
    let router = Arc::new(Router::new(handles).expect("two distinct scenario names"));
    let server = frs_serve::spawn_tcp("127.0.0.1:0", router, CoreBudget::new(1).lease())
        .expect("bind a loopback port");
    let addr = server.local_addr().expect("tcp daemon has an address");
    (server, addr)
}

/// A seeded request stream: zipf users, scenarios uniform.
fn requests(rng: &mut StdRng, sampler: &KeySampler, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let user = sampler.sample(rng);
            let (name, _) = SCENARIOS[rng.gen_range(0..SCENARIOS.len())];
            serde_json::to_string(&Request::top_k_in(name, user, K)).expect("request serializes")
        })
        .collect()
}

/// The response `respond_line` gives for a query, computed from the snapshot.
fn expected_response(router: &Router, line: &str) -> Option<String> {
    let req: Request = serde_json::from_str(line).ok()?;
    let handle = router.resolve(req.scenario.as_deref()).ok()?;
    let snapshot = handle.latest();
    let user = req.user?;
    let k = req.k.unwrap_or(K);
    let items = snapshot.top_k(user, k).ok()?;
    serde_json::to_string(&TopKResponse {
        user,
        k,
        round: snapshot.round(),
        training_done: snapshot.training_done(),
        items,
        scenario: handle.name().to_string(),
    })
    .ok()
}

/// Checks an outcome's responses: every one parses as a top-K answer, and
/// every `stride`-th (from a seeded offset) equals `Snapshot::top_k`.
/// Returns the number of requests failing a check (transport failures are
/// already counted in the outcome).
fn check_responses(router: &Router, lines: &[String], out: &Outcome, rng: &mut StdRng) -> usize {
    let stride = 25;
    let offset = rng.gen_range(0..stride);
    let mut bad = 0;
    for (i, (line, resp)) in lines.iter().zip(&out.responses).enumerate() {
        let Some(resp) = resp else { continue };
        let parses = serde_json::from_str::<TopKResponse>(resp).is_ok();
        let matches =
            i % stride != offset || expected_response(router, line).as_deref() == Some(resp);
        if out.latency_ms[i].is_some() && !(parses && matches) {
            bad += 1;
        }
    }
    bad
}

struct Phases {
    low_lines: Vec<String>,
    high_lines: Vec<String>,
    low: Outcome,
    high: Outcome,
}

fn open_loop_phases(
    addr: SocketAddr,
    rng: &mut StdRng,
    sampler: &KeySampler,
    seconds: f64,
) -> Phases {
    let low_lines = requests(rng, sampler, (LOW_RATE * 0.4 * seconds) as usize);
    let high_lines = requests(rng, sampler, (HIGH_RATE * 0.2 * seconds) as usize);
    let low = load::open_loop(addr, &low_lines, LOW_RATE);
    let high = load::open_loop(addr, &high_lines, HIGH_RATE);
    Phases {
        low_lines,
        high_lines,
        low,
        high,
    }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new("serve-mixed");
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E4E);
    let seconds = args.seconds as f64;

    let mut setups = Vec::new();
    let mut daemon = None;
    let n_setups = if args.trace { 1 } else { 3 };
    for _ in 0..n_setups {
        if let Some((server, _)) = daemon.take() {
            ServerHandle::shutdown(server);
        }
        let t = clock::now();
        daemon = Some(set_up(args.seed));
        setups.push(clock::secs_since(t));
    }
    let (server, addr) = daemon.expect("set up at least once");
    let router = Arc::clone(server.router());
    let n_users = router
        .scenarios()
        .iter()
        .map(|h| h.latest().n_users())
        .min()
        .expect("two scenarios");
    let sampler = KeySampler::new(&KeyDist::Zipf(1.0), n_users).expect("users to sample");

    let phases = open_loop_phases(addr, &mut rng, &sampler, seconds);
    if args.trace {
        traced(&router, &phases, &mut run, args);
        let bad = check_responses(&router, &phases.low_lines, &phases.low, &mut rng)
            + check_responses(&router, &phases.high_lines, &phases.high, &mut rng);
        let attempted = phases.low.attempted() + phases.high.attempted();
        let failed = phases.low.failed() + phases.high.failed() + bad;
        run.metric(
            "serve.answered",
            (attempted - failed) as f64,
            "count",
            attempted,
        );
        run.metric("serve.errors", failed as f64, "count", attempted);
        run.check(
            "every response parses and sampled responses equal Snapshot::top_k",
            bad == 0,
        );
        run.ops(attempted, failed);
        server.shutdown();
        return run;
    }

    // Each burst's answers are checked, and then dropped, as it ends, so
    // the load side holds one burst at a time.
    let mut bad = 0;
    let mut attempted = 0;
    let mut failed = 0;
    let mut burst_s = Vec::with_capacity(BURSTS);
    for _ in 0..BURSTS {
        let lines = requests(&mut rng, &sampler, (300.0 * seconds) as usize);
        let out = load::closed_loop(addr, &lines, WINDOW);
        bad += check_responses(&router, &lines, &out, &mut rng);
        attempted += out.attempted();
        failed += out.failed();
        burst_s.push(out.wall_s);
    }
    // Read before the ramp: how far the ramp climbs (and so how many
    // answers it holds) varies with capacity.
    let peak = mem::read().peak_mb;
    let mut ramp_ops = (0, 0);
    let (steps, capacity) = load::ramp(&RAMP, LIMIT_MS, BACKLOG_TOLERANCE, |rate| {
        let lines = requests(&mut rng, &sampler, (rate * 0.1 * seconds) as usize);
        let out = load::open_loop(addr, &lines, rate);
        ramp_ops.0 += out.attempted();
        ramp_ops.1 += out.failed();
        Step::from_outcome(rate, &out)
    });

    bad += check_responses(&router, &phases.low_lines, &phases.low, &mut rng)
        + check_responses(&router, &phases.high_lines, &phases.high, &mut rng);
    attempted += phases.low.attempted() + phases.high.attempted() + ramp_ops.0;
    failed += phases.low.failed() + phases.high.failed() + ramp_ops.1 + bad;

    let low = stats::summarize(&phases.low.charged_latency_ms()).expect("low-rate samples");
    let high = stats::summarize(&phases.high.charged_latency_ms()).expect("high-rate samples");
    run.metric("setup_s", stats::median(&setups), "s", setups.len());
    run.metric("total_s", stats::median(&burst_s), "s", burst_s.len());
    run.metric("p50_ms", low.p50, "ms", low.n);
    run.metric("peak_rss_mb", peak, "MiB", 1);
    run.metric("p50_ms.low", low.p50, "ms", low.n);
    run.metric(&format!("p{}_ms.low", low.tail_pct), low.tail, "ms", low.n);
    run.metric("p50_ms.high", high.p50, "ms", high.n);
    run.metric(
        &format!("p{}_ms.high", high.tail_pct),
        high.tail,
        "ms",
        high.n,
    );
    run.metric(
        "capacity_qps",
        capacity.unwrap_or(0.0),
        "req/s",
        steps.len(),
    );
    for step in &steps {
        run.note(format!(
            "ramp {:>6.0} req/s: p99 {:.2} ms, answered {:.0} req/s{}",
            step.offered,
            step.p99_ms,
            step.answered_rate,
            if step.meets(LIMIT_MS, BACKLOG_TOLERANCE) {
                ""
            } else {
                "  <- misses"
            }
        ));
    }
    for (phase, out) in [("low", &phases.low), ("high", &phases.high)] {
        let (p99, max) = load::lateness_summary(&out.lateness_ms);
        run.metric(
            &format!("lateness_ms.{phase}.p99"),
            p99,
            "ms",
            out.lateness_ms.len(),
        );
        run.metric(
            &format!("lateness_ms.{phase}.max"),
            max,
            "ms",
            out.lateness_ms.len(),
        );
    }
    run.check(
        "every response parses and sampled responses equal Snapshot::top_k",
        bad == 0,
    );
    run.ops(attempted, failed);
    server.shutdown();
    run
}

/// The in-process replay of the open-loop streams: each request through
/// parse, route, top-K and serialize in spans, checked byte for byte
/// against `respond_line`, which is timed on its own.
fn traced(router: &Router, phases: &Phases, run: &mut Run, args: &Args) {
    let lines: Vec<&String> = phases.low_lines.iter().chain(&phases.high_lines).collect();
    let t = clock::now();
    let mut respond_us = Vec::with_capacity(lines.len());
    let mut answers = Vec::with_capacity(lines.len());
    for line in &lines {
        let t = clock::now();
        let answer = frs_serve::respond_line(line, router);
        respond_us.push(clock::ms_since(t) * 1e3);
        answers.push(answer);
    }
    let untraced_s = clock::secs_since(t);

    let mut tr = crate::trace::Tracer::new(clock::now());
    let t = clock::now();
    let mut identical = true;
    for (id, (line, answer)) in lines.iter().zip(&answers).enumerate() {
        let id = id as u64;
        let bytes = tr.span("serve.request", id, |tr| {
            let req: Request = tr
                .span("serve.parse_us", id, |_| serde_json::from_str(line))
                .ok()?;
            let handle = tr
                .span("serve.route_us", id, |_| {
                    router.resolve(req.scenario.as_deref())
                })
                .ok()?;
            let snapshot = handle.latest();
            let user = req.user?;
            let k = req.k.unwrap_or(K);
            let top_span = format!("serve.top_k_us.{}", handle.name());
            let items = tr.span(&top_span, id, |_| snapshot.top_k(user, k)).ok()?;
            tr.span("serve.serialize_us", id, |_| {
                serde_json::to_string(&TopKResponse {
                    user,
                    k,
                    round: snapshot.round(),
                    training_done: snapshot.training_done(),
                    items,
                    scenario: handle.name().to_string(),
                })
            })
            .ok()
        });
        identical &= bytes.as_deref() == Some(answer.as_str());
    }
    let traced_s = clock::secs_since(t);
    run.check(
        "replayed responses are byte-identical to respond_line",
        identical,
    );

    for name in [
        "serve.parse_us",
        "serve.route_us",
        "serve.top_k_us.mf",
        "serve.top_k_us.ncf",
        "serve.serialize_us",
    ] {
        let us: Vec<f64> = tr.durations_ms(name).iter().map(|ms| ms * 1e3).collect();
        if !us.is_empty() {
            run.metric(name, stats::median(&us), "us", us.len());
        }
    }
    let mut sorted = respond_us.clone();
    sorted.sort_by(f64::total_cmp);
    let respond_p50 = stats::percentile(&sorted, 50);
    run.metric("serve.respond_us.p50", respond_p50, "us", sorted.len());
    run.metric(
        "serve.respond_us.p99",
        stats::percentile(&sorted, 99),
        "us",
        sorted.len(),
    );
    for (phase, out) in [("low", &phases.low), ("high", &phases.high)] {
        let e2e = stats::median(&out.charged_latency_ms());
        run.metric(
            &format!("serve.wait_ms.{phase}"),
            e2e - respond_p50 / 1e3,
            "ms",
            out.attempted(),
        );
        let (p99, max) = load::lateness_summary(&out.lateness_ms);
        run.metric(
            &format!("load.lateness_ms.{phase}.p99"),
            p99,
            "ms",
            out.lateness_ms.len(),
        );
        run.metric(
            &format!("load.lateness_ms.{phase}.max"),
            max,
            "ms",
            out.lateness_ms.len(),
        );
    }
    run.metric("trace.overhead", traced_s / untraced_s, "x", 1);
    run.spans(&tr, args);
}
