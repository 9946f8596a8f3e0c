//! The repository benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale-1m|table4|serve-mixed|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`) runs drive only the program's top-level entry
//! points and report the end-to-end metrics; traced runs replay the same
//! work through each layer's public calls with spans around them and
//! report the per-layer metrics and the tracing overhead. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! every workload in a child process of its own, one after another.
//! See `perfbench/README.md` for what each metric measures.

mod clock;
mod load;
mod mem;
mod replay;
mod scale;
mod serve;
mod stats;
mod table4;
mod trace;

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["scale-1m", "table4", "serve-mixed"];

/// The end-to-end metrics every untraced run reports (`BENCHMARK.json`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("total_s", "s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports (`BENCHMARK.json`); a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("data.generate_ms", "ms"),
    ("data.split_ms", "ms"),
    ("data.rss_mb", "MiB"),
    ("federation.pool_init_ms", "ms"),
    ("federation.rss_mb", "MiB"),
    ("federation.round_other_ms", "ms"),
    ("federation.upload_bytes_per_round", "bytes"),
    ("federation.items_updated_per_round", "count"),
    ("federation.malicious_per_round", "count"),
    ("federation.user_embeddings_ms", "ms"),
    ("federation.checkpoint_capture_ms", "ms"),
    ("federation.restore_ms", "ms"),
    ("model.client_ms.mf", "ms"),
    ("model.client_ms.ncf", "ms"),
    ("model.apply_ms", "ms"),
    ("model.score_us.mf", "us"),
    ("model.score_us.ncf", "us"),
    ("attacks.craft_ms", "ms"),
    ("defense.aggregate_ms.none", "ms"),
    ("defense.aggregate_ms.norm-bound", "ms"),
    ("defense.aggregate_ms.median", "ms"),
    ("defense.aggregate_ms.trimmed-mean", "ms"),
    ("defense.aggregate_ms.krum", "ms"),
    ("defense.aggregate_ms.multi-krum", "ms"),
    ("defense.aggregate_ms.bulyan", "ms"),
    ("defense.aggregate_ms.median-sharded", "ms"),
    ("defense.regularized_client_ms", "ms"),
    ("metrics.exposure_ms", "ms"),
    ("metrics.quality_ms", "ms"),
    ("metrics.users_evaluated", "count"),
    ("linalg.top_k_us", "us"),
    ("experiments.cell_ms.p50", "ms"),
    ("experiments.cell_ms.max", "ms"),
    ("experiments.worker_busy_share", "ratio"),
    ("experiments.checkpoint_store_ms", "ms"),
    ("experiments.checkpoint_load_ms", "ms"),
    ("experiments.checkpoint_bytes", "bytes"),
    ("serve.parse_us", "us"),
    ("serve.route_us", "us"),
    ("serve.top_k_us.mf", "us"),
    ("serve.top_k_us.ncf", "us"),
    ("serve.serialize_us", "us"),
    ("serve.respond_us.p50", "us"),
    ("serve.respond_us.p99", "us"),
    ("serve.wait_ms.low", "ms"),
    ("serve.wait_ms.high", "ms"),
    ("serve.answered", "count"),
    ("serve.errors", "count"),
    ("load.lateness_ms.low.p99", "ms"),
    ("load.lateness_ms.low.max", "ms"),
    ("load.lateness_ms.high.p99", "ms"),
    ("load.lateness_ms.high.max", "ms"),
    ("trace.overhead", "x"),
    ("trace.spans", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload scale-1m|table4|serve-mixed|all --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be ≥ 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}; use 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker threads the machine offers: the core budget and load-side cap.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where runs leave their spans and report digests (git-ignored).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out in the working directory");
    dir
}

struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
}

/// What one workload run measured and checked.
pub struct Run {
    workload: &'static str,
    metrics: Vec<Metric>,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Run {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Operations attempted and failed (rounds, cells or requests).
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted = attempted;
        self.failed = failed;
    }

    /// Writes the spans out and records their self-time table.
    pub fn spans(&mut self, tr: &trace::Tracer, args: &Args) {
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", self.workload, args.seed));
        let written = tr.write_jsonl(&path).is_ok();
        self.check(&format!("spans written to {}", path.display()), written);
        let table = trace::self_time_table(tr.spans());
        let mut rows: Vec<(&String, &(usize, u64, u64))> = table.iter().collect();
        rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
        self.note(format!(
            "{:<40} {:>9} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms"
        ));
        for (name, &(calls, total, own)) in rows {
            self.note(format!(
                "{name:<40} {calls:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        self.metric("trace.spans", tr.spans().len() as f64, "count", 1);
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every check passed. Failed operations are reported in `failed`.
    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.attempted > 0
    }

    /// Prints the human-readable report and then the result line.
    fn print(&self, trace: bool) {
        let mode = if trace { "traced" } else { "untraced" };
        println!("== {} ({mode})", self.workload);
        for m in &self.metrics {
            println!(
                "  {:<40} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<40} {:>16.6} {:<6} n={}",
            "error_rate", rate, "ratio", self.attempted
        );
        for (what, ok) in &self.checks {
            println!("  check {:<6} {what}", if *ok { "ok" } else { "FAILED" });
        }
        for note in &self.notes {
            println!("  {note}");
        }
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.correct();
        let mut fields = Vec::new();
        for &(name, unit) in list {
            let value = match self.find(name) {
                Some(m) => m.value,
                None if trace => 0.0,
                None => {
                    correct = false;
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(",")
        );
    }
}

/// `--workload all`: each workload in a child process of its own, so every
/// peak RSS belongs to one workload; the child's lines are passed through.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    let mut summary = Vec::new();
    for workload in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed"])
            .arg(args.seed.to_string())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn workload process");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut last = String::new();
        for line in std::io::BufReader::new(stdout).lines() {
            let line = line.expect("read workload output");
            println!("{line}");
            last = line;
        }
        let status = child.wait().expect("wait for workload process");
        let ok = status.success() && last.starts_with("{\"correct\":true");
        all_ok &= ok;
        summary.push(format!("\"{workload}\":{last}"));
    }
    println!("{{{}}}", summary.join(","));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures memory through procfs; without it, stop now.
    mem::read();
    if args.workload == "all" {
        return run_all(&args);
    }
    let run = match args.workload.as_str() {
        "scale-1m" => scale::run(&args),
        "table4" => table4::run(&args),
        _ => serve::run(&args),
    };
    run.print(args.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload table4 --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("table4", 3, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload table4 --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload table4 --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload table4 --seed 3 --seconds 10 --trace 2")).is_err());
    }

    fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.as_object().and_then(|m| m.get(key)).expect(key)
    }

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = field(&json, key)
                .as_array()
                .expect("metric array")
                .iter()
                .map(|m| {
                    (
                        field(m, "name").as_str().expect("name").to_string(),
                        field(m, "unit").as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = field(&json, "workloads")
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name").as_str().expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
