//! The benchmark's own load driver: open-loop request schedules over one
//! TCP connection, timed from each request's due time (so a stall is
//! charged to every request queued behind it), with generator lateness
//! reported alongside, a closed-loop burst, and the capacity ramp.
//!
//! Failures never abort a run: a refused connection, a write or read
//! error, a timeout and an `{"error"…}` response each count as a failed
//! request, and a failed request counts as missing every latency limit.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use frs_loadtest::LogHistogram;

use crate::clock;
use crate::stats;

/// How long one response may take before its request counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(5);

/// What one schedule measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Per request, due time → response received (ms); `None` = failed.
    pub latency_ms: Vec<Option<f64>>,
    /// Per request actually written, send time − due time (ms, ≥ 0).
    pub lateness_ms: Vec<f64>,
    /// Response lines in request order (`None` where none arrived).
    pub responses: Vec<Option<String>>,
    /// Seconds from the first due time to the last response.
    pub wall_s: f64,
}

impl Outcome {
    pub fn attempted(&self) -> usize {
        self.latency_ms.len()
    }

    pub fn failed(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_none()).count()
    }

    pub fn answered(&self) -> usize {
        self.attempted() - self.failed()
    }

    /// Latencies with every failed request charged the full timeout.
    pub fn charged_latency_ms(&self) -> Vec<f64> {
        let cap = TIMEOUT.as_secs_f64() * 1e3;
        self.latency_ms.iter().map(|l| l.unwrap_or(cap)).collect()
    }

    /// Answered requests per second of wall time: a server that keeps up
    /// answers at the offered rate; a growing backlog answers slower.
    pub fn answered_rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.answered() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// When request `i` of a `rate` req/s schedule is due, in seconds.
pub fn due_s(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// Generator lateness: how far each send trailed its due time (ms). A send
/// ahead of schedule counts as on time.
pub fn lateness_ms(due_s: &[f64], sent_s: &[f64]) -> Vec<f64> {
    due_s
        .iter()
        .zip(sent_s)
        .map(|(due, sent)| ((sent - due) * 1e3).max(0.0))
        .collect()
}

/// p99 and max of a lateness series (0 for an empty one).
pub fn lateness_summary(lateness_ms: &[f64]) -> (f64, f64) {
    if lateness_ms.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = lateness_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    (stats::percentile(&sorted, 99), sorted[sorted.len() - 1])
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(TIMEOUT))?;
    Ok((stream, BufReader::new(reader)))
}

/// Reads one response line (without its newline); `None` on EOF, error or
/// timeout.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(line.trim_end_matches('\n').to_string()),
    }
}

fn is_error(line: &str) -> bool {
    line.starts_with("{\"error\"")
}

/// Sends `lines` open-loop at `rate` req/s over one connection: a writer
/// keeps the schedule whatever the daemon does, and a reader times each
/// response from its request's due time.
pub fn open_loop(addr: SocketAddr, lines: &[String], rate: f64) -> Outcome {
    let n = lines.len();
    let mut out = Outcome {
        latency_ms: vec![None; n],
        responses: vec![None; n],
        ..Outcome::default()
    };
    let Ok((mut stream, mut reader)) = connect(addr) else {
        return out;
    };
    // A short lead so the first due time is not already past.
    let start = clock::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(due_s(i, rate));
    // The writer thread allocates nothing (its buffers are made here and
    // moved in) and the responses are read here, so the load side's heap
    // looks the same on every run and `peak_rss_mb` stays comparable.
    let mut buf = Vec::with_capacity(lines.iter().map(String::len).max().unwrap_or(0) + 1);
    let mut sent = Vec::with_capacity(n);
    let (got, sent_s) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            for (i, line) in lines.iter().enumerate() {
                let due_at = due(i);
                let now = clock::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let at = clock::now();
                buf.clear();
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                if stream.write_all(&buf).is_err() {
                    break;
                }
                sent.push(at.duration_since(start).as_secs_f64());
            }
            sent
        });
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            match read_response(&mut reader) {
                Some(line) => got.push((clock::now(), line)),
                None => break,
            }
        }
        (got, writer.join().expect("load writer thread panicked"))
    });
    let mut last_answer: Option<Instant> = None;
    for (i, (at, line)) in got.into_iter().enumerate() {
        if !is_error(&line) {
            out.latency_ms[i] = Some(at.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
            last_answer = Some(at);
        }
        out.responses[i] = Some(line);
    }
    let due_list: Vec<f64> = (0..sent_s.len()).map(|i| due_s(i, rate)).collect();
    out.lateness_ms = lateness_ms(&due_list, &sent_s);
    out.wall_s = last_answer.map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
    out
}

/// Sends `lines` closed-loop with `window` requests in flight over one
/// connection: a new request goes out only when a response comes back.
/// Latency is timed from each request's send.
pub fn closed_loop(addr: SocketAddr, lines: &[String], window: usize) -> Outcome {
    let n = lines.len();
    let mut out = Outcome {
        latency_ms: vec![None; n],
        responses: vec![None; n],
        ..Outcome::default()
    };
    let Ok((mut stream, mut reader)) = connect(addr) else {
        return out;
    };
    let start = clock::now();
    let mut sent_at = Vec::with_capacity(n);
    let send = |stream: &mut TcpStream, line: &str| -> bool {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        stream.write_all(&bytes).is_ok()
    };
    let mut next = 0;
    while next < n.min(window) {
        if !send(&mut stream, &lines[next]) {
            break;
        }
        sent_at.push(clock::now());
        next += 1;
    }
    let mut last_answer = None;
    for i in 0..n {
        if i >= sent_at.len() {
            break;
        }
        let Some(line) = read_response(&mut reader) else {
            break;
        };
        let at = clock::now();
        if !is_error(&line) {
            out.latency_ms[i] = Some(at.duration_since(sent_at[i]).as_secs_f64() * 1e3);
            last_answer = Some(at);
        }
        out.responses[i] = Some(line);
        if next < n {
            if !send(&mut stream, &lines[next]) {
                break;
            }
            sent_at.push(clock::now());
            next += 1;
        }
    }
    out.wall_s = last_answer.map_or(0.0, |t: Instant| t.duration_since(start).as_secs_f64());
    out
}

/// One step of the capacity ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate (req/s).
    pub offered: f64,
    /// p99 latency with failed requests charged the timeout (ms).
    pub p99_ms: f64,
    /// Answered requests per second of wall time.
    pub answered_rate: f64,
}

impl Step {
    /// Summarizes a step through `frs_loadtest`'s log-bucketed histogram
    /// (within ~1.6% of the exact percentile).
    pub fn from_outcome(offered: f64, outcome: &Outcome) -> Self {
        let mut hist = LogHistogram::new();
        for ms in outcome.charged_latency_ms() {
            hist.record((ms * 1e6) as u64);
        }
        Self {
            offered,
            p99_ms: if hist.count() == 0 {
                f64::INFINITY
            } else {
                hist.quantile(0.99) as f64 / 1e6
            },
            answered_rate: outcome.answered_rate(),
        }
    }

    /// Whether the step holds the latency limit without a growing backlog:
    /// p99 within `limit_ms` and the answered rate within `tolerance`
    /// (a fraction) of the offered rate.
    pub fn meets(&self, limit_ms: f64, tolerance: f64) -> bool {
        self.p99_ms <= limit_ms && self.answered_rate >= self.offered * (1.0 - tolerance)
    }
}

/// Runs `rates` in order through `run_step`, stopping after the first step
/// that misses its conditions. Returns every step run and the capacity: the
/// highest offered rate met before the first miss (`None` if the first
/// step already misses).
pub fn ramp(
    rates: &[f64],
    limit_ms: f64,
    tolerance: f64,
    mut run_step: impl FnMut(f64) -> Step,
) -> (Vec<Step>, Option<f64>) {
    let mut steps = Vec::new();
    let mut capacity = None;
    for &rate in rates {
        let step = run_step(rate);
        steps.push(step);
        if !step.meets(limit_ms, tolerance) {
            break;
        }
        capacity = Some(rate);
    }
    (steps, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic daemon: flat 2 ms p99 up to its knee, then latency and
    /// backlog grow with the overload.
    fn synthetic(knee: f64) -> impl FnMut(f64) -> Step {
        move |rate| {
            let over = (rate - knee).max(0.0) / knee;
            Step {
                offered: rate,
                p99_ms: 2.0 + 400.0 * over,
                answered_rate: rate.min(knee * 1.02),
            }
        }
    }

    #[test]
    fn ramp_stops_at_the_first_miss() {
        let rates = [1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0];
        let mut calls = 0;
        let mut daemon = synthetic(4000.0);
        let (steps, cap) = ramp(&rates, 50.0, 0.05, |r| {
            calls += 1;
            daemon(r)
        });
        assert_eq!(cap, Some(4000.0));
        assert_eq!(calls, 5, "the ramp must stop right after the failing step");
        assert_eq!(steps.len(), 5);
        assert!(!steps[4].meets(50.0, 0.05));
    }

    #[test]
    fn backlog_alone_fails_a_step() {
        let step = Step {
            offered: 3000.0,
            p99_ms: 10.0,
            answered_rate: 2800.0,
        };
        assert!(!step.meets(50.0, 0.05), "6.7% short of the offered rate");
        let ok = Step {
            answered_rate: 2860.0,
            ..step
        };
        assert!(ok.meets(50.0, 0.05));
        let (_, cap) = ramp(&[3000.0, 4000.0], 50.0, 0.05, |_| step);
        assert_eq!(cap, None);
    }

    #[test]
    fn failed_requests_miss_the_latency_limit() {
        let outcome = Outcome {
            latency_ms: (0..100).map(|i| (i % 50 != 7).then_some(1.0)).collect(),
            wall_s: 1.0,
            ..Outcome::default()
        };
        // Two of a hundred failed: p99 lands on a failure.
        assert_eq!(outcome.failed(), 2);
        let step = Step::from_outcome(100.0, &outcome);
        let timeout_ms = TIMEOUT.as_secs_f64() * 1e3;
        assert!(
            (step.p99_ms - timeout_ms).abs() < timeout_ms * 0.02,
            "{}",
            step.p99_ms
        );
        assert!(!step.meets(50.0, 0.05));
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let due: Vec<f64> = (0..5).map(|i| due_s(i, 1000.0)).collect();
        assert_eq!(due, vec![0.0, 0.001, 0.002, 0.003, 0.004]);
        let sent = [0.0005, 0.0009, 0.0020, 0.0100, 0.0101];
        let late = lateness_ms(&due, &sent);
        let expect = [0.5, 0.0, 0.0, 7.0, 6.1];
        for (got, want) in late.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{late:?}");
        }
        let (p99, max) = lateness_summary(&late);
        assert!((p99 - 7.0).abs() < 1e-9 && (max - 7.0).abs() < 1e-9);
        assert_eq!(lateness_summary(&[]), (0.0, 0.0));
    }
}
