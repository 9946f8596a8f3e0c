//! The benchmark's one wall clock.

use std::time::Instant;

/// The current instant. Every timing in the benchmark starts here.
pub fn now() -> Instant {
    Instant::now() // lint:allow(unseeded-entropy): the benchmark measures wall time; no timing feeds a program output or a correctness check
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
