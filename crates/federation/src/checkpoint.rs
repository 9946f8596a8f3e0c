//! Mid-run simulation checkpoints.
//!
//! A [`Simulation`](crate::Simulation) is deterministic given its build
//! inputs: the global model's init RNG, every client's seed, and the server's
//! [`SeedStream`](frs_linalg::SeedStream) all derive from the serialized
//! configuration. A checkpoint therefore captures only the *mutable* state a
//! run accumulates — the trained model, the round counter, the running
//! [`TrainingStats`], and each client's private state (benign user
//! embeddings, attack mining progress, defense regularizer history) — and a
//! restore overlays that state onto a freshly rebuilt simulation. Continuing
//! from a restored checkpoint is byte-identical to never having stopped
//! (`tests/checkpointing.rs` golden- and property-tests this across attack ×
//! defense combinations).
//!
//! The client pool writes one entry per client id: each benign user's arena
//! embedding plus its regularizer's state (`Null` until the user is first
//! sampled), then each attacker client's own state. Regularizer, attacker
//! and aggregator state rides through the opaque [`serde::Value`] tree
//! returned by the `checkpoint_state` / `restore_state` hooks on
//! [`LocalRegularizer`](crate::LocalRegularizer),
//! [`Client`](crate::Client), and [`Aggregator`](crate::Aggregator) —
//! stateless implementations inherit the `Value::Null` defaults and need no
//! code. The envelope is versioned
//! ([`CHECKPOINT_FORMAT_VERSION`]) and its fields use the serde shim's
//! `#[serde(default)]` so the format can grow fields without invalidating
//! checkpoints already on disk.

use frs_model::GlobalModel;
use serde::{Deserialize, Serialize, Value};

use crate::stats::TrainingStats;

/// Version stamp written into every checkpoint. Bump on incompatible layout
/// changes; additive fields should use `#[serde(default)]` instead.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// The complete mutable state of a [`Simulation`](crate::Simulation) at a
/// round boundary. Produced by `Simulation::capture_checkpoint`, consumed by
/// `Simulation::restore_checkpoint` on a freshly built simulation with the
/// same configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationCheckpoint {
    /// [`CHECKPOINT_FORMAT_VERSION`] at write time.
    pub format: u32,
    /// Completed rounds (the next `run_round` call executes round `round`).
    pub round: usize,
    /// The trained global model (item table, and MLP weights for DL-FRS).
    pub model: GlobalModel,
    /// Running totals (wall-clock fields are serde-skipped by design, so a
    /// restored run's *reports* cannot depend on when it was interrupted).
    pub stats: TrainingStats,
    /// Per-client opaque state, indexed by dense client id. `Value::Null`
    /// for stateless clients.
    pub clients: Vec<Value>,
    /// Server-side aggregator state (`Value::Null` for every builtin — all
    /// current defenses aggregate statelessly).
    #[serde(default)]
    pub aggregator: Value,
}

impl SimulationCheckpoint {
    /// Validates the envelope against the population it is about to restore
    /// into. Returns a description of the first mismatch.
    pub fn validate(&self, n_clients: usize) -> Result<(), String> {
        if self.format != CHECKPOINT_FORMAT_VERSION {
            return Err(format!(
                "checkpoint format {} unsupported (expected {})",
                self.format, CHECKPOINT_FORMAT_VERSION
            ));
        }
        if self.clients.len() != n_clients {
            return Err(format!(
                "checkpoint covers {} clients, simulation has {n_clients}",
                self.clients.len()
            ));
        }
        Ok(())
    }
}
