//! The client population: benign users as arena rows, attackers as boxes.
//!
//! The paper's threat model has two kinds of participant: every benign user
//! trains a private embedding, and the server also admits a few arbitrary
//! attacker clients. [`LazyClientPool`] models exactly that. Benign clients
//! exist only as rows of a flat [`EmbeddingStore`] arena plus a seed
//! function; a real [`BenignClient`] is constructed for exactly the sampled
//! subset each round and torn back down into the arena afterwards, so a
//! million registered users cost one arena, not a million boxes. Stateful
//! client-side defenses persist across samplings in a sparse map, built on
//! demand from a [`RegularizerFactory`]. Attacker-controlled clients stay
//! materialized (they are few, stateful, and arbitrary types) in the id
//! range above the benign users.
//!
//! Arena rows are initialized by [`BenignClient::init_embedding`], the same
//! draw [`BenignClient::new`] makes (`tests::lazy_arena_reproduces_eager_init`).

use std::collections::BTreeMap;
use std::sync::Arc;

use frs_data::Dataset;
use frs_model::{EmbeddingStore, GlobalGradients, GlobalModel};

use crate::client::{BenignClient, Client, LocalRegularizer};
use crate::context::RoundContext;
use crate::pool;

/// Builds the client-side defense regularizer for a given user id (the
/// argument). Each client must get its own instance — regularizers keep
/// per-client mining state. The defense registry re-exports this type.
pub type RegularizerFactory = Box<dyn Fn(usize) -> Box<dyn LocalRegularizer> + Send + Sync>;

/// The server's view of its client population. It has one representation;
/// the single-variant wrapper and its method signatures (the `dim` of
/// [`ClientPool::user_embeddings`] included) stay because the benchmark
/// harness under `perfbench/`, which changes only with the benchmark
/// itself, spells out `ClientPool::Lazy(LazyClientPool::new(..))`, `len`,
/// `run_selected`, `user_embeddings(dim)` and `benign_ids`.
pub enum ClientPool {
    /// Benign clients materialize per round from an embedding arena.
    Lazy(LazyClientPool),
}

/// Benign users as arena rows + construction recipe, with the (few) boxed
/// clients occupying the id range above them. See the module docs.
pub struct LazyClientPool {
    n_benign: usize,
    train: Arc<Dataset>,
    /// Row `u` holds user `u`'s private embedding between samplings. Sized
    /// over the *whole* population; rows above `n_benign` stay zero, so the
    /// arena doubles as the dense evaluation table.
    arena: EmbeddingStore,
    reg_factory: Option<RegularizerFactory>,
    /// Stateful per-user defense regularizers, kept only for users that
    /// have been sampled (or restored) so far.
    regs: BTreeMap<usize, Box<dyn LocalRegularizer>>,
    /// Materialized clients above the benign range — the attacker cohort.
    /// Ids must be dense in `n_benign..n_benign + boxed.len()`.
    boxed: Vec<Box<dyn Client>>,
}

/// Checkpointed mutable state of one arena-resident benign user.
#[derive(serde::Serialize, serde::Deserialize)]
struct BenignClientState {
    user_embedding: Vec<f32>,
    /// The user's [`LocalRegularizer`] state tree (`Null` when no defense
    /// is installed, the defense is stateless, or the user has not been
    /// sampled yet).
    #[serde(default)]
    regularizer: serde::Value,
}

/// A round participant: either a benign client materialized from the arena
/// for this round only, or a borrow of a permanently boxed client.
enum Participant<'a> {
    Owned(BenignClient),
    Borrowed(&'a mut Box<dyn Client>),
}

impl LazyClientPool {
    /// Creates the pool and initializes every benign arena row with the
    /// seeded draw `BenignClient::new` would have made. When the
    /// `FRS_ARENA_DIR` environment variable names a directory, the arena is
    /// mmap-backed there (out-of-core populations); otherwise it lives on
    /// the heap. The backing is execution-only — bytes are identical.
    pub fn new(
        n_benign: usize,
        train: Arc<Dataset>,
        dim: usize,
        init_scale: f32,
        seed_fn: impl Fn(usize) -> u64,
        reg_factory: Option<RegularizerFactory>,
        boxed: Vec<Box<dyn Client>>,
    ) -> Self {
        let n_total = n_benign + boxed.len();
        let mut arena = match std::env::var_os("FRS_ARENA_DIR") {
            Some(dir) => EmbeddingStore::zeros_mmap(n_total, dim, std::path::Path::new(&dir)),
            None => EmbeddingStore::zeros(n_total, dim),
        };
        for u in 0..n_benign {
            BenignClient::init_embedding(arena.row_mut(u), init_scale, seed_fn(u));
        }
        Self {
            n_benign,
            train,
            arena,
            reg_factory,
            regs: BTreeMap::new(),
            boxed,
        }
    }

    fn materialize(&mut self, user: usize) -> BenignClient {
        let reg = self
            .regs
            .remove(&user)
            .or_else(|| self.reg_factory.as_ref().map(|f| f(user)));
        BenignClient::from_parts(
            user,
            Arc::clone(&self.train),
            self.arena.row(user).to_vec(),
            reg,
        )
    }
}

impl ClientPool {
    /// Total number of registered clients.
    pub fn len(&self) -> usize {
        let Self::Lazy(pool) = self;
        pool.n_benign + pool.boxed.len()
    }

    /// True when the pool holds no clients at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Panics unless client ids are unique and dense in `0..len()` (the
    /// invariant the whole sampling/aggregation path relies on).
    pub fn assert_dense_ids(&self) {
        let Self::Lazy(pool) = self;
        for (offset, client) in pool.boxed.iter().enumerate() {
            assert_eq!(
                pool.n_benign + offset,
                client.id(),
                "client ids must be dense 0..n (boxed clients start at n_benign)"
            );
        }
    }

    /// Ids of benign clients (the evaluation population `Ū`).
    pub fn benign_ids(&self) -> Vec<usize> {
        let Self::Lazy(pool) = self;
        (0..pool.n_benign)
            .chain(
                pool.boxed
                    .iter()
                    .filter(|c| !c.is_malicious())
                    .map(|c| c.id()),
            )
            .collect()
    }

    /// Ids of attacker-controlled clients (`Ũ`).
    pub fn malicious_ids(&self) -> Vec<usize> {
        let Self::Lazy(pool) = self;
        pool.boxed
            .iter()
            .filter(|c| c.is_malicious())
            .map(|c| c.id())
            .collect()
    }

    /// How many of the given (sorted) selected ids are attacker-controlled.
    pub fn count_malicious(&self, selected: &[usize]) -> usize {
        let Self::Lazy(pool) = self;
        selected
            .iter()
            .filter(|&&id| id >= pool.n_benign && pool.boxed[id - pool.n_benign].is_malicious())
            .count()
    }

    /// Dense per-client-id embedding table for metric evaluation. The arena
    /// *is* the table: boxed (attacker) rows stay zero, and metrics only
    /// ever index benign ids. Clones materialize to the heap.
    pub fn user_embeddings(&self, _dim: usize) -> EmbeddingStore {
        let Self::Lazy(pool) = self;
        pool.arena.clone()
    }

    /// Runs `local_round` for the selected (sorted, deduplicated) client
    /// ids, fanning out over `width` threads, and returns the id-tagged
    /// uploads in selection order. Benign clients materialize here and
    /// retire their state back to the arena before returning.
    pub fn run_selected(
        &mut self,
        selected_sorted: &[usize],
        width: usize,
        ctx: &RoundContext,
        model: &GlobalModel,
    ) -> Vec<(usize, GlobalGradients)> {
        let Self::Lazy(lazy) = self;
        // Benign ids sit below the boxed range, so after the sort all Owned
        // participants precede all Borrowed ones.
        let n_benign = lazy.n_benign;
        let mut participants: Vec<Participant> = Vec::with_capacity(selected_sorted.len());
        for &id in selected_sorted.iter().filter(|&&id| id < n_benign) {
            participants.push(Participant::Owned(lazy.materialize(id)));
        }
        let mut flags = vec![false; lazy.boxed.len()];
        for &id in selected_sorted.iter().filter(|&&id| id >= n_benign) {
            flags[id - n_benign] = true;
        }
        participants.extend(
            lazy.boxed
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| flags[*i])
                .map(|(_, c)| Participant::Borrowed(c)),
        );

        let results = pool::map_ordered(participants, width, |p| match p {
            Participant::Owned(mut c) => {
                let grads = c.local_round(ctx, model);
                let id = c.id();
                (id, grads, Some(c))
            }
            Participant::Borrowed(c) => (c.id(), c.local_round(ctx, model), None),
        });

        let mut uploads = Vec::with_capacity(results.len());
        for (id, grads, owned) in results {
            if let Some(client) = owned {
                let (embedding, reg) = client.into_parts();
                lazy.arena.row_mut(id).copy_from_slice(&embedding);
                if let Some(reg) = reg {
                    lazy.regs.insert(id, reg);
                }
            }
            uploads.push((id, grads));
        }
        uploads
    }

    /// Per-client checkpoint states, dense by id: a `BenignClientState` for
    /// every arena user, then each boxed client's own state. A user never
    /// sampled so far records a `Null` regularizer ("fresh").
    pub fn checkpoint_states(&self) -> Vec<serde::Value> {
        let Self::Lazy(pool) = self;
        let mut out = Vec::with_capacity(self.len());
        for u in 0..pool.n_benign {
            let state = BenignClientState {
                user_embedding: pool.arena.row(u).to_vec(),
                regularizer: pool
                    .regs
                    .get(&u)
                    .map_or(serde::Value::Null, |reg| reg.checkpoint_state()),
            };
            out.push(serde::Serialize::to_value(&state));
        }
        out.extend(pool.boxed.iter().map(|c| c.checkpoint_state()));
        out
    }

    /// Overlays per-client checkpoint states captured by
    /// [`ClientPool::checkpoint_states`] (caller has already validated the
    /// count).
    pub fn restore_states(&mut self, states: &[serde::Value]) -> Result<(), String> {
        let Self::Lazy(pool) = self;
        let dim = pool.arena.cols();
        for (u, state) in states.iter().take(pool.n_benign).enumerate() {
            let state: BenignClientState =
                serde::Deserialize::from_value(state).map_err(|e| e.to_string())?;
            if state.user_embedding.len() != dim {
                return Err(format!(
                    "user {u} embedding dim mismatch: checkpoint {}, simulation {dim}",
                    state.user_embedding.len()
                ));
            }
            pool.arena.row_mut(u).copy_from_slice(&state.user_embedding);
            match (&pool.reg_factory, &state.regularizer) {
                // A null regularizer state means "fresh" — drop any live one
                // and let the next sampling rebuild it, keeping never-sampled
                // users unmaterialized.
                (_, v) if v.is_null() => {
                    pool.regs.remove(&u);
                }
                (Some(factory), v) => {
                    let mut reg = factory(u);
                    reg.restore_state(v)?;
                    pool.regs.insert(u, reg);
                }
                (None, v) => {
                    return Err(format!(
                        "user {u} has no regularizer but checkpoint carries {}",
                        v.kind()
                    ));
                }
            }
        }
        for (client, state) in pool.boxed.iter_mut().zip(&states[pool.n_benign..]) {
            client.restore_state(state)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_data::{synth, DatasetSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_train() -> Arc<Dataset> {
        let mut rng = StdRng::seed_from_u64(3);
        Arc::new(synth::generate(&DatasetSpec::tiny(), &mut rng))
    }

    #[test]
    fn lazy_arena_reproduces_eager_init() {
        let train = tiny_train();
        let n = train.n_users();
        let pool = ClientPool::Lazy(LazyClientPool::new(
            n,
            Arc::clone(&train),
            8,
            0.1,
            Box::new(|u| 40 + u as u64),
            None,
            Vec::new(),
        ));
        let table = pool.user_embeddings(8);
        for u in 0..n {
            let eager = BenignClient::new(u, Arc::clone(&train), 8, 0.1, 40 + u as u64);
            assert_eq!(
                table.row(u),
                eager.user_embedding(),
                "user {u} init differs"
            );
        }
    }

    #[test]
    fn lazy_id_layout_and_counts() {
        struct Mal(usize);
        impl Client for Mal {
            fn id(&self) -> usize {
                self.0
            }
            fn is_malicious(&self) -> bool {
                true
            }
            fn local_round(
                &mut self,
                _ctx: &RoundContext,
                _model: &GlobalModel,
            ) -> GlobalGradients {
                GlobalGradients::new()
            }
        }
        let train = tiny_train();
        let pool = ClientPool::Lazy(LazyClientPool::new(
            5,
            train,
            4,
            0.1,
            Box::new(|u| u as u64),
            None,
            vec![Box::new(Mal(5)), Box::new(Mal(6))],
        ));
        pool.assert_dense_ids();
        assert_eq!(pool.len(), 7);
        assert_eq!(pool.benign_ids(), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.malicious_ids(), vec![5, 6]);
        assert_eq!(pool.count_malicious(&[0, 2, 5]), 1);
        assert_eq!(pool.count_malicious(&[5, 6]), 2);
        let table = pool.user_embeddings(4);
        assert_eq!(table.rows(), 7);
        assert_eq!(table.row(6), &[0.0; 4], "boxed rows stay zero");
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn lazy_rejects_misnumbered_boxed_clients() {
        struct Off;
        impl Client for Off {
            fn id(&self) -> usize {
                99
            }
            fn local_round(
                &mut self,
                _ctx: &RoundContext,
                _model: &GlobalModel,
            ) -> GlobalGradients {
                GlobalGradients::new()
            }
        }
        let pool = ClientPool::Lazy(LazyClientPool::new(
            2,
            tiny_train(),
            4,
            0.1,
            Box::new(|u| u as u64),
            None,
            vec![Box::new(Off)],
        ));
        pool.assert_dense_ids();
    }
}
