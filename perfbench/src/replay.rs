//! The traced replay of a federation run. It assembles the same pieces
//! `scenario::build_simulation` does, then drives each round through the
//! public per-layer calls `Simulation::run_round` makes internally —
//! `ClientPool::run_selected` (benign ids, then malicious ids),
//! `Aggregator::aggregate` and `GlobalModel::apply_gradients` — with a span
//! around each. A replay is only trusted when it ends on the untraced run's
//! state, which the workloads check.

use std::sync::Arc;

use frs_data::{leave_one_out, synth, Dataset, TrainTestSplit};
use frs_experiments::ScenarioConfig;
use frs_federation::{Aggregator, ClientPool, LazyClientPool, RoundContext};
use frs_linalg::SeedStream;
use frs_metrics::{ExposureReport, QualityReport};
use frs_model::{EmbeddingStore, GlobalGradients, GlobalModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// A federation run taken apart into its public pieces.
pub struct Replay {
    cfg: ScenarioConfig,
    pub model: GlobalModel,
    pub pool: ClientPool,
    aggregator: Box<dyn Aggregator>,
    n_benign: usize,
    seeds: SeedStream,
    round: usize,
    /// Span name for this run's aggregation (`defense.aggregate_ms.<rule>`).
    aggregate_span: String,
    /// Span name for benign client compute.
    client_span: String,
}

impl Replay {
    /// Builds the pieces `scenario::build_simulation` would, with the same
    /// seeds. `rule` names the aggregation span; `client_span` the benign
    /// compute span.
    pub fn build(
        cfg: &ScenarioConfig,
        train: Arc<Dataset>,
        targets: &[u32],
        rule: &str,
        client_span: &str,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.federation.seed ^ 0x0DE1);
        let model = GlobalModel::new(&cfg.model, train.n_items(), &mut rng);
        let n_benign = train.n_users();
        let defense = cfg.defense.build(&cfg.defense_ctx());
        let n_mal = cfg.n_malicious(n_benign);
        let malicious = cfg
            .attack
            .build_clients(&cfg.attack_ctx(n_benign, n_mal, targets));
        let seed = cfg.federation.seed;
        let pool = LazyClientPool::new(
            n_benign,
            train,
            cfg.model.embedding_dim,
            cfg.model.init_scale,
            move |u| seed ^ ((u as u64) << 16) ^ 0xBE9,
            defense.regularizer_factory,
            malicious,
        );
        Self {
            cfg: cfg.clone(),
            model,
            pool: ClientPool::Lazy(pool),
            aggregator: defense.aggregator,
            n_benign,
            seeds: SeedStream::new(seed),
            round: 0,
            aggregate_span: format!("defense.aggregate_ms.{rule}"),
            client_span: client_span.to_string(),
        }
    }

    /// The round's sampled client ids, sorted: the server's seeded partial
    /// Fisher–Yates draw.
    fn sample(&self) -> Vec<usize> {
        let n = self.pool.len();
        let k = self.cfg.federation.clients_per_round.effective(n);
        let mut rng = self.seeds.rng("server-sample", self.round as u64);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let pick = rng.gen_range(i..n);
            idx.swap(i, pick);
        }
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    /// Replays one round with `width` client threads, recording spans
    /// under a `federation.round` parent.
    pub fn round(&mut self, width: usize, tr: &mut Tracer) {
        let id = self.round as u64;
        tr.span("federation.round", id, |tr| {
            let fed = &self.cfg.federation;
            let ctx = RoundContext::new(
                self.round,
                fed.learning_rate,
                fed.client_lr_at(self.round),
                fed.negative_ratio,
                fed.loss,
                self.seeds,
            );
            let selected = tr.span("federation.sample", id, |_| self.sample());
            let split = selected.partition_point(|&c| c < self.n_benign);
            let (benign, malicious) = selected.split_at(split);
            let mut uploads = tr.span(&self.client_span, id, |_| {
                self.pool.run_selected(benign, width, &ctx, &self.model)
            });
            let crafted = tr.span("attacks.craft_ms", id, |_| {
                self.pool.run_selected(malicious, width, &ctx, &self.model)
            });
            uploads.extend(crafted);
            uploads.sort_unstable_by_key(|(id, _)| *id);
            let grads: Vec<GlobalGradients> = uploads.into_iter().map(|(_, g)| g).collect();
            let combined = tr.span(&self.aggregate_span, id, |_| {
                self.aggregator.aggregate(&grads)
            });
            tr.span("model.apply_ms", id, |_| {
                self.model.apply_gradients(&combined, fed.learning_rate)
            });
            self.round += 1;
        })
    }

    pub fn user_embeddings(&self, tr: &mut Tracer, id: u64) -> EmbeddingStore {
        tr.span("federation.user_embeddings_ms", id, |_| {
            self.pool.user_embeddings(self.model.dim())
        })
    }
}

/// `scenario::build_world` for a synthetic dataset, through its public
/// pieces: generation and the leave-one-out split each in a span.
pub fn traced_world(cfg: &ScenarioConfig, tr: &mut Tracer, id: u64) -> (TrainTestSplit, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(cfg.federation.seed ^ 0xDA7A);
    let full = tr.span("data.generate_ms", id, |_| {
        synth::generate(&cfg.dataset, &mut rng)
    });
    let split = tr.span("data.split_ms", id, |_| leave_one_out(&full, &mut rng));
    let targets = split.train.coldest_items(cfg.n_targets);
    (split, targets)
}

/// ER@K and HR@K of a model over `users`, each compute in its own span.
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    tr: &mut Tracer,
    id: u64,
    model: &GlobalModel,
    embs: &EmbeddingStore,
    users: &[usize],
    split: &TrainTestSplit,
    targets: &[u32],
    k: usize,
) -> (ExposureReport, QualityReport) {
    let er = tr.span("metrics.exposure_ms", id, |_| {
        ExposureReport::compute(model, embs, users, &split.train, targets, k)
    });
    let hr = tr.span("metrics.quality_ms", id, |_| {
        QualityReport::compute(model, embs, users, split, k)
    });
    (er, hr)
}

/// Times `scores_for_user` (µs) and the train-filtered
/// `top_k_desc_filtered` (µs) for each of `users`.
pub fn score_and_rank_us(
    model: &GlobalModel,
    embs: &EmbeddingStore,
    train: &Dataset,
    users: &[usize],
    k: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut score_us = Vec::with_capacity(users.len());
    let mut rank_us = Vec::with_capacity(users.len());
    for &u in users {
        let t = crate::clock::now();
        let scores = std::hint::black_box(model.scores_for_user(embs.row(u)));
        score_us.push(crate::clock::ms_since(t) * 1e3);
        let t = crate::clock::now();
        let top = frs_linalg::top_k_desc_filtered(&scores, k, |i| {
            u32::try_from(i).is_ok_and(|item| !train.interacted(u, item))
        });
        std::hint::black_box(top);
        rank_us.push(crate::clock::ms_since(t) * 1e3);
    }
    (score_us, rank_us)
}

/// The `paper scale` state digest: the item table's bits, then each
/// evaluated user's embedding bits, through SHA-256.
pub fn state_digest(model: &GlobalModel, embs: &EmbeddingStore, users: &[usize]) -> String {
    let items = model.items().as_slice();
    let mut state = Vec::with_capacity((items.len() + users.len() * model.dim()) * 4);
    for &x in items {
        state.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for &u in users {
        for &x in embs.row(u) {
            state.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    frs_experiments::cache::sha256_hex(&state)
}
