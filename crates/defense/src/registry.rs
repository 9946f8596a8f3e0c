//! The open defense registry: the defense family of the generic
//! [`frs_federation::registry`].
//!
//! Defenses are [`DefenseFactory`] trait objects registered by name. A
//! factory turns a scenario-level [`DefenseBuildCtx`] plus a serializable
//! [`DefenseParams`] payload into a [`DefenseInstance`]: the server-side
//! [`Aggregator`] and — for client-side schemes like the paper's
//! regularization defense — a per-client [`LocalRegularizer`] factory the
//! harness invokes once per benign client. The enum [`DefenseKind`] is the
//! family's [`Kind`]: its rows are the builtin entries. Scenarios reference
//! defenses through a [`DefenseSel`] (`ours:beta=0.9,re2=false`; see the
//! generic module for the CLI and serde forms).
//!
//! The paper's own defense (`"ours"`) goes through this registry like every
//! other factory: its β/γ weights, the Re1/Re2 ablation switches, and the
//! mining parameters are ordinary [`DefenseParams`] entries, with
//! model-tuned defaults supplied by the [`DefenseBuildCtx`]. There is no
//! harness special case.
//!
//! Ad-hoc defenses use [`FnDefenseFactory`]:
//!
//! ```
//! use std::sync::Arc;
//! use frs_defense::{DefenseKind, DefenseSel, FnDefenseFactory, Registry};
//! use frs_federation::SumAggregator;
//!
//! Registry::<DefenseKind>::register(Arc::new(
//!     FnDefenseFactory::new("plain-sum", "PlainSum", |_ctx| Box::new(SumAggregator))
//!         .with_fingerprint("v1"),
//! ));
//! assert!(DefenseSel::named("plain-sum").resolve().is_some());
//! ```

use std::sync::Arc;

use frs_federation::registry::{Kind, Selection};
use frs_federation::{Aggregator, LocalRegularizer};
use frs_model::ModelKind;

use crate::catalog::DefenseKind;

// ------------------------------------------------------------------ params

pub use frs_federation::params::{ParamSpec, ParamValue};
pub use frs_federation::registry::{Factory, Registry};

/// The canonical defense hyper-parameter payload a [`DefenseSel`] carries:
/// the shared [`frs_federation::params::Params`] map (sorted keys, one
/// variant per numeric value, no non-finite numbers — see that module for
/// the caching invariants), aliased for readability. The attack registry
/// aliases the same type as `frs_attacks::AttackParams`.
pub type DefenseParams = frs_federation::params::Params;

// ----------------------------------------------------------------- context

/// Everything a scenario knows that a defense may consume when
/// instantiating — the paper's defense needs most of it (mined `N`, the
/// base-model family its β/γ are tuned per, the embedding dimension, and
/// the root seed); server-side rules typically read only the first two
/// fields.
#[derive(Debug, Clone)]
pub struct DefenseBuildCtx {
    /// Malicious fraction `p̃` the defense is tuned for.
    pub assumed_malicious_ratio: f64,
    /// Clipping threshold for NormBound-style defenses.
    pub norm_bound_threshold: f32,
    /// Mined popular-set size `N` of the scenario (the defense miner
    /// matches the attacker's, Section V-B).
    pub mined_top_n: usize,
    /// Base-model family the federation trains.
    pub model: ModelKind,
    /// Item/user embedding dimension.
    pub embedding_dim: usize,
    /// Model-tuned default weight β of Re1 (the paper tunes β/γ per base
    /// model; DL item updates land with a much smaller server learning
    /// rate, so its regularizers need proportionally more weight).
    pub default_beta: f32,
    /// Model-tuned default weight γ of Re2.
    pub default_gamma: f32,
    /// Scenario root seed, for defenses that randomize.
    pub seed: u64,
}

impl DefenseBuildCtx {
    /// A context carrying only the two classic server-side knobs; the rest
    /// are neutral defaults. Used by the legacy
    /// [`DefenseKind::build_aggregator`] entry point and by tests.
    pub fn minimal(assumed_malicious_ratio: f64, norm_bound_threshold: f32) -> Self {
        Self {
            assumed_malicious_ratio,
            norm_bound_threshold,
            mined_top_n: 10,
            model: ModelKind::Mf,
            embedding_dim: 0,
            default_beta: 0.5,
            default_gamma: 0.5,
            seed: 0,
        }
    }
}

// ---------------------------------------------------------------- instance

/// Builds one fresh regularizer per benign client — the federation's own
/// type, so a [`DefenseInstance`] factory plugs straight into the lazy pool.
pub use frs_federation::RegularizerFactory;

/// A fully instantiated defense: what [`DefenseFactory::build`] returns and
/// the harness wires into a simulation.
pub struct DefenseInstance {
    /// The server-side aggregation rule (client-side defenses pair with a
    /// plain sum here).
    pub aggregator: Box<dyn Aggregator>,
    /// Per-client regularizer factory; `None` for pure server-side rules.
    pub regularizer_factory: Option<RegularizerFactory>,
}

impl std::fmt::Debug for DefenseInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefenseInstance")
            .field("aggregator", &self.aggregator.name())
            .field("client_side", &self.regularizer_factory.is_some())
            .finish()
    }
}

impl DefenseInstance {
    /// A pure server-side defense.
    pub fn server(aggregator: Box<dyn Aggregator>) -> Self {
        Self {
            aggregator,
            regularizer_factory: None,
        }
    }

    /// A client-side defense: `factory` is invoked once per benign client.
    pub fn client(aggregator: Box<dyn Aggregator>, factory: RegularizerFactory) -> Self {
        Self {
            aggregator,
            regularizer_factory: Some(factory),
        }
    }

    /// A fresh regularizer for `client_id`, when the defense is client-side.
    pub fn regularizer_for(&self, client_id: usize) -> Option<Box<dyn LocalRegularizer>> {
        self.regularizer_factory.as_ref().map(|f| f(client_id))
    }
}

// ----------------------------------------------------------------- factory

/// A named defense that can arm a scenario. Its name, label, parameter
/// schema and fingerprint come from the shared [`Factory`] supertrait.
pub trait DefenseFactory: Factory {
    /// True for defenses that run inside benign clients rather than in the
    /// server's aggregation rule.
    fn is_client_side(&self) -> bool {
        false
    }

    /// Instantiates the defense for one scenario. Implementations validate
    /// `params` (unknown keys are an error) and fall back to
    /// context-derived defaults for missing ones.
    fn build(
        &self,
        ctx: &DefenseBuildCtx,
        params: &DefenseParams,
    ) -> Result<DefenseInstance, String>;
}

type AggregatorBuildFn =
    Box<dyn Fn(&DefenseBuildCtx, &DefenseParams) -> Box<dyn Aggregator> + Send + Sync>;
type RegularizerBuildFn =
    Arc<dyn Fn(&DefenseBuildCtx, &DefenseParams, usize) -> Box<dyn LocalRegularizer> + Send + Sync>;

/// Closure-backed [`DefenseFactory`] for ad-hoc defenses — server-side
/// aggregation rules, client-side regularizer schemes, or both, without a
/// hand-rolled trait impl:
///
/// ```ignore
/// Registry::<DefenseKind>::register(Arc::new(
///     FnDefenseFactory::new("my-defense", "MyDefense", |_ctx| Box::new(SumAggregator))
///         .with_param_schema([ParamSpec::new("tau", "attenuation", "1.0")])
///         .with_params_regularizer(|ctx, params, _client_id| {
///             Box::new(MyRegularizer::new(params.get_f32("tau").ok().flatten().unwrap_or(1.0)))
///         })
///         .with_fingerprint("tau-default=1.0"),
/// ));
/// ```
pub struct FnDefenseFactory {
    name: String,
    label: String,
    fingerprint: Option<String>,
    schema: Vec<ParamSpec>,
    aggregator: AggregatorBuildFn,
    regularizer: Option<RegularizerBuildFn>,
    /// Whether the aggregator closure receives the params
    /// ([`FnDefenseFactory::parameterized`]).
    aggregator_reads_params: bool,
    /// Whether the regularizer closure receives the params
    /// ([`FnDefenseFactory::with_params_regularizer`]). When neither
    /// closure does, `build` refuses params: declared keys would be
    /// validated and cache-keyed, then silently ignored.
    regularizer_reads_params: bool,
}

impl FnDefenseFactory {
    /// A server-side defense from an aggregator closure. Chain `with_*`
    /// builder methods for regularizers, params, and fingerprints, then
    /// hand the result to [`Registry::register`].
    pub fn new(
        name: impl Into<String>,
        label: impl Into<String>,
        aggregator: impl Fn(&DefenseBuildCtx) -> Box<dyn Aggregator> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            fingerprint: None,
            schema: Vec::new(),
            aggregator: Box::new(move |ctx, _params| aggregator(ctx)),
            regularizer: None,
            aggregator_reads_params: false,
            regularizer_reads_params: false,
        }
    }

    /// Like [`FnDefenseFactory::new`], additionally carrying a behaviour
    /// fingerprint (see [`Factory::fingerprint`]).
    pub fn fingerprinted(
        name: impl Into<String>,
        label: impl Into<String>,
        fingerprint: impl Into<String>,
        aggregator: impl Fn(&DefenseBuildCtx) -> Box<dyn Aggregator> + Send + Sync + 'static,
    ) -> Self {
        Self::new(name, label, aggregator).with_fingerprint(fingerprint)
    }

    /// A params-aware server-side defense: the aggregator closure also sees
    /// the selection's [`DefenseParams`]. Declare the accepted keys with
    /// [`FnDefenseFactory::with_param_schema`], or every non-empty params
    /// map is rejected.
    pub fn parameterized(
        name: impl Into<String>,
        label: impl Into<String>,
        aggregator: impl Fn(&DefenseBuildCtx, &DefenseParams) -> Box<dyn Aggregator>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            fingerprint: None,
            schema: Vec::new(),
            aggregator: Box::new(aggregator),
            regularizer: None,
            aggregator_reads_params: true,
            regularizer_reads_params: false,
        }
    }

    /// Declares a behaviour fingerprint (see [`Factory::fingerprint`]
    /// — the PR-3 cache contract for runtime registrations).
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = Some(fingerprint.into());
        self
    }

    /// Declares the accepted parameters. Without a schema, any non-empty
    /// [`DefenseParams`] fails the build, and so do declared keys when
    /// neither closure receives the params.
    pub fn with_param_schema(mut self, schema: impl IntoIterator<Item = ParamSpec>) -> Self {
        self.schema = schema.into_iter().collect();
        self
    }

    /// Marks the defense client-side: `build` is invoked once per benign
    /// client to produce that client's own [`LocalRegularizer`] (state is
    /// per-client, so instances are never shared).
    pub fn with_regularizer(
        mut self,
        build: impl Fn(&DefenseBuildCtx) -> Box<dyn LocalRegularizer> + Send + Sync + 'static,
    ) -> Self {
        self.regularizer = Some(Arc::new(move |ctx, _params, _client_id| build(ctx)));
        self.regularizer_reads_params = false;
        self
    }

    /// Params-aware variant of [`FnDefenseFactory::with_regularizer`]: the
    /// closure additionally sees the selection's [`DefenseParams`] and the
    /// id of the client being armed.
    pub fn with_params_regularizer(
        mut self,
        build: impl Fn(&DefenseBuildCtx, &DefenseParams, usize) -> Box<dyn LocalRegularizer>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        self.regularizer = Some(Arc::new(build));
        self.regularizer_reads_params = true;
        self
    }
}

impl Factory for FnDefenseFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn param_schema(&self) -> Vec<ParamSpec> {
        self.schema.clone()
    }

    fn fingerprint(&self) -> Option<String> {
        self.fingerprint.clone()
    }
}

impl DefenseFactory for FnDefenseFactory {
    fn is_client_side(&self) -> bool {
        self.regularizer.is_some()
    }

    fn build(
        &self,
        ctx: &DefenseBuildCtx,
        params: &DefenseParams,
    ) -> Result<DefenseInstance, String> {
        if !params.is_empty() {
            if self.schema.is_empty() {
                return Err(format!(
                    "defense `{}` takes no parameters (got `{params}`); declare a schema \
                     with FnDefenseFactory::with_param_schema",
                    self.name
                ));
            }
            let known: Vec<&str> = self.schema.iter().map(|s| s.key.as_str()).collect();
            params.check_known(&known, &self.name)?;
            if !self.aggregator_reads_params && !self.regularizer_reads_params {
                let unread: Vec<&str> = params.keys().collect();
                return Err(format!(
                    "defense `{}`: no closure reads the parameter(s) {unread:?}; build it \
                     with FnDefenseFactory::parameterized or with_params_regularizer",
                    self.name
                ));
            }
        }
        let aggregator = (self.aggregator)(ctx, params);
        Ok(match &self.regularizer {
            None => DefenseInstance::server(aggregator),
            Some(build) => {
                let build = Arc::clone(build);
                let ctx = ctx.clone();
                let params = params.clone();
                DefenseInstance::client(
                    aggregator,
                    Box::new(move |client_id| build(&ctx, &params, client_id)),
                )
            }
        })
    }
}

// ---------------------------------------------------------------- registry

/// The defense family for the generic registry: its entries are
/// [`DefenseFactory`] objects that arm a scenario.
impl Kind for DefenseKind {
    type Factory = dyn DefenseFactory;
    type Ctx<'a> = DefenseBuildCtx;
    type Output = DefenseInstance;
    const NOUN: &'static str = "defense";
    const BASELINE: &'static str = "none";

    fn builtins() -> Vec<Arc<dyn DefenseFactory>> {
        DefenseKind::all()
            .into_iter()
            .map(|kind| Arc::new(kind) as Arc<dyn DefenseFactory>)
            .collect()
    }

    fn build(
        factory: &dyn DefenseFactory,
        ctx: &DefenseBuildCtx,
        params: &DefenseParams,
    ) -> Result<DefenseInstance, String> {
        factory.build(ctx, params)
    }
}

// --------------------------------------------------------------- selection

/// A serializable, registry-backed reference to a defense: its registry
/// name plus a canonical [`DefenseParams`] payload.
pub type DefenseSel = Selection<DefenseKind>;

#[cfg(test)]
mod tests {
    use super::*;
    use frs_federation::{RoundContext, SumAggregator};
    use frs_model::{GlobalGradients, GlobalModel};

    fn register(factory: impl DefenseFactory + 'static) {
        Registry::<DefenseKind>::register(Arc::new(factory));
    }

    #[test]
    fn builtins_are_registered() {
        for kind in DefenseKind::all() {
            let f = Registry::<DefenseKind>::get(kind.name()).unwrap_or_else(|| panic!("{kind:?}"));
            assert_eq!(f.label(), kind.label());
            assert_eq!(f.is_client_side(), kind.is_client_side());
        }
    }

    #[test]
    fn registry_path_matches_enum_path() {
        let ctx = DefenseBuildCtx::minimal(0.05, 0.5);
        let mut u1 = GlobalGradients::new();
        u1.add_item_grad(0, &[0.5, 0.5]);
        let mut u2 = GlobalGradients::new();
        u2.add_item_grad(0, &[0.1, -0.4]);
        let uploads = [u1, u2];
        for kind in DefenseKind::all() {
            let via_enum = kind.build_aggregator(0.05, 0.5).aggregate(&uploads);
            let via_registry = DefenseSel::from(kind)
                .build(&ctx)
                .aggregator
                .aggregate(&uploads);
            assert_eq!(via_enum, via_registry, "{kind:?}");
        }
    }

    #[test]
    fn sel_compares_and_serializes() {
        let sel: DefenseSel = DefenseKind::Ours.into();
        assert_eq!(sel, DefenseKind::Ours);
        assert!(sel.resolve().unwrap().is_client_side());
        assert!(DefenseSel::none().is_none());
        assert_eq!(DefenseSel::none(), DefenseKind::NoDefense);
        let v = serde::Serialize::to_value(&sel);
        assert_eq!(v.as_str(), Some("ours"));
        let back: DefenseSel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, sel);
    }

    #[test]
    fn custom_defense_round_trips() {
        register(FnDefenseFactory::new("sum-again", "SumAgain", |_| {
            Box::new(SumAggregator)
        }));
        let sel = DefenseSel::named("sum-again");
        assert_eq!(sel.label(), "SumAgain");
        assert!(!sel.resolve().unwrap().is_client_side());
        let ctx = DefenseBuildCtx::minimal(0.0, 1.0);
        assert_eq!(sel.build(&ctx).aggregator.name(), "NoDefense");
    }

    /// A do-nothing regularizer for client-side factory tests.
    struct InertReg;
    impl LocalRegularizer for InertReg {
        fn observe(&mut self, _ctx: &RoundContext, _model: &GlobalModel) {}
        fn apply(
            &mut self,
            _ctx: &RoundContext,
            _model: &GlobalModel,
            _user_embedding: &[f32],
            _local_items: &[u32],
            _grads: &mut GlobalGradients,
            _d_user: &mut [f32],
        ) {
        }
        fn name(&self) -> &'static str {
            "inert"
        }
    }

    #[test]
    fn fn_factory_with_regularizer_is_client_side() {
        register(
            FnDefenseFactory::new("inert-client", "InertClient", |_| Box::new(SumAggregator))
                .with_regularizer(|_ctx| Box::new(InertReg))
                .with_fingerprint("inert-v1"),
        );
        let sel = DefenseSel::named("inert-client");
        assert!(sel.resolve().unwrap().is_client_side());
        assert_eq!(sel.fingerprint().as_deref(), Some("inert-v1"));
        let instance = sel.build(&DefenseBuildCtx::minimal(0.05, 1.0));
        assert!(instance.regularizer_for(3).is_some());
        // Fresh instance per client.
        assert!(instance.regularizer_for(4).is_some());
    }

    #[test]
    fn fn_factory_rejects_params_without_schema() {
        // Direct factory calls bypass the selection's schema check, so the
        // factory keeps its own.
        let factory = FnDefenseFactory::new("no-params", "NoParams", |_| Box::new(SumAggregator));
        let params = DefenseParams::new().with("tau", 0.5f32);
        let err = factory
            .build(&DefenseBuildCtx::minimal(0.05, 1.0), &params)
            .unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
    }

    #[test]
    fn fn_factory_refuses_params_no_closure_reads() {
        // A schema on params-blind closures would validate and cache-key
        // keys nothing reads.
        let ctx = DefenseBuildCtx::minimal(0.05, 1.0);
        let params = DefenseParams::new().with("tau", 0.5f32);
        let schema = || [ParamSpec::new("tau", "attenuation factor", "1.0")];
        let blind = FnDefenseFactory::new("blind", "Blind", |_| Box::new(SumAggregator))
            .with_param_schema(schema())
            .with_regularizer(|_ctx| Box::new(InertReg));
        let err = blind.build(&ctx, &params).unwrap_err();
        assert!(
            err.contains("no closure reads") && err.contains("tau"),
            "{err}"
        );
        // Without params the blind factory still builds.
        assert!(blind.build(&ctx, &DefenseParams::new()).is_ok());
        // Either closure reading the params lifts the refusal.
        let aggregator_reads = FnDefenseFactory::parameterized("agg-reads", "AggReads", |_, _| {
            Box::new(SumAggregator)
        })
        .with_param_schema(schema());
        assert!(aggregator_reads.build(&ctx, &params).is_ok());
        let regularizer_reads =
            FnDefenseFactory::new("reg-reads", "RegReads", |_| Box::new(SumAggregator))
                .with_param_schema(schema())
                .with_params_regularizer(|_, _, _| Box::new(InertReg));
        assert!(regularizer_reads.build(&ctx, &params).is_ok());
    }

    #[test]
    fn params_aware_regularizer_sees_params_and_ids() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        register(
            FnDefenseFactory::new("param-client", "ParamClient", |_| Box::new(SumAggregator))
                .with_param_schema([ParamSpec::new("tau", "attenuation factor", "1.0")])
                .with_params_regularizer(move |_ctx, params, client_id| {
                    assert_eq!(params.get_f32("tau").unwrap(), Some(0.25));
                    seen2.fetch_add(client_id, Ordering::SeqCst);
                    Box::new(InertReg)
                }),
        );
        let sel = DefenseSel::named("param-client").with_param("tau", 0.25f32);
        let instance = sel.build(&DefenseBuildCtx::minimal(0.05, 1.0));
        instance.regularizer_for(5);
        instance.regularizer_for(7);
        assert_eq!(seen.load(Ordering::SeqCst), 12);

        // Unknown keys still fail against the declared schema.
        let bad = DefenseSel::named("param-client").with_param("tua", 0.25f32);
        let err = bad
            .try_build(&DefenseBuildCtx::minimal(0.05, 1.0))
            .unwrap_err();
        assert!(err.contains("unknown parameter"), "{err}");
    }

    #[test]
    fn f32_overflow_is_a_clean_error_not_infinity() {
        // 1e39 is a finite f64 but narrows to f32::INFINITY — it must not
        // slip past the finiteness guards as an "infinite β".
        let sel = DefenseSel::parse("ours:beta=1e39").unwrap();
        let err = sel
            .try_build(&DefenseBuildCtx::minimal(0.05, 0.05))
            .unwrap_err();
        assert!(err.contains("f32"), "{err}");
    }
}
