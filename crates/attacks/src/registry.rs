//! The open attack registry: the attack family of the generic
//! [`frs_federation::registry`].
//!
//! Attacks are [`AttackFactory`] trait objects registered by name. A factory
//! turns a scenario-level [`AttackBuildCtx`] plus a serializable
//! [`AttackParams`] payload into the scenario's malicious population. The
//! enum [`AttackKind`] is the family's [`Kind`]: its rows are the builtin
//! entries, and out-of-crate attacks plug in through
//! [`Registry::register`] without touching any core code. Scenarios
//! reference attacks through an [`AttackSel`] (`pieck-uea:scale=2,top_n=20`;
//! see the generic module for the CLI and serde forms).
//!
//! Factories declare the keys they accept through
//! [`Factory::param_schema`]; unknown keys, mistyped values, and
//! out-of-range parameters are a clean `Err` from
//! [`Selection::try_build`], so a typo'd `--attack` spec fails at startup
//! (the harness probes a full build) instead of panicking three cells into
//! a sweep.
//!
//! ```
//! use std::sync::Arc;
//! use frs_attacks::{AttackBuildCtx, AttackKind, AttackSel, FnAttackFactory, Registry};
//!
//! Registry::<AttackKind>::register(Arc::new(FnAttackFactory::new(
//!     "my-attack",
//!     "MyAttack",
//!     |ctx: &AttackBuildCtx| Vec::new(), // build `ctx.count` malicious clients here
//! )));
//! assert!(AttackSel::named("my-attack").resolve().is_some());
//! ```
//!
//! [`Selection::try_build`]: frs_federation::registry::Selection::try_build

use std::sync::Arc;

use frs_federation::registry::{Kind, Selection};
use frs_federation::Client;
use frs_model::ModelKind;

use crate::catalog::AttackKind;
use crate::variants::{IpeAblation, MultiTargetPieck};

pub use frs_federation::params::{ParamSpec, ParamValue};
pub use frs_federation::registry::{Factory, Registry};

/// A serializable, registry-backed reference to an attack: its registry
/// name plus a canonical [`AttackParams`] payload — what scenario
/// configurations carry instead of the closed enum.
pub type AttackSel = Selection<AttackKind>;

/// The canonical attack hyper-parameter payload an [`AttackSel`] carries:
/// the shared [`frs_federation::params::Params`] map (sorted keys, one
/// variant per numeric value, no non-finite numbers — see that module for
/// the caching invariants), aliased for readability. The defense registry
/// aliases the same type as `frs_defense::DefenseParams`.
pub type AttackParams = frs_federation::params::Params;

/// Everything a scenario knows that an attack factory may consume when
/// populating a run with malicious clients. Scenario-level values
/// (`mined_top_n`, `poison_scale`) are *defaults*; selection params
/// override them per factory schema.
#[derive(Debug, Clone)]
pub struct AttackBuildCtx<'a> {
    /// First client id to assign; ids must be dense `first_id..first_id+count`.
    pub first_id: usize,
    /// Number of malicious clients to build.
    pub count: usize,
    /// Target items `T` to promote.
    pub targets: &'a [u32],
    /// Mined popular-set size `N` of the scenario (PIECK variants and
    /// mining-based attacks; the `top_n` param overrides).
    pub mined_top_n: usize,
    /// Scale applied to gradient-style poison uploads (the `scale` param
    /// overrides).
    pub poison_scale: f32,
    /// Scenario root seed.
    pub seed: u64,
    /// Base-model family the federation trains.
    pub model: ModelKind,
    /// Item/user embedding dimension of the global model.
    pub embedding_dim: usize,
    /// Item-catalogue size declared by the dataset spec (0 when unknown,
    /// e.g. not-yet-loaded file-backed dumps).
    pub n_items: usize,
    /// Benign-user count declared by the dataset spec (0 when unknown).
    pub n_users: usize,
}

impl<'a> AttackBuildCtx<'a> {
    /// A context carrying only the population coordinates; everything else
    /// is a neutral default. Used by the legacy
    /// [`AttackKind::build_clients`] entry point, the CLI's startup
    /// try-build probe (`count = 0`: params are validated, no client is
    /// constructed), and tests.
    pub fn minimal(first_id: usize, count: usize, targets: &'a [u32]) -> Self {
        Self {
            first_id,
            count,
            targets,
            mined_top_n: 10,
            poison_scale: 1.0,
            seed: 0,
            model: ModelKind::Mf,
            embedding_dim: 0,
            n_items: 0,
            n_users: 0,
        }
    }
}

/// A named attack that can populate a scenario with malicious clients. Its
/// name, label, parameter schema and fingerprint come from the shared
/// [`Factory`] supertrait.
pub trait AttackFactory: Factory {
    /// Builds `ctx.count` malicious clients with dense ids starting at
    /// `ctx.first_id`. Implementations validate `params` **before**
    /// constructing any client (unknown keys and bad values are an `Err`,
    /// and a `count = 0` probe must still exercise the validation), falling
    /// back to context-derived defaults for missing keys.
    fn build_clients(
        &self,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String>;
}

type AttackBuildFn = Box<
    dyn Fn(&AttackBuildCtx<'_>, &AttackParams) -> Result<Vec<Box<dyn Client>>, String>
        + Send
        + Sync,
>;

/// Closure-backed [`AttackFactory`] for ad-hoc attacks (ablations, tests,
/// downstream experiments):
///
/// ```ignore
/// Registry::<AttackKind>::register(Arc::new(
///     FnAttackFactory::parameterized("flood", "Flood", |ctx, params| {
///         let strength = params.get_f32("strength")?.unwrap_or(1.0);
///         Ok((0..ctx.count).map(|i| make_client(ctx.first_id + i, strength)).collect())
///     })
///     .with_param_schema([ParamSpec::new("strength", "upload magnitude", "1.0")])
///     .with_fingerprint("flood-v1"),
/// ));
/// ```
pub struct FnAttackFactory {
    name: String,
    label: String,
    fingerprint: Option<String>,
    schema: Vec<ParamSpec>,
    /// Whether the build closure actually receives the params (the
    /// [`FnAttackFactory::parameterized`] constructor). Guards
    /// [`FnAttackFactory::with_param_schema`] against declaring keys a
    /// params-blind closure would validate, cache-key, and then silently
    /// ignore.
    params_aware: bool,
    build: AttackBuildFn,
}

impl FnAttackFactory {
    /// A parameter-less attack from an infallible closure. Chain `with_*`
    /// builder methods for schemas and fingerprints, then hand the result
    /// to [`Registry::register`].
    pub fn new(
        name: impl Into<String>,
        label: impl Into<String>,
        build: impl Fn(&AttackBuildCtx<'_>) -> Vec<Box<dyn Client>> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            fingerprint: None,
            schema: Vec::new(),
            params_aware: false,
            build: Box::new(move |ctx, _params| Ok(build(ctx))),
        }
    }

    /// Like [`FnAttackFactory::new`], additionally carrying a behaviour
    /// fingerprint (see [`Factory::fingerprint`]) so suite caches can
    /// tell apart same-named registrations with different parameters.
    pub fn fingerprinted(
        name: impl Into<String>,
        label: impl Into<String>,
        fingerprint: impl Into<String>,
        build: impl Fn(&AttackBuildCtx<'_>) -> Vec<Box<dyn Client>> + Send + Sync + 'static,
    ) -> Self {
        Self::new(name, label, build).with_fingerprint(fingerprint)
    }

    /// A params-aware, fallible attack: the closure also sees the
    /// selection's [`AttackParams`] and reports bad values as `Err`.
    /// Declare the accepted keys with
    /// [`FnAttackFactory::with_param_schema`], or every non-empty params
    /// map is rejected before the closure runs.
    pub fn parameterized(
        name: impl Into<String>,
        label: impl Into<String>,
        build: impl Fn(&AttackBuildCtx<'_>, &AttackParams) -> Result<Vec<Box<dyn Client>>, String>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            fingerprint: None,
            schema: Vec::new(),
            params_aware: true,
            build: Box::new(build),
        }
    }

    /// Declares a behaviour fingerprint (see [`Factory::fingerprint`]
    /// — the PR-3 cache contract for runtime registrations).
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = Some(fingerprint.into());
        self
    }

    /// Declares the accepted parameters. Without a schema, any non-empty
    /// [`AttackParams`] fails the build. Only valid on a
    /// [`FnAttackFactory::parameterized`] factory — a params-blind closure
    /// with a declared schema would validate and cache-key params it then
    /// silently ignores (the inert-knob bug class), so that combination
    /// panics at registration time.
    pub fn with_param_schema(mut self, schema: impl IntoIterator<Item = ParamSpec>) -> Self {
        assert!(
            self.params_aware,
            "attack `{}`: with_param_schema needs FnAttackFactory::parameterized \
             (a params-blind closure would silently ignore the declared keys)",
            self.name
        );
        self.schema = schema.into_iter().collect();
        self
    }
}

impl Factory for FnAttackFactory {
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

impl AttackFactory for FnAttackFactory {
    fn build_clients(
        &self,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String> {
        if !params.is_empty() {
            if self.schema.is_empty() {
                return Err(format!(
                    "attack `{}` takes no parameters (got `{params}`); declare a schema \
                     with FnAttackFactory::with_param_schema",
                    self.name
                ));
            }
            let known: Vec<&str> = self.schema.iter().map(|s| s.key.as_str()).collect();
            params.check_known(&known, &self.name)?;
        }
        (self.build)(ctx, params)
    }
}

/// The attack family for the generic registry: its entries are
/// [`AttackFactory`] objects that build malicious clients.
impl Kind for AttackKind {
    type Factory = dyn AttackFactory;
    type Ctx<'a> = AttackBuildCtx<'a>;
    type Output = Vec<Box<dyn Client>>;
    const NOUN: &'static str = "attack";
    const BASELINE: &'static str = "none";

    fn builtins() -> Vec<Arc<dyn AttackFactory>> {
        fn shared(factory: impl AttackFactory + 'static) -> Arc<dyn AttackFactory> {
            Arc::new(factory)
        }
        // The paper's Table VI / Table IX attack variants are ordinary
        // parameterized catalog entries — no runtime registration needed.
        let kinds = AttackKind::all().map(shared).into_iter();
        kinds
            .chain(IpeAblation::all().map(shared))
            .chain(MultiTargetPieck::all().map(shared))
            .collect()
    }

    fn build(
        factory: &dyn AttackFactory,
        ctx: &AttackBuildCtx<'_>,
        params: &AttackParams,
    ) -> Result<Vec<Box<dyn Client>>, String> {
        factory.build_clients(ctx, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register(factory: impl AttackFactory + 'static) {
        Registry::<AttackKind>::register(Arc::new(factory));
    }

    #[test]
    fn builtins_are_registered() {
        for kind in AttackKind::all() {
            let f = Registry::<AttackKind>::get(kind.name()).unwrap_or_else(|| panic!("{kind:?}"));
            assert_eq!(f.name(), kind.name());
            assert_eq!(f.label(), kind.label());
        }
        assert!(Registry::<AttackKind>::names().len() >= AttackKind::all().len());
    }

    #[test]
    fn registry_path_matches_enum_path() {
        let targets = [3u32, 4];
        let ctx = AttackBuildCtx {
            mined_top_n: 10,
            poison_scale: 1.5,
            seed: 9,
            ..AttackBuildCtx::minimal(40, 2, &targets)
        };
        for kind in AttackKind::all() {
            let via_enum = kind.build_clients(40, 2, &[3, 4], 10, 1.5, 9);
            let via_registry = AttackSel::from(kind).build_clients(&ctx);
            assert_eq!(via_enum.len(), via_registry.len(), "{kind:?}");
            let enum_ids: Vec<usize> = via_enum.iter().map(|c| c.id()).collect();
            let reg_ids: Vec<usize> = via_registry.iter().map(|c| c.id()).collect();
            assert_eq!(enum_ids, reg_ids, "{kind:?}");
        }
    }

    #[test]
    fn custom_factory_round_trips() {
        register(FnAttackFactory::new("reg-test", "RegTest", |ctx| {
            assert_eq!(ctx.count, 0);
            Vec::new()
        }));
        let sel = AttackSel::named("reg-test");
        assert_eq!(sel.label(), "RegTest");
        assert!(sel
            .build_clients(&AttackBuildCtx::minimal(0, 0, &[]))
            .is_empty());
    }

    #[test]
    fn fn_factory_rejects_params_without_schema() {
        // Direct factory calls bypass the selection's schema check, so the
        // factory keeps its own.
        let factory = FnAttackFactory::new("no-params", "NoParams", |_| Vec::new());
        let params = AttackParams::new().with("tau", 0.5f32);
        let err = factory
            .build_clients(&AttackBuildCtx::minimal(0, 0, &[]), &params)
            .err()
            .unwrap();
        assert!(err.contains("takes no parameters"), "{err}");
    }

    #[test]
    fn parameterized_fn_factory_sees_params_and_validates_keys() {
        register(
            FnAttackFactory::parameterized("param-attack", "ParamAttack", |ctx, params| {
                let strength = params.get_f32("strength")?.unwrap_or(1.0);
                assert_eq!(strength, 0.25);
                assert_eq!(ctx.count, 0);
                Ok(Vec::new())
            })
            .with_param_schema([ParamSpec::new("strength", "upload magnitude", "1.0")])
            .with_fingerprint("param-attack-v1"),
        );
        let sel = AttackSel::named("param-attack").with_param("strength", 0.25f32);
        assert!(sel.try_build(&AttackBuildCtx::minimal(0, 0, &[])).is_ok());
        assert_eq!(
            sel.fingerprint().as_deref(),
            Some("param-attack-v1"),
            "builder fingerprint surfaces"
        );

        // Unknown keys fail against the declared schema.
        let bad = AttackSel::named("param-attack").with_param("strenght", 0.25f32);
        let err = bad
            .try_build(&AttackBuildCtx::minimal(0, 0, &[]))
            .err()
            .unwrap();
        assert!(err.contains("unknown parameter"), "{err}");
    }

    #[test]
    #[should_panic(expected = "with_param_schema needs FnAttackFactory::parameterized")]
    fn schema_on_a_params_blind_closure_panics_at_registration() {
        // A schema on a closure that never sees the params would validate
        // and cache-key keys it silently ignores — refuse it up front.
        let _ = FnAttackFactory::new("blind", "Blind", |_| Vec::new())
            .with_param_schema([ParamSpec::new("x", "ignored", "1")]);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_attack_panics_on_the_harness_path() {
        AttackSel::named("does-not-exist").build_clients(&AttackBuildCtx::minimal(0, 1, &[]));
    }
}
