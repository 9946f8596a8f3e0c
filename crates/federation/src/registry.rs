//! The open factory registry and the `{name, params}` selection that
//! references its entries — one generic copy for every factory family.
//!
//! A family (attacks in `frs_attacks`, defenses in `frs_defense`) plugs in
//! through a [`Kind`]: its catalog enum names the family's factory trait
//! object, build context and output, the noun its error messages use and
//! its baseline entry. Everything else lives here once:
//!
//! - [`Registry`] maps names to shared factories. Each kind's map is seeded
//!   with [`Kind::builtins`] on first use; out-of-crate factories plug in
//!   through [`Registry::register`] without touching any core code.
//! - [`Selection`] is what scenario configurations carry: a registry name
//!   plus a canonical [`Params`] payload. Its CLI form is `name[:k=v,…]`
//!   (`pieck-uea:scale=2,top_n=20`, `ours:beta=0.9,re2=false`). It
//!   serializes as the plain name string when the params are empty
//!   (`"ours"`) and as `{"name": "ours", "params": {"beta": 0.9}}`
//!   otherwise; both forms deserialize. The params map is sorted-key and
//!   canonical (see [`crate::params`]), so suite cache keys see factory
//!   hyper-parameters by construction.
//! - [`Selection::try_build`] resolves the name and checks the params
//!   against the factory's declared [`Factory::param_schema`] before the
//!   factory runs, so a typo'd key is a clean `Err` for every family even
//!   when a factory forgets its own check.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::client::Client;
use crate::params::{ParamSpec, ParamValue, Params};

/// What every registered factory declares, whatever its family. Each
/// family's factory trait (`AttackFactory`, `DefenseFactory`) extends it
/// with the family's build method.
pub trait Factory: Send + Sync {
    /// Stable registry key (kebab-case).
    fn name(&self) -> &str;

    /// Row label for experiment tables; defaults to the registry name.
    fn label(&self) -> &str {
        self.name()
    }

    /// The parameters this factory accepts, for validation and for
    /// `paper attacks list` / `paper defenses list`. Empty (the default)
    /// means "takes none".
    fn param_schema(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Optional behaviour fingerprint, mixed into suite cache keys.
    ///
    /// Selection *params* need no fingerprint — they live in the config
    /// JSON and key the cache directly. The fingerprint covers what a
    /// runtime-registered factory *closed over*: a factory that returns a
    /// stable string describing its captured parameters re-keys every
    /// affected cell when the name is re-registered with different
    /// behaviour. `None` (the default, and what the built-ins use — their
    /// behaviour is code, versioned by the cache schema) keeps name-only
    /// addressing.
    fn fingerprint(&self) -> Option<String> {
        None
    }
}

/// A factory family, implemented by its catalog enum. The enum's values
/// are themselves factories — the family's builtin entries — so
/// `Selection<K>` converts from and compares against them.
pub trait Kind: Factory + 'static {
    /// The family's factory trait object (`dyn AttackFactory`, …).
    type Factory: ?Sized + Factory + 'static;
    /// What a build reads from the scenario.
    type Ctx<'a>;
    /// What a build produces.
    type Output;
    /// Noun used in error messages (`attack`, `defense`).
    const NOUN: &'static str;
    /// Registry name of the family's baseline entry (`none`).
    const BASELINE: &'static str;

    /// The factories a fresh registry of this kind holds.
    fn builtins() -> Vec<Arc<Self::Factory>>;

    /// Runs `factory` on already schema-checked `params`.
    fn build(
        factory: &Self::Factory,
        ctx: &Self::Ctx<'_>,
        params: &Params,
    ) -> Result<Self::Output, String>;
}

/// The process-wide name → factory map of kind `K`.
pub struct Registry<K: Kind> {
    factories: RwLock<BTreeMap<String, Arc<K::Factory>>>,
}

impl<K: Kind> Registry<K> {
    /// The registry of kind `K`, seeded with [`Kind::builtins`] on first use.
    fn global() -> &'static Self {
        // Rust has no generic statics: one table holds every kind's
        // registry, leaked once per kind so lookups hand out `'static`
        // references.
        type Kinds = Mutex<BTreeMap<TypeId, &'static (dyn Any + Send + Sync)>>;
        static KINDS: OnceLock<Kinds> = OnceLock::new();
        let mut kinds = KINDS
            .get_or_init(Kinds::default)
            .lock()
            .expect("registry table poisoned");
        let registry = *kinds.entry(TypeId::of::<K>()).or_insert_with(|| {
            let factories = K::builtins()
                .into_iter()
                .map(|f| (f.name().to_string(), f))
                .collect();
            Box::leak(Box::new(Self {
                factories: RwLock::new(factories),
            }))
        });
        registry
            .downcast_ref()
            .expect("the table is keyed by each registry's own kind")
    }

    /// Registers (or replaces) a factory under its name. Returns the
    /// previously registered factory of that name, if any.
    pub fn register(factory: Arc<K::Factory>) -> Option<Arc<K::Factory>> {
        Self::global()
            .factories
            .write()
            .expect("registry poisoned")
            .insert(factory.name().to_string(), factory)
    }

    /// Looks a factory up by registry name.
    pub fn get(name: &str) -> Option<Arc<K::Factory>> {
        Self::global()
            .factories
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
    }

    /// All registered names, sorted.
    pub fn names() -> Vec<String> {
        Self::global()
            .factories
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }
}

/// A serializable, registry-backed reference to a factory of kind `K`: its
/// registry name plus a canonical [`Params`] payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selection<K> {
    name: String,
    params: Params,
    kind: PhantomData<fn() -> K>,
}

impl<K: Kind> Selection<K> {
    /// References a registered (or to-be-registered) factory by name, with
    /// no parameter overrides.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Params::new(),
            kind: PhantomData,
        }
    }

    /// The baseline entry (no attack, no defense).
    pub fn none() -> Self {
        Self::named(K::BASELINE)
    }

    /// Parses the CLI form `name[:k=v,…]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, params) = match spec.split_once(':') {
            None => (spec.trim(), Params::new()),
            Some((name, list)) => (name.trim(), Params::parse_list(list)?),
        };
        if name.is_empty() {
            return Err(format!("empty {} name", K::NOUN));
        }
        Ok(Self {
            params,
            ..Self::named(name)
        })
    }

    /// Registry key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter payload.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Sets a parameter (builder form).
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.set(key, value);
        self
    }

    /// Sets a parameter in place.
    pub fn set_param(&mut self, key: impl Into<String>, value: impl Into<ParamValue>) {
        self.params.set(key, value);
    }

    /// Sets a parameter only when the resolved factory declares `key`, so a
    /// run-wide knob cannot re-key (and thereby duplicate) cache cells
    /// whose factory would ignore it. Unresolved names accept every key:
    /// their schema is unknowable here, and the build still rejects strays.
    pub fn offer_param(&mut self, key: &str, value: impl Into<ParamValue>) {
        let declared = match self.resolve() {
            Some(factory) => factory.param_schema().iter().any(|spec| spec.key == key),
            None => true,
        };
        if declared {
            self.params.set(key, value);
        }
    }

    /// True for the baseline entry.
    pub fn is_none(&self) -> bool {
        self.name == K::BASELINE
    }

    /// Resolves through the registry.
    pub fn resolve(&self) -> Option<Arc<K::Factory>> {
        Registry::<K>::get(&self.name)
    }

    /// Table row label: the factory's, falling back to the raw name for
    /// not-yet-registered references. Params do not change the label —
    /// they surface through the variant axis and progress events instead.
    pub fn label(&self) -> String {
        match self.resolve() {
            Some(f) => f.label().to_string(),
            None => self.name.clone(),
        }
    }

    /// The resolved factory's behaviour fingerprint, if it declares one
    /// (unregistered names and fingerprint-less factories yield `None`).
    pub fn fingerprint(&self) -> Option<String> {
        self.resolve().and_then(|f| f.fingerprint())
    }

    /// Builds the selection; `Err` for unregistered names, params the
    /// factory's schema does not declare, and the factory's own errors
    /// (type mismatches, out-of-range values). The CLI probes this at
    /// startup so a bad `--attack`/`--defense` spec is a clean exit, not a
    /// mid-sweep panic.
    pub fn try_build(&self, ctx: &K::Ctx<'_>) -> Result<K::Output, String> {
        let factory = self.resolve().ok_or_else(|| {
            format!(
                "{} `{}` is not registered (known: {:?})",
                K::NOUN,
                self.name,
                Registry::<K>::names()
            )
        })?;
        if !self.params.is_empty() {
            let schema = factory.param_schema();
            if schema.is_empty() {
                return Err(format!(
                    "{} `{}` takes no parameters (got `{}`)",
                    K::NOUN,
                    self.name,
                    self.params
                ));
            }
            let known: Vec<&str> = schema.iter().map(|s| s.key.as_str()).collect();
            self.params.check_known(&known, &self.name)?;
        }
        K::build(&factory, ctx, &self.params)
    }

    /// Builds the selection; panics on configuration errors (the harness
    /// path — a scenario referencing a bad factory is a programming error).
    pub fn build(&self, ctx: &K::Ctx<'_>) -> K::Output {
        self.try_build(ctx)
            .unwrap_or_else(|e| panic!("cannot build {} `{self}`: {e}", K::NOUN))
    }
}

impl<K: Kind<Output = Vec<Box<dyn Client>>>> Selection<K> {
    /// [`Selection::build`] for kinds that populate a run with clients.
    pub fn build_clients(&self, ctx: &K::Ctx<'_>) -> Vec<Box<dyn Client>> {
        self.build(ctx)
    }
}

impl<K: Kind> From<K> for Selection<K> {
    fn from(kind: K) -> Self {
        Self::named(kind.name())
    }
}

/// Name-only comparison: a parameterized `pieck-uea:scale=2` still *is* the
/// `PieckUea` entry for labelling and reporting.
impl<K: Kind> PartialEq<K> for Selection<K> {
    fn eq(&self, kind: &K) -> bool {
        self.name == kind.name()
    }
}

/// The CLI form: `name` or `name:k=v,…`.
impl<K> std::fmt::Display for Selection<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)?;
        if !self.params.is_empty() {
            write!(f, ":{}", self.params)?;
        }
        Ok(())
    }
}

impl<K> serde::Serialize for Selection<K> {
    fn to_value(&self) -> serde::Value {
        if self.params.is_empty() {
            serde::Value::String(self.name.clone())
        } else {
            let mut map = serde::Map::new();
            map.insert("name".into(), serde::Value::String(self.name.clone()));
            map.insert("params".into(), serde::Serialize::to_value(&self.params));
            serde::Value::Object(map)
        }
    }
}

impl<K: Kind> serde::Deserialize for Selection<K> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(name) => Ok(Self::named(name)),
            serde::Value::Object(map) => {
                let name = map.get("name").and_then(|n| n.as_str()).ok_or_else(|| {
                    serde::Error::new(format!("{} object needs a `name` string", K::NOUN))
                })?;
                let params = match map.get("params") {
                    None => Params::new(),
                    Some(p) => serde::Deserialize::from_value(p)?,
                };
                Ok(Self {
                    params,
                    ..Self::named(name)
                })
            }
            other => Err(serde::Error::new(format!(
                "expected {} name or {{name, params}}, got {}",
                K::NOUN,
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy family: its factories echo the params they were built with.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Toy {
        Plain,
        Tunable,
    }

    struct ToyFactory {
        name: &'static str,
        schema: Vec<ParamSpec>,
        fingerprint: Option<&'static str>,
    }

    impl ToyFactory {
        fn new(name: &'static str) -> Self {
            Self {
                name,
                schema: Vec::new(),
                fingerprint: None,
            }
        }
    }

    impl Factory for ToyFactory {
        fn name(&self) -> &str {
            self.name
        }
        fn param_schema(&self) -> Vec<ParamSpec> {
            self.schema.clone()
        }
        fn fingerprint(&self) -> Option<String> {
            self.fingerprint.map(String::from)
        }
    }

    impl Factory for Toy {
        fn name(&self) -> &str {
            match self {
                Toy::Plain => "plain",
                Toy::Tunable => "tunable",
            }
        }
    }

    impl Kind for Toy {
        type Factory = ToyFactory;
        type Ctx<'a> = ();
        type Output = Params;
        const NOUN: &'static str = "toy";
        const BASELINE: &'static str = "plain";

        fn builtins() -> Vec<Arc<ToyFactory>> {
            vec![
                Arc::new(ToyFactory::new("plain")),
                Arc::new(ToyFactory {
                    schema: vec![
                        ParamSpec::new("scale", "a number", "1"),
                        ParamSpec::new("top_n", "a count", "10"),
                        ParamSpec::new("re2", "a switch", "true"),
                    ],
                    ..ToyFactory::new("tunable")
                }),
            ]
        }

        fn build(_: &ToyFactory, _: &(), params: &Params) -> Result<Params, String> {
            Ok(params.clone())
        }
    }

    type ToySel = Selection<Toy>;

    #[test]
    fn parses_cli_specs() {
        assert_eq!(ToySel::parse("tunable").unwrap(), ToySel::named("tunable"));
        let sel = ToySel::parse("tunable:scale=2.0,top_n=20,re2=false").unwrap();
        assert_eq!(sel.name(), "tunable");
        assert_eq!(sel.params().get_f32("scale").unwrap(), Some(2.0));
        assert_eq!(sel.params().get_usize("top_n").unwrap(), Some(20));
        assert_eq!(sel.params().get_bool("re2").unwrap(), Some(false));
        // Whole floats normalize: `scale=2.0` keys and prints like `scale=2`.
        assert_eq!(sel.to_string(), "tunable:re2=false,scale=2,top_n=20");
        assert_eq!(ToySel::parse(&sel.to_string()).unwrap(), sel);
        assert_eq!(
            sel,
            ToySel::named("tunable")
                .with_param("top_n", 20usize)
                .with_param("scale", 2.0f32)
                .with_param("re2", false)
        );

        assert_eq!(ToySel::parse("").unwrap_err(), "empty toy name");
        assert!(ToySel::parse("tunable:scale").is_err());
        assert!(ToySel::parse(":scale=1").is_err());
    }

    #[test]
    fn f32_params_key_like_their_cli_spelling() {
        // `0.9f32 as f64` would be 0.90000003…, addressing a different
        // cache cell than the CLI's `scale=0.9`.
        let programmatic = ToySel::named("tunable").with_param("scale", 0.9f32);
        let cli = ToySel::parse("tunable:scale=0.9").unwrap();
        assert_eq!(programmatic, cli);
        assert_eq!(programmatic.to_string(), "tunable:scale=0.9");
        assert_eq!(programmatic.params().get_f32("scale").unwrap(), Some(0.9));
    }

    #[test]
    fn sel_compares_against_kinds_and_serializes_as_string() {
        let sel: ToySel = Toy::Tunable.into();
        assert_eq!(sel, Toy::Tunable);
        assert_ne!(sel, Toy::Plain);
        assert_eq!(ToySel::from(Toy::Plain), ToySel::none());
        assert!(ToySel::none().is_none());
        assert!(!sel.is_none());
        let v = serde::Serialize::to_value(&sel);
        assert_eq!(v.as_str(), Some("tunable"));
        let back: ToySel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, sel);
        let err =
            <ToySel as serde::Deserialize>::from_value(&serde::Value::Bool(true)).unwrap_err();
        assert!(
            err.0.starts_with("expected toy name or {name, params}"),
            "{err:?}"
        );
    }

    #[test]
    fn parameterized_sel_serializes_as_object_and_round_trips() {
        let sel = ToySel::named("tunable")
            .with_param("scale", 2.0f32)
            .with_param("re2", false);
        let v = serde::Serialize::to_value(&sel);
        let obj = v.as_object().expect("object form");
        assert_eq!(obj.get("name").and_then(|n| n.as_str()), Some("tunable"));
        let back: ToySel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, sel);
        // Insertion order does not matter: params are sorted-key.
        let reordered = ToySel::named("tunable")
            .with_param("re2", false)
            .with_param("scale", 2.0f32);
        assert_eq!(serde::Serialize::to_value(&reordered), v);
        // A params difference is a selection difference…
        assert_ne!(sel, ToySel::named("tunable").with_param("scale", 3u64));
        // …but name-vs-kind comparison ignores params.
        assert_eq!(sel, Toy::Tunable);
        let mut nameless = serde::Map::new();
        nameless.insert("params".into(), serde::Value::Object(serde::Map::new()));
        let err = <ToySel as serde::Deserialize>::from_value(&serde::Value::Object(nameless))
            .unwrap_err();
        assert_eq!(err.0, "toy object needs a `name` string");
    }

    #[test]
    fn try_build_checks_params_against_the_schema() {
        let ok = ToySel::parse("tunable:scale=2").unwrap();
        assert_eq!(ok.try_build(&()).unwrap(), *ok.params());
        let typo = ToySel::parse("tunable:scael=2").unwrap();
        let err = typo.try_build(&()).unwrap_err();
        assert!(
            err.starts_with("unknown parameter(s) [\"scael\"] for `tunable`"),
            "{err}"
        );
        let err = ToySel::parse("plain:x=1")
            .unwrap()
            .try_build(&())
            .unwrap_err();
        assert_eq!(err, "toy `plain` takes no parameters (got `x=1`)");
    }

    #[test]
    fn unknown_names_are_a_clean_error_listing_the_catalogue() {
        let sel = ToySel::named("does-not-exist");
        let err = sel.try_build(&()).unwrap_err();
        assert!(
            err.starts_with("toy `does-not-exist` is not registered (known: ["),
            "{err}"
        );
        assert!(
            err.contains("\"plain\"") && err.contains("\"tunable\""),
            "{err}"
        );
        assert_eq!(sel.label(), "does-not-exist");
    }

    #[test]
    fn offered_params_land_only_where_declared() {
        let mut tunable = ToySel::named("tunable");
        tunable.offer_param("scale", 2u64);
        let mut plain = ToySel::none();
        plain.offer_param("scale", 2u64);
        let mut unresolved = ToySel::named("not-yet-registered");
        unresolved.offer_param("scale", 2u64);
        assert_eq!(tunable.to_string(), "tunable:scale=2");
        assert_eq!(plain.to_string(), "plain");
        assert_eq!(unresolved.to_string(), "not-yet-registered:scale=2");
    }

    #[test]
    fn fingerprints_surface_through_selections() {
        assert!(ToySel::named("never-registered").fingerprint().is_none());
        assert!(ToySel::none().fingerprint().is_none());
        let previous = Registry::<Toy>::register(Arc::new(ToyFactory {
            fingerprint: Some("lambda=0.5"),
            ..ToyFactory::new("fp-some")
        }));
        assert!(previous.is_none());
        assert_eq!(
            ToySel::named("fp-some").fingerprint().as_deref(),
            Some("lambda=0.5")
        );
        assert!(Registry::<Toy>::names().contains(&"fp-some".to_string()));
        // Re-registering replaces and hands back the old factory.
        let replaced = Registry::<Toy>::register(Arc::new(ToyFactory::new("fp-some")));
        assert_eq!(
            replaced.and_then(|f| f.fingerprint()).as_deref(),
            Some("lambda=0.5")
        );
        assert!(ToySel::named("fp-some").fingerprint().is_none());
    }
}
