//! The policy registry: serving policies constructed from config strings.
//!
//! `serve_sim`, the bench binaries, and the replay harness all need to
//! turn *names* (from an environment variable, a CLI flag, a JSON config,
//! a recorded [`ScheduleArtifact`](scar_core::ScheduleArtifact)) into
//! scheduler values. [`PolicyRegistry`] is the one front door for that: a
//! name → factory table open to user schedulers, instead of a hard-coded
//! per-policy `match` duplicated by every tool that reads a config:
//!
//! * the three paper schedulers (`"SCAR"`, `"Standalone"`, `"NN-baton"`)
//!   are pre-registered in [`PolicyRegistry::with_builtins`];
//! * user schedulers join via [`PolicyRegistry::register`] and are then
//!   constructible from config strings exactly like the built-ins;
//! * lookups are case-insensitive, and an unknown name reports the
//!   available set instead of panicking.
//!
//! A factory receives the [`ServeConfig`] so structural knobs that live
//! on the configuration (SCAR's `nsplits` and search driver) apply to the
//! constructed scheduler; configuration-free schedulers ignore it.
//!
//! ```
//! use scar_serve::{PolicyRegistry, ServeConfig};
//!
//! let registry = PolicyRegistry::with_builtins();
//! let cfg = ServeConfig::default();
//! let scheduler = registry.build("scar", &cfg).expect("built-in");
//! assert_eq!(scheduler.name(), "SCAR");
//! assert!(registry.build("no-such-policy", &cfg).is_err());
//! ```

use crate::sim::ServeConfig;
use scar_core::baselines::{NnBaton, Standalone};
use scar_core::{Scar, ScarBuilder, Scheduler};
use std::fmt;

/// A scheduler constructor: builds a fresh boxed [`Scheduler`] for a
/// serving configuration.
pub type PolicyFactory = Box<dyn Fn(&ServeConfig) -> Box<dyn Scheduler>>;

/// Lookup failure: the requested policy name is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub requested: String,
    /// Every registered name, in registration order.
    pub known: Vec<String>,
}

impl fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown serving policy {:?}; registered policies: {}",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// A SCAR builder carrying `cfg`'s structural knobs (window splits and
/// search driver): the base of every SCAR-family registry entry.
pub(crate) fn scar_builder(cfg: &ServeConfig) -> ScarBuilder {
    Scar::builder()
        .nsplits(cfg.nsplits)
        .search(cfg.search.clone())
}

/// A name → scheduler-factory table (see the module docs).
///
/// Names are matched case-insensitively but stored (and reported) in
/// their registered spelling, which by convention equals the constructed
/// scheduler's [`Scheduler::name`].
pub struct PolicyRegistry {
    factories: Vec<(String, PolicyFactory)>,
}

impl fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("policies", &self.names())
            .finish()
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl PolicyRegistry {
    /// An empty registry (no built-ins — for tools that want full control
    /// over the policy namespace).
    pub fn empty() -> Self {
        Self {
            factories: Vec::new(),
        }
    }

    /// The standard registry: the three paper schedulers pre-registered
    /// under their report names. `"SCAR"` takes its window splits and
    /// search driver from the [`ServeConfig`]; the baselines are
    /// configuration-free.
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register("SCAR", |cfg| Box::new(scar_builder(cfg).build()));
        r.register("Standalone", |_| Box::new(Standalone::new()));
        r.register("NN-baton", |_| Box::new(NnBaton::new()));
        r
    }

    /// Registers (or replaces — last registration wins, so users can
    /// shadow a built-in with a tuned variant) a factory under `name`.
    ///
    /// Shadowing is *surfaced*, not silent: when a factory was already
    /// registered under a case-insensitive match of `name`, the displaced
    /// `(registered_name, factory)` pair is returned so the caller can
    /// warn, re-register it elsewhere, or assert no shadowing happened.
    /// A fresh registration returns `None`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&ServeConfig) -> Box<dyn Scheduler> + 'static,
    ) -> Option<(String, PolicyFactory)> {
        let name = name.into();
        let displaced = self
            .factories
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(&name))
            .map(|i| self.factories.remove(i));
        self.factories.push((name, Box::new(factory)));
        displaced
    }

    /// Builds the scheduler registered under `name` (case-insensitive).
    ///
    /// # Errors
    ///
    /// [`UnknownPolicy`] (listing the registered names) when nothing is
    /// registered under `name`.
    pub fn build(
        &self,
        name: &str,
        cfg: &ServeConfig,
    ) -> Result<Box<dyn Scheduler>, UnknownPolicy> {
        let name = name.trim();
        self.factories
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, f)| f(cfg))
            .ok_or_else(|| UnknownPolicy {
                requested: name.to_string(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
    }

    /// Whether `name` resolves to a registered factory.
    pub fn contains(&self, name: &str) -> bool {
        self.factories
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case(name.trim()))
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.factories.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::fingerprint;
    use scar_core::{ScheduleRequest, Session};
    use scar_mcm::templates::{het_sides_3x3, Profile};
    use scar_workloads::Scenario;

    #[test]
    fn builtins_resolve_to_their_report_names() {
        let r = PolicyRegistry::with_builtins();
        let cfg = ServeConfig::default();
        for (key, expect) in [
            ("SCAR", "SCAR"),
            ("scar", "SCAR"),
            (" Standalone ", "Standalone"),
            ("nn-baton", "NN-baton"),
        ] {
            assert_eq!(r.build(key, &cfg).unwrap().name(), expect, "{key:?}");
        }
        assert_eq!(r.names(), vec!["SCAR", "Standalone", "NN-baton"]);
    }

    #[test]
    fn unknown_names_report_the_known_set() {
        let r = PolicyRegistry::with_builtins();
        let err = match r.build("round-robin", &ServeConfig::default()) {
            Ok(_) => panic!("unregistered name must not build"),
            Err(e) => e,
        };
        assert_eq!(err.requested, "round-robin");
        let msg = err.to_string();
        for name in ["SCAR", "Standalone", "NN-baton", "round-robin"] {
            assert!(msg.contains(name), "{msg:?} must mention {name}");
        }
    }

    /// Two schedulers built from the same registry name under the same
    /// config must be interchangeable for caching: identical names and
    /// identical fingerprints for any request.
    #[test]
    fn rebuilt_policies_fingerprint_identically() {
        let r = PolicyRegistry::with_builtins();
        let cfg = ServeConfig::default();
        let req = ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter));
        for name in r.names() {
            let a = r.build(name, &cfg).unwrap();
            let b = r.build(name, &cfg).unwrap();
            assert_eq!(a.name(), b.name());
            assert_eq!(
                fingerprint(&req, a.as_ref()),
                fingerprint(&req, b.as_ref()),
                "{name}: fingerprint_config must be a pure function of config"
            );
        }
    }

    /// SCAR's factory reads the config's structural knobs: different
    /// nsplits → different fingerprint (it is configuration).
    #[test]
    fn scar_factory_applies_config_knobs() {
        let r = PolicyRegistry::with_builtins();
        let req = ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter));
        let one = ServeConfig {
            nsplits: 1,
            ..ServeConfig::default()
        };
        let two = ServeConfig {
            nsplits: 2,
            ..ServeConfig::default()
        };
        let a = r.build("SCAR", &one).unwrap();
        let b = r.build("SCAR", &two).unwrap();
        assert_ne!(fingerprint(&req, a.as_ref()), fingerprint(&req, b.as_ref()));
    }

    #[test]
    fn user_policies_register_and_shadow() {
        struct Custom;
        impl Scheduler for Custom {
            fn name(&self) -> &str {
                "custom"
            }
            fn schedule(
                &self,
                session: &Session,
                request: &ScheduleRequest,
            ) -> Result<scar_core::ScheduleResult, scar_core::ScheduleError> {
                Standalone::new().schedule(session, request)
            }
        }
        let mut r = PolicyRegistry::with_builtins();
        assert!(
            r.register("custom", |_| Box::new(Custom)).is_none(),
            "fresh registration displaces nothing"
        );
        assert!(r.contains("CUSTOM"));
        assert_eq!(
            r.build("custom", &ServeConfig::default()).unwrap().name(),
            "custom"
        );
        // shadowing a built-in: last registration wins, and the displaced
        // factory is returned (in its registered spelling) rather than
        // silently dropped
        let displaced = r
            .register("STANDALONE", |_| Box::new(Custom))
            .expect("shadowing a built-in must surface the displaced entry");
        assert_eq!(displaced.0, "Standalone");
        let original = (displaced.1)(&ServeConfig::default());
        assert_eq!(original.name(), "Standalone", "displaced factory works");
        assert_eq!(
            r.build("standalone", &ServeConfig::default())
                .unwrap()
                .name(),
            "custom"
        );
        assert_eq!(r.names().len(), 4);
    }
}
