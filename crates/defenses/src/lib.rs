//! Baseline and comparison memory models.
//!
//! The MuonTrap paper evaluates against an unprotected system and against two
//! published defenses re-run on the same platform: **InvisiSpec** (Yan et al.,
//! MICRO 2018) and **Speculative Taint Tracking** (Yu et al., MICRO 2019),
//! each in a "Spectre" and a "Future" (futuristic attack model) variant. This
//! crate reimplements those policies on top of the shared [`memsys::Platform`]
//! (the hierarchy plus one MMU per core, with the ordinary translate, fetch,
//! load and commit-store paths), so every configuration in the evaluation runs
//! on exactly the same substrate and each model holds only its protection
//! policy:
//!
//! * [`Unprotected`] — the insecure baseline all figures are normalised to,
//! * [`InvisiSpec`] — speculative loads go to an invisible per-core buffer and
//!   the cache is only updated by an exposure/validation access once the load
//!   is safe (modelled at commit; the [`invisispec`] module note discusses
//!   the fidelity trade-off),
//! * [`Stt`] — speculative loads may execute, but *transmitters* (loads whose
//!   address depends on an unsafe speculative load's value) are blocked until
//!   the source becomes safe,
//! * the insecure L0 and every MuonTrap configuration come from the
//!   `muontrap` crate via [`simkit::config::ProtectionConfig`].
//!
//! On top of the paper's own comparison points, the crate models three
//! further competitor families (the "defense zoo"):
//!
//! * [`Fence`] — serialise at every conditional branch, the sound-but-slow
//!   software baseline of the Spectre-sandboxing line of work,
//! * [`DelayLoads`] — no speculative cache fills at all: a naive
//!   InvisiSpec-style variant with no speculative buffer and no speculative
//!   prefetcher training,
//! * [`SafeBet`] — SafeBet-style tracked-region speculation: loads to
//!   recently-and-safely-accessed regions proceed speculatively, all others
//!   are delayed (a Speculative Access Window).
//!
//! [`DefenseKind::build`] instantiates any configuration that appears in the
//! paper's figures. [`DefenseKind::NAMED`] lists every configuration a name
//! selects, and `FromStr`/`Display` on [`DefenseKind`] map those names to
//! kinds and back for CLI flags and reports.

#![forbid(unsafe_code)]

mod deferred;
pub mod delay_loads;
pub mod fence;
pub mod invisispec;
pub mod safebet;
pub mod stt;
pub mod unprotected;

use std::fmt;

use ooo_core::MemoryModel;
use simkit::config::{ProtectionConfig, SystemConfig};

pub use delay_loads::DelayLoads;
pub use fence::Fence;
pub use invisispec::{InvisiSpec, InvisiSpecVariant};
pub use safebet::SafeBet;
pub use stt::{Stt, SttVariant};
pub use unprotected::Unprotected;

/// Every memory-system configuration evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// No protection at all (the normalisation baseline).
    Unprotected,
    /// A small L0 in front of the L1 with none of MuonTrap's protections.
    InsecureL0,
    /// Full MuonTrap (figures 3 and 4).
    MuonTrap,
    /// MuonTrap plus clear-on-misspeculate (figures 8 and 9).
    MuonTrapClearOnMisspeculate,
    /// MuonTrap with parallel L0/L1 lookup (figure 9).
    MuonTrapParallelL1,
    /// MuonTrap with an explicit protection configuration (cost breakdown).
    MuonTrapCustom(ProtectionConfig),
    /// InvisiSpec, Spectre attack model.
    InvisiSpecSpectre,
    /// InvisiSpec, futuristic attack model.
    InvisiSpecFuture,
    /// Speculative taint tracking, Spectre attack model.
    SttSpectre,
    /// Speculative taint tracking, futuristic attack model.
    SttFuture,
    /// Serialise at every conditional branch (sound-but-slow baseline).
    Fence,
    /// No speculative cache fills (naive InvisiSpec-style variant).
    DelayLoads,
    /// SafeBet-style tracked-region speculation (Speculative Access Window).
    SafeBet,
}

impl DefenseKind {
    /// A stable label used in reports and benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::Unprotected => "unprotected",
            DefenseKind::InsecureL0 => "insecure-l0",
            DefenseKind::MuonTrap => "muontrap",
            DefenseKind::MuonTrapClearOnMisspeculate => "muontrap-clear-misspec",
            DefenseKind::MuonTrapParallelL1 => "muontrap-parallel-l1",
            DefenseKind::MuonTrapCustom(_) => "muontrap-custom",
            DefenseKind::InvisiSpecSpectre => "invisispec-spectre",
            DefenseKind::InvisiSpecFuture => "invisispec-future",
            DefenseKind::SttSpectre => "stt-spectre",
            DefenseKind::SttFuture => "stt-future",
            DefenseKind::Fence => "fence",
            DefenseKind::DelayLoads => "delay-loads",
            DefenseKind::SafeBet => "safebet",
        }
    }

    /// The five configurations compared in figures 3 and 4.
    pub fn figure3_set() -> Vec<DefenseKind> {
        vec![
            DefenseKind::MuonTrap,
            DefenseKind::InvisiSpecSpectre,
            DefenseKind::InvisiSpecFuture,
            DefenseKind::SttSpectre,
            DefenseKind::SttFuture,
        ]
    }

    /// The seven Spectre-threat-model configurations of the cross-defense
    /// shoot-out figure: the insecure L0 and every defense-zoo member, in
    /// roughly increasing-protection order.
    ///
    /// # Examples
    ///
    /// ```
    /// use defenses::DefenseKind;
    ///
    /// let set = DefenseKind::shootout_set();
    /// assert!(set.contains(&DefenseKind::Fence));
    /// assert!(set.contains(&DefenseKind::MuonTrap));
    /// ```
    pub fn shootout_set() -> Vec<DefenseKind> {
        vec![
            DefenseKind::InsecureL0,
            DefenseKind::Fence,
            DefenseKind::DelayLoads,
            DefenseKind::SafeBet,
            DefenseKind::MuonTrap,
            DefenseKind::InvisiSpecSpectre,
            DefenseKind::SttSpectre,
        ]
    }

    /// Every *named* kind — all variants except [`DefenseKind::MuonTrapCustom`],
    /// which carries an arbitrary [`ProtectionConfig`] and therefore has no
    /// closed set of values.
    pub const NAMED: [DefenseKind; 12] = [
        DefenseKind::Unprotected,
        DefenseKind::InsecureL0,
        DefenseKind::MuonTrap,
        DefenseKind::MuonTrapClearOnMisspeculate,
        DefenseKind::MuonTrapParallelL1,
        DefenseKind::InvisiSpecSpectre,
        DefenseKind::InvisiSpecFuture,
        DefenseKind::SttSpectre,
        DefenseKind::SttFuture,
        DefenseKind::Fence,
        DefenseKind::DelayLoads,
        DefenseKind::SafeBet,
    ];

    /// Builds the memory model for this kind over a fresh hierarchy described
    /// by `config`. The `protection` field of `config` is overridden as
    /// required by the chosen kind.
    pub fn build(self, config: &SystemConfig) -> Box<dyn MemoryModel> {
        let mut cfg = config.clone();
        match self {
            DefenseKind::Unprotected => Box::new(Unprotected::new(&cfg)),
            DefenseKind::InsecureL0 => {
                cfg.protection = ProtectionConfig::insecure_l0();
                Box::new(muontrap::MuonTrap::new(&cfg))
            }
            DefenseKind::MuonTrap => {
                cfg.protection = ProtectionConfig::muontrap_default();
                Box::new(muontrap::MuonTrap::new(&cfg))
            }
            DefenseKind::MuonTrapClearOnMisspeculate => {
                cfg.protection = ProtectionConfig::muontrap_clear_on_misspeculate();
                Box::new(muontrap::MuonTrap::new(&cfg))
            }
            DefenseKind::MuonTrapParallelL1 => {
                cfg.protection = ProtectionConfig::muontrap_parallel_l1();
                Box::new(muontrap::MuonTrap::new(&cfg))
            }
            DefenseKind::MuonTrapCustom(protection) => {
                cfg.protection = protection;
                Box::new(muontrap::MuonTrap::new(&cfg))
            }
            DefenseKind::InvisiSpecSpectre => {
                Box::new(InvisiSpec::new(&cfg, InvisiSpecVariant::Spectre))
            }
            DefenseKind::InvisiSpecFuture => {
                Box::new(InvisiSpec::new(&cfg, InvisiSpecVariant::Future))
            }
            DefenseKind::SttSpectre => Box::new(Stt::new(&cfg, SttVariant::Spectre)),
            DefenseKind::SttFuture => Box::new(Stt::new(&cfg, SttVariant::Future)),
            DefenseKind::Fence => Box::new(Fence::new(&cfg)),
            DefenseKind::DelayLoads => Box::new(DelayLoads::new(&cfg)),
            DefenseKind::SafeBet => Box::new(SafeBet::new(&cfg)),
        }
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`DefenseKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDefenseError {
    name: String,
}

impl fmt::Display for ParseDefenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown defense `{}` (expected one of: ", self.name)?;
        for (i, kind) in DefenseKind::NAMED.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{kind}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ParseDefenseError {}

impl std::str::FromStr for DefenseKind {
    type Err = ParseDefenseError;

    /// Parses the stable labels produced by [`DefenseKind::label`]. The
    /// `muontrap-custom` label is *not* parseable: a custom kind needs a
    /// [`ProtectionConfig`] that a bare name cannot carry.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DefenseKind::NAMED
            .into_iter()
            .find(|kind| kind.label() == s)
            .ok_or_else(|| ParseDefenseError {
                name: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        let cfg = SystemConfig::paper_default();
        for kind in [
            DefenseKind::Unprotected,
            DefenseKind::InsecureL0,
            DefenseKind::MuonTrap,
            DefenseKind::MuonTrapClearOnMisspeculate,
            DefenseKind::MuonTrapParallelL1,
            DefenseKind::MuonTrapCustom(ProtectionConfig::muontrap_default()),
            DefenseKind::InvisiSpecSpectre,
            DefenseKind::InvisiSpecFuture,
            DefenseKind::SttSpectre,
            DefenseKind::SttFuture,
            DefenseKind::Fence,
            DefenseKind::DelayLoads,
            DefenseKind::SafeBet,
        ] {
            let model = kind.build(&cfg);
            assert!(!model.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn figure3_set_has_the_five_compared_configurations() {
        let set = DefenseKind::figure3_set();
        assert_eq!(set.len(), 5);
        assert!(set.contains(&DefenseKind::MuonTrap));
        assert!(set.contains(&DefenseKind::SttFuture));
    }

    #[test]
    fn shootout_set_is_all_named_spectre_model_zoo_members() {
        let set = DefenseKind::shootout_set();
        assert_eq!(set.len(), 7);
        // Every member is a named kind (the figure is label-addressable) and
        // the normalisation baseline is not its own column.
        for kind in &set {
            assert!(DefenseKind::NAMED.contains(kind));
        }
        assert!(!set.contains(&DefenseKind::Unprotected));
        for kind in [
            DefenseKind::Fence,
            DefenseKind::DelayLoads,
            DefenseKind::SafeBet,
            DefenseKind::MuonTrap,
        ] {
            assert!(set.contains(&kind), "sound defense {kind} must compete");
        }
    }

    #[test]
    fn defense_kind_display_from_str_round_trips_every_named_variant() {
        for kind in DefenseKind::NAMED {
            let text = kind.to_string();
            assert_eq!(
                text.parse::<DefenseKind>(),
                Ok(kind),
                "round-trip failed for {text}"
            );
        }
        // The custom kind displays but deliberately does not parse: a bare
        // name cannot carry its ProtectionConfig payload.
        let custom = DefenseKind::MuonTrapCustom(ProtectionConfig::muontrap_default());
        assert_eq!(custom.to_string(), "muontrap-custom");
        assert!("muontrap-custom".parse::<DefenseKind>().is_err());
        assert!("definitely-not-a-defense".parse::<DefenseKind>().is_err());
    }

    #[test]
    fn only_stt_requests_taint_tracking() {
        let cfg = SystemConfig::paper_default();
        assert!(DefenseKind::SttSpectre.build(&cfg).needs_taint_tracking());
        assert!(DefenseKind::SttFuture.build(&cfg).needs_taint_tracking());
        assert!(!DefenseKind::MuonTrap.build(&cfg).needs_taint_tracking());
        assert!(!DefenseKind::Unprotected.build(&cfg).needs_taint_tracking());
        assert!(!DefenseKind::InvisiSpecFuture
            .build(&cfg)
            .needs_taint_tracking());
    }
}
