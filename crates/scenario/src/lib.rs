#![warn(missing_docs)]

//! Scenario registry: named, seeded, deterministic population generators.
//!
//! The paper's validity analysis ran against one behavioral population.
//! This crate turns the synthetic substrate into a *family* of populations
//! behind one trait, so the α/β extraneous-checkin detectors can be scored
//! against ground truth per family (`repro --exp scenarios`, X15) and every
//! family doubles as a serving workload (`geosocial-loadgen --scenario`).
//!
//! Registered families:
//!
//! | name          | population |
//! |---------------|------------|
//! | `baseline`    | the paper's primary cohort (POI-routine mixture) |
//! | `geosim`      | social graph + exploration/return mobility (GeoSim) |
//! | `tourists`    | resident/tourist cohort mix with distinct dwell/radius |
//! | `mayor-ring`  | coordinated mayorship-farming ring (colluding remote checkins) |
//! | `spoof-swarm` | GPS spoofers with fabricated traces + bursty driveby swarms |
//!
//! Every family draws each user from a private RNG stream derived with the
//! same splitmix64 fan-out as the core generator
//! ([`geosocial_checkin::substream_seed`]), and renders its per-user drafts
//! through the core generator's one cohort builder
//! ([`geosocial_checkin::build_cohort`]), so populations are
//! **bit-identical for every thread count** — the property the serving
//! equivalence oracle and the thread-invariance tests rely on. `baseline`
//! is the core generator's primary cohort alone, byte for byte.

mod baseline;
mod common;
mod geosim;
mod mayor_ring;
mod spoof_swarm;
mod tourists;

pub use common::PopulationConfig;

use geosocial_trace::Dataset;
use serde::{Deserialize, Serialize};

/// Ground-truth role of a generated user within its family.
///
/// Roles are what the per-checkin [`Provenance`](geosocial_trace::Provenance)
/// labels cannot express: cohort membership (tourist vs resident) and
/// collusion (ring member, spoofer). The cohort-audit tests assert on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UserRole {
    /// Ordinary member of the family's main population.
    Regular,
    /// Long-term resident (tourists family).
    Resident,
    /// Short-stay visitor with a hotel base (tourists family).
    Tourist,
    /// Member of the coordinated mayorship-farming ring.
    RingMember,
    /// GPS spoofer driving a fabricated trace.
    Spoofer,
}

impl UserRole {
    /// Display label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            UserRole::Regular => "Regular",
            UserRole::Resident => "Resident",
            UserRole::Tourist => "Tourist",
            UserRole::RingMember => "RingMember",
            UserRole::Spoofer => "Spoofer",
        }
    }
}

/// A generated population: the labeled dataset plus one role per user
/// (indexed like `dataset.users`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Population {
    /// The cohort, with ground-truth provenance on every checkin.
    pub dataset: Dataset,
    /// Per-user ground-truth roles, `roles[i]` for `dataset.users[i]`.
    pub roles: Vec<UserRole>,
}

impl Population {
    /// Ground-truth share of extraneous checkins across the population.
    pub fn extraneous_share(&self) -> f64 {
        let mut total = 0usize;
        let mut extraneous = 0usize;
        for u in &self.dataset.users {
            for c in &u.checkins {
                total += 1;
                if c.provenance.map(|p| p.is_extraneous()).unwrap_or(false) {
                    extraneous += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            extraneous as f64 / total as f64
        }
    }
}

/// One named population generator.
///
/// Implementations must be deterministic in `(cfg, seed)` and thread-count
/// invariant: all randomness flows through per-user substreams
/// ([`geosocial_checkin::substream_seed`]) or single-threaded setup stages.
pub trait ScenarioFamily: Sync {
    /// Registry name (`repro --scenario <name>`).
    fn name(&self) -> &'static str;
    /// One-line description for tables and `--help`.
    fn describe(&self) -> &'static str;
    /// Generate the population.
    fn populate(&self, cfg: &PopulationConfig, seed: u64) -> Population;
}

static REGISTRY: [&dyn ScenarioFamily; 5] = [
    &baseline::Baseline,
    &geosim::GeoSim,
    &tourists::Tourists,
    &mayor_ring::MayorRing,
    &spoof_swarm::SpoofSwarm,
];

/// All registered families, in display order.
pub fn registry() -> &'static [&'static dyn ScenarioFamily] {
    &REGISTRY
}

/// Registered family names, in display order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|f| f.name()).collect()
}

/// Look a family up by name.
pub fn find(name: &str) -> Option<&'static dyn ScenarioFamily> {
    REGISTRY.iter().find(|f| f.name() == name).copied()
}

/// Generate `name`'s population, or `None` for an unknown name.
pub fn populate(name: &str, cfg: &PopulationConfig, seed: u64) -> Option<Population> {
    find(name).map(|f| f.populate(cfg, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let ns = names();
        assert_eq!(ns.len(), 5);
        for n in &ns {
            let f = find(n).expect("registered name resolves");
            assert_eq!(f.name(), *n);
            assert!(!f.describe().is_empty());
        }
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ns.len(), "duplicate registry names");
        assert!(find("no-such-family").is_none());
    }

    #[test]
    fn every_family_populates_with_roles() {
        let cfg = PopulationConfig::small(8, 4);
        for f in registry() {
            let pop = f.populate(&cfg, 7);
            assert!(!pop.dataset.users.is_empty(), "{}: no users", f.name());
            assert_eq!(pop.roles.len(), pop.dataset.users.len(), "{}: roles misaligned", f.name());
            for u in &pop.dataset.users {
                assert!(!u.gps.is_empty(), "{}: user {} has no GPS", f.name(), u.id);
            }
            let stats = pop.dataset.stats();
            assert!(stats.checkins > 0, "{}: no checkins at all", f.name());
            assert!(stats.visits > 0, "{}: no visits at all", f.name());
        }
    }

    #[test]
    fn populations_are_deterministic_per_seed() {
        let cfg = PopulationConfig::small(6, 4);
        for f in registry() {
            let a = f.populate(&cfg, 42);
            let b = f.populate(&cfg, 42);
            assert_eq!(a.dataset.stats(), b.dataset.stats(), "{}: seed 42 differs", f.name());
            assert_eq!(a.roles, b.roles, "{}: roles differ", f.name());
            let c = f.populate(&cfg, 43);
            assert_ne!(
                a.dataset.stats().gps_points,
                c.dataset.stats().gps_points,
                "{}: different seeds should differ",
                f.name()
            );
        }
    }
}
