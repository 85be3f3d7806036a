//! Shared machinery: the sizing config, and the thin glue from a family's
//! drafts to `geosocial-checkin`'s cohort builder.

use crate::{Population, UserRole};
use geosocial_checkin::{build_cohort, draft_user, BehaviorConfig, Draft, ScenarioConfig};
use geosocial_trace::{Checkin, PoiUniverse, Provenance};
use serde::{Deserialize, Serialize};

/// Sizing and physics knobs shared by every family.
///
/// Wraps the core [`ScenarioConfig`] so the `baseline` family — and the
/// default loadgen path — stays byte-identical to the pre-registry
/// generator: `primary_users`/`primary_days` size the population, and the
/// city/routine/GPS/visit/incentive knobs are reused verbatim.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// The underlying core configuration.
    pub base: ScenarioConfig,
}

impl PopulationConfig {
    /// Scaled-down configuration: `users` users over `days` days in a
    /// small city — exactly [`ScenarioConfig::small`].
    pub fn small(users: u32, days: u32) -> Self {
        Self { base: ScenarioConfig::small(users, days) }
    }

    /// Number of users every family generates.
    pub fn users(&self) -> u32 {
        self.base.primary_users
    }

    /// Nominal measurement days per user.
    pub fn days(&self) -> u32 {
        self.base.primary_days
    }
}

/// One ordinary primary-cohort user: routine itinerary, archetype-mixture
/// behavior, simulated checkins. The building block the `tourists`,
/// `mayor-ring` and `spoof-swarm` families reuse for their non-special
/// users.
pub(crate) fn primary_draft(
    uid: u32,
    universe: &PoiUniverse,
    cfg: &PopulationConfig,
    seed: u64,
    tag: u64,
) -> Draft {
    draft_user(uid, universe, &cfg.base, BehaviorConfig::Primary, cfg.days(), seed, tag)
}

/// A checkin as the service records it: the POI's category and coordinates,
/// plus the ground-truth provenance only the generator knows.
pub(crate) fn mk_checkin(
    universe: &PoiUniverse,
    t: i64,
    poi: geosocial_trace::PoiId,
    provenance: Provenance,
) -> Checkin {
    let p = universe.get(poi);
    Checkin { t, poi, category: p.category, location: p.location, provenance: Some(provenance) }
}

/// Render role-tagged drafts into a [`Population`] through the one cohort
/// builder, [`geosocial_checkin::build_cohort`].
pub(crate) fn assemble(
    name: &str,
    universe: &PoiUniverse,
    cfg: &PopulationConfig,
    drafts: Vec<(Draft, UserRole)>,
) -> Population {
    let (drafts, roles) = drafts.into_iter().unzip();
    Population { dataset: build_cohort(name, universe, &cfg.base, drafts), roles }
}
