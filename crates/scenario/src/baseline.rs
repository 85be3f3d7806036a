//! The `baseline` family: the paper's primary cohort behind the trait.

use crate::{Population, PopulationConfig, ScenarioFamily, UserRole};
use geosocial_checkin::{scenario_city, table1_cohort, BehaviorConfig};

/// Today's POI-routine population, unchanged: the primary cohort of the
/// core generator. The default workload of `geosocial-loadgen`, so its
/// output must stay byte-identical to `Scenario::generate(..).primary` —
/// it builds that one cohort on the same city, without the baseline
/// cohort `Scenario::generate` would draw alongside.
pub struct Baseline;

impl ScenarioFamily for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn describe(&self) -> &'static str {
        "POI-routine archetype mixture (the paper's primary cohort)"
    }

    fn populate(&self, cfg: &PopulationConfig, seed: u64) -> Population {
        let universe = scenario_city(&cfg.base, seed);
        let dataset = table1_cohort(&universe, &cfg.base, seed, BehaviorConfig::Primary);
        let roles = vec![UserRole::Regular; dataset.users.len()];
        Population { dataset, roles }
    }
}
