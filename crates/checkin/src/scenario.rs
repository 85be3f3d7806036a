//! End-to-end cohort assembly: city → itineraries → GPS + checkin traces →
//! profiles → [`Dataset`].
//!
//! This module replays the paper's data collection (§3) synthetically. One
//! [`Scenario`] holds both cohorts of Table 1:
//!
//! * **Primary** — reward-sensitive users drawn from the archetype mixture,
//! * **Baseline** — volunteer users who ignore rewards,
//!
//! over a shared city. Both views of each user (GPS and checkins) derive
//! from one ground-truth itinerary, so matching them back together exercises
//! exactly the structure of the paper's analysis.
//!
//! [`build_cohort`] is the workspace's one cohort builder: per-user drafts
//! on the [`scenario_city`] in, mayorship barrier, then the per-user render.
//! Both Table-1 cohorts and every scenario family (`geosocial-scenario`)
//! go through it.

use crate::behavior::BehaviorConfig;
use crate::incentives::{compute_profile, IncentiveConfig, MayorshipBoard};
use crate::simulate::simulate_checkins;
use geosocial_mobility::{
    assign_prefs, generate_city, generate_itinerary, simulate_gps, CityConfig, GpsSimConfig,
    Itinerary, RoutineConfig,
};
use geosocial_trace::{
    detect_visits, Checkin, Dataset, PoiUniverse, UserData, UserId, VisitConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Full configuration of a synthetic study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// City layout parameters.
    pub city: CityConfig,
    /// Number of primary-cohort users (paper: 244).
    pub primary_users: u32,
    /// Mean measurement days per primary user (paper: 14.2).
    pub primary_days: u32,
    /// Number of baseline-cohort users (paper: 47).
    pub baseline_users: u32,
    /// Mean measurement days per baseline user (paper: 20.8).
    pub baseline_days: u32,
    /// Routine-generation knobs.
    pub routine: RoutineConfig,
    /// GPS rendering knobs.
    pub gps: GpsSimConfig,
    /// Visit-detection knobs (shared by generation and analysis).
    pub visit: VisitConfig,
    /// Reward-engine knobs.
    pub incentives: IncentiveConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            city: CityConfig::default(),
            primary_users: 244,
            primary_days: 14,
            baseline_users: 47,
            baseline_days: 21,
            routine: RoutineConfig::default(),
            gps: GpsSimConfig::default(),
            visit: VisitConfig::default(),
            incentives: IncentiveConfig::default(),
        }
    }
}

impl ScenarioConfig {
    /// A scaled-down configuration for tests and examples: `users` primary
    /// users and a proportional baseline cohort, `days` days each, over a
    /// smaller city.
    pub fn small(users: u32, days: u32) -> Self {
        Self {
            city: CityConfig { n_pois: 600, radius_m: 8_000.0, ..Default::default() },
            primary_users: users,
            primary_days: days,
            baseline_users: (users / 5).max(2),
            baseline_days: days,
            ..Default::default()
        }
    }
}

/// A generated study: city plus both cohorts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// The configuration that produced this scenario.
    pub config: ScenarioConfig,
    /// Primary cohort (ordinary Foursquare users).
    pub primary: Dataset,
    /// Baseline cohort (volunteers).
    pub baseline: Dataset,
}

impl Scenario {
    /// Generate a full scenario deterministically from `seed`.
    ///
    /// Each user draws from a private RNG stream derived from
    /// `(seed, cohort, uid)` (see [`substream_seed`]), so users generate
    /// independently — in parallel across the `geosocial-par` pool — and
    /// the output is **bit-identical for every thread count**.
    pub fn generate(config: &ScenarioConfig, seed: u64) -> Scenario {
        let universe = scenario_city(config, seed);
        let primary = table1_cohort(&universe, config, seed, BehaviorConfig::Primary);
        let baseline = table1_cohort(&universe, config, seed, BehaviorConfig::Baseline);
        Scenario { config: config.clone(), primary, baseline }
    }

    /// The primary dataset — the default subject of every analysis.
    pub fn dataset(&self) -> &Dataset {
        &self.primary
    }
}

/// Derive the seed of an independent per-entity RNG stream from the
/// scenario seed, a cohort tag and a user id, splitmix-style: each input
/// is spread by an odd multiplier, then the combination is driven through
/// the splitmix64 finalizer so that consecutive uids land on unrelated
/// streams. Stream identity depends only on these three values — never on
/// generation order or thread count.
///
/// Public because every scenario family (crates/scenario) must use the
/// same fan-out to stay bit-identical across thread counts.
pub fn substream_seed(seed: u64, cohort: u64, uid: u64) -> u64 {
    let mut z =
        seed ^ cohort.wrapping_mul(0xA24B_AED4_963E_E407) ^ uid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private RNG stream of `(seed, tag, uid)`.
pub fn user_rng(seed: u64, tag: u64, uid: u32) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(substream_seed(seed, tag, uid as u64))
}

/// The scenario's city, drawn from its own stream `(seed, 0, 0)`: every
/// cohort and every scenario family of one seed plays out on this map.
pub fn scenario_city(config: &ScenarioConfig, seed: u64) -> PoiUniverse {
    generate_city(&config.city, &mut user_rng(seed, 0, 0))
}

/// Per-user coverage jitter around the cohort mean, as in the study:
/// ±⅓ of the mean, floored at 3 days.
pub fn jitter_days<R: Rng>(mean_days: u32, rng: &mut R) -> u32 {
    (mean_days as i64 + rng.gen_range(-(mean_days as i64) / 3..=(mean_days as i64) / 3)).max(3)
        as u32
}

/// One user between the draw pass and the render pass of
/// [`build_cohort`].
pub struct Draft {
    /// Ground-truth itinerary.
    pub itinerary: Itinerary,
    /// The checkins the user files.
    pub checkins: Vec<Checkin>,
    /// Social activity multiplier for the profile.
    pub sociability: f64,
    /// Nominal measurement days.
    pub days: f64,
    /// The user's private stream, carried so the render pass continues
    /// exactly where the draw pass left off.
    pub rng: ChaCha12Rng,
}

/// Draw one routine user of `behavior`'s archetype mixture from its
/// private stream `(seed, tag, uid)`: preferences, coverage, itinerary,
/// behavior and checkins.
pub fn draft_user(
    uid: u32,
    universe: &PoiUniverse,
    config: &ScenarioConfig,
    behavior: BehaviorConfig,
    mean_days: u32,
    seed: u64,
    tag: u64,
) -> Draft {
    let mut rng = user_rng(seed, tag, uid);
    let prefs = assign_prefs(uid, universe, &mut rng);
    let days = jitter_days(mean_days, &mut rng);
    let itinerary = generate_itinerary(&prefs, universe, days, &config.routine, &mut rng);
    let behavior = behavior.sample(&mut rng);
    let checkins = simulate_checkins(&itinerary, universe, &behavior, &mut rng);
    Draft { itinerary, checkins, sociability: behavior.sociability, days: days as f64, rng }
}

/// One of Table 1's cohorts over `universe`: `Primary` users draw from
/// stream tag 1, `Baseline` users from tag 2.
pub fn table1_cohort(
    universe: &PoiUniverse,
    config: &ScenarioConfig,
    seed: u64,
    behavior: BehaviorConfig,
) -> Dataset {
    let (name, users, days, tag) = match behavior {
        BehaviorConfig::Primary => ("Primary", config.primary_users, config.primary_days, 1),
        BehaviorConfig::Baseline => ("Baseline", config.baseline_users, config.baseline_days, 2),
    };
    let uids: Vec<u32> = (0..users).collect();
    let drafts = geosocial_par::par_map(&uids, |&uid| {
        draft_user(uid, universe, config, behavior, days, seed, tag)
    });
    build_cohort(name, universe, config, drafts)
}

/// Render drafts into a cohort: the mayorship contest over the whole
/// cohort's checkins (a global barrier), then per user, in parallel, GPS,
/// visits and profile, each continuing the user's private stream. Checkin
/// streams are sorted first: the board and the matcher expect
/// chronological order, and families that splice in extra events may
/// leave them unsorted.
pub fn build_cohort(
    name: &str,
    universe: &PoiUniverse,
    config: &ScenarioConfig,
    mut drafts: Vec<Draft>,
) -> Dataset {
    for d in &mut drafts {
        d.checkins.sort_by_key(|c| c.t);
    }
    let streams: Vec<(UserId, &[Checkin])> =
        drafts.iter().enumerate().map(|(i, d)| (i as UserId, d.checkins.as_slice())).collect();
    let now = drafts.iter().filter_map(|d| d.itinerary.span().map(|(_, e)| e)).max().unwrap_or(0);
    let board = MayorshipBoard::compute(&streams, now, &config.incentives);

    let rendered = geosocial_par::par_map_indexed(&drafts, |uid, draft| {
        let uid = uid as UserId;
        let mut rng = draft.rng.clone();
        let gps = simulate_gps(&draft.itinerary, universe, &config.gps, &mut rng);
        let visits = detect_visits(&gps, &config.visit, Some(universe));
        let profile = compute_profile(
            uid,
            &draft.checkins,
            draft.days,
            draft.sociability,
            &board,
            &config.incentives,
            &mut rng,
        );
        (gps, visits, profile)
    });

    let users = drafts
        .into_iter()
        .zip(rendered)
        .enumerate()
        .map(|(uid, (draft, (gps, visits, profile)))| {
            UserData::new(uid as UserId, gps, visits, draft.checkins, profile)
        })
        .collect();

    Dataset { name: name.into(), pois: universe.clone(), users }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_trace::Provenance;

    #[test]
    fn small_scenario_has_both_cohorts() {
        let sc = Scenario::generate(&ScenarioConfig::small(8, 7), 42);
        assert_eq!(sc.primary.users.len(), 8);
        assert!(sc.baseline.users.len() >= 2);
        assert_eq!(sc.primary.name, "Primary");
        assert_eq!(sc.baseline.name, "Baseline");
        // Every user has all three data products.
        for u in &sc.primary.users {
            assert!(!u.gps.is_empty(), "user {} has no GPS", u.id);
            assert!(!u.visits.is_empty(), "user {} has no visits", u.id);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Scenario::generate(&ScenarioConfig::small(4, 5), 7);
        let b = Scenario::generate(&ScenarioConfig::small(4, 5), 7);
        assert_eq!(a.primary.stats(), b.primary.stats());
        let c = Scenario::generate(&ScenarioConfig::small(4, 5), 8);
        assert_ne!(
            a.primary.stats().gps_points,
            c.primary.stats().gps_points,
            "different seeds should differ"
        );
    }

    #[test]
    fn baseline_has_no_reward_driven_checkins() {
        let sc = Scenario::generate(&ScenarioConfig::small(6, 7), 11);
        for u in &sc.baseline.users {
            for c in &u.checkins {
                assert!(matches!(
                    c.provenance,
                    Some(Provenance::Honest) | Some(Provenance::Driveby)
                ));
            }
        }
    }

    #[test]
    fn primary_mix_contains_extraneous_checkins() {
        let sc = Scenario::generate(&ScenarioConfig::small(12, 10), 13);
        let mut extraneous = 0usize;
        let mut total = 0usize;
        for u in &sc.primary.users {
            for c in &u.checkins {
                total += 1;
                if c.provenance.map(|p| p.is_extraneous()).unwrap_or(false) {
                    extraneous += 1;
                }
            }
        }
        assert!(total > 0);
        let frac = extraneous as f64 / total as f64;
        assert!(frac > 0.4, "extraneous share only {frac:.2}");
    }

    #[test]
    fn profiles_are_populated() {
        let sc = Scenario::generate(&ScenarioConfig::small(10, 10), 17);
        let any_badges = sc.primary.users.iter().any(|u| u.profile.badges > 0);
        let any_friends = sc.primary.users.iter().any(|u| u.profile.friends > 0);
        assert!(any_badges && any_friends);
        for u in &sc.primary.users {
            let expected = u.checkins.len() as f64 / u.days().max(0.1);
            // checkins_per_day is computed against nominal coverage; it
            // should at least be the right order of magnitude.
            if !u.checkins.is_empty() {
                assert!(u.profile.checkins_per_day > 0.0);
                assert!(u.profile.checkins_per_day < expected * 3.0 + 5.0);
            }
        }
    }

    #[test]
    fn table1_shape_matches_paper_bands() {
        // Scaled-down sanity check of Table 1's per-user-day densities.
        let sc = Scenario::generate(&ScenarioConfig::small(15, 14), 19);
        let st = sc.primary.stats();
        let user_days: f64 = sc.primary.users.iter().map(|u| u.days()).sum();
        let visits_per_day = st.visits as f64 / user_days;
        let checkins_per_day = st.checkins as f64 / user_days;
        let gps_per_day = st.gps_points as f64 / user_days;
        // Paper: 8.9 visits, 4.1 checkins, ~750 fixes per user-day.
        assert!((3.0..15.0).contains(&visits_per_day), "visits/day {visits_per_day:.1}");
        assert!((1.5..9.0).contains(&checkins_per_day), "checkins/day {checkins_per_day:.1}");
        assert!((400.0..1200.0).contains(&gps_per_day), "gps/day {gps_per_day:.0}");
    }
}
