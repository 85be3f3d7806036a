#![warn(missing_docs)]

//! Geosocial checkin behaviour simulation.
//!
//! Given a user's ground-truth [`Itinerary`](geosocial_mobility::Itinerary),
//! this crate produces the checkin stream a Foursquare-like service would
//! record — including every pathology the paper measures:
//!
//! * **Missing checkins** (§4.2): per-visit checkin probability collapses at
//!   routine categories (home, office, errands) and decays with habituation,
//!   so frequently-visited POIs dominate the unreported set (Figure 3).
//! * **Superfluous checkins** (§5.1): badge- and mayorship-motivated users
//!   fire extra checkins at nearby POIs (or the same POI again) from one
//!   physical spot, in tight bursts.
//! * **Remote checkins** (§5.1): reward hunters check in to venues they are
//!   nowhere near.
//! * **Driveby checkins** (§5.1): commuters checking in mid-trip at > 4 mph.
//!
//! Every generated checkin carries a ground-truth
//! [`Provenance`](geosocial_trace::Provenance) label, enabling accuracy
//! evaluation of both the paper's matching algorithm and its proposed
//! detectors — something the original study could not do.
//!
//! The [`incentives`] module closes the loop: it awards badges and runs the
//! 60-day mayorship contest over the generated checkins, producing the
//! profile features whose correlations Table 2 reports.

pub mod behavior;
pub mod incentives;
pub mod scenario;
pub mod simulate;

pub use behavior::{Archetype, BehaviorConfig, UserBehavior};
pub use incentives::{compute_profile, IncentiveConfig, MayorshipBoard};
pub use scenario::{
    build_cohort, draft_user, jitter_days, scenario_city, substream_seed, table1_cohort, user_rng,
    Draft, Scenario, ScenarioConfig,
};
pub use simulate::simulate_checkins;
