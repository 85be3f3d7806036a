//! The `tourists` family: resident/tourist cohort mix.
//!
//! Motivated by the tourist-vs-resident Foursquare study (arXiv
//! 2005.09033): visitors move on sharply different dwell/radius profiles —
//! a hotel base, long stays at attractions anywhere in the city, almost no
//! routine suppression — and their checkin streams are far *more* honest
//! than residents' (nothing to farm, everything worth reporting). The mix
//! gives the detectors a population where prevalence, not behavior noise,
//! drives the precision/recall trade-off.

use crate::common::{mk_checkin, primary_draft, PopulationConfig};
use crate::{Population, ScenarioFamily, UserRole};
use geosocial_checkin::{
    scenario_city, simulate_checkins, user_rng, Archetype, Draft, UserBehavior,
};
use geosocial_mobility::{Itinerary, TrueStop};
use geosocial_trace::{PoiCategory, PoiId, PoiUniverse, Provenance, DAY, HOUR, MINUTE};
use rand::Rng;

/// RNG substream tag for this family.
const TAG: u64 = 13;
/// Tourists per ten users (uids striped deterministically).
const TOURISTS_PER_10: u32 = 3;

/// Resident/tourist cohort mix.
pub struct Tourists;

impl ScenarioFamily for Tourists {
    fn name(&self) -> &'static str {
        "tourists"
    }

    fn describe(&self) -> &'static str {
        "resident majority + short-stay tourist cohort (hotel base, attraction-hopping)"
    }

    fn populate(&self, cfg: &PopulationConfig, seed: u64) -> Population {
        let universe = scenario_city(&cfg.base, seed);
        let uids: Vec<u32> = (0..cfg.users()).collect();
        let drafts = geosocial_par::par_map(&uids, |&uid| {
            if uid % 10 < TOURISTS_PER_10 {
                (tourist_draft(uid, &universe, cfg, seed), UserRole::Tourist)
            } else {
                (primary_draft(uid, &universe, cfg, seed, TAG), UserRole::Resident)
            }
        });
        crate::common::assemble("Tourists", &universe, cfg, drafts)
    }
}

/// Venue categories a tourist hops between.
const ATTRACTIONS: [PoiCategory; 5] = [
    PoiCategory::Arts,
    PoiCategory::Outdoors,
    PoiCategory::Nightlife,
    PoiCategory::Food,
    PoiCategory::Travel,
];

/// One short-stay visitor: a hotel (Travel venue) base, 2–4 days of
/// attraction-hopping across the whole city, long dwells, and an
/// honest-heavy checkin stream generated directly (tourists report almost
/// every stop — including one occasional pre-arrival "remote" checkin at
/// the hotel, the classic airport-lounge checkin).
fn tourist_draft(uid: u32, universe: &PoiUniverse, cfg: &PopulationConfig, seed: u64) -> Draft {
    let mut rng = user_rng(seed, TAG, uid);
    let hotels: Vec<PoiId> =
        universe.all().iter().filter(|p| p.category == PoiCategory::Travel).map(|p| p.id).collect();
    let hotel = if hotels.is_empty() {
        rng.gen_range(0..universe.len() as u32)
    } else {
        hotels[rng.gen_range(0..hotels.len())]
    };
    let stay_days = cfg.days().clamp(2, 4);

    let proj = universe.projection();
    let pos = |p: PoiId| proj.to_local(universe.get(p).location);
    let mut stops: Vec<TrueStop> = Vec::new();
    let mut seen: Vec<PoiId> = Vec::new();
    let mut night_start = 0i64;
    for day in 0..stay_days as i64 {
        let wake = day * DAY + 8 * HOUR + rng.gen_range(0..=HOUR);
        let bed = day * DAY + 22 * HOUR + rng.gen_range(0..=HOUR);
        stops.push(TrueStop { poi: hotel, arrival: night_start, departure: wake });
        let mut current = hotel;
        let mut t = wake;
        loop {
            // Attractions are drawn city-wide — the tourist's radius is the
            // whole map, unlike a resident's home-anchored routine.
            let cat = ATTRACTIONS[rng.gen_range(0..ATTRACTIONS.len())];
            let candidates: Vec<PoiId> = universe
                .all()
                .iter()
                .filter(|p| p.category == cat && p.id != current && !seen.contains(&p.id))
                .map(|p| p.id)
                .collect();
            let next = if candidates.is_empty() {
                rng.gen_range(0..universe.len() as u32)
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            let travel = cfg.base.routine.travel_time(pos(current).distance(pos(next)));
            let dwell = rng.gen_range(45 * MINUTE..=3 * HOUR);
            let arrival = t + travel;
            if arrival + dwell >= bed {
                break;
            }
            stops.push(TrueStop { poi: next, arrival, departure: arrival + dwell });
            seen.push(next);
            current = next;
            t = arrival + dwell;
        }
        night_start = t + cfg.base.routine.travel_time(pos(current).distance(pos(hotel)));
    }
    stops.push(TrueStop {
        poi: hotel,
        arrival: night_start,
        departure: (stay_days as i64 * DAY).max(night_start + HOUR),
    });
    let itinerary = Itinerary { stops };

    // Honest-heavy behavior: high checkin probability, no habituation to
    // speak of (everything is novel), near-zero gaming.
    let behavior = UserBehavior {
        archetype: Archetype::Volunteer,
        checkin_prob: 0.8 + rng.gen_range(0.0..=0.15),
        routine_checkin_prob: 0.5,
        habituation: 0.02,
        superfluous_mean: 0.02,
        remote_rate_per_day: 0.0,
        driveby_prob: 0.02,
        sociability: 1.0 + rng.gen_range(-0.3..=0.5),
    };
    let mut checkins = simulate_checkins(&itinerary, universe, &behavior, &mut rng);
    // The bucket-list checkin: some tourists announce tomorrow's attraction
    // from the hotel bed — a checkin at a venue they are nowhere near.
    if rng.gen_bool(0.3) && !seen.is_empty() {
        let venue = seen[rng.gen_range(0..seen.len())];
        let t = rng.gen_range(22 * HOUR..23 * HOUR);
        checkins.push(mk_checkin(universe, t, venue, Provenance::Remote));
    }
    Draft { itinerary, checkins, sociability: behavior.sociability, days: stay_days as f64, rng }
}
