//! The `geosim` family: social graph + exploration/return mobility.
//!
//! GeoSim's core observation is that checkin mobility mixes *individual*
//! preferential return with *social* influence: users either revisit their
//! own venues (∝ visit frequency), explore somewhere new, or adopt a venue
//! from a friend — and friendship itself correlates with mobility
//! similarity. This family reproduces that loop:
//!
//! 1. a per-user preference pass (parallel, private streams),
//! 2. a similarity-weighted k-nearest social graph (a deterministic
//!    barrier, like the core generator's mayorship pass),
//! 3. a per-user exploration/return walk where each step is social,
//!    exploratory, or a preferential return (parallel, continuing each
//!    user's stream).

use crate::common::PopulationConfig;
use crate::{Population, ScenarioFamily, UserRole};
use geosocial_checkin::{
    jitter_days, scenario_city, simulate_checkins, user_rng, BehaviorConfig, Draft, UserBehavior,
};
use geosocial_mobility::{assign_prefs, Itinerary, RoutineConfig, TrueStop, UserPrefs};
use geosocial_trace::{PoiId, PoiUniverse, DAY, HOUR, MINUTE};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// RNG substream tag for this family (`cohort` slot of the fan-out).
const TAG: u64 = 11;
/// Friends per user in the similarity graph.
const K_FRIENDS: usize = 4;
/// Probability a step adopts a friend's venue.
const P_SOCIAL: f64 = 0.25;
/// GeoSim/EPR exploration parameters: explore with probability
/// `RHO * S^-GAMMA` where `S` is the number of distinct venues visited.
const RHO: f64 = 0.6;
const GAMMA: f64 = 0.21;

/// Social-graph exploration/return population.
pub struct GeoSim;

/// Pass-1 output per user: preferences plus the sampled behavior, with the
/// private stream carried into the walk.
struct Seeded {
    prefs: UserPrefs,
    days: u32,
    behavior: UserBehavior,
    rng: ChaCha12Rng,
}

impl ScenarioFamily for GeoSim {
    fn name(&self) -> &'static str {
        "geosim"
    }

    fn describe(&self) -> &'static str {
        "social graph + mobility-similarity-weighted exploration/return (GeoSim)"
    }

    fn populate(&self, cfg: &PopulationConfig, seed: u64) -> Population {
        let universe = scenario_city(&cfg.base, seed);
        let uids: Vec<u32> = (0..cfg.users()).collect();

        // Pass 1: venue attachments and behavior, one private stream each.
        let seeded: Vec<Seeded> = geosocial_par::par_map(&uids, |&uid| {
            let mut rng = user_rng(seed, TAG, uid);
            let prefs = assign_prefs(uid, &universe, &mut rng);
            let days = jitter_days(cfg.days(), &mut rng);
            let behavior = BehaviorConfig::Primary.sample(&mut rng);
            Seeded { prefs, days, behavior, rng }
        });

        // Barrier: the social graph is a pure function of pass-1 output,
        // so it is deterministic and thread-count invariant.
        let friends = similarity_graph(&seeded, &universe);

        // Pass 2: the exploration/return walk, continuing each stream.
        let drafts = geosocial_par::par_map_indexed(&seeded, |i, s| {
            let mut rng = s.rng.clone();
            let itinerary = social_walk(
                &s.prefs,
                &friends[i],
                &seeded,
                &universe,
                s.days,
                &cfg.base.routine,
                &mut rng,
            );
            let checkins = simulate_checkins(&itinerary, &universe, &s.behavior, &mut rng);
            let draft = Draft {
                itinerary,
                checkins,
                sociability: s.behavior.sociability,
                days: s.days as f64,
                rng,
            };
            (draft, UserRole::Regular)
        });

        crate::common::assemble("GeoSim", &universe, cfg, drafts)
    }
}

/// Every favorite venue of a user, home and work included.
fn venue_set(prefs: &UserPrefs) -> Vec<PoiId> {
    let mut vs: Vec<PoiId> = prefs.favorites.values().flatten().copied().collect();
    vs.push(prefs.home);
    if let Some(w) = prefs.work {
        vs.push(w);
    }
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// Mobility similarity: Jaccard overlap of venue sets, softened by home
/// proximity — GeoSim's premise that friends have similar mobility.
fn similarity(a: &UserPrefs, b: &UserPrefs, universe: &PoiUniverse) -> f64 {
    let va = venue_set(a);
    let vb = venue_set(b);
    let inter = va.iter().filter(|p| vb.binary_search(p).is_ok()).count();
    let union = va.len() + vb.len() - inter;
    let jaccard = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
    let proj = universe.projection();
    let d_home = proj
        .to_local(universe.get(a.home).location)
        .distance(proj.to_local(universe.get(b.home).location));
    jaccard + 0.5 / (1.0 + d_home / 1_000.0)
}

/// Top-`K_FRIENDS` most-similar users per user (ties broken by uid, so the
/// graph is deterministic). O(n²) — fine at experiment scale; a spatial
/// prefilter is the obvious upgrade for very large populations.
fn similarity_graph(seeded: &[Seeded], universe: &PoiUniverse) -> Vec<Vec<(usize, f64)>> {
    let idx: Vec<usize> = (0..seeded.len()).collect();
    geosocial_par::par_map(&idx, |&i| {
        let mut scored: Vec<(usize, f64)> = (0..seeded.len())
            .filter(|&j| j != i)
            .map(|j| (j, similarity(&seeded[i].prefs, &seeded[j].prefs, universe)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        scored.truncate(K_FRIENDS);
        scored
    })
}

/// Pick a friend ∝ similarity, then one of the friend's favorites with a
/// Zipf-ish preference for their top venues.
fn social_venue<R: Rng>(friends: &[(usize, f64)], seeded: &[Seeded], rng: &mut R) -> Option<PoiId> {
    if friends.is_empty() {
        return None;
    }
    let total: f64 = friends.iter().map(|(_, s)| s.max(1e-9)).sum();
    let mut x = rng.gen_range(0.0..total);
    let mut chosen = friends[0].0;
    for &(j, s) in friends {
        if x < s.max(1e-9) {
            chosen = j;
            break;
        }
        x -= s.max(1e-9);
    }
    let venues = venue_set(&seeded[chosen].prefs);
    if venues.is_empty() {
        return None;
    }
    // Zipf over the (sorted) venue list: rank r with weight 1/(r+1).
    let weights: Vec<f64> = (0..venues.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let wt: f64 = weights.iter().sum();
    let mut y = rng.gen_range(0.0..wt);
    for (v, w) in venues.iter().zip(&weights) {
        if y < *w {
            return Some(*v);
        }
        y -= w;
    }
    venues.last().copied()
}

/// The exploration/return walk: day-structured (home overnight), each
/// daytime step social / explore / preferential-return, with travel gaps
/// from the shared routine physics.
fn social_walk<R: Rng>(
    prefs: &UserPrefs,
    friends: &[(usize, f64)],
    seeded: &[Seeded],
    universe: &PoiUniverse,
    days: u32,
    routine: &RoutineConfig,
    rng: &mut R,
) -> Itinerary {
    let proj = universe.projection();
    let pos = |p: PoiId| proj.to_local(universe.get(p).location);
    // Visit history in first-visit order: deterministic iteration for the
    // preferential-return draw.
    let mut history: Vec<(PoiId, u32)> = vec![(prefs.home, 1)];
    let mut stops: Vec<TrueStop> = Vec::new();
    let mut night_start = 0i64;

    for day in 0..days as i64 {
        let wake = day * DAY + 7 * HOUR + rng.gen_range(0..=HOUR);
        let bed = day * DAY + 21 * HOUR + rng.gen_range(0..=2 * HOUR);
        // Overnight at home, closing at wake.
        stops.push(TrueStop { poi: prefs.home, arrival: night_start, departure: wake });
        let mut current = prefs.home;
        let mut t = wake;
        loop {
            // Choose the next venue: social, explore, or return.
            let distinct = history.len() as f64;
            let next = if rng.gen_bool(P_SOCIAL) {
                social_venue(friends, seeded, rng)
            } else if rng.gen_bool((RHO * distinct.powf(-GAMMA)).clamp(0.0, 1.0)) {
                // Explore: a uniformly random venue (new ground).
                Some(rng.gen_range(0..universe.len() as u32))
            } else {
                // Preferential return ∝ visit frequency.
                let total: u32 = history.iter().map(|(_, c)| c).sum();
                let mut x = rng.gen_range(0..total.max(1));
                let mut pick = history[0].0;
                for &(p, c) in &history {
                    if x < c {
                        pick = p;
                        break;
                    }
                    x -= c;
                }
                Some(pick)
            }
            .unwrap_or(prefs.home);
            let next = if next == current { prefs.home } else { next };

            let travel = routine.travel_time(pos(current).distance(pos(next)));
            let dwell = if universe.get(next).category.is_routine() {
                rng.gen_range(40 * MINUTE..=3 * HOUR)
            } else {
                rng.gen_range(25 * MINUTE..=2 * HOUR)
            };
            let arrival = t + travel;
            if arrival + dwell >= bed {
                break;
            }
            stops.push(TrueStop { poi: next, arrival, departure: arrival + dwell });
            match history.iter_mut().find(|(p, _)| *p == next) {
                Some((_, c)) => *c += 1,
                None => history.push((next, 1)),
            }
            current = next;
            t = arrival + dwell;
        }
        // Head home for the night.
        night_start = t + routine.travel_time(pos(current).distance(pos(prefs.home)));
    }
    stops.push(TrueStop {
        poi: prefs.home,
        arrival: night_start,
        departure: (days as i64 * DAY).max(night_start + HOUR),
    });
    Itinerary { stops }
}
