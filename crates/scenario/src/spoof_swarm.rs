//! The `spoof-swarm` family: GPS spoofers and bursty driveby swarms.
//!
//! The paper's matcher trusts the GPS trace as ground truth. A spoofer
//! breaks that assumption: the device reports a *fabricated* route that
//! dwells at each target venue long enough to register a visit, so every
//! spoofed checkin is corroborated and the α/β matcher's recall collapses
//! — the labels ([`Provenance::Spoofed`]) record what the matcher cannot
//! see. Between dwells the fabricated route moves at driving speed and
//! sprays tight driveby bursts, the half of the attack the inter-arrival
//! burst detector *can* catch.

use crate::common::{mk_checkin, primary_draft, PopulationConfig};
use crate::{Population, ScenarioFamily, UserRole};
use geosocial_checkin::{scenario_city, user_rng, Draft};
use geosocial_mobility::{Itinerary, TrueStop};
use geosocial_trace::{PoiId, PoiUniverse, Provenance, DAY, HOUR, MINUTE};
use rand::Rng;

/// RNG substream tag for this family.
const TAG: u64 = 19;

/// GPS-spoofing swarm over a baseline background.
pub struct SpoofSwarm;

impl ScenarioFamily for SpoofSwarm {
    fn name(&self) -> &'static str {
        "spoof-swarm"
    }

    fn describe(&self) -> &'static str {
        "GPS spoofers with fabricated corroborating traces + bursty driveby swarms"
    }

    fn populate(&self, cfg: &PopulationConfig, seed: u64) -> Population {
        let universe = scenario_city(&cfg.base, seed);
        let n = cfg.users();
        let swarm_size = (n / 6).max(3).min(n);
        let uids: Vec<u32> = (0..n).collect();
        let drafts = geosocial_par::par_map(&uids, |&uid| {
            if uid < swarm_size {
                (spoofer_draft(uid, &universe, cfg, seed), UserRole::Spoofer)
            } else {
                (primary_draft(uid, &universe, cfg, seed, TAG), UserRole::Regular)
            }
        });
        crate::common::assemble("SpoofSwarm", &universe, cfg, drafts)
    }
}

/// One spoofer: a fabricated itinerary teleport-driving between target
/// venues. The itinerary *is* what the device reports, so `simulate_gps`
/// renders corroborating fixes for every dwell; the checkin stream mixes
/// corroborated [`Provenance::Spoofed`] checkins with mid-leg
/// [`Provenance::Driveby`] bursts.
fn spoofer_draft(uid: u32, universe: &PoiUniverse, cfg: &PopulationConfig, seed: u64) -> Draft {
    let mut rng = user_rng(seed, TAG, uid);
    let days = cfg.days().max(3);
    let proj = universe.projection();
    let pos = |p: PoiId| proj.to_local(universe.get(p).location);
    let random_poi = |rng: &mut rand_chacha::ChaCha12Rng| rng.gen_range(0..universe.len() as u32);

    let base = random_poi(&mut rng);
    let mut stops: Vec<TrueStop> = Vec::new();
    let mut checkins = Vec::new();
    let mut night_start = 0i64;
    for day in 0..days as i64 {
        let wake = day * DAY + 9 * HOUR + rng.gen_range(0..=HOUR);
        let bed = day * DAY + 20 * HOUR + rng.gen_range(0..=2 * HOUR);
        stops.push(TrueStop { poi: base, arrival: night_start, departure: wake });
        let mut current = base;
        let mut t = wake;
        loop {
            let next = {
                let p = random_poi(&mut rng);
                if p == current {
                    continue;
                }
                p
            };
            let dist = pos(current).distance(pos(next));
            // The fabricated route always "drives": fast legs keep the
            // sweep plausible while leaving driveby-speed evidence.
            let travel = 60 + (dist / 11.0) as i64;
            // Dwell long enough for visit detection (≥ 6 min + loss).
            let dwell = rng.gen_range(12 * MINUTE..=25 * MINUTE);
            let arrival = t + travel;
            if arrival + dwell >= bed {
                break;
            }
            // Mid-leg driveby burst at venues near the path (prob ½).
            if rng.gen_bool(0.5) {
                let mid = proj.to_latlon(geosocial_geo::Point::new(
                    (pos(current).x + pos(next).x) / 2.0,
                    (pos(current).y + pos(next).y) / 2.0,
                ));
                let near = universe.within(mid, 600.0);
                if !near.is_empty() {
                    let burst = rng.gen_range(2..=5);
                    let mut bt = t + travel / 2;
                    for _ in 0..burst {
                        let victim = near[rng.gen_range(0..near.len())].id;
                        checkins.push(mk_checkin(universe, bt, victim, Provenance::Driveby));
                        bt += rng.gen_range(20..=50);
                    }
                }
            }
            // The corroborated spoofed checkin, mid-dwell.
            checkins.push(mk_checkin(universe, arrival + dwell / 2, next, Provenance::Spoofed));
            stops.push(TrueStop { poi: next, arrival, departure: arrival + dwell });
            current = next;
            t = arrival + dwell;
        }
        night_start = t + 60 + (pos(current).distance(pos(base)) / 11.0) as i64;
    }
    stops.push(TrueStop {
        poi: base,
        arrival: night_start,
        departure: (days as i64 * DAY).max(night_start + HOUR),
    });

    Draft {
        itinerary: Itinerary { stops },
        checkins,
        sociability: 0.2 + rng.gen_range(0.0..=0.3),
        days: days as f64,
        rng,
    }
}
