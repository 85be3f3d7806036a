//! The `mayor-ring` family: coordinated mayorship farming.
//!
//! A small ring of colluding users agrees on a handful of contested venues
//! and fires synchronized remote checkins at them every day, regardless of
//! where each member actually is — the classic mayorship-farming attack the
//! paper's incentive analysis (§5.2) predicts. Everyone else behaves like
//! the baseline population, so the ring's extraneous rate stands out
//! against an ordinary background.

use crate::common::{mk_checkin, primary_draft, PopulationConfig};
use crate::{Population, ScenarioFamily, UserRole};
use geosocial_checkin::{scenario_city, substream_seed};
use geosocial_trace::{PoiCategory, PoiId, Provenance, DAY, HOUR, MINUTE};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// RNG substream tag for this family.
const TAG: u64 = 17;
/// Contested venues the ring farms.
const N_TARGETS: usize = 4;

/// Coordinated mayorship-farming ring over a baseline background.
pub struct MayorRing;

impl ScenarioFamily for MayorRing {
    fn name(&self) -> &'static str {
        "mayor-ring"
    }

    fn describe(&self) -> &'static str {
        "colluding ring firing synchronized remote checkins at contested venues"
    }

    fn populate(&self, cfg: &PopulationConfig, seed: u64) -> Population {
        let universe = scenario_city(&cfg.base, seed);
        let n = cfg.users();
        let ring_size = (n / 8).max(3).min(n);

        // The ring's shared plan (targets + daily schedule) comes from its
        // own single stream — deterministic, and independent of any user's
        // private stream. `uid = u64::MAX` cannot collide with a real user.
        let mut plan_rng = ChaCha12Rng::seed_from_u64(substream_seed(seed, TAG, u64::MAX));
        let contested: Vec<PoiId> = {
            let mut pool: Vec<PoiId> = universe
                .all()
                .iter()
                .filter(|p| matches!(p.category, PoiCategory::Food | PoiCategory::Nightlife))
                .map(|p| p.id)
                .collect();
            if pool.is_empty() {
                pool = universe.all().iter().map(|p| p.id).collect();
            }
            (0..N_TARGETS.min(pool.len()))
                .map(|_| pool.swap_remove(plan_rng.gen_range(0..pool.len())))
                .collect()
        };
        // One synchronized slot per (day, target): every member checks in
        // within a few minutes of the slot.
        let schedule: Vec<(i64, PoiId)> = (0..cfg.days() as i64)
            .flat_map(|day| {
                let rng = &mut plan_rng;
                contested
                    .iter()
                    .map(|&poi| (day * DAY + rng.gen_range(9 * HOUR..21 * HOUR), poi))
                    .collect::<Vec<_>>()
            })
            .collect();

        let uids: Vec<u32> = (0..n).collect();
        let drafts = geosocial_par::par_map(&uids, |&uid| {
            let in_ring = uid < ring_size;
            let role = if in_ring { UserRole::RingMember } else { UserRole::Regular };
            let mut draft = primary_draft(uid, &universe, cfg, seed, TAG);
            if in_ring {
                // Fire the shared schedule with a private per-member jitter,
                // clamped to the member's own coverage window.
                let span_end = draft.itinerary.span().map(|(_, e)| e).unwrap_or(0);
                for &(slot, poi) in &schedule {
                    let t = slot + draft.rng.gen_range(0..8 * MINUTE);
                    if t < span_end {
                        draft.checkins.push(mk_checkin(&universe, t, poi, Provenance::Remote));
                    }
                }
            }
            (draft, role)
        });
        crate::common::assemble("MayorRing", &universe, cfg, drafts)
    }
}
