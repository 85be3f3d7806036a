//! The five §4.1 mobility-comparison metrics.
//!
//! The paper validates its honest-checkin set against the baseline cohort
//! using "several common mobility metrics ... including inter-arrival time
//! distribution, movement distance distribution, event frequency, speed
//! distribution and POI entropy", showing only inter-arrival (Figure 2) and
//! noting the others "led to the same conclusions (results omitted due to
//! space limits)". This module implements all five, so the omitted results
//! exist here.

use crate::matching::{MatchOutcome, PerUserOutcome};
use geosocial_trace::{Dataset, PoiId, UserData, DAY};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Which events of a user a metric should run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// All checkins.
    Checkins,
    /// Only checkins the matcher certified as honest.
    HonestCheckins,
    /// GPS visits.
    Visits,
}

/// Extract the (time, poi, location) event stream of one user for a source.
///
/// Takes the per-user [`PerUserOutcome`] index rather than the flat
/// [`MatchOutcome`]: callers looping over every user build the index once,
/// instead of re-scanning the whole outcome per user.
fn events_of(
    user: &UserData,
    source: EventSource,
    outcome: Option<&PerUserOutcome<'_>>,
) -> Vec<(i64, Option<PoiId>, geosocial_geo::LatLon)> {
    match source {
        EventSource::Checkins => {
            user.checkins.iter().map(|c| (c.t, Some(c.poi), c.location)).collect()
        }
        EventSource::HonestCheckins => {
            let honest: HashSet<usize> = outcome
                .map(|o| o.honest_of(user.id).map(|p| p.checkin.index).collect())
                .unwrap_or_default();
            user.checkins
                .iter()
                .enumerate()
                .filter(|(i, _)| honest.contains(i))
                .map(|(_, c)| (c.t, Some(c.poi), c.location))
                .collect()
        }
        EventSource::Visits => user.visits.iter().map(|v| (v.start, v.poi, v.centroid)).collect(),
    }
}

/// Movement-distance samples: great-circle displacement between consecutive
/// events, meters, pooled across users (§4.1's second metric).
pub fn movement_distances(
    dataset: &Dataset,
    source: EventSource,
    outcome: Option<&MatchOutcome>,
) -> Vec<f64> {
    let index = outcome.map(|o| o.by_user());
    let mut out = Vec::new();
    for user in &dataset.users {
        let evs = events_of(user, source, index.as_ref());
        for w in evs.windows(2) {
            out.push(w[0].2.haversine_m(w[1].2));
        }
    }
    out
}

/// Event-frequency samples: events per day per user (§4.1's third metric).
/// Users with zero coverage are skipped.
pub fn event_frequencies(
    dataset: &Dataset,
    source: EventSource,
    outcome: Option<&MatchOutcome>,
) -> Vec<f64> {
    let index = outcome.map(|o| o.by_user());
    let mut out = Vec::new();
    for user in &dataset.users {
        let days = user.days();
        if days <= 0.0 {
            continue;
        }
        let n = events_of(user, source, index.as_ref()).len();
        out.push(n as f64 / days);
    }
    out
}

/// Speed samples in m/s from the GPS trace (§4.1's fourth metric): segment
/// speeds between consecutive fixes no more than `max_gap_s` apart.
pub fn gps_speeds(dataset: &Dataset, max_gap_s: i64) -> Vec<f64> {
    let mut out = Vec::new();
    for user in &dataset.users {
        for (a, b) in user.gps.segments() {
            let dt = b.t - a.t;
            if dt > 0 && dt <= max_gap_s {
                out.push(a.pos.haversine_m(b.pos) / dt as f64);
            }
        }
    }
    out
}

/// Per-user POI entropy in bits (§4.1's fifth metric): Shannon entropy of
/// the user's event distribution over POIs. Low entropy = a routine-bound
/// user; high entropy = an exploratory one. Events with no POI attribution
/// are skipped; users with no attributed events are skipped.
pub fn poi_entropies(
    dataset: &Dataset,
    source: EventSource,
    outcome: Option<&MatchOutcome>,
) -> Vec<f64> {
    let index = outcome.map(|o| o.by_user());
    let mut out = Vec::new();
    for user in &dataset.users {
        let mut counts: HashMap<PoiId, usize> = HashMap::new();
        for (_, poi, _) in events_of(user, source, index.as_ref()) {
            if let Some(poi) = poi {
                *counts.entry(poi).or_insert(0) += 1;
            }
        }
        let total: usize = counts.values().sum();
        if total == 0 {
            continue;
        }
        let h: f64 = counts
            .values()
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        out.push(h);
    }
    out
}

/// One metric's three-way comparison (primary-all vs primary-honest vs
/// baseline), reported as KS distances to the baseline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MetricComparison {
    /// KS distance: primary all-checkins vs baseline checkins.
    pub all_vs_baseline: f64,
    /// KS distance: primary honest checkins vs baseline checkins.
    pub honest_vs_baseline: f64,
}

impl MetricComparison {
    /// The §4.1 acceptance test: the honest subset must sit closer to
    /// the reward-indifferent baseline than the full stream does.
    pub fn honest_wins(&self) -> bool {
        self.honest_vs_baseline < self.all_vs_baseline
    }
}

/// All five §4.1 metric comparisons.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiveMetricReport {
    /// Inter-arrival time distribution.
    pub inter_arrival: MetricComparison,
    /// Movement distance distribution.
    pub movement_distance: MetricComparison,
    /// Event frequency (events/user/day).
    pub event_frequency: MetricComparison,
    /// GPS speed distribution (identical collection process in both
    /// cohorts, so this compares primary GPS vs baseline GPS).
    pub gps_speed: f64,
    /// Per-user POI entropy.
    pub poi_entropy: MetricComparison,
}

impl FiveMetricReport {
    /// How many of the four checkin-derived metrics the honest subset wins.
    pub fn honest_wins(&self) -> usize {
        [&self.inter_arrival, &self.movement_distance, &self.event_frequency, &self.poi_entropy]
            .iter()
            .filter(|m| m.honest_wins())
            .count()
    }

    /// Render as the text block the fig2 experiment appends.
    pub fn render(&self) -> String {
        let row = |name: &str, m: &MetricComparison| {
            format!(
                "  {name:<18} all-vs-baseline KS={:.3}  honest-vs-baseline KS={:.3}  honest closer: {}\n",
                m.all_vs_baseline,
                m.honest_vs_baseline,
                if m.honest_wins() { "yes" } else { "no" }
            )
        };
        let mut s = String::from(
            "five-metric validation (paper reports these 'led to the same conclusions'):\n",
        );
        s.push_str(&row("inter-arrival", &self.inter_arrival));
        s.push_str(&row("movement distance", &self.movement_distance));
        s.push_str(&row("event frequency", &self.event_frequency));
        s.push_str(&row("poi entropy", &self.poi_entropy));
        s.push_str(&format!(
            "  gps speed          primary-vs-baseline KS={:.3} (same collection process)\n",
            self.gps_speed
        ));
        s
    }
}

/// Run all five §4.1 metrics. Returns `None` when any sample is empty.
pub fn five_metric_validation(
    primary: &Dataset,
    baseline: &Dataset,
    outcome: &MatchOutcome,
) -> Option<FiveMetricReport> {
    use geosocial_stats::ks_statistic;
    let cmp = |all: &[f64], honest: &[f64], base: &[f64]| -> Option<MetricComparison> {
        Some(MetricComparison {
            all_vs_baseline: ks_statistic(all, base)?,
            honest_vs_baseline: ks_statistic(honest, base)?,
        })
    };

    let ia_all = crate::validate::checkin_inter_arrivals(primary);
    let ia_honest = crate::validate::honest_inter_arrivals(primary, outcome);
    let ia_base = crate::validate::checkin_inter_arrivals(baseline);

    let md_all = movement_distances(primary, EventSource::Checkins, None);
    let md_honest = movement_distances(primary, EventSource::HonestCheckins, Some(outcome));
    let md_base = movement_distances(baseline, EventSource::Checkins, None);

    let ef_all = event_frequencies(primary, EventSource::Checkins, None);
    let ef_honest = event_frequencies(primary, EventSource::HonestCheckins, Some(outcome));
    let ef_base = event_frequencies(baseline, EventSource::Checkins, None);

    let pe_all = poi_entropies(primary, EventSource::Checkins, None);
    let pe_honest = poi_entropies(primary, EventSource::HonestCheckins, Some(outcome));
    let pe_base = poi_entropies(baseline, EventSource::Checkins, None);

    let sp_p = gps_speeds(primary, 5 * 60);
    let sp_b = gps_speeds(baseline, 5 * 60);

    Some(FiveMetricReport {
        inter_arrival: cmp(&ia_all, &ia_honest, &ia_base)?,
        movement_distance: cmp(&md_all, &md_honest, &md_base)?,
        event_frequency: cmp(&ef_all, &ef_honest, &ef_base)?,
        gps_speed: ks_statistic(&sp_p, &sp_b)?,
        poi_entropy: cmp(&pe_all, &pe_honest, &pe_base)?,
    })
}

/// Events per day, exposed for Table-1 style sanity checks.
pub fn events_per_user_day(dataset: &Dataset, source: EventSource) -> f64 {
    let total_days: f64 = dataset.users.iter().map(UserData::days).sum();
    if total_days <= 0.0 {
        return 0.0;
    }
    let n: usize = dataset.users.iter().map(|u| events_of(u, source, None).len()).sum();
    n as f64 / total_days
}

/// Seconds in one day, re-exported for callers computing frequencies.
pub const SECONDS_PER_DAY: i64 = DAY;

#[cfg(test)]
mod tests {
    use super::*;
    use geosocial_geo::{LatLon, LocalProjection, Point};
    use geosocial_trace::{
        Checkin, GpsPoint, GpsTrace, Poi, PoiCategory, PoiUniverse, UserProfile, Visit,
    };

    fn proj() -> LocalProjection {
        LocalProjection::new(LatLon::new(34.4, -119.8))
    }

    fn at(x: f64) -> LatLon {
        proj().to_latlon(Point::new(x, 0.0))
    }

    fn user_with(checkins: Vec<Checkin>, visits: Vec<Visit>, gps: GpsTrace) -> Dataset {
        let pois = PoiUniverse::new(
            (0..4)
                .map(|i| Poi {
                    id: i,
                    name: format!("P{i}"),
                    category: PoiCategory::Food,
                    location: at(i as f64 * 1_000.0),
                })
                .collect(),
            proj(),
        );
        Dataset {
            name: "M".into(),
            pois,
            users: vec![geosocial_trace::UserData::new(
                0,
                gps,
                visits,
                checkins,
                UserProfile::default(),
            )],
        }
    }

    fn ck(t: i64, poi: u32) -> Checkin {
        Checkin {
            t,
            poi,
            category: PoiCategory::Food,
            location: at(poi as f64 * 1_000.0),
            provenance: None,
        }
    }

    #[test]
    fn movement_distances_between_consecutive_events() {
        let ds = user_with(vec![ck(0, 0), ck(100, 1), ck(200, 3)], vec![], GpsTrace::default());
        let d = movement_distances(&ds, EventSource::Checkins, None);
        assert_eq!(d.len(), 2);
        assert!((d[0] - 1_000.0).abs() < 2.0);
        assert!((d[1] - 2_000.0).abs() < 4.0);
    }

    #[test]
    fn event_frequency_per_day() {
        // 2 days of GPS coverage, 6 checkins → 3/day.
        let gps =
            GpsTrace::new((0..=2 * 24).map(|h| GpsPoint { t: h * 3_600, pos: at(0.0) }).collect());
        let cks = (0..6).map(|i| ck(i * 3_600, 0)).collect();
        let ds = user_with(cks, vec![], gps);
        let f = event_frequencies(&ds, EventSource::Checkins, None);
        assert_eq!(f.len(), 1);
        assert!((f[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn poi_entropy_uniform_vs_concentrated() {
        // Four distinct POIs once each: entropy = 2 bits.
        let ds =
            user_with(vec![ck(0, 0), ck(1, 1), ck(2, 2), ck(3, 3)], vec![], GpsTrace::default());
        let h = poi_entropies(&ds, EventSource::Checkins, None);
        assert!((h[0] - 2.0).abs() < 1e-9);
        // All events at one POI: entropy = 0.
        let ds0 = user_with(vec![ck(0, 1), ck(1, 1), ck(2, 1)], vec![], GpsTrace::default());
        let h0 = poi_entropies(&ds0, EventSource::Checkins, None);
        assert_eq!(h0[0], 0.0);
    }

    #[test]
    fn gps_speed_respects_gap_limit() {
        let gps = GpsTrace::new(vec![
            GpsPoint { t: 0, pos: at(0.0) },
            GpsPoint { t: 100, pos: at(200.0) },    // 2 m/s
            GpsPoint { t: 10_000, pos: at(400.0) }, // huge gap: excluded
        ]);
        let ds = user_with(vec![], vec![], gps);
        let v = gps_speeds(&ds, 300);
        assert_eq!(v.len(), 1);
        assert!((v[0] - 2.0).abs() < 0.01);
    }

    #[test]
    fn visits_as_event_source() {
        let visits = vec![
            Visit { start: 0, end: 600, centroid: at(0.0), poi: Some(0) },
            Visit { start: 1_000, end: 1_800, centroid: at(1_000.0), poi: Some(1) },
        ];
        let ds = user_with(vec![], visits, GpsTrace::default());
        let d = movement_distances(&ds, EventSource::Visits, None);
        assert_eq!(d.len(), 1);
        assert!((d[0] - 1_000.0).abs() < 2.0);
        let h = poi_entropies(&ds, EventSource::Visits, None);
        assert!((h[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sources_are_skipped() {
        let ds = user_with(vec![], vec![], GpsTrace::default());
        assert!(movement_distances(&ds, EventSource::Checkins, None).is_empty());
        assert!(poi_entropies(&ds, EventSource::Checkins, None).is_empty());
        assert!(event_frequencies(&ds, EventSource::Checkins, None).is_empty());
        assert_eq!(events_per_user_day(&ds, EventSource::Checkins), 0.0);
    }
}
