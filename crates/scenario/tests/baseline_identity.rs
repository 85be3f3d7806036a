//! The `baseline` family builds only the primary cohort, without the
//! baseline cohort `Scenario::generate` draws alongside it. The city and
//! each cohort come from independent `substream_seed` streams, so dropping
//! the second cohort must leave the first byte-identical — at any pool
//! width.

use geosocial_checkin::{Scenario, ScenarioConfig};
use geosocial_scenario::{populate, PopulationConfig};

fn assert_baseline_is_primary(users: u32, days: u32, seed: u64) {
    let family = populate("baseline", &PopulationConfig::small(users, days), seed)
        .expect("baseline is registered")
        .dataset;
    let primary = Scenario::generate(&ScenarioConfig::small(users, days), seed).primary;
    assert_eq!(family.name, primary.name);
    assert_eq!(
        format!("{:?}", family.pois.all()),
        format!("{:?}", primary.pois.all()),
        "city differs"
    );
    assert_eq!(family.users.len(), primary.users.len());
    for (f, p) in family.users.iter().zip(&primary.users) {
        assert_eq!(f.id, p.id);
        // Debug prints every f64 in its shortest round-trip form, so equal
        // strings mean bit-equal values.
        assert_eq!(format!("{:?}", f.gps), format!("{:?}", p.gps), "user {}: GPS", f.id);
        assert_eq!(format!("{:?}", f.visits), format!("{:?}", p.visits), "user {}: visits", f.id);
        assert_eq!(
            format!("{:?}", f.checkins),
            format!("{:?}", p.checkins),
            "user {}: checkins",
            f.id
        );
        assert_eq!(f.profile, p.profile, "user {}: profile", f.id);
    }
}

#[test]
fn baseline_family_equals_primary_cohort_at_pool_widths_1_and_4() {
    for threads in [1, 4] {
        geosocial_par::set_max_threads(threads);
        assert_baseline_is_primary(10, 4, 7);
        assert_baseline_is_primary(6, 3, 20130101);
    }
    geosocial_par::set_max_threads(0);
}
