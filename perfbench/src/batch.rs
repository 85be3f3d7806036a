//! The batch reproduction: generation, matching and classification
//! (Fig. 1–6 compositions), mobility fitting and one Fig. 8 AODV
//! repetition per trained model on the `par` pool, on the served
//! population's scenario configuration.

use geosocial_checkin::ScenarioConfig;
use geosocial_core::classify::ClassifyConfig;
use geosocial_core::matching::{match_checkins, MatchConfig};
use geosocial_core::prevalence::{user_compositions, UserComposition};
use geosocial_experiments::analysis::Analysis;
use geosocial_experiments::models::{
    fit_models, random_pairs, training_traces, Fig8Config, FittedModels,
};
use geosocial_manet::{MetricsReport, SimConfig, Simulator};
use geosocial_mobility::{LevyWalkModel, MovementTrace};
use geosocial_trace::Dataset;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::time::{Duration, Instant};

/// The three trained models in Fig. 8 display order.
const MODEL_LABELS: [&str; 3] = ["GPS", "Honest-Checkin", "All-Checkin"];

/// FNV-1a of `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the outputs: per-user compositions (Fig. 1–6) and every
/// Fig. 8 report's per-pair counters and transmission totals.
pub fn output_digest(compositions: &[UserComposition], reports: &[MetricsReport]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut add = |v: u64| h = fnv1a(h, &v.to_le_bytes());
    for c in compositions {
        for v in counts(c) {
            add(v as u64);
        }
    }
    for r in reports {
        add(r.total_routing_tx);
        add(r.total_data_tx);
        add(r.total_hello_tx);
        for p in &r.pairs {
            for v in [
                p.src as u64,
                p.dst as u64,
                p.route_changes,
                p.samples_total,
                p.samples_available,
                p.data_sent,
                p.data_delivered,
                p.routing_tx,
            ] {
                add(v);
            }
        }
    }
    h
}

/// One Fig. 8 simulation task: a model and its repetition seed.
struct SimTask<'a> {
    model: &'a LevyWalkModel,
    run_seed: u64,
}

fn fig8_tasks<'a>(models: &'a FittedModels, seed: u64) -> Vec<SimTask<'a>> {
    [&models.gps, &models.honest, &models.all]
        .into_iter()
        .zip(MODEL_LABELS)
        .map(|(model, label)| SimTask {
            model,
            run_seed: seed ^ fnv1a(FNV_OFFSET, label.as_bytes()),
        })
        .collect()
}

/// Timings of one Fig. 8 simulation.
pub struct SimTiming {
    pub movement: Duration,
    pub sim: Duration,
    pub transmissions: u64,
}

fn simulate(task: &SimTask<'_>, cfg: &Fig8Config) -> (MetricsReport, SimTiming) {
    let t0 = Instant::now();
    let mut rng = ChaCha12Rng::seed_from_u64(task.run_seed);
    let traces: Vec<MovementTrace> = (0..cfg.nodes)
        .map(|_| task.model.generate(cfg.area_m, cfg.duration_ms / 1_000 + 60, &mut rng))
        .collect();
    let pairs = random_pairs(cfg.nodes, cfg.pairs, &mut rng);
    let movement = t0.elapsed();
    let sim_cfg = SimConfig { duration_ms: cfg.duration_ms, ..cfg.sim.clone() };
    let t1 = Instant::now();
    let report = Simulator::new(traces, pairs, sim_cfg, task.run_seed).run();
    let sim = t1.elapsed();
    let transmissions = report.total_routing_tx + report.total_data_tx + report.total_hello_tx;
    (report, SimTiming { movement, sim, transmissions })
}

/// Fig. 8 at one repetition per model, fanned out over the `par` pool.
pub fn fig8_reports(
    models: &FittedModels,
    cfg: &Fig8Config,
    seed: u64,
) -> (Vec<MetricsReport>, Vec<SimTiming>) {
    let tasks = fig8_tasks(models, seed);
    geosocial_par::par_map(&tasks, |t| simulate(t, cfg)).into_iter().unzip()
}

/// Everything one untimed-by-layer pass of the reproduction produced.
pub struct Reproduction {
    pub compositions: Vec<UserComposition>,
    pub reports: Vec<MetricsReport>,
    /// Wall time of the whole reproduction.
    pub total: Duration,
}

/// The reproduction exactly as a researcher runs it.
pub fn reproduce(cfg: &ScenarioConfig, fig8: &Fig8Config, seed: u64) -> Reproduction {
    let t0 = Instant::now();
    let a = Analysis::run(cfg, seed);
    let traces = training_traces(&a.scenario.primary, &a.outcome);
    let models = fit_models(&traces).expect("the cohort yields fittable traces");
    let (reports, _) = fig8_reports(&models, fig8, seed);
    Reproduction { compositions: a.compositions, reports, total: t0.elapsed() }
}

/// Per-stage timings of a reproduction timed call by call.
pub struct StageTimes {
    pub generate: Duration,
    pub matching: Duration,
    pub classify: Duration,
    pub fit: Duration,
    /// Fig. 8 wall time.
    pub fig8: Duration,
    pub sims: Vec<SimTiming>,
    pub total: Duration,
    pub digest: u64,
}

/// The same reproduction, with a timer around each layer's call.
pub fn reproduce_traced(cfg: &ScenarioConfig, fig8: &Fig8Config, seed: u64) -> StageTimes {
    let t0 = Instant::now();
    let scenario = geosocial_checkin::Scenario::generate(cfg, seed);
    let generate = t0.elapsed();
    let primary = &scenario.primary;
    let t = Instant::now();
    let outcome = match_checkins(primary, &MatchConfig::paper());
    let matching = t.elapsed();
    let t = Instant::now();
    let compositions = user_compositions(primary, &outcome, &ClassifyConfig::default());
    let classify = t.elapsed();
    let t = Instant::now();
    let models = fit_models(&training_traces(primary, &outcome)).expect("fittable cohort");
    let fit = t.elapsed();
    let t = Instant::now();
    let (reports, sims) = fig8_reports(&models, fig8, seed);
    let fig8_wall = t.elapsed();
    StageTimes {
        generate,
        matching,
        classify,
        fit,
        fig8: fig8_wall,
        sims,
        total: t0.elapsed(),
        digest: output_digest(&compositions, &reports),
    }
}

/// A composition's counts, for comparisons.
fn counts(c: &UserComposition) -> [usize; 7] {
    [c.user as usize, c.total, c.honest, c.superfluous, c.remote, c.driveby, c.unclassified]
}

/// Batch audit of one dataset: matching then classification.
pub fn audit(ds: &Dataset) -> Vec<UserComposition> {
    let outcome = match_checkins(ds, &MatchConfig::paper());
    user_compositions(ds, &outcome, &ClassifyConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let c = |user, honest| UserComposition {
            user,
            total: 3,
            honest,
            superfluous: 1,
            remote: 0,
            driveby: 0,
            unclassified: 0,
        };
        let a = output_digest(&[c(0, 2), c(1, 1)], &[]);
        assert_eq!(a, output_digest(&[c(0, 2), c(1, 1)], &[]));
        assert_ne!(a, output_digest(&[c(1, 1), c(0, 2)], &[]));
        assert_ne!(a, output_digest(&[c(0, 1), c(1, 1)], &[]));
    }
}
