//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro list
//! repro list-scenarios
//! repro [--exp all|table1|fig1..fig8|table2|sweep|detect|filter|recover|learned|fidelity|rates|visitdef|dsdv|equiv|chaos|timetravel|cluster|scenarios]
//!       [--scenario NAME[,NAME...]]
//!       [--users N] [--days N] [--seed S] [--out DIR] [--threads N] [--quick] [--paper-area]
//! ```
//!
//! `repro list` prints every experiment with a one-line description; an
//! unknown `--exp` name prints the same list and exits non-zero.
//! `repro list-scenarios` prints the registered scenario families;
//! `--scenario` restricts the `scenarios` experiment to the named
//! families (and implies `--exp scenarios` when no `--exp` is given).
//!
//! Writes `DIR/<exp>.txt` and `DIR/<exp>*.csv` for every requested
//! experiment and prints the text reports to stdout. Every experiment is
//! wall-clock timed (`exp ... took X.XXs` on stderr) and the timings land
//! in `DIR/timings.csv`. All output is bit-identical for any `--threads`
//! value — parallelism only changes how fast it appears.

use geosocial_experiments::figures::{self, ExperimentOutput};
use geosocial_experiments::models::{self, Fig8Config};
use geosocial_experiments::{extensions, scenarios, streaming, Analysis};
use geosocial_obs::Stopwatch;
use std::path::PathBuf;

struct Args {
    exps: Vec<String>,
    scenarios: Option<Vec<String>>,
    users: Option<u32>,
    days: Option<u32>,
    seed: u64,
    out: PathBuf,
    threads: Option<usize>,
    quick: bool,
    paper_area: bool,
}

const ALL_EXPS: [(&str, &str); 24] = [
    ("table1", "Table 1 — dataset statistics for both cohorts"),
    ("fig1", "Figure 1 — checkin/visit matching Venn"),
    ("fig2", "Figure 2 — inter-arrival CDFs"),
    ("fig3", "Figure 3 — top-n missing-checkin concentration"),
    ("fig4", "Figure 4 — missing checkins by POI category"),
    ("table2", "Table 2 — incentive correlations"),
    ("fig5", "Figure 5 — per-user extraneous ratio"),
    ("fig6", "Figure 6 — checkin burstiness"),
    ("fig7", "Figure 7 — Levy Walk fits"),
    ("fig8", "Figure 8 — MANET routing metrics"),
    ("sweep", "§4.1 α/β threshold sensitivity sweep"),
    ("detect", "§7 extraneous-checkin detection P/R curve"),
    ("filter", "§5.3 user-filter tradeoff"),
    ("recover", "§7 missing-location recovery"),
    ("learned", "§7 learned extraneous detector (X5)"),
    ("fidelity", "generative-model fidelity audit (X6)"),
    ("rates", "§7 per-category rate recovery (X7)"),
    ("visitdef", "visit-definition sensitivity sweep (X8)"),
    ("dsdv", "Figure 8 under DSDV routing (X9)"),
    ("equiv", "online-vs-batch streaming equivalence audit (X10)"),
    ("chaos", "served equivalence under an injected fault plan (X11)"),
    ("timetravel", "store-backed as-of audit vs truncated batch (X13)"),
    ("cluster", "router-tier cluster vs single instance vs batch (X14)"),
    ("scenarios", "per-scenario detector scorecards (X15)"),
];

fn print_experiment_list() {
    eprintln!("experiments (use --exp NAME[,NAME...] or --exp all):");
    for (name, what) in ALL_EXPS {
        eprintln!("  {name:<9} {what}");
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        exps: vec!["all".into()],
        scenarios: None,
        users: None,
        days: None,
        seed: 20130101,
        out: PathBuf::from("results"),
        threads: None,
        quick: false,
        paper_area: false,
    };
    let mut exp_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "list" => {
                print_experiment_list();
                std::process::exit(0);
            }
            "list-scenarios" => {
                for family in geosocial_scenario::registry() {
                    println!("{:<12} {}", family.name(), family.describe());
                }
                std::process::exit(0);
            }
            "--exp" => {
                exp_given = true;
                args.exps =
                    it.next().expect("--exp needs a value").split(',').map(str::to_string).collect()
            }
            "--scenario" => {
                args.scenarios = Some(
                    it.next()
                        .expect("--scenario needs a value")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--users" => {
                args.users = Some(it.next().expect("--users needs a value").parse().expect("users"))
            }
            "--days" => {
                args.days = Some(it.next().expect("--days needs a value").parse().expect("days"))
            }
            "--seed" => args.seed = it.next().expect("--seed needs a value").parse().expect("seed"),
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--threads" => {
                args.threads =
                    Some(it.next().expect("--threads needs a value").parse().expect("threads"))
            }
            "--quick" => args.quick = true,
            "--paper-area" => args.paper_area = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [list | list-scenarios] [--exp LIST] [--scenario LIST]\n\
                     \x20            [--users N] [--days N] [--seed S] [--out DIR]\n\
                     \x20            [--threads N] [--quick] [--paper-area]"
                );
                print_experiment_list();
                eprintln!(
                    "  --threads N   worker threads for the parallel pipeline stages\n\
                     \x20               (default: one per core, via available_parallelism;\n\
                     \x20               output is bit-identical for every value)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // `--scenario` without `--exp` means "score just these families":
    // run only the scenarios experiment.
    if args.scenarios.is_some() && !exp_given {
        args.exps = vec!["scenarios".into()];
    }
    if let Some(names) = &args.scenarios {
        for name in names {
            if geosocial_scenario::find(name).is_none() {
                eprintln!(
                    "unknown scenario {name}; registered: {}",
                    geosocial_scenario::names().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if args.exps.iter().any(|e| e == "all") {
        args.exps = ALL_EXPS.iter().map(|(name, _)| name.to_string()).collect();
    }
    for exp in &args.exps {
        if !ALL_EXPS.iter().any(|(name, _)| name == exp) {
            eprintln!("unknown experiment {exp}");
            print_experiment_list();
            std::process::exit(2);
        }
    }
    args
}

/// The revision that produced a results directory, for provenance rows in
/// `timings.csv`. Falls back to `unknown` outside a git checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Per-stage span rows for `timings.csv`: every `span_us.*` histogram in the
/// registry, as `span:<path>` with its accumulated seconds. `Analysis::run`
/// alone contributes the four pipeline stages (`analysis`,
/// `analysis.generate`, `analysis.match`, `analysis.classify`).
fn span_rows() -> Vec<(String, f64)> {
    geosocial_obs::snapshot()
        .histograms
        .into_iter()
        .filter_map(|(name, h)| {
            let path = name.strip_prefix("span_us.")?;
            Some((format!("span:{path}"), h.sum as f64 / 1e6))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        geosocial_par::set_max_threads(n);
    }
    std::fs::create_dir_all(&args.out).expect("create output dir");

    let mut config = if args.quick { Analysis::quick_config() } else { Analysis::paper_config() };
    if let Some(u) = args.users {
        config.primary_users = u;
        config.baseline_users = (u / 5).max(2);
    }
    if let Some(d) = args.days {
        config.primary_days = d;
        config.baseline_days = d + d / 2;
    }

    eprintln!(
        "generating scenario: {} primary users x ~{} days, {} baseline users (seed {}, {} threads)...",
        config.primary_users,
        config.primary_days,
        config.baseline_users,
        args.seed,
        geosocial_par::max_threads(),
    );
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut clock = Stopwatch::start();
    let analysis = Analysis::run(&config, args.seed);
    let analysis_secs = clock.lap_us() as f64 / 1e6;
    eprintln!("exp analysis took {analysis_secs:.2}s");
    timings.push(("analysis".into(), analysis_secs));
    eprintln!(
        "primary: {} | baseline: {}",
        analysis.scenario.primary.stats(),
        analysis.scenario.baseline.stats()
    );

    // Models are shared between fig7 and fig8; fit lazily.
    let mut fitted = None;
    let fit = |analysis: &Analysis| {
        let traces = models::training_traces(&analysis.scenario.primary, &analysis.outcome);
        models::fit_models(&traces).expect("model fitting needs a non-trivial cohort")
    };

    for exp in &args.exps {
        eprintln!("running {exp}...");
        let exp_span = geosocial_obs::span(exp);
        let out: ExperimentOutput = match exp.as_str() {
            "table1" => figures::table1(&analysis),
            "fig1" => figures::fig1(&analysis),
            "fig2" => figures::fig2(&analysis),
            "fig3" => figures::fig3(&analysis),
            "fig4" => figures::fig4(&analysis),
            "table2" => figures::table2(&analysis),
            "fig5" => figures::fig5(&analysis),
            "fig6" => figures::fig6(&analysis),
            "fig7" => models::fig7(&analysis),
            "fig8" => {
                if fitted.is_none() {
                    fitted = Some(fit(&analysis));
                }
                let mut cfg = if args.quick { Fig8Config::quick() } else { Fig8Config::default() };
                if args.paper_area {
                    cfg.area_m = 100_000.0;
                }
                models::fig8(fitted.as_ref().unwrap(), &cfg, args.seed)
            }
            "dsdv" => {
                if fitted.is_none() {
                    fitted = Some(fit(&analysis));
                }
                let mut cfg = if args.quick { Fig8Config::quick() } else { Fig8Config::default() };
                if args.paper_area {
                    cfg.area_m = 100_000.0;
                }
                models::fig8_dsdv(fitted.as_ref().unwrap(), &cfg, args.seed)
            }
            "sweep" => extensions::alpha_beta_sweep(&analysis),
            "detect" => extensions::detector_curve(&analysis),
            "filter" => extensions::filter_curve(&analysis),
            "recover" => extensions::recovery(&analysis),
            "learned" => extensions::learned_detector(&analysis),
            "fidelity" => extensions::model_fidelity(&analysis),
            "rates" => extensions::category_rate_recovery(&analysis),
            "visitdef" => extensions::visit_sensitivity(&analysis),
            "equiv" => streaming::streaming_equivalence(&analysis, &config, args.seed),
            "chaos" => streaming::chaos_equivalence(&analysis, args.seed),
            "timetravel" => streaming::time_travel(&analysis, args.seed),
            "cluster" => streaming::cluster_equivalence(&analysis, args.seed),
            "scenarios" => {
                scenarios::scenario_scorecards(args.quick, args.seed, args.scenarios.as_deref())
            }
            other => {
                eprintln!("unknown experiment {other}");
                print_experiment_list();
                std::process::exit(2);
            }
        };
        let secs = exp_span.stop();
        eprintln!("exp {exp} took {secs:.2}s");
        timings.push((exp.clone(), secs));
        println!("==== {} ====\n{}", out.id, out.text);
        let txt_path = args.out.join(format!("{}.txt", out.id));
        std::fs::write(&txt_path, &out.text).expect("write text report");
        for (suffix, csv) in &out.csv {
            let csv_path = args.out.join(format!("{}{}.csv", out.id, suffix));
            std::fs::write(&csv_path, csv).expect("write csv");
        }
    }

    // Timing rows carry enough provenance to compare runs across machines
    // and revisions: worker-thread count, experiment scale, and the git
    // revision that produced them.
    let threads = geosocial_par::max_threads();
    let scale = if args.quick { "quick" } else { "paper" };
    let git = git_describe();
    let mut csv = String::from("exp,seconds,threads,scale,git\n");
    for (exp, secs) in &timings {
        csv.push_str(&format!("{exp},{secs:.4},{threads},{scale},{git}\n"));
    }
    // Per-stage breakdown from the span-timer histograms: `span:<path>`
    // rows carry the accumulated seconds each named stage spent, with
    // nesting encoded in the dotted path (see EXPERIMENTS.md).
    let mut spans = span_rows();
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    for (stage, secs) in &spans {
        csv.push_str(&format!("{stage},{secs:.4},{threads},{scale},{git}\n"));
    }
    std::fs::write(args.out.join("timings.csv"), csv).expect("write timings.csv");

    eprintln!("done; outputs in {}", args.out.display());
}
