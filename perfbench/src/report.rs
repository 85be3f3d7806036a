//! The run's result: named metrics, outcome counts and provenance.

use serde::{Serialize, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::Command;

/// One reported metric; it serializes as the result line's
/// `{"value", "unit"}`.
#[derive(Serialize)]
pub struct Metric {
    #[serde(skip)]
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    #[serde(skip)]
    pub samples: usize,
}

/// The one-line JSON result.
#[derive(Serialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: HashMap<&'static str, Value>,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Frames, queries and correctness checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed, were refused or were retried.
    pub failed: u64,
    /// Why each failure counted, for the human-readable listing.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Count `n` attempts of which `bad` failed, with a reason per failure.
    pub fn attempts(&mut self, n: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(why());
        }
    }

    /// Count one correctness check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempts(1, u64::from(!ok), why);
    }

    /// A run is correct when nothing failed and every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable listing followed by the one-line JSON result,
    /// which must stay the last line of standard output.
    pub fn render(&self, provenance: &[(&str, String)]) -> String {
        let mut out = String::new();
        for (k, v) in provenance {
            let _ = writeln!(out, "provenance {k} = {v}");
        }
        for m in &self.metrics {
            let _ =
                writeln!(out, "metric {} = {} {} (samples {})", m.name, m.value, m.unit, m.samples);
        }
        let frac =
            if self.attempted > 0 { self.failed as f64 / self.attempted as f64 } else { 1.0 };
        let _ =
            writeln!(out, "error_frac = {frac} ({} of {} attempted)", self.failed, self.attempted);
        for f in &self.failures {
            let _ = writeln!(out, "failure: {f}");
        }
        // A non-finite value serializes as null and makes the run incorrect.
        let outcome = Outcome {
            correct: self.correct(),
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics: self.metrics.iter().map(|m| (m.name, m.to_value())).collect(),
        };
        let line = serde_json::to_string(&outcome).expect("the result serializes");
        let _ = writeln!(out, "{line}");
        out
    }
}

/// Where and how the numbers were produced.
pub fn provenance(workload: &str, seed: u64, trace: bool) -> Vec<(&'static str, String)> {
    let first_line = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::trim).map(String::from))
            .unwrap_or_else(|| "unavailable".into())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".into());
    vec![
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("nproc", crate::nproc().to_string()),
        ("cpu_model", cpu_model),
        ("git_rev", first_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])),
        ("rustc", first_line("rustc", &["--version"])),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
    ]
}
