//! The metric catalogue and the result line. Every name here is declared
//! in `BENCHMARK.json` (a test holds the two in step); a run emits every
//! end-to-end metric untraced and every per-layer metric traced.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("proofs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("verify_p50_ms", "ms"),
    ("proof_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "frac"),
    ("small_latency_p50_ms", "ms"),
    ("small_latency_tail_ms", "ms"),
    ("slo_met_frac", "frac"),
];

/// Per-layer metrics: (name, unit). A layer a workload never calls
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.statement_ms", "ms"),
    ("r1cs.shape_compile_ms", "ms"),
    ("r1cs.witness_ms", "ms"),
    ("r1cs.constraints", "count"),
    ("r1cs.variables", "count"),
    ("qap.h_ms", "ms"),
    ("ff.fft_ms", "ms"),
    ("ff.fft_size", "count"),
    ("curve.msm_ms.a", "ms"),
    ("curve.msm_ms.b_g2", "ms"),
    ("curve.msm_ms.b_g1", "ms"),
    ("curve.msm_ms.l", "ms"),
    ("curve.msm_ms.h", "ms"),
    ("curve.msm_points", "count"),
    ("groth16.setup_s", "s"),
    ("groth16.prove_ms", "ms"),
    ("groth16.prepare_inputs_ms", "ms"),
    ("groth16.verify_ms", "ms"),
    ("spartan.preprocess_ms", "ms"),
    ("spartan.commit_ms", "ms"),
    ("spartan.matvec_ms", "ms"),
    ("spartan.sc1_ms", "ms"),
    ("spartan.mvec_ms", "ms"),
    ("spartan.sc2_ms", "ms"),
    ("spartan.ipa_ms", "ms"),
    ("spartan.prove_ms", "ms"),
    ("spartan.verify_ms", "ms"),
    ("pool.queue_wait_ms", "ms"),
    ("serial.decode_ms", "ms"),
    ("cache.hit_rate", "frac"),
    ("serve.queue_ms.small", "ms"),
    ("serve.queue_ms.model", "ms"),
    ("serve.prove_ms.model", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("load.late_ms", "ms"),
    ("trace.coverage", "frac"),
    ("trace.overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests issued, warm-up and set-up requests included.
    pub attempted: usize,
    /// Proofs this process decoded, bound to their statement and verified.
    pub verified: usize,
    /// Requests answered with an error, an unverified proof, or never.
    pub failed: usize,
    /// Requests the server refused before admission.
    pub shed: usize,
    /// Correctness checks other than per-proof verification that failed
    /// (an accepted tamper, a diverging replay).
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra words printed beside a metric (percentile, sample count).
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.check_failures.push(what.to_string());
        }
    }

    /// `attempted = verified + failed + shed`, every proof verified, and
    /// every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.attempted == self.verified + self.failed + self.shed
            && self.failed == 0
            && self.shed == 0
            && self.check_failures.is_empty()
    }

    /// The metrics the mode reports, in catalogue order. Per-layer metrics
    /// the workload never touched are 0; a missing end-to-end metric is a
    /// benchmark bug and reads as NaN, which [`Self::result_line`] refuses.
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let (catalogue, default) = if traced {
            (PER_LAYER, 0.0)
        } else {
            (END_TO_END, f64::NAN)
        };
        catalogue
            .iter()
            .map(|(name, unit)| {
                (
                    *name,
                    *unit,
                    self.metrics.get(name).copied().unwrap_or(default),
                )
            })
            .collect()
    }

    /// Human-readable lines, one per reported metric, plus the failure
    /// accounting.
    pub fn human_lines(&self, traced: bool) -> Vec<String> {
        let mut lines: Vec<String> = self
            .reported(traced)
            .into_iter()
            .map(|(name, unit, value)| match self.notes.get(name) {
                Some(note) => format!("{name} = {value} {unit} ({note})"),
                None => format!("{name} = {value} {unit}"),
            })
            .collect();
        lines.push(format!(
            "fail_rate = {} ({} failed + {} shed of {} attempted; {} verified)",
            (self.failed + self.shed) as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.shed,
            self.attempted,
            self.verified
        ));
        lines.extend(
            self.check_failures
                .iter()
                .map(|f| format!("check failed: {f}")),
        );
        lines
    }

    /// The final result line. A non-finite metric makes the run incorrect.
    pub fn result_line(&self, traced: bool) -> (String, bool) {
        let reported = self.reported(traced);
        let finite = reported.iter().all(|(_, _, v)| v.is_finite());
        let correct = self.correct() && finite;
        let metrics: Vec<String> = reported
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed + self.shed,
            metrics.join(", ")
        );
        (line, correct)
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(section, name, unit)` for every metric line of `BENCHMARK.json`.
    fn declared() -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let field = |line: &str, key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            for s in ["end_to_end", "per_layer", "workloads"] {
                if line.contains(&format!("\"{s}\"")) {
                    section = s.to_string();
                }
            }
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((section.clone(), name, unit));
            }
        }
        out
    }

    #[test]
    fn every_metric_is_well_named_and_declared() {
        let declared = declared();
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = declared
                .iter()
                .filter(|(s, _, _)| s == section)
                .map(|(_, n, u)| (n.clone(), u.clone()))
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section} differs from BENCHMARK.json");
            for (name, _) in catalogue {
                assert!(name_ok(name), "bad metric name {name}");
            }
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
    }

    #[test]
    fn emitted_lines_carry_exactly_the_catalogue() {
        let mut o = Outcome {
            attempted: 5,
            verified: 5,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let (line, correct) = o.result_line(false);
        assert!(correct);
        for (name, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": 1.5")),
                "{name}"
            );
        }
        for (name, _) in PER_LAYER {
            assert!(!line.contains(&format!("\"{name}\"")), "{name}");
        }
        // Traced: untouched layers are reported as 0.
        let (line, _) = o.result_line(true);
        assert!(line.contains("\"trace.coverage\": {\"value\": 0.0, \"unit\": \"frac\"}"));
    }

    #[test]
    fn attempted_is_verified_plus_failed_plus_shed() {
        let mut o = Outcome {
            attempted: 10,
            verified: 7,
            failed: 2,
            shed: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.0);
        }
        // Balanced, but failures make the run incorrect; the result line
        // counts refused requests as failed.
        assert!(!o.correct());
        let (line, correct) = o.result_line(false);
        assert!(!correct);
        assert!(line.contains("\"attempted\": 10, \"failed\": 3"));
        // All verified: correct.
        o.verified = 10;
        o.failed = 0;
        o.shed = 0;
        assert!(o.correct());
        // Unbalanced books (a request neither verified nor failed) are not.
        o.verified = 9;
        assert!(!o.correct());
        // A failed check is not either.
        o.verified = 10;
        o.check(false, "tamper accepted");
        assert!(!o.correct());
    }

    #[test]
    fn a_missing_end_to_end_metric_is_refused() {
        let o = Outcome {
            attempted: 1,
            verified: 1,
            ..Outcome::default()
        };
        let (_, correct) = o.result_line(false);
        assert!(!correct);
    }
}
