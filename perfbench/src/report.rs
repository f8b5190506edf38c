//! Run results: the named metrics, the human-readable report and the final
//! JSON line.

use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (errors, `busy` rejections and
    /// answer mismatches all count as failed).
    pub attempted: u64,
    pub failed: u64,
    /// Answers that disagreed with their oracle.
    pub mismatches: u64,
    /// The metrics of the final JSON line: the end-to-end set untraced,
    /// the per-layer set traced.
    pub metrics: Vec<Metric>,
    /// Further named metrics, printed but not part of the JSON line.
    pub extra: Vec<Metric>,
    /// Diagnostics (machine, structure fingerprints, checksums).
    pub notes: Vec<(String, String)>,
    /// The traced pass's spans, tab-separated.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed == 0
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The human-readable report: one `name value unit` line a metric.
    pub fn table(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# workload {workload}  seed {seed}  trace {}",
            u8::from(trace)
        );
        for (k, v) in &self.notes {
            let _ = writeln!(out, "# {k}: {v}");
        }
        let _ = writeln!(
            out,
            "# attempted {}  failed {}  mismatches {}",
            self.attempted, self.failed, self.mismatches
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(out, "{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Write the report (and the span file of a traced run) under `dir`.
    pub fn write_files(
        &self,
        dir: &Path,
        workload: &str,
        seed: u64,
        trace: bool,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
        std::fs::write(
            dir.join(format!("{stem}.txt")),
            self.table(workload, seed, trace),
        )?;
        if let Some(spans) = &self.spans {
            std::fs::write(dir.join(format!("{stem}-spans.tsv")), spans)?;
        }
        Ok(())
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (never expected) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            metrics: vec![metric("query_p50_ms", 1.25, "ms")],
            ..Outcome::default()
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let bad = Outcome {
            attempted: 1,
            mismatches: 1,
            ..Outcome::default()
        };
        assert!(bad.json().starts_with("{\"correct\": false"));
    }
}
