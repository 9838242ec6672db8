//! The metric table every run prints: one `name value unit` line per
//! metric, then the single-line JSON result.

use std::fmt::Write as _;

/// Metrics of one run, in insertion order. A metric whose reading failed is
/// kept as missing with its reason: it is printed as such and left out of
/// the JSON object, never reported as a made-up number.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, Result<f64, String>, &'static str)>,
}

impl Report {
    /// Record a measured value. Non-finite values (a ratio over an empty
    /// base) are recorded as missing.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("not finite ({value})"))
        };
        self.metrics.push((name, value, unit));
    }

    /// Record a reading that may have failed.
    pub fn put_result<E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        value: Result<f64, E>,
        unit: &'static str,
    ) {
        match value {
            Ok(v) => self.put(name, v, unit),
            Err(e) => self.metrics.push((name, Err(e.to_string()), unit)),
        }
    }

    /// One `name value unit` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = match value {
                Ok(v) => writeln!(out, "{name} {v} {unit}"),
                Err(reason) => writeln!(out, "{name} missing ({reason})"),
            };
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed` and the
    /// measured metrics.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|(name, value, unit)| {
                let v = value.as_ref().ok()?;
                Some(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc_status;

    #[test]
    fn failed_reading_is_reported_missing() {
        let mut report = Report::default();
        report.put("states_per_s", 1234.5, "1/s");
        let hwm = proc_status::read_kb_field(std::path::Path::new("no-such-file"), "VmHWM");
        report.put_result("peak_rss_mb", hwm.map(|b| b as f64 / 1e6), "MB");
        report.put("memo_ratio", f64::NAN, "ratio");
        let lines = report.lines();
        assert!(lines.contains("states_per_s 1234.5 1/s"));
        assert!(lines.contains("peak_rss_mb missing (cannot read process status"));
        assert!(lines.contains("memo_ratio missing (not finite"));
        assert_eq!(
            report.json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"states_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }
}
