//! Metric records, the human-readable table, and the one-line JSON
//! result the benchmark prints last.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as printed in the table (the workload-specific name).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `MiB`, `count`, `ratio`.
    pub unit: &'static str,
    /// Name under which the value enters the JSON result, when it is
    /// one of `BENCHMARK.json`'s metrics.
    pub key: Option<&'static str>,
    /// Free-text context printed after the value (sample counts, the
    /// percentile of a tail value).
    pub note: String,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a table-only metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) -> &mut Metric {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            key: None,
            note: String::new(),
        });
        self.0.last_mut().expect("just pushed")
    }

    /// Adds a metric that also enters the JSON result under `key`.
    pub fn add_keyed(
        &mut self,
        name: &str,
        key: &'static str,
        value: f64,
        unit: &'static str,
    ) -> &mut Metric {
        let m = self.add(name, value, unit);
        m.key = Some(key);
        m
    }

    /// Adds a metric whose table name is its JSON key.
    pub fn add_key(&mut self, key: &'static str, value: f64, unit: &'static str) -> &mut Metric {
        self.add_keyed(key, key, value, unit)
    }

    /// Prints the table, one `name = value unit` line per metric.
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        for m in &self.0 {
            let mut line = format!("  {} = {} {}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                line.push_str(&format!("  ({})", m.note));
            }
            println!("{line}");
        }
    }

    /// The JSON `metrics` object holding exactly `wanted` (name, unit)
    /// pairs, in that order. Fails when a wanted key was not measured,
    /// was measured twice, carries another unit, is not finite, or has
    /// an invalid name.
    pub fn json_object(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(wanted.len());
        for &(key, unit) in wanted {
            if !valid_name(key) {
                return Err(format!("invalid metric name {key:?}"));
            }
            let found: Vec<&Metric> = self.0.iter().filter(|m| m.key == Some(key)).collect();
            let m = match found.as_slice() {
                [m] => *m,
                [] => return Err(format!("metric {key} was not measured")),
                _ => return Err(format!("metric {key} was measured more than once")),
            };
            if m.unit != unit {
                return Err(format!(
                    "metric {key} has unit {} where {unit} is declared",
                    m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {key} is not finite: {}", m.value));
            }
            parts.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_character_rule() {
        for ok in ["setup_s", "ckt.netlist_build_s", "p99-tail", "0x", "a"] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "uni\u{e9}",
            "quote\"",
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn json_object_emits_exactly_the_wanted_metrics() {
        let mut m = Metrics::default();
        m.add_key("setup_s", 1.25, "s");
        m.add_keyed("row_ops_per_s", "ops_per_s", 0.5, "1/s");
        m.add("table_only_s", 3.0, "s");
        let js = m
            .json_object(&[("setup_s", "s"), ("ops_per_s", "1/s")])
            .expect("both measured");
        assert_eq!(
            js,
            "{\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 0.5, \"unit\": \"1/s\"}}"
        );
        assert!(m.json_object(&[("missing_s", "s")]).is_err());
        assert!(m.json_object(&[("setup_s", "ms")]).is_err());
        assert!(m.json_object(&[("bad name", "s")]).is_err());
        m.add_key("setup_s", 2.0, "s");
        assert!(
            m.json_object(&[("setup_s", "s")]).is_err(),
            "duplicates are refused"
        );
    }

    #[test]
    fn json_object_refuses_non_finite_values() {
        let mut m = Metrics::default();
        m.add_key("latency_s", f64::NAN, "s");
        assert!(m.json_object(&[("latency_s", "s")]).is_err());
    }
}
