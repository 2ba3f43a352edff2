//! Committed per-seed reference results and the check against them.
//!
//! `reference.txt` holds one line per (workload, seed, size):
//! `<workload> <seed> <size> key=value ...`. Integer values must match
//! exactly; values with a decimal point or exponent match within
//! [`REL_TOL`].

/// The committed references, compiled into the benchmark.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Relative tolerance for floating-point reference values. The yield
/// margin mean is a long floating-point sum of solver outputs; a change
/// of pivot order or summation order inside the solvers may move its
/// last bits without changing any pass/fail count, so it is compared
/// to one part in a million rather than bit for bit.
pub const REL_TOL: f64 = 1e-6;

/// One reference value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Must match exactly.
    Exact(u64),
    /// Must match within [`REL_TOL`].
    Approx(f64),
}

impl Value {
    fn parse(s: &str) -> Option<Value> {
        if s.contains(['.', 'e', 'E']) {
            s.parse().ok().map(Value::Approx)
        } else {
            s.parse().ok().map(Value::Exact)
        }
    }

    fn render(self) -> String {
        match self {
            Value::Exact(v) => v.to_string(),
            Value::Approx(v) => format!("{v:e}"),
        }
    }

    fn matches(self, expected: Value) -> bool {
        match (self, expected) {
            (Value::Exact(a), Value::Exact(b)) => a == b,
            (Value::Approx(a), Value::Approx(b)) => (a - b).abs() <= REL_TOL * b.abs(),
            _ => false,
        }
    }
}

/// The reference-relevant outputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Workload name.
    pub workload: &'static str,
    /// Benchmark seed.
    pub seed: u64,
    /// Work size (ops or trials) the outputs belong to.
    pub size: u64,
    /// Named values, in print order.
    pub fields: Vec<(&'static str, Value)>,
}

/// Result of looking a fingerprint up in the references.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A reference exists and every field matches.
    Matched,
    /// No reference line for this workload, seed and size.
    NoEntry,
    /// A reference exists and these fields differ.
    Mismatch(Vec<String>),
}

impl Fingerprint {
    /// The line this fingerprint would have in `reference.txt`.
    pub fn line(&self) -> String {
        let mut s = format!("{} {} {}", self.workload, self.seed, self.size);
        for (k, v) in &self.fields {
            s.push_str(&format!(" {k}={}", v.render()));
        }
        s
    }

    /// Checks this fingerprint against the reference text `refs`.
    pub fn check(&self, refs: &str) -> Outcome {
        let head = format!("{} {} {}", self.workload, self.seed, self.size);
        let Some(line) = refs
            .lines()
            .map(str::trim)
            .find(|l| !l.starts_with('#') && l.split_whitespace().take(3).eq(head.split(' ')))
        else {
            return Outcome::NoEntry;
        };
        let mut diffs = Vec::new();
        let expected: Vec<(&str, Option<Value>)> = line
            .split_whitespace()
            .skip(3)
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (k, Value::parse(v)),
                None => (kv, None),
            })
            .collect();
        for (k, got) in &self.fields {
            match expected.iter().find(|(ek, _)| ek == k) {
                Some((_, Some(want))) if got.matches(*want) => {}
                Some((_, Some(want))) => diffs.push(format!(
                    "{k}: got {}, reference {}",
                    got.render(),
                    want.render()
                )),
                Some((_, None)) => diffs.push(format!("{k}: reference value is malformed")),
                None => diffs.push(format!("{k}: missing from the reference line")),
            }
        }
        for (k, _) in &expected {
            if !self.fields.iter().any(|(f, _)| f == k) {
                diffs.push(format!("{k}: in the reference but not produced"));
            }
        }
        if diffs.is_empty() {
            Outcome::Matched
        } else {
            Outcome::Mismatch(diffs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            workload: "yield_mc",
            seed: 7,
            size: 1500,
            fields: vec![
                ("failures", Value::Exact(49)),
                ("read_pass", Value::Exact(1400)),
                ("margin_mean", Value::Approx(1234.5678)),
            ],
        }
    }

    #[test]
    fn a_recorded_line_matches_itself() {
        let fp = sample();
        let refs = format!("# comment\n{}\n", fp.line());
        assert_eq!(fp.check(&refs), Outcome::Matched);
    }

    #[test]
    fn a_perturbed_result_is_rejected() {
        let refs = sample().line();
        let mut count_off = sample();
        count_off.fields[0].1 = Value::Exact(48);
        assert!(matches!(count_off.check(&refs), Outcome::Mismatch(d) if d.len() == 1));

        let mut mean_off = sample();
        mean_off.fields[2].1 = Value::Approx(1234.5678 * (1.0 + 10.0 * REL_TOL));
        assert!(matches!(mean_off.check(&refs), Outcome::Mismatch(_)));

        let mut mean_close = sample();
        mean_close.fields[2].1 = Value::Approx(1234.5678 * (1.0 + 0.1 * REL_TOL));
        assert_eq!(mean_close.check(&refs), Outcome::Matched);

        let mut dropped = sample();
        dropped.fields.pop();
        assert!(matches!(dropped.check(&refs), Outcome::Mismatch(_)));
    }

    #[test]
    fn other_seeds_and_sizes_have_no_entry() {
        let refs = sample().line();
        let mut other_seed = sample();
        other_seed.seed = 8;
        assert_eq!(other_seed.check(&refs), Outcome::NoEntry);
        let mut other_size = sample();
        other_size.size = 1501;
        assert_eq!(other_size.check(&refs), Outcome::NoEntry);
    }

    #[test]
    fn values_parse_by_form() {
        assert_eq!(Value::parse("12"), Some(Value::Exact(12)));
        assert_eq!(Value::parse("1.5e3"), Some(Value::Approx(1500.0)));
        assert_eq!(Value::parse("x"), None);
    }
}
