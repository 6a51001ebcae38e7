//! Declarative service-level-objective gates over windowed telemetry.
//!
//! An [`SloGate`] names thresholds (p99 latency, cache hit rate,
//! deadline-expired budget); [`SloGate::evaluate`] checks them against
//! measured [`SloInputs`] and returns an [`SloReport`] that renders to
//! both a human summary and stable JSON. The serve daemon evaluates
//! its gate at shutdown, and `netdag soak` embeds the report as the
//! `"slo"` section of its summary so CI can fail on regression without
//! parsing human-oriented output.

use crate::json::push_json_str;

/// Thresholds to hold a serving run to. Every field is optional; an
/// unset field simply produces no check. The default gate is empty
/// ([`SloGate::is_empty`]) and always passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloGate {
    /// Rolling p99 latency must be ≤ this many microseconds.
    pub max_p99_us: Option<u64>,
    /// Cache hit rate (hits / lookups, in `[0, 1]`) must be ≥ this.
    pub min_hit_rate: Option<f64>,
    /// At most this many requests may have missed their deadline
    /// (`Some(0)` is the paper-faithful "zero expiries" gate).
    pub max_deadline_expired: Option<u64>,
}

/// Measured values an [`SloGate`] is evaluated against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloInputs {
    /// Rolling p99 service latency, microseconds.
    pub p99_us: u64,
    /// Cache hit rate in `[0, 1]` (hits / lookups; 0 when no lookups).
    pub hit_rate: f64,
    /// Requests whose deadline expired before a complete solve.
    pub deadline_expired: u64,
}

/// One evaluated threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloCheck {
    /// Stable check name (`"p99_us"`, `"hit_rate"`,
    /// `"deadline_expired"`).
    pub name: String,
    /// The configured bound, rendered (`"<= 2000"`, `">= 0.5000"`).
    pub threshold: String,
    /// The measured value, rendered with the same formatting.
    pub observed: String,
    /// Whether the observation satisfied the bound.
    pub passed: bool,
}

/// The outcome of evaluating every configured check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloReport {
    /// One entry per configured threshold, in declaration order
    /// (p99, hit rate, deadline budget).
    pub checks: Vec<SloCheck>,
}

impl SloGate {
    /// True when no threshold is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.max_p99_us.is_none()
            && self.min_hit_rate.is_none()
            && self.max_deadline_expired.is_none()
    }

    /// Evaluates every configured threshold against `inputs`.
    #[must_use]
    pub fn evaluate(&self, inputs: &SloInputs) -> SloReport {
        let mut checks = Vec::new();
        if let Some(bound) = self.max_p99_us {
            checks.push(SloCheck {
                name: "p99_us".into(),
                threshold: format!("<= {bound}"),
                observed: inputs.p99_us.to_string(),
                passed: inputs.p99_us <= bound,
            });
        }
        if let Some(bound) = self.min_hit_rate {
            checks.push(SloCheck {
                name: "hit_rate".into(),
                threshold: format!(">= {bound:.4}"),
                observed: format!("{:.4}", inputs.hit_rate),
                passed: inputs.hit_rate >= bound,
            });
        }
        if let Some(bound) = self.max_deadline_expired {
            checks.push(SloCheck {
                name: "deadline_expired".into(),
                threshold: format!("<= {bound}"),
                observed: inputs.deadline_expired.to_string(),
                passed: inputs.deadline_expired <= bound,
            });
        }
        SloReport { checks }
    }
}

impl SloReport {
    /// True when every check passed (vacuously true for an empty
    /// gate).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// One line per check, e.g.
    /// `slo p99_us: 1412 <= 2000 .. PASS`.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "slo {}: {} {} .. {}\n",
                c.name,
                c.observed,
                c.threshold,
                if c.passed { "PASS" } else { "FAIL" }
            ));
        }
        out
    }

    /// Stable JSON object:
    /// `{"passed": bool, "checks": [{"name", "threshold", "observed",
    /// "passed"}, …]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{ \"passed\": ");
        out.push_str(if self.passed() { "true" } else { "false" });
        out.push_str(", \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{ \"name\": ");
            push_json_str(&mut out, &c.name);
            out.push_str(", \"threshold\": ");
            push_json_str(&mut out, &c.threshold);
            out.push_str(", \"observed\": ");
            push_json_str(&mut out, &c.observed);
            out.push_str(&format!(", \"passed\": {} }}", c.passed));
        }
        out.push_str("] }");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_gate_passes_vacuously() {
        let gate = SloGate::default();
        assert!(gate.is_empty());
        let report = gate.evaluate(&SloInputs {
            p99_us: u64::MAX,
            hit_rate: 0.0,
            deadline_expired: 99,
        });
        assert!(report.checks.is_empty());
        assert!(report.passed());
    }

    #[test]
    fn each_threshold_gates_independently() {
        let gate = SloGate {
            max_p99_us: Some(2000),
            min_hit_rate: Some(0.5),
            max_deadline_expired: Some(0),
        };
        let good = gate.evaluate(&SloInputs {
            p99_us: 1412,
            hit_rate: 0.75,
            deadline_expired: 0,
        });
        assert!(good.passed());
        assert_eq!(good.checks.len(), 3);

        let slow = gate.evaluate(&SloInputs {
            p99_us: 2001,
            hit_rate: 0.75,
            deadline_expired: 0,
        });
        assert!(!slow.passed());
        assert_eq!(
            slow.checks.iter().filter(|c| !c.passed).count(),
            1,
            "only the p99 check fails"
        );
        assert_eq!(slow.checks[0].name, "p99_us");
        assert_eq!(slow.checks[0].observed, "2001");
        assert_eq!(slow.checks[0].threshold, "<= 2000");
    }

    #[test]
    fn boundary_values_pass() {
        let gate = SloGate {
            max_p99_us: Some(2000),
            min_hit_rate: Some(0.5),
            max_deadline_expired: Some(2),
        };
        let report = gate.evaluate(&SloInputs {
            p99_us: 2000,
            hit_rate: 0.5,
            deadline_expired: 2,
        });
        assert!(report.passed());
    }

    #[test]
    fn summary_and_json_render_every_check() {
        let gate = SloGate {
            max_p99_us: Some(100),
            min_hit_rate: Some(0.9),
            max_deadline_expired: Some(0),
        };
        let report = gate.evaluate(&SloInputs {
            p99_us: 250,
            hit_rate: 0.9231,
            deadline_expired: 0,
        });
        let summary = report.summary();
        assert!(summary.contains("slo p99_us: 250 <= 100 .. FAIL"));
        assert!(summary.contains("slo hit_rate: 0.9231 >= 0.9000 .. PASS"));

        let json = report.to_json();
        let value = serde_json::from_str_value(&json).expect("valid JSON");
        let serde::Value::Object(fields) = &value else {
            panic!("top level must be an object");
        };
        assert_eq!(fields[0].0, "passed");
        assert_eq!(fields[0].1, serde::Value::Bool(false));
        let serde::Value::Array(checks) = &fields[1].1 else {
            panic!("checks must be an array");
        };
        assert_eq!(checks.len(), 3);
    }
}
