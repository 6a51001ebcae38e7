//! Hit/miss traces across repeated application runs.

use netdag_core::app::TaskId;
use netdag_weakly_hard::{Constraint, Sequence};

use crate::bus::RunOutcome;

/// Per-task and per-message hit/miss sequences over `κ` application runs —
/// the raw material for validating soft and weakly hard constraints
/// against actual bus behavior.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExecutionTrace {
    tasks: Vec<Sequence>,
    messages: Vec<Sequence>,
    beacon: Sequence,
    transmissions: u64,
}

impl ExecutionTrace {
    /// Creates an empty trace for the given application shape.
    pub fn new(task_count: usize, message_count: usize) -> Self {
        ExecutionTrace {
            tasks: vec![Sequence::new(); task_count],
            messages: vec![Sequence::new(); message_count],
            beacon: Sequence::new(),
            transmissions: 0,
        }
    }

    /// Appends one run's outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcome shape disagrees with the trace.
    pub fn record(&mut self, outcome: &RunOutcome) {
        assert_eq!(outcome.task_ok.len(), self.tasks.len(), "task count");
        assert_eq!(
            outcome.message_ok.len(),
            self.messages.len(),
            "message count"
        );
        for (seq, &ok) in self.tasks.iter_mut().zip(&outcome.task_ok) {
            seq.push(ok);
        }
        for (seq, &ok) in self.messages.iter_mut().zip(&outcome.message_ok) {
            seq.push(ok);
        }
        self.beacon.push(outcome.beacons_ok);
        self.transmissions += outcome.transmissions;
    }

    /// Number of recorded runs `κ`.
    pub fn runs(&self) -> usize {
        self.beacon.len()
    }

    /// The hit/miss sequence of a task across runs.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn task_sequence(&self, t: TaskId) -> &Sequence {
        &self.tasks[t.index()]
    }

    /// Empirical success rate of a task — the validation test statistic
    /// `v = Σ_t ω_τ(t) / κ` of § IV-A.
    pub fn task_hit_rate(&self, t: TaskId) -> f64 {
        self.task_sequence(t).hit_rate()
    }

    /// Whether a task's observed behavior models a weakly hard constraint.
    pub fn task_models(&self, t: TaskId, c: &Constraint) -> bool {
        c.models(self.task_sequence(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(task_ok: Vec<bool>, message_ok: Vec<bool>) -> RunOutcome {
        let flood_ok = message_ok.clone();
        RunOutcome {
            task_ok,
            message_ok,
            flood_ok,
            beacons_ok: true,
            transmissions: 10,
        }
    }

    #[test]
    fn record_accumulates_sequences() {
        let mut t = ExecutionTrace::new(2, 1);
        t.record(&outcome(vec![true, false], vec![true]));
        t.record(&outcome(vec![true, true], vec![false]));
        assert_eq!(t.runs(), 2);
        assert_eq!(t.task_sequence(TaskId(0)).to_string(), "11");
        assert_eq!(t.task_sequence(TaskId(1)).to_string(), "01");
        assert_eq!(t.messages[0].to_string(), "10");
        assert_eq!(t.transmissions, 20);
        assert_eq!(t.task_hit_rate(TaskId(1)), 0.5);
    }

    #[test]
    fn task_models_constraint() {
        let mut t = ExecutionTrace::new(1, 0);
        for ok in [true, true, false, true, true, true] {
            t.record(&outcome(vec![ok], vec![]));
        }
        let c = Constraint::any_hit(2, 3).unwrap();
        assert!(t.task_models(TaskId(0), &c));
        let hard = Constraint::any_hit(3, 3).unwrap();
        assert!(!t.task_models(TaskId(0), &hard));
    }

    #[test]
    fn serde_roundtrip() {
        let mut t = ExecutionTrace::new(1, 1);
        t.record(&outcome(vec![true], vec![false]));
        t.record(&outcome(vec![false], vec![true]));
        let json = serde_json::to_string(&t).unwrap();
        let back: ExecutionTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // Sequences are serialized compactly as bit strings.
        assert!(json.contains("\"10\""));
    }

    #[test]
    #[should_panic(expected = "task count")]
    fn shape_mismatch_panics() {
        let mut t = ExecutionTrace::new(2, 0);
        t.record(&outcome(vec![true], vec![]));
    }
}
