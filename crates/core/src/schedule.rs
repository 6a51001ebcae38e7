//! Feasible schedules `(ζ, χ, l)` and their checker (paper eqs. (4)–(5)).

use std::error::Error;
use std::fmt;

use netdag_glossy::GlossyTiming;

use crate::app::{Application, MsgId, TaskId};

/// One LWB communication round: a beacon flood followed by contention-free
/// slots, one per assigned message.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Round {
    /// Messages in slot order (the round's share of `l`).
    pub messages: Vec<MsgId>,
    /// `N_TX` of the beacon flood, `χ(r)`.
    pub beacon_chi: u32,
    /// Start time, µs.
    pub start_us: u64,
    /// Duration per eq. (3), µs.
    pub duration_us: u64,
}

impl Round {
    /// End of the round, µs.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.duration_us
    }
}

/// A complete schedule: round structure `l`, retransmission parameters
/// `χ`, and start times `ζ` for tasks and rounds.
///
/// Built by the scheduling backends in [`crate::soft`] and
/// [`crate::weakly_hard`]; checked against the feasibility conditions (4)
/// and (5) by [`Schedule::check_feasible`].
///
/// Timing note: the paper states precedence with strict inequalities over
/// deadlines (`ζ(µ) − µ.d > ζ(τ)`); this implementation uses the standard
/// non-strict form `start(µ) ≥ end(τ)` over integer microseconds, which
/// admits back-to-back execution and is otherwise equivalent.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Schedule {
    rounds: Vec<Round>,
    /// `χ(e)` per message id.
    chi: Vec<u32>,
    /// `ζ` as start times per task id.
    task_start: Vec<u64>,
    timing: GlossyTiming,
}

/// Why a schedule is infeasible, from [`Schedule::check_feasible`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeasibilityError {
    /// The schedule's message/task tables do not match the application.
    ShapeMismatch(String),
    /// A message was assigned to no round, or to two rounds.
    MessageCoverage(MsgId),
    /// A dependent task starts before its predecessor ends (eq. (4)).
    TaskOrder(TaskId, TaskId),
    /// Rounds are not sequential on the bus (eq. (4)).
    RoundOrder(usize, usize),
    /// A consumer task starts before the round carrying its input ends.
    ConsumerBeforeRound(TaskId, usize),
    /// A round starts before the producer of one of its messages ends.
    RoundBeforeProducer(usize, TaskId),
    /// A task executes during a communication round (eq. (5)).
    TaskDuringRound(TaskId, usize),
    /// A round's stored duration disagrees with eq. (3).
    DurationMismatch(usize),
    /// The message-to-round assignment violates the line-graph order
    /// (eq. (2)).
    PrecedenceOrder(MsgId, MsgId),
    /// A retransmission parameter was zero.
    ZeroChi(MsgId),
}

impl fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            FeasibilityError::MessageCoverage(m) => {
                write!(f, "message {m} must appear in exactly one round")
            }
            FeasibilityError::TaskOrder(a, b) => {
                write!(f, "task {b} starts before its predecessor {a} ends")
            }
            FeasibilityError::RoundOrder(a, b) => {
                write!(f, "round {b} starts before round {a} ends")
            }
            FeasibilityError::ConsumerBeforeRound(t, r) => {
                write!(f, "task {t} starts before round {r} delivers its input")
            }
            FeasibilityError::RoundBeforeProducer(r, t) => {
                write!(f, "round {r} starts before producer {t} ends")
            }
            FeasibilityError::TaskDuringRound(t, r) => {
                write!(f, "task {t} overlaps communication round {r}")
            }
            FeasibilityError::DurationMismatch(r) => {
                write!(f, "round {r} duration disagrees with eq. (3)")
            }
            FeasibilityError::PrecedenceOrder(a, b) => {
                write!(f, "message {b} scheduled no later than its predecessor {a}")
            }
            FeasibilityError::ZeroChi(m) => write!(f, "message {m} has N_TX = 0"),
        }
    }
}

impl Error for FeasibilityError {}

impl Schedule {
    /// Assembles a schedule from its parts.
    ///
    /// `chi[i]` is `χ` for `MsgId(i)`; `task_start[i]` is `ζ` for
    /// `TaskId(i)`. Use [`Schedule::check_feasible`] to validate against an
    /// application.
    pub fn new(
        rounds: Vec<Round>,
        chi: Vec<u32>,
        task_start: Vec<u64>,
        timing: GlossyTiming,
    ) -> Self {
        Schedule {
            rounds,
            chi,
            task_start,
            timing,
        }
    }

    /// The rounds, in bus order.
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }

    /// Publishes this schedule's shape (schedule computed, rounds, and
    /// message slots) to the global metrics recorder; called by the
    /// scheduling entry points on success.
    pub(crate) fn publish_metrics(&self) {
        use netdag_obs::{counter, keys};
        counter!(keys::CORE_SCHEDULES_COMPUTED).incr();
        counter!(keys::LWB_ROUNDS_SCHEDULED).add(self.rounds.len() as u64);
        let slots: usize = self.rounds.iter().map(|r| r.messages.len()).sum();
        counter!(keys::LWB_SLOTS_SCHEDULED).add(slots as u64);
    }

    /// `χ(e)` for a message.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn chi(&self, m: MsgId) -> u32 {
        self.chi[m.index()]
    }

    /// Start time `ζ` of a task, µs.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn task_start(&self, t: TaskId) -> u64 {
        self.task_start[t.index()]
    }

    /// End time of a task, µs.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn task_end(&self, app: &Application, t: TaskId) -> u64 {
        self.task_start[t.index()] + app.task(t).wcet_us
    }

    /// The round index carrying message `m`, when assigned.
    pub fn round_of(&self, m: MsgId) -> Option<usize> {
        self.rounds.iter().position(|r| r.messages.contains(&m))
    }

    /// The hardware timing constants the durations were computed with.
    pub fn timing(&self) -> &GlossyTiming {
        &self.timing
    }

    /// Application end-to-end latency: the time the last task or round
    /// finishes.
    pub fn makespan(&self, app: &Application) -> u64 {
        let t_end = app
            .tasks()
            .map(|t| self.task_end(app, t))
            .max()
            .unwrap_or(0);
        let r_end = self.rounds.iter().map(Round::end_us).max().unwrap_or(0);
        t_end.max(r_end)
    }

    /// Total bus (communication) time, µs — the radio-on time every node
    /// pays per application run.
    pub fn total_communication_us(&self) -> u64 {
        self.rounds.iter().map(|r| r.duration_us).sum()
    }

    /// Checks the feasibility conditions (2), (3), (4) and (5) against an
    /// application.
    ///
    /// # Errors
    ///
    /// The first violated condition, as a [`FeasibilityError`].
    pub fn check_feasible(&self, app: &Application) -> Result<(), FeasibilityError> {
        if self.chi.len() != app.message_count() {
            return Err(FeasibilityError::ShapeMismatch(format!(
                "{} chi entries for {} messages",
                self.chi.len(),
                app.message_count()
            )));
        }
        if self.task_start.len() != app.task_count() {
            return Err(FeasibilityError::ShapeMismatch(format!(
                "{} start entries for {} tasks",
                self.task_start.len(),
                app.task_count()
            )));
        }
        for m in app.messages() {
            if self.chi[m.index()] == 0 {
                return Err(FeasibilityError::ZeroChi(m));
            }
            let appearances = self
                .rounds
                .iter()
                .flat_map(|r| &r.messages)
                .filter(|&&x| x == m)
                .count();
            if appearances != 1 {
                return Err(FeasibilityError::MessageCoverage(m));
            }
        }
        // Eq. (3): stored durations match the estimate.
        for (i, r) in self.rounds.iter().enumerate() {
            let slots: Vec<(u32, u32)> = r
                .messages
                .iter()
                .map(|&m| (self.chi[m.index()], app.message(m).width))
                .collect();
            if r.duration_us != self.timing.round_duration(r.beacon_chi, &slots) {
                return Err(FeasibilityError::DurationMismatch(i));
            }
        }
        // Eq. (2): precedence-respecting round assignment.
        let round_idx = |m: MsgId| self.round_of(m).expect("coverage checked");
        for (a, b) in app.message_precedence() {
            if round_idx(a) >= round_idx(b) {
                return Err(FeasibilityError::PrecedenceOrder(a, b));
            }
        }
        // Eq. (4): task precedence.
        for t in app.tasks() {
            for &s in app.successors(t) {
                if self.task_start(s) < self.task_end(app, t) {
                    return Err(FeasibilityError::TaskOrder(t, s));
                }
            }
        }
        // Eq. (4): bus rounds are sequential.
        for i in 1..self.rounds.len() {
            if self.rounds[i].start_us < self.rounds[i - 1].end_us() {
                return Err(FeasibilityError::RoundOrder(i - 1, i));
            }
        }
        // Eq. (4): producers end before their round; consumers start after.
        for m in app.messages() {
            let r = round_idx(m);
            let round = &self.rounds[r];
            let producer = app.message(m).source;
            if round.start_us < self.task_end(app, producer) {
                return Err(FeasibilityError::RoundBeforeProducer(r, producer));
            }
            for &c in &app.message(m).consumers {
                if self.task_start(c) < round.end_us() {
                    return Err(FeasibilityError::ConsumerBeforeRound(c, r));
                }
            }
        }
        // Eq. (5): no task during any round.
        for t in app.tasks() {
            let (ts, te) = (self.task_start(t), self.task_end(app, t));
            for (i, r) in self.rounds.iter().enumerate() {
                if ts < r.end_us() && r.start_us < te {
                    return Err(FeasibilityError::TaskDuringRound(t, i));
                }
            }
        }
        Ok(())
    }

    /// Renders a fig. 1-style timeline: one row per node plus a bus row,
    /// with time bucketed into `columns` cells.
    pub fn render_timeline(&self, app: &Application, columns: usize) -> String {
        let columns = columns.max(10);
        let makespan = self.makespan(app).max(1);
        let cell = |us: u64| ((us as u128 * columns as u128) / (makespan as u128 + 1)) as usize;
        let nodes: Vec<_> = {
            let mut v: Vec<_> = app.tasks().map(|t| app.task(t).node).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut out = String::new();
        out.push_str(&format!(
            "makespan {} µs over {} rounds, bus busy {} µs\n",
            makespan,
            self.rounds.len(),
            self.total_communication_us()
        ));
        for node in nodes {
            let mut row = vec![b'.'; columns];
            for t in app.tasks() {
                if app.task(t).node != node {
                    continue;
                }
                let (s, e) = (cell(self.task_start(t)), cell(self.task_end(app, t)));
                let glyph = b'0' + (t.0 % 10) as u8;
                for c in row.iter_mut().take((e + 1).min(columns)).skip(s) {
                    *c = glyph;
                }
            }
            out.push_str(&format!(
                "{:>4} |{}|\n",
                node.to_string(),
                String::from_utf8(row).expect("ascii")
            ));
        }
        let mut bus = vec![b'.'; columns];
        for r in &self.rounds {
            let (s, e) = (cell(r.start_us), cell(r.end_us()));
            for c in bus.iter_mut().take((e + 1).min(columns)).skip(s) {
                *c = b'#';
            }
        }
        out.push_str(&format!(
            " bus |{}|\n",
            String::from_utf8(bus).expect("ascii")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_glossy::NodeId;

    /// Two-node app: sense (n0) → act (n1), one message.
    fn simple_app() -> Application {
        let mut b = Application::builder();
        let s = b.task("sense", NodeId(0), 100);
        let a = b.task("act", NodeId(1), 50);
        b.edge(s, a, 8).unwrap();
        b.build().unwrap()
    }

    fn timing() -> GlossyTiming {
        GlossyTiming::telosb()
    }

    fn feasible_schedule(_app: &Application) -> Schedule {
        let t = timing();
        let dur = t.round_duration(2, &[(3, 8)]);
        Schedule::new(
            vec![Round {
                messages: vec![MsgId(0)],
                beacon_chi: 2,
                start_us: 100,
                duration_us: dur,
            }],
            vec![3],
            vec![0, 100 + dur],
            t,
        )
    }

    #[test]
    fn feasible_schedule_passes() {
        let app = simple_app();
        let s = feasible_schedule(&app);
        s.check_feasible(&app).unwrap();
        assert_eq!(s.chi(MsgId(0)), 3);
        assert_eq!(s.round_of(MsgId(0)), Some(0));
        assert_eq!(s.makespan(&app), s.task_end(&app, TaskId(1)));
        assert_eq!(s.total_communication_us(), s.rounds()[0].duration_us);
    }

    #[test]
    fn consumer_before_round_detected() {
        let app = simple_app();
        let mut s = feasible_schedule(&app);
        // After the producer ends (100) but before the round delivers.
        s.task_start[1] = 150;
        assert!(matches!(
            s.check_feasible(&app),
            Err(FeasibilityError::ConsumerBeforeRound(_, _))
        ));
    }

    #[test]
    fn round_before_producer_detected() {
        let app = simple_app();
        let mut s = feasible_schedule(&app);
        s.rounds[0].start_us = 10;
        // Fix the consumer so only the producer violation fires.
        s.task_start[1] = 10 + s.rounds[0].duration_us;
        assert!(matches!(
            s.check_feasible(&app),
            Err(FeasibilityError::RoundBeforeProducer(_, _))
        ));
    }

    #[test]
    fn task_during_round_detected() {
        // A third, unrelated task that overlaps the round in time.
        let mut b = Application::builder();
        let s0 = b.task("sense", NodeId(0), 100);
        let a1 = b.task("act", NodeId(1), 50);
        let free = b.task("free", NodeId(2), 400);
        b.edge(s0, a1, 8).unwrap();
        // Keep `free` ordered w.r.t. nothing — different node, fine.
        let app = b.build().unwrap();
        let t = timing();
        let dur = t.round_duration(2, &[(3, 8)]);
        let sched = Schedule::new(
            vec![Round {
                messages: vec![MsgId(0)],
                beacon_chi: 2,
                start_us: 100,
                duration_us: dur,
            }],
            vec![3],
            vec![0, 100 + dur, 150],
            t,
        );
        assert!(matches!(
            sched.check_feasible(&app),
            Err(FeasibilityError::TaskDuringRound(t, 0)) if t == free
        ));
    }

    #[test]
    fn duration_mismatch_detected() {
        let app = simple_app();
        let mut s = feasible_schedule(&app);
        s.rounds[0].duration_us += 1;
        assert!(matches!(
            s.check_feasible(&app),
            Err(FeasibilityError::DurationMismatch(0))
        ));
    }

    #[test]
    fn zero_chi_detected() {
        let app = simple_app();
        let mut s = feasible_schedule(&app);
        s.chi[0] = 0;
        assert_eq!(
            s.check_feasible(&app),
            Err(FeasibilityError::ZeroChi(MsgId(0)))
        );
    }

    #[test]
    fn message_coverage_detected() {
        let app = simple_app();
        let mut s = feasible_schedule(&app);
        s.rounds[0].messages.clear();
        // Duration of the now-empty round no longer matters; coverage is
        // checked first.
        assert_eq!(
            s.check_feasible(&app),
            Err(FeasibilityError::MessageCoverage(MsgId(0)))
        );
    }

    #[test]
    fn shape_mismatch_detected() {
        let app = simple_app();
        let s = Schedule::new(vec![], vec![], vec![], timing());
        assert!(matches!(
            s.check_feasible(&app),
            Err(FeasibilityError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn task_order_detected() {
        let app = simple_app();
        let mut s = feasible_schedule(&app);
        // Move producer after consumer.
        s.task_start[0] = s.task_start[1] + 1000;
        assert!(matches!(
            s.check_feasible(&app),
            Err(FeasibilityError::TaskOrder(_, _))
                | Err(FeasibilityError::RoundBeforeProducer(_, _))
        ));
    }

    #[test]
    fn timeline_renders_all_rows() {
        let app = simple_app();
        let s = feasible_schedule(&app);
        let text = s.render_timeline(&app, 40);
        assert!(text.contains("bus"));
        assert!(text.contains("n0"));
        assert!(text.contains("n1"));
        assert!(text.contains('#'));
        // Task glyphs are digits.
        assert!(text.contains('0'));
        assert!(text.contains('1'));
    }

    #[test]
    fn serde_roundtrip_preserves_feasibility() {
        let app = simple_app();
        let s = feasible_schedule(&app);
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        back.check_feasible(&app).unwrap();
    }

    #[test]
    fn error_display() {
        assert!(FeasibilityError::TaskDuringRound(TaskId(2), 1)
            .to_string()
            .contains("overlaps"));
        assert!(FeasibilityError::ZeroChi(MsgId(0))
            .to_string()
            .contains("N_TX"));
    }
}
