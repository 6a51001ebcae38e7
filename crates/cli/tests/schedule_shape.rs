//! A schedule file made for a different application is refused with an
//! `error:` line and exit status 2 by `netdag validate` and `netdag
//! trace`, instead of indexing past the application's tables. The
//! `netdag` binary runs as a child process, so a panic would show as
//! exit status 101.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use netdag_cli::commands::ScheduleExport;
use netdag_cli::spec::AppSpec;
use netdag_core::app::{MsgId, TaskId};
use netdag_core::schedule::Schedule;

const BIN: &str = env!("CARGO_BIN_EXE_netdag");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("netdag-shape-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn example(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/data")
        .join(name);
    path.to_str().expect("UTF-8 path").to_owned()
}

fn netdag(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("netdag runs")
}

/// Solves `app` under its weakly hard contract and writes the schedule
/// to `out`.
fn schedule(app: &str, weakly_hard: &str, out: &str) {
    let run = netdag(&[
        "schedule",
        "--app",
        &example(app),
        "--weakly-hard",
        &example(weakly_hard),
        "--out",
        out,
    ]);
    assert!(run.status.success(), "{run:?}");
}

/// Runs `netdag validate` and `netdag trace` on the mimo application
/// with `schedule` and checks that both refuse it with `reason`.
fn assert_refused(dir: &TempDir, schedule: &str, reason: &str) {
    assert_refused_for(
        dir,
        ("mimo_app.json", "mimo_weakly_hard.json"),
        schedule,
        &format!("shape mismatch: {reason}"),
    );
}

/// Runs `netdag validate` and `netdag trace` on the `(app, weakly
/// hard)` example pair with `schedule` and checks that both refuse it
/// with `error: schedule does not fit the app: {reason}`.
fn assert_refused_for(
    dir: &TempDir,
    (app, weakly_hard): (&str, &str),
    schedule: &str,
    reason: &str,
) {
    let trace = dir.path("trace.json");
    let runs = [
        netdag(&[
            "validate",
            "--app",
            &example(app),
            "--schedule",
            schedule,
            "--weakly-hard",
            &example(weakly_hard),
            "--kappa",
            "200",
            "--trials",
            "4",
        ]),
        netdag(&[
            "trace",
            "--app",
            &example(app),
            "--schedule",
            schedule,
            "--out",
            trace.to_str().expect("UTF-8 path"),
        ]),
    ];
    for run in runs {
        assert_eq!(run.status.code(), Some(2), "{run:?}");
        assert!(run.stdout.is_empty(), "{run:?}");
        assert_eq!(
            String::from_utf8(run.stderr).expect("UTF-8 stderr"),
            format!("error: schedule does not fit the app: {reason}\n")
        );
    }
    assert!(
        !trace.exists(),
        "no trace is written for a refused schedule"
    );
}

#[test]
fn a_schedule_for_another_app_is_refused() {
    let dir = TempDir::new("other-app");
    let pipeline = dir.path("pipeline.json");
    let pipeline = pipeline.to_str().expect("UTF-8 path");
    schedule("pipeline_app.json", "pipeline_weakly_hard.json", pipeline);
    assert_refused(&dir, pipeline, "2 chi entries for 6 messages");
}

#[test]
fn a_round_naming_an_unknown_message_is_refused() {
    let dir = TempDir::new("unknown-message");
    let mimo = dir.path("mimo.json");
    let mimo = mimo.to_str().expect("UTF-8 path");
    schedule("mimo_app.json", "mimo_weakly_hard.json", mimo);
    let mut export: ScheduleExport =
        serde_json::from_str(&fs::read_to_string(mimo).expect("schedule")).expect("JSON");
    let (app, _) = serde_json::from_str::<AppSpec>(
        &fs::read_to_string(example("mimo_app.json")).expect("app"),
    )
    .expect("JSON")
    .build()
    .expect("valid app");
    let s = &export.schedule;
    let mut rounds = s.rounds().to_vec();
    rounds[0].messages.push(MsgId(9));
    let chi = app.messages().map(|m| s.chi(m)).collect();
    let starts = app.tasks().map(|t| s.task_start(t)).collect();
    export.schedule = Schedule::new(rounds, chi, starts, *s.timing());
    let doctored = dir.path("doctored.json");
    fs::write(
        &doctored,
        serde_json::to_string(&export).expect("serializable"),
    )
    .expect("write");
    assert_refused(
        &dir,
        doctored.to_str().expect("UTF-8 path"),
        "round 0 carries message e9 of 6 messages",
    );
}

/// A schedule of the right shape that never sends one message is
/// refused: every result about that message would rest on a flood that
/// no round carries.
#[test]
fn a_schedule_that_never_sends_a_message_is_refused() {
    let dir = TempDir::new("uncovered-message");
    let pipeline = dir.path("pipeline.json");
    let pipeline = pipeline.to_str().expect("UTF-8 path");
    schedule("pipeline_app.json", "pipeline_weakly_hard.json", pipeline);
    let mut export: ScheduleExport =
        serde_json::from_str(&fs::read_to_string(pipeline).expect("schedule")).expect("JSON");
    let s = &export.schedule;
    let mut rounds = s.rounds().to_vec();
    let dropped = rounds[0].messages.remove(0);
    let chi = (0..2).map(|m| s.chi(MsgId(m))).collect();
    let starts = (0..3).map(|t| s.task_start(TaskId(t))).collect();
    export.schedule = Schedule::new(rounds, chi, starts, *s.timing());
    let doctored = dir.path("doctored.json");
    fs::write(
        &doctored,
        serde_json::to_string(&export).expect("serializable"),
    )
    .expect("write");
    assert_refused_for(
        &dir,
        ("pipeline_app.json", "pipeline_weakly_hard.json"),
        doctored.to_str().expect("UTF-8 path"),
        &format!("message {dropped} must appear in exactly one round"),
    );
}
