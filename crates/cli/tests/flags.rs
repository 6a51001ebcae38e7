//! Pins each command-line flag to the setting it means, end to end: the
//! `netdag` binary is run as a child process and its output compared
//! with what the library gives for the configuration the flags stand
//! for.
//!
//! * `netdag schedule`: for each scheduling flag, the `--out` bytes
//!   equal the pretty JSON of the [`ScheduleExport`] the library returns
//!   for the [`SchedulerConfig`] the flag means (a struct update from
//!   `Default`), and the `solver.nodes` counter of `--metrics` equals the
//!   library's node count. Flags that never change the optimum
//!   (`--no-lb`, `--portfolio`) still change the node count.
//! * `netdag serve`: the pool and cache sizes given on the command line
//!   are the ones the daemon's `health` probe reports, and `--queue`
//!   bounds admission.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use netdag_cli::commands::ScheduleExport;
use netdag_cli::spec::{AppSpec, SoftSpec, WeaklyHardSpec};
use netdag_core::config::{Backend, RoundStructure, SchedulerConfig};
use netdag_core::soft::schedule_soft;
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_core::weakly_hard::schedule_weakly_hard;
use netdag_serve::protocol::{Request, Response, REASON_QUEUE_FULL, STATUS_OK, STATUS_REJECTED};
use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_netdag");

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("netdag-flags-test-{tag}-{}", std::process::id()));
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

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/data")
        .join(name)
}

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> T {
    serde_json::from_str(&fs::read_to_string(path).expect("readable example")).expect("JSON")
}

/// One example problem: an application plus one constraint family.
struct Problem {
    app: &'static str,
    /// Soft constraints file and the eq. (15) `fss` it is scheduled at.
    soft: Option<(&'static str, f64)>,
    weakly_hard: Option<&'static str>,
}

const PROBLEMS: [Problem; 3] = [
    Problem {
        app: "pipeline_app.json",
        soft: Some(("pipeline_soft.json", 1.0)),
        weakly_hard: None,
    },
    Problem {
        app: "pipeline_app.json",
        soft: None,
        weakly_hard: Some("pipeline_weakly_hard.json"),
    },
    // The pipeline sends one message per level, so round grouping and
    // beacon accounting only show on an application with fan-out.
    Problem {
        app: "mimo_app.json",
        soft: None,
        weakly_hard: Some("mimo_weakly_hard.json"),
    },
];

impl Problem {
    /// The command-line arguments selecting this problem.
    fn args(&self) -> Vec<String> {
        let mut args = vec!["--app".to_owned(), path_arg(&example(self.app))];
        if let Some((soft, fss)) = self.soft {
            args.extend([
                "--soft".to_owned(),
                path_arg(&example(soft)),
                "--stat".to_owned(),
                format!("eq15:{fss}"),
            ]);
        }
        if let Some(wh) = self.weakly_hard {
            args.extend(["--weakly-hard".to_owned(), path_arg(&example(wh))]);
        }
        args
    }

    /// The export document and search-node count the library gives
    /// under `cfg`, or `None` when it finds the problem infeasible.
    fn solve(&self, cfg: &SchedulerConfig) -> Option<(String, u64)> {
        let (app, names) = read_json::<AppSpec>(&example(self.app))
            .build()
            .expect("valid app");
        let outcome = match (self.soft, self.weakly_hard) {
            (Some((soft, fss)), _) => {
                let f = read_json::<SoftSpec>(&example(soft))
                    .build(&names)
                    .expect("valid soft spec");
                schedule_soft(&app, &Eq15Statistic::new(fss, cfg.chi_max), &f, cfg)
            }
            (None, Some(wh)) => {
                let f = read_json::<WeaklyHardSpec>(&example(wh))
                    .build(&names)
                    .expect("valid weakly hard spec");
                schedule_weakly_hard(&app, &Eq13Statistic::new(cfg.chi_max), &f, cfg)
            }
            (None, None) => unreachable!("every problem carries one family"),
        }
        .ok()?;
        let export = ScheduleExport {
            makespan_us: outcome.schedule.makespan(&app),
            bus_us: outcome.schedule.total_communication_us(),
            optimal: outcome.optimal,
            schedule: outcome.schedule,
        };
        let json = serde_json::to_string_pretty(&export).expect("serializable");
        Some((json, outcome.stats.map_or(0, |s| s.nodes)))
    }
}

/// The value under `key` of a JSON object.
fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Object(fields) = value else {
        panic!("expected an object holding {key:?}");
    };
    fields
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
        .unwrap_or_else(|| panic!("missing {key:?}"))
}

fn path_arg(path: &Path) -> String {
    path.to_str().expect("UTF-8 path").to_owned()
}

/// Each scheduling flag set, with the configuration it means.
fn flag_cases() -> Vec<(&'static [&'static str], SchedulerConfig)> {
    let d = SchedulerConfig::default();
    vec![
        (&[], d),
        (
            &["--greedy"],
            SchedulerConfig {
                backend: Backend::Greedy,
                ..d
            },
        ),
        (
            &["--per-message-rounds"],
            SchedulerConfig {
                round_structure: RoundStructure::PerMessage,
                ..d
            },
        ),
        (
            &["--include-beacons"],
            SchedulerConfig {
                include_beacons: true,
                ..d
            },
        ),
        (
            &["--no-lb"],
            SchedulerConfig {
                lower_bound: false,
                ..d
            },
        ),
        (
            &["--portfolio", "4", "--threads", "2"],
            SchedulerConfig {
                portfolio: 4,
                solver_threads: 2,
                ..d
            },
        ),
        (
            &["--chi-max", "6", "--beacon-chi", "3"],
            SchedulerConfig {
                chi_max: 6,
                beacon_chi: 3,
                ..d
            },
        ),
    ]
}

#[test]
fn schedule_flags_mean_their_scheduler_config() {
    let dir = TempDir::new("schedule");
    let (out, metrics) = (dir.path("out.json"), dir.path("metrics.json"));
    for (p, problem) in PROBLEMS.iter().enumerate() {
        for (flags, cfg) in flag_cases() {
            let run = Command::new(BIN)
                .arg("schedule")
                .args(problem.args())
                .args(flags)
                .args(["--out", &path_arg(&out), "--metrics", &path_arg(&metrics)])
                .output()
                .expect("netdag runs");
            let case = format!("problem {p} with {flags:?}");
            let Some((expected, nodes)) = problem.solve(&cfg) else {
                // Infeasible: a failed command that writes no schedule.
                assert_eq!(run.status.code(), Some(1), "{case}");
                assert!(
                    String::from_utf8_lossy(&run.stdout).starts_with("infeasible"),
                    "{case}"
                );
                assert!(!out.exists(), "{case}");
                continue;
            };
            assert!(
                run.status.success(),
                "{case}: {}",
                String::from_utf8_lossy(&run.stderr)
            );
            assert_eq!(
                fs::read_to_string(&out).expect("--out written"),
                expected,
                "{case}"
            );
            fs::remove_file(&out).expect("remove --out");
            let report: Value = read_json(&metrics);
            let counters = field(&report, "counters");
            assert_eq!(
                field(counters, "solver.nodes").as_u64(),
                Some(nodes),
                "{case}"
            );
        }
    }
}

/// A `netdag serve` child process on an ephemeral loopback port.
struct Daemon {
    child: std::process::Child,
    port: u16,
}

impl Daemon {
    fn start(dir: &TempDir, tag: &str, flags: &[&str]) -> Daemon {
        let port_file = dir.path(&format!("{tag}.port"));
        let child = Command::new(BIN)
            .args(["serve", "--port", "0", "--port-file", &path_arg(&port_file)])
            .args(flags)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("netdag serve starts");
        let started = Instant::now();
        let port = loop {
            if let Some(port) = fs::read_to_string(&port_file)
                .ok()
                .and_then(|p| p.trim().parse().ok())
            {
                break port;
            }
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "daemon never wrote its port"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon { child, port }
    }

    fn send(&self, req: &Request) -> Response {
        let mut stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        let line = serde_json::to_string(req).expect("serialize");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut text = String::new();
        BufReader::new(stream).read_line(&mut text).expect("read");
        serde_json::from_str(&text).expect("response JSON")
    }

    /// Drains the daemon and returns its stdout (listening line plus
    /// shutdown report).
    fn shutdown(self) -> String {
        self.send(&Request::op("shutdown"));
        let out = self.child.wait_with_output().expect("daemon exits");
        assert!(out.status.success(), "serve exit status {}", out.status);
        String::from_utf8(out.stdout).expect("UTF-8 stdout")
    }
}

fn pipeline_solve() -> Request {
    let mut req = Request::op("solve");
    req.app = Some(read_json(&example("pipeline_app.json")));
    req.weakly_hard = Some(read_json(&example("pipeline_weakly_hard.json")));
    req
}

#[test]
fn serve_flags_size_the_daemon() {
    let dir = TempDir::new("serve");
    let daemon = Daemon::start(
        &dir,
        "sized",
        &[
            "--shards",
            "2",
            "--workers",
            "1",
            "--queue",
            "3",
            "--cache",
            "5",
        ],
    );
    let health = daemon
        .send(&Request::op("health"))
        .health
        .expect("health body");
    assert_eq!(
        (
            health.shards,
            health.workers,
            health.workers_live,
            health.cache_capacity
        ),
        (2, 1, 2, 5)
    );
    assert_eq!(daemon.send(&pipeline_solve()).status, STATUS_OK);
    let report = daemon.shutdown();
    assert!(report.contains("(0 rejected,"), "{report}");

    // No probe reports the queue bound, but a bound of zero admits
    // nothing.
    let daemon = Daemon::start(&dir, "no-queue", &["--queue", "0"]);
    let refused = daemon.send(&pipeline_solve());
    assert_eq!(refused.status, STATUS_REJECTED);
    assert_eq!(refused.reason.as_deref(), Some(REASON_QUEUE_FULL));
    let report = daemon.shutdown();
    assert!(report.contains("(1 rejected,"), "{report}");
}
