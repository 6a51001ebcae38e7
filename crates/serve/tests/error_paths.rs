//! Pins every error exit of the daemon: the exact `reason` each one
//! answers, and its `serve.errors` accounting. An erroring request
//! raises `serve.errors` by exactly one. A deadline that expires before
//! any incumbent is found raises `serve.deadline_expired` instead and
//! leaves `serve.errors` alone.
//!
//! The obs recorder is process-global, so this file is its own test
//! binary, and each test holds [`SERIAL`] while it measures counter
//! deltas.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use netdag_core::modes::{ModeSpec, ModesSpec};
use netdag_core::spec::{
    AppSpec, EdgeSpec, ScheduleExport, SoftEntry, SoftSpec, TaskSpec, WeaklyHardEntry,
    WeaklyHardSpec,
};
use netdag_obs::keys;
use netdag_serve::protocol::{
    BatchItem, ConfigSpec, Request, Response, StatSpec, STATUS_ERROR, STATUS_OK,
};
use netdag_serve::{serve, ServeConfig, WorkerHook};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock but leaves nothing to repair.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn count(key: &'static str) -> u64 {
    netdag_obs::global().counter(key).get()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send_line(&mut self, line: &str) -> Response {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut text = String::new();
        self.reader.read_line(&mut text).expect("read");
        serde_json::from_str(&text).expect("response JSON")
    }

    fn send(&mut self, req: &Request) -> Response {
        self.send_line(&serde_json::to_string(req).expect("serialize"))
    }

    /// Sends `line` and asserts the answer is an `error` with exactly
    /// `reason`, counted once under `serve.errors`.
    fn expect_error(&mut self, line: &str, reason: &str) {
        let before = count(keys::SERVE_ERRORS);
        let r = self.send_line(line);
        assert_eq!(r.status, STATUS_ERROR, "{line}: {r:?}");
        assert_eq!(r.reason.as_deref(), Some(reason), "{line}");
        assert_eq!(count(keys::SERVE_ERRORS) - before, 1, "{line}: {reason}");
    }

    fn expect_request_error(&mut self, req: &Request, reason: &str) {
        self.expect_error(&serde_json::to_string(req).expect("serialize"), reason);
    }

    fn shutdown(mut self) {
        self.send(&Request::op("shutdown"));
    }
}

/// Starts an in-process daemon and returns its address. The server
/// thread is detached: the tests here only talk to it over TCP.
fn start_server(cfg: ServeConfig) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let _ = serve(listener, &cfg);
    });
    addr
}

fn pipeline_app() -> AppSpec {
    AppSpec {
        tasks: vec![
            TaskSpec {
                name: "sense".into(),
                node: 0,
                wcet_us: 500,
            },
            TaskSpec {
                name: "act".into(),
                node: 1,
                wcet_us: 300,
            },
        ],
        edges: vec![EdgeSpec {
            from: "sense".into(),
            to: "act".into(),
            width: 8,
        }],
    }
}

/// The pipeline with an edge to an undeclared task.
fn broken_app() -> AppSpec {
    let mut app = pipeline_app();
    app.edges[0].to = "ghost".into();
    app
}

/// A fan-in/fan-out application whose first feasible leaf lies beyond
/// node 16 under `wh_spec("act", 3, 60)`, so a solve stopped after one
/// 16-node step has no incumbent.
fn heavy_app() -> AppSpec {
    let mut tasks = Vec::new();
    let mut edges = Vec::new();
    for i in 0..4 {
        tasks.push(TaskSpec {
            name: format!("s{i}"),
            node: i,
            wcet_us: 400 + u64::from(i) * 37,
        });
    }
    for j in 0..3 {
        tasks.push(TaskSpec {
            name: format!("f{j}"),
            node: 4 + j,
            wcet_us: 900,
        });
        for i in 0..4 {
            edges.push(EdgeSpec {
                from: format!("s{i}"),
                to: format!("f{j}"),
                width: 8 + i * 4,
            });
        }
    }
    tasks.push(TaskSpec {
        name: "act".into(),
        node: 7,
        wcet_us: 250,
    });
    for j in 0..3 {
        edges.push(EdgeSpec {
            from: format!("f{j}"),
            to: "act".into(),
            width: 12,
        });
    }
    AppSpec { tasks, edges }
}

fn wh_spec(task: &str, m: u32, k: u32) -> WeaklyHardSpec {
    WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: task.into(),
            m,
            k,
        }],
    }
}

fn soft_spec(task: &str) -> SoftSpec {
    SoftSpec {
        constraints: vec![SoftEntry {
            task: task.into(),
            probability: 0.9,
        }],
    }
}

fn stat(kind: &str, fss: Option<f64>) -> Option<StatSpec> {
    Some(StatSpec {
        kind: kind.into(),
        fss,
    })
}

fn request(op: &str, id: u64) -> Request {
    let mut req = Request::op(op);
    req.id = Some(id);
    req
}

/// A weakly hard pipeline solve.
fn solve(id: u64) -> Request {
    let mut req = request("solve", id);
    req.app = Some(pipeline_app());
    req.weakly_hard = Some(wh_spec("act", 10, 40));
    req
}

/// A weakly hard pipeline validation of `schedule`.
fn validate(id: u64, schedule: &ScheduleExport) -> Request {
    let mut req = request("validate", id);
    req.app = Some(pipeline_app());
    req.weakly_hard = Some(wh_spec("act", 10, 40));
    req.schedule = Some(schedule.clone());
    req.kappa = Some(200);
    req.trials = Some(4);
    req
}

const INVALID_APP: &str = "invalid spec: unknown task \"ghost\"";
const INVALID_TASK: &str = "invalid spec: unknown task \"nobody\"";
const SOFT_SOLVING: &str = "soft solving needs \"stat\": {\"kind\": \"eq15\", \"fss\": …}";
const WH_SOLVING: &str = "weakly hard solving needs \"stat\": {\"kind\": \"eq13\"}";

#[test]
fn connection_thread_errors() {
    let _serial = serial();
    let addr = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);

    c.expect_error(
        "{\"op\": \"solve\",",
        "bad request: expected `\"` at byte 16",
    );
    c.expect_error(
        "{\"op\": \"frobnicate\", \"id\": 3}",
        "unknown op \"frobnicate\"",
    );
    c.expect_request_error(
        &request("batch_solve", 4),
        "batch_solve needs a \"batch\" array",
    );

    // A batch item without an application errors inside an `ok`
    // envelope, counted once.
    let mut batch = request("batch_solve", 5);
    batch.batch = Some(vec![BatchItem {
        app: None,
        soft: None,
        weakly_hard: Some(wh_spec("act", 10, 40)),
        stat: None,
    }]);
    let before = count(keys::SERVE_ERRORS);
    let r = c.send(&batch);
    assert_eq!(r.status, STATUS_OK, "{r:?}");
    let items = r.batch.expect("batch answers");
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].status, STATUS_ERROR);
    assert_eq!(
        items[0].reason.as_deref(),
        Some("batch item needs an \"app\" spec")
    );
    assert_eq!(count(keys::SERVE_ERRORS) - before, 1);

    c.shutdown();
}

#[test]
fn solve_errors() {
    let _serial = serial();
    let addr = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);

    let mut req = solve(1);
    req.app = None;
    c.expect_request_error(&req, "solve needs an \"app\" spec");

    let mut req = solve(2);
    req.soft = Some(soft_spec("act"));
    c.expect_request_error(&req, "\"soft\" and \"weakly_hard\" are mutually exclusive");

    let mut req = solve(3);
    req.app = Some(broken_app());
    c.expect_request_error(&req, INVALID_APP);

    // Soft constraints need eq. (15) with its `fss`.
    let mut req = solve(4);
    req.weakly_hard = None;
    req.soft = Some(soft_spec("act"));
    c.expect_request_error(&req, SOFT_SOLVING);
    req.stat = stat("eq13", Some(1.0));
    c.expect_request_error(&req, SOFT_SOLVING);
    req.stat = stat("eq15", None);
    c.expect_request_error(&req, SOFT_SOLVING);
    req.stat = stat("eq15", Some(1.0));
    req.soft = Some(soft_spec("nobody"));
    c.expect_request_error(&req, INVALID_TASK);

    // Weakly hard (or no) constraints need eq. (13).
    let mut req = solve(5);
    req.stat = stat("eq15", Some(1.0));
    c.expect_request_error(&req, WH_SOLVING);
    req.weakly_hard = None;
    c.expect_request_error(&req, WH_SOLVING);
    let mut req = solve(6);
    req.weakly_hard = Some(wh_spec("nobody", 10, 40));
    c.expect_request_error(&req, INVALID_TASK);

    // A configuration the scheduler itself rejects.
    let mut req = solve(7);
    req.config = Some(ConfigSpec {
        chi_max: Some(0),
        ..ConfigSpec::default()
    });
    c.expect_request_error(
        &req,
        "scheduling failed: bad configuration: chi_max must be positive",
    );

    c.shutdown();
}

#[test]
fn mode_solve_errors() {
    let _serial = serial();
    let addr = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);

    c.expect_request_error(
        &request("mode_solve", 1),
        "mode_solve needs a \"modes\" spec",
    );

    let mut req = request("mode_solve", 2);
    req.modes = Some(ModesSpec {
        app: pipeline_app(),
        shared_prefix_rounds: None,
        modes: vec![ModeSpec {
            name: "nominal".into(),
            tasks: None,
            soft: None,
            weakly_hard: Some(wh_spec("act", 10, 40)),
            loss: None,
        }],
    });
    let mut bad_config = req.clone();
    req.app = Some(pipeline_app());
    c.expect_request_error(
        &req,
        "mode_solve embeds its application and constraints in \"modes\"; \
         \"app\"/\"soft\"/\"weakly_hard\" must be absent",
    );

    bad_config.config = Some(ConfigSpec {
        beacon_chi: Some(0),
        ..ConfigSpec::default()
    });
    c.expect_request_error(
        &bad_config,
        "scheduling failed: bad configuration: beacon_chi must be positive",
    );

    c.shutdown();
}

#[test]
fn validate_errors() {
    let _serial = serial();
    let addr = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);
    let solved = c.send(&solve(1));
    assert_eq!(solved.status, STATUS_OK, "{:?}", solved.reason);
    let schedule = solved.result.expect("schedule");

    let mut req = validate(2, &schedule);
    req.app = None;
    c.expect_request_error(&req, "validate needs an \"app\" spec");

    let mut req = validate(3, &schedule);
    req.schedule = None;
    c.expect_request_error(&req, "validate needs a \"schedule\" document");

    let mut req = validate(4, &schedule);
    req.weakly_hard = None;
    c.expect_request_error(
        &req,
        "validate needs \"soft\" and/or \"weakly_hard\" constraints",
    );

    let mut req = validate(5, &schedule);
    req.app = Some(broken_app());
    c.expect_request_error(&req, INVALID_APP);

    let mut req = validate(6, &schedule);
    req.kappa = Some(0);
    c.expect_request_error(&req, "validate needs \"kappa\" in 1..=1000000");
    req.kappa = Some(1_000_001);
    c.expect_request_error(&req, "validate needs \"kappa\" in 1..=1000000");

    let mut req = validate(7, &schedule);
    req.trials = Some(10_001);
    c.expect_request_error(&req, "validate needs \"trials\" <= 10000");

    let soft_validation = "soft validation needs \"stat\": {\"kind\": \"eq15\", \"fss\": …}";
    let mut req = validate(8, &schedule);
    req.weakly_hard = None;
    req.soft = Some(soft_spec("act"));
    c.expect_request_error(&req, soft_validation);
    req.stat = stat("eq15", None);
    c.expect_request_error(&req, soft_validation);
    req.stat = stat("eq15", Some(1.0));
    req.soft = Some(soft_spec("nobody"));
    c.expect_request_error(&req, INVALID_TASK);

    // With both families the soft statistic governs, so only the weakly
    // hard spec itself can fail.
    req.soft = Some(soft_spec("act"));
    req.weakly_hard = Some(wh_spec("nobody", 10, 40));
    c.expect_request_error(&req, INVALID_TASK);

    let mut req = validate(9, &schedule);
    req.stat = stat("eq15", Some(1.0));
    c.expect_request_error(
        &req,
        "weakly hard validation needs \"stat\": {\"kind\": \"eq13\"}",
    );

    let mut req = validate(10, &schedule);
    req.weakly_hard = Some(wh_spec("nobody", 10, 40));
    c.expect_request_error(&req, INVALID_TASK);

    // An `(m, K)` pair the spec rejects. (The validator's own
    // "adversarial synthesis failed" exit is not reachable from a
    // request: eq. (13) never bounds misses at zero.)
    let mut req = validate(11, &schedule);
    req.weakly_hard = Some(wh_spec("act", 0, 40));
    c.expect_request_error(
        &req,
        "invalid spec: task constraints must be hit-form (m, K) with m > 0, got (0, 40)",
    );

    c.shutdown();
}

/// A worker that dies on a job leaves its client a structured error,
/// counted once.
#[test]
fn lost_worker_error() {
    let _serial = serial();
    const DOOMED: u64 = 77;
    let addr = start_server(ServeConfig {
        workers: 2,
        worker_hook: Some(WorkerHook::new(|_op, id| {
            if id == Some(DOOMED) {
                panic!("injected worker fault");
            }
        })),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);
    // The daemon's first queued job gets rid 1.
    c.expect_request_error(
        &solve(DOOMED),
        "request rid 1 lost: its worker exited without answering",
    );
    c.shutdown();
}

/// A handler panic costs its job and its worker, not the daemon:
/// `serve` still drains, writes its access log and cache snapshot, and
/// returns its report.
#[test]
fn serve_returns_its_report_after_a_handler_panic() {
    let _serial = serial();
    const DOOMED: u64 = 77;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let log_path = dir.join(format!("netdag_panic_access_{pid}.ndjson"));
    let snapshot_path = dir.join(format!("netdag_panic_snapshot_{pid}.json"));
    for path in [&log_path, &snapshot_path] {
        let _ = std::fs::remove_file(path);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cfg = ServeConfig {
        workers: 2,
        access_log: Some(log_path.clone()),
        cache_snapshot: Some(snapshot_path.clone()),
        worker_hook: Some(WorkerHook::new(|_op, id| {
            if id == Some(DOOMED) {
                panic!("injected worker fault");
            }
        })),
        ..ServeConfig::default()
    };
    let daemon = std::thread::spawn(move || serve(listener, &cfg));
    let mut c = Client::connect(addr);
    assert_eq!(c.send(&solve(1)).status, STATUS_OK);
    c.expect_request_error(
        &solve(DOOMED),
        "request rid 2 lost: its worker exited without answering",
    );
    c.shutdown();

    let report = daemon
        .join()
        .expect("serve must not panic")
        .expect("serve report");
    assert_eq!(report.cache_misses, 1);
    let log = std::fs::read_to_string(&log_path).expect("access log");
    assert!(
        log.lines()
            .any(|l| l.contains("\"rid\":1,") && l.contains("\"status\":\"ok\"")),
        "{log}"
    );
    assert!(snapshot_path.exists(), "cache snapshot written on drain");
    for path in [&log_path, &snapshot_path] {
        let _ = std::fs::remove_file(path);
    }
}

/// A deadline that expires before any incumbent answers `error`, but
/// counts an expired deadline rather than an error.
#[test]
fn deadline_expiry_counts_no_error() {
    let _serial = serial();
    let addr = start_server(ServeConfig {
        workers: 1,
        step_nodes: 16,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);
    let mut req = request("solve", 1);
    req.app = Some(heavy_app());
    req.weakly_hard = Some(wh_spec("act", 3, 60));
    req.deadline_ms = Some(0);

    let errors = count(keys::SERVE_ERRORS);
    let expired = count(keys::SERVE_DEADLINE_EXPIRED);
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_ERROR, "{r:?}");
    assert_eq!(
        r.reason.as_deref(),
        Some("deadline expired before any feasible schedule was found")
    );
    assert_eq!(r.complete, Some(false));
    assert_eq!(count(keys::SERVE_ERRORS), errors);
    assert_eq!(count(keys::SERVE_DEADLINE_EXPIRED) - expired, 1);

    c.shutdown();
}
