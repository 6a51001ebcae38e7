//! End-to-end daemon tests over real TCP connections: admission
//! backpressure, graceful shutdown draining, cache semantics, and
//! protocol error handling.
//!
//! Every daemon here bumps the process-global `serve.*` counters, and
//! `mode_solve_flow_and_cache` compares a counter delta with its own
//! daemon's `cache_stats`, so each test holds [`SERIAL`] for its run.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use netdag_core::config::SchedulerConfig;
use netdag_core::modes::{ModeSpec, ModesSpec, SoftModeSpec};
use netdag_core::spec::{
    AppSpec, EdgeSpec, SoftEntry, SoftSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec,
};
use netdag_serve::protocol::{
    BatchItem, ConfigSpec, Request, Response, RollingStats, StatSpec, REASON_QUEUE_FULL,
    REASON_SHUTTING_DOWN, STATUS_ERROR, STATUS_INCOMPLETE, STATUS_INFEASIBLE, STATUS_OK,
    STATUS_REJECTED,
};
use netdag_serve::{fingerprint, serve, Ring, ServeConfig, ServeReport, WorkerHook};

/// Serializes this file's daemons (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock but leaves nothing to repair.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Writes one request line without waiting for its response.
    fn write_line(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
    }

    fn send_line(&mut self, line: &str) -> Response {
        self.write_line(line);
        self.read_response()
    }

    fn send(&mut self, req: &Request) -> Response {
        self.send_line(&serde_json::to_string(req).expect("serialize"))
    }

    fn read_response(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        serde_json::from_str(&line).expect("response JSON")
    }
}

/// Spawns an in-process daemon; returns its address and a receiver for
/// the final [`ServeReport`].
fn start_server(cfg: ServeConfig) -> (std::net::SocketAddr, mpsc::Receiver<ServeReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let report = serve(listener, &cfg).expect("serve");
        let _ = tx.send(report);
    });
    (addr, rx)
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

/// A two-layer fan-in/fan-out application with a search tree of a few
/// hundred nodes: under `wh_spec(3, 60)` the engine visits its first
/// feasible leaf between nodes 129 and 256 and proves the optimum
/// within 512, so step-bounded deadline outcomes are deterministic.
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

fn wh_spec(m: u32, k: u32) -> WeaklyHardSpec {
    WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: "act".into(),
            m,
            k,
        }],
    }
}

fn solve_request(id: u64, app: AppSpec, wh: Option<WeaklyHardSpec>) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(app);
    req.weakly_hard = wh;
    req
}

#[test]
fn solve_cache_and_warm_start_flow() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);

    // Cold solve.
    let r1 = c.send(&solve_request(1, pipeline_app(), Some(wh_spec(10, 40))));
    assert_eq!(r1.status, STATUS_OK, "{:?}", r1.reason);
    assert_eq!(r1.cached, Some(false));
    assert_eq!(r1.warm_started, Some(false));
    let export1 = r1.result.expect("schedule");
    let fp1 = r1.fingerprint.expect("fingerprint");

    // Identical problem: exact cache hit, identical document.
    let r2 = c.send(&solve_request(2, pipeline_app(), Some(wh_spec(10, 40))));
    assert_eq!(r2.status, STATUS_OK);
    assert_eq!(r2.cached, Some(true));
    assert_eq!(r2.fingerprint.as_deref(), Some(fp1.as_str()));
    assert_eq!(r2.result.expect("schedule"), export1);

    // Same problem, permuted task declarations: same canonical
    // fingerprint, but the positional schedule cannot be reused
    // verbatim — served via warm start instead.
    let mut permuted = pipeline_app();
    permuted.tasks.swap(0, 1);
    let r3 = c.send(&solve_request(3, permuted, Some(wh_spec(10, 40))));
    assert_eq!(r3.status, STATUS_OK);
    assert_eq!(r3.cached, Some(false));
    assert_eq!(r3.warm_started, Some(true));
    assert_eq!(r3.fingerprint.as_deref(), Some(fp1.as_str()));
    assert_eq!(
        r3.result.as_ref().expect("schedule").makespan_us,
        export1.makespan_us
    );

    // Perturbed constraint bound: near miss, warm-started.
    let r4 = c.send(&solve_request(4, pipeline_app(), Some(wh_spec(11, 40))));
    assert_eq!(r4.status, STATUS_OK);
    assert_eq!(r4.warm_started, Some(true));
    assert_ne!(r4.fingerprint.as_deref(), Some(fp1.as_str()));

    // cache_stats reflects all of it.
    let stats = c.send(&Request::op("cache_stats"));
    assert_eq!(stats.status, STATUS_OK);
    let body = stats.cache.expect("cache body");
    assert_eq!(body.hits, 1);
    assert_eq!(body.warm_starts, 2);
    assert_eq!(body.misses, 1);
    assert_eq!(body.entries, 3);

    let bye = c.send(&Request::op("shutdown"));
    assert_eq!(bye.status, STATUS_OK);
    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.warm_starts, 2);
    assert_eq!(report.cache_misses, 1);
    assert_eq!(report.rejected, 0);
}

fn wh_mode(name: &str, m: u32, k: u32, loss: Option<f64>) -> ModeSpec {
    ModeSpec {
        name: name.into(),
        tasks: None,
        soft: None,
        weakly_hard: Some(wh_spec(m, k)),
        loss,
    }
}

fn mode_request(id: u64, spec: ModesSpec) -> Request {
    let mut req = Request::op("mode_solve");
    req.id = Some(id);
    req.modes = Some(spec);
    req
}

/// `mode_solve` end to end: cold joint solve, verbatim repeat from the
/// cache (exact-only for mode sets), reliability infeasibility, and the
/// per-mode timing presolve rejection with a mode-labeled witness.
#[test]
fn mode_solve_flow_and_cache() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);
    let hits = netdag_obs::global().counter(netdag_obs::keys::SERVE_CACHE_HITS);
    let hits_before = hits.get();

    let spec = ModesSpec {
        app: pipeline_app(),
        shared_prefix_rounds: Some(1),
        modes: vec![
            wh_mode("nominal", 10, 40, None),
            wh_mode("degraded", 20, 40, Some(0.9)),
        ],
    };

    // Cold joint solve.
    let r1 = c.send(&mode_request(1, spec.clone()));
    assert_eq!(r1.status, STATUS_OK, "{:?}", r1.reason);
    assert_eq!(r1.cached, Some(false));
    let export1 = r1.mode_result.expect("mode schedules");
    assert_eq!(export1.modes.len(), 2);
    assert_eq!(export1.shared_prefix_rounds, 1);
    assert_eq!(export1.modes[0].name, "nominal");
    let fp1 = r1.fingerprint.expect("fingerprint");

    // Verbatim repeat: exact cache hit, identical document.
    let r2 = c.send(&mode_request(2, spec.clone()));
    assert_eq!(r2.status, STATUS_OK);
    assert_eq!(r2.cached, Some(true));
    assert_eq!(r2.fingerprint.as_deref(), Some(fp1.as_str()));
    assert_eq!(r2.mode_result.expect("mode schedules"), export1);

    // A perturbed bound is a different mode set: solved cold again.
    let mut perturbed = spec.clone();
    perturbed.modes[1].weakly_hard = Some(wh_spec(21, 40));
    let r3 = c.send(&mode_request(3, perturbed));
    assert_eq!(r3.status, STATUS_OK);
    assert_eq!(r3.cached, Some(false));
    assert_ne!(r3.fingerprint.as_deref(), Some(fp1.as_str()));

    // Mode answers share the one cache and its `cache_stats` counts,
    // which agree with the `serve.cache_hits` counter.
    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache body");
    assert_eq!((body.hits, body.misses, body.entries), (1, 2, 2));
    assert_eq!(body.mode_entries, 2);
    assert_eq!(body.hits, hits.get() - hits_before);

    // Missing spec and reliability-infeasible mode sets are structured
    // answers from the worker path.
    let empty = c.send(&Request::op("mode_solve"));
    assert_eq!(empty.status, STATUS_ERROR);
    let mut infeasible = spec.clone();
    infeasible.modes[0].weakly_hard = Some(wh_spec(1, 10));
    let ri = c.send(&mode_request(4, infeasible));
    assert_eq!(ri.status, STATUS_INFEASIBLE);

    // A mode whose timing subsystem is provably over-constrained is
    // rejected by its presolve at zero nodes, naming the offending mode.
    let mut doomed = spec;
    doomed.modes[1] = ModeSpec {
        name: "degraded".into(),
        tasks: None,
        soft: Some(SoftModeSpec {
            fss: 0.3,
            constraints: vec![SoftEntry {
                task: "act".into(),
                probability: 0.99,
            }],
        }),
        weakly_hard: None,
        loss: None,
    };
    let rd = c.send(&mode_request(5, doomed));
    assert_eq!(rd.status, STATUS_INFEASIBLE, "{:?}", rd.reason);
    let reason = rd.reason.expect("named explanation");
    assert!(reason.contains("mode 'degraded'"), "{reason}");
    assert!(reason.contains("timing presolve"), "{reason}");

    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(30));
}

/// Restoring a snapshot into a smaller cache keeps each shard's most
/// recent answers, whatever their kind: a drain of three mode sets and
/// then a solve, restored at capacity 2, keeps the last mode set and the
/// solve and drops the older mode sets.
#[test]
fn restore_keeps_the_most_recent_mixed_entries() {
    let _serial = serial();
    let snap_path =
        std::env::temp_dir().join(format!("netdag_restore_recent_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);
    let modes: Vec<Request> = (0..3)
        .map(|i| {
            mode_request(
                i + 1,
                ModesSpec {
                    app: pipeline_app(),
                    shared_prefix_rounds: Some(1),
                    modes: vec![
                        wh_mode("nominal", 10, 40, None),
                        wh_mode("degraded", 18 + i as u32, 40, Some(0.9)),
                    ],
                },
            )
        })
        .collect();
    let solve = solve_request(4, pipeline_app(), Some(wh_spec(10, 40)));

    // First life, one shard of capacity 4: least to most recent, the
    // cache holds the three mode sets, then the solve.
    let (addr, report_rx) = start_server(ServeConfig {
        cache_capacity: 4,
        cache_snapshot: Some(snap_path.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);
    for req in modes.iter().chain([&solve]) {
        let r = c.send(req);
        assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
    }
    c.send(&Request::op("shutdown"));
    report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("first daemon exits");

    // Second life at capacity 2: only the two most recent come back.
    let (addr, report_rx) = start_server(ServeConfig {
        cache_capacity: 2,
        cache_snapshot: Some(snap_path.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);
    let body = c
        .send(&Request::op("cache_stats"))
        .cache
        .expect("cache body");
    assert_eq!((body.restored, body.entries, body.mode_entries), (2, 2, 1));
    assert_eq!(c.send(&modes[2]).cached, Some(true), "newest mode set kept");
    assert_eq!(c.send(&solve).cached, Some(true), "newest solve kept");
    assert_eq!(
        c.send(&modes[0]).cached,
        Some(false),
        "oldest mode set dropped"
    );
    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(30));
    let _ = std::fs::remove_file(&snap_path);
}

#[test]
fn validate_and_protocol_errors() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);

    let solved = c.send(&solve_request(1, pipeline_app(), Some(wh_spec(10, 40))));
    assert_eq!(solved.status, STATUS_OK);

    // Validate the schedule the daemon just produced.
    let mut val = Request::op("validate");
    val.id = Some(2);
    val.app = Some(pipeline_app());
    val.weakly_hard = Some(wh_spec(10, 40));
    val.schedule = solved.result.clone();
    val.kappa = Some(300);
    val.trials = Some(20);
    let vr = c.send(&val);
    assert_eq!(vr.status, STATUS_OK, "{:?}", vr.reason);
    let report = vr.validation.expect("validation report");
    assert!(report.passed, "{}", report.report);
    assert!(report.report.contains("PASS"));

    let mut soft_val = val.clone();
    soft_val.weakly_hard = None;
    soft_val.soft = Some(SoftSpec {
        constraints: vec![SoftEntry {
            task: "act".into(),
            probability: 0.5,
        }],
    });
    soft_val.stat = Some(StatSpec {
        kind: "eq15".into(),
        fss: Some(1.0),
    });

    // Zero samples, for either family, and sample counts past the caps
    // are structured errors naming the field that cost no worker: all
    // stay live and the daemon still shuts down.
    let mut rejected = Vec::new();
    for base in [&soft_val, &val] {
        for (field, kappa, trials) in [
            ("kappa", 0, 20),
            ("kappa", 1_000_001, 20),
            ("trials", 300, 10_001),
        ] {
            let mut bad = base.clone();
            bad.id = Some(4);
            bad.kappa = Some(kappa);
            bad.trials = Some(trials);
            rejected.push((field, bad));
        }
    }
    // The statistic must match the constraint family, as `solve`
    // requires: soft constraints need eq15, weakly hard ones alone eq13.
    let mut soft_eq13 = soft_val.clone();
    soft_eq13.stat = Some(StatSpec {
        kind: "eq13".into(),
        fss: Some(1.0),
    });
    let mut wh_eq15 = val.clone();
    wh_eq15.stat = soft_val.stat.clone();
    rejected.extend([("stat", soft_eq13), ("stat", wh_eq15)]);
    for (field, req) in rejected {
        let r = c.send(&req);
        assert_eq!(r.status, STATUS_ERROR, "{field}: {:?}", r.validation);
        let reason = r.reason.expect("error reason");
        assert!(reason.contains(field), "{reason}");
    }
    // A thread count past the core count is clamped; results never
    // depend on it.
    let mut wide = val.clone();
    wide.threads = Some(1_000_000);
    let mut single = val.clone();
    single.threads = Some(1);
    assert_eq!(c.send(&wide).validation, c.send(&single).validation);
    let mut polls = 0;
    while c
        .send(&Request::op("health"))
        .health
        .expect("health body")
        .workers_live
        != 2
    {
        polls += 1;
        assert!(polls < 3_000, "a worker was lost");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Malformed line.
    let bad = c.send_line("{not json");
    assert_eq!(bad.status, STATUS_ERROR);
    // Unknown op.
    let unknown = c.send(&Request::op("frobnicate"));
    assert_eq!(unknown.status, STATUS_ERROR);
    // Solve without an app.
    let empty = c.send(&Request::op("solve"));
    assert_eq!(empty.status, STATUS_ERROR);
    // Infeasible problem (window below the eq. (13) minimum).
    let infeasible = c.send(&solve_request(3, pipeline_app(), Some(wh_spec(1, 10))));
    assert_eq!(infeasible.status, STATUS_INFEASIBLE);

    c.send(&Request::op("shutdown"));
    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits");
    assert!(report.requests >= 7);
}

/// A `node_limit` over the cap is refused with an error naming the
/// field, before any search; the daemon keeps all its workers, and a
/// request at the cap is solved.
#[test]
fn node_limit_over_the_cap_is_refused() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);
    let workers_live = |c: &mut Client| {
        c.send(&Request::op("health"))
            .health
            .expect("health body")
            .workers_live
    };
    let mut polls = 0;
    while workers_live(&mut c) != 2 {
        polls += 1;
        assert!(polls < 3_000, "workers never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    let with_limit = |id, n| {
        let mut req = solve_request(id, pipeline_app(), Some(wh_spec(10, 40)));
        req.config = Some(ConfigSpec {
            node_limit: Some(n),
            ..Default::default()
        });
        req
    };
    let r = c.send(&with_limit(1, 4_000_001));
    assert_eq!(r.status, STATUS_ERROR);
    assert_eq!(
        r.reason.as_deref(),
        Some("config needs \"node_limit\" <= 4000000")
    );
    assert_eq!(workers_live(&mut c), 2);
    assert_eq!(c.send(&with_limit(2, 4_000_000)).status, STATUS_OK);

    c.send(&Request::op("shutdown"));
    report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
}

/// A spec whose timing subsystem is provably over-constrained (the
/// soft requirement exceeds what any `χ ≤ chi_max` can deliver on a
/// single message, a unary row in the difference subsystem) is rejected
/// by the CPM presolve the worker's solve runs before searching: a
/// structured `infeasible` response with a named explanation and zero
/// search nodes. With `no_lb` the presolve is off and the same request
/// gets the search-proof rejection instead.
#[test]
fn timing_infeasible_spec_is_rejected_pre_admission() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr);

    let mut req = Request::op("solve");
    req.id = Some(1);
    req.app = Some(pipeline_app());
    req.soft = Some(SoftSpec {
        constraints: vec![SoftEntry {
            task: "act".into(),
            probability: 0.99,
        }],
    });
    req.stat = Some(StatSpec {
        kind: "eq15".into(),
        fss: Some(0.3),
    });
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_INFEASIBLE, "{:?}", r.reason);
    let reason = r.reason.expect("named explanation");
    assert!(reason.contains("timing presolve"), "{reason}");
    assert!(reason.contains("cannot start before"), "{reason}");

    // The same request with the presolve disabled still gets an
    // infeasible answer — from the worker's search proof.
    let mut no_lb = req.clone();
    no_lb.id = Some(2);
    no_lb.config = Some(ConfigSpec {
        no_lb: Some(true),
        ..Default::default()
    });
    let r2 = c.send(&no_lb);
    assert_eq!(r2.status, STATUS_INFEASIBLE, "{:?}", r2.reason);
    assert!(!r2.reason.unwrap_or_default().contains("timing presolve"));

    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(30));
}

/// The timing presolve runs only inside the worker's solve, so a
/// timing-infeasible problem gets the same answer however it arrives.
/// Standalone, and twice inside one `batch_solve` next to a feasible
/// item, all three infeasible answers are byte-identical apart from
/// `id`; the feasible item still solves; and the access log holds one
/// line per worker job, the standalone one `infeasible` at zero nodes.
#[test]
fn timing_infeasible_answer_is_identical_standalone_and_batched() {
    let _serial = serial();
    let log_path = std::env::temp_dir().join(format!(
        "netdag_timing_infeasible_{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    let (addr, report_rx) = start_server(ServeConfig {
        shards: 1,
        workers: 1,
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    let doomed = BatchItem {
        app: Some(pipeline_app()),
        soft: Some(SoftSpec {
            constraints: vec![SoftEntry {
                task: "act".into(),
                probability: 0.99,
            }],
        }),
        weakly_hard: None,
        stat: Some(StatSpec {
            kind: "eq15".into(),
            fss: Some(0.3),
        }),
    };
    let feasible = BatchItem {
        app: Some(pipeline_app()),
        soft: None,
        weakly_hard: Some(wh_spec(10, 40)),
        stat: None,
    };

    let mut single = Request::op("solve");
    single.id = Some(1);
    single.app = doomed.app.clone();
    single.soft = doomed.soft.clone();
    single.stat = doomed.stat.clone();
    let standalone = c.send(&single);
    assert_eq!(
        standalone.status, STATUS_INFEASIBLE,
        "{:?}",
        standalone.reason
    );
    assert!(standalone
        .reason
        .as_deref()
        .is_some_and(|r| r.starts_with("timing presolve: ")));

    let mut batch = Request::op("batch_solve");
    batch.id = Some(2);
    batch.batch = Some(vec![doomed.clone(), feasible, doomed]);
    let envelope = c.send(&batch);
    assert_eq!(envelope.status, STATUS_OK, "{:?}", envelope.reason);
    let items = envelope.batch.expect("batch answers");
    assert_eq!(items.len(), 3);
    assert_eq!(items[1].status, STATUS_OK, "{:?}", items[1].reason);
    assert_eq!(items[1].cached, Some(false));
    assert!(items[1].result.is_some());

    let without_id = |r: &Response| {
        let mut r = r.clone();
        r.id = None;
        serde_json::to_string(&r).expect("serialize")
    };
    let expected = without_id(&standalone);
    assert_eq!(without_id(&items[0]), expected);
    assert_eq!(without_id(&items[2]), expected);

    c.send(&Request::op("shutdown"));
    report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits");

    let lines = take_access_log(&log_path);
    assert_eq!(lines.len(), 2, "one line per worker job: {lines:?}");
    assert_eq!(text_of(log_field(&lines[0], "op")), "solve");
    assert_eq!(text_of(log_field(&lines[0], "status")), STATUS_INFEASIBLE);
    assert_eq!(log_field(&lines[0], "nodes").as_u64(), Some(0));
    assert_eq!(text_of(log_field(&lines[1], "op")), "batch_solve");
    assert_eq!(text_of(log_field(&lines[1], "status")), STATUS_OK);
}

/// Reads and deletes an access log, one JSON value per line.
fn take_access_log(path: &std::path::Path) -> Vec<serde::Value> {
    let text = std::fs::read_to_string(path).expect("access log");
    let _ = std::fs::remove_file(path);
    text.lines()
        .map(|l| serde_json::from_str_value(l).expect("log line JSON"))
        .collect()
}

/// The `key` field of an access-log line.
fn log_field(line: &serde::Value, key: &str) -> serde::Value {
    match line {
        serde::Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing {key:?}: {line:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

/// A string field value.
fn text_of(v: serde::Value) -> String {
    match v {
        serde::Value::String(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

/// The deadline path, made deterministic: `keep_going` is polled at
/// step boundaries, so `deadline_ms = 0` stops the engine after exactly
/// `step_nodes` explored nodes — no wall clock involved. With
/// `step_nodes = 256` the engine has already recorded an incumbent for
/// [`heavy_app`] but has not exhausted the tree: the response is the
/// best incumbent so far, marked incomplete and kept out of the cache.
#[test]
fn deadline_returns_best_incumbent_marked_incomplete() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
        step_nodes: 256,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    // `no_lb` pins the un-pruned search tree this test's step budget
    // was calibrated against (the relaxation lower bound finishes this
    // instance inside the first step slice).
    let no_lb = ConfigSpec {
        no_lb: Some(true),
        ..Default::default()
    };
    let mut req = solve_request(1, heavy_app(), Some(wh_spec(3, 60)));
    req.config = Some(no_lb.clone());
    req.deadline_ms = Some(0);
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_INCOMPLETE, "{:?}", r.reason);
    assert_eq!(r.complete, Some(false));
    let incumbent = r.result.expect("best incumbent so far");

    // Incomplete answers are never cached: the same problem without a
    // deadline is solved from scratch and strictly no worse.
    let mut full_req = solve_request(2, heavy_app(), Some(wh_spec(3, 60)));
    full_req.config = Some(no_lb);
    let full = c.send(&full_req);
    assert_eq!(full.status, STATUS_OK);
    assert_eq!(full.cached, Some(false));
    assert!(full.result.expect("schedule").makespan_us <= incumbent.makespan_us);

    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache body");
    assert_eq!(
        body.misses, 2,
        "incomplete solve must not populate the cache"
    );
    assert_eq!(body.entries, 1);

    c.send(&Request::op("shutdown"));
    drop(report_rx);
}

/// With `step_nodes = 16` the engine is stopped before it can reach any
/// feasible leaf of [`heavy_app`]: an expired deadline with no incumbent
/// is a structured error, not a silent empty schedule.
#[test]
fn deadline_with_no_incumbent_is_a_structured_error() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
        step_nodes: 16,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    let mut req = solve_request(1, heavy_app(), Some(wh_spec(3, 60)));
    req.deadline_ms = Some(0);
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_ERROR);
    assert_eq!(r.complete, Some(false));
    assert!(r.result.is_none());
    assert!(
        r.reason
            .as_deref()
            .unwrap_or("")
            .contains("deadline expired"),
        "{:?}",
        r.reason
    );

    c.send(&Request::op("shutdown"));
    drop(report_rx);
}

/// A two-mode set over [`heavy_app`] whose joint search records its
/// first incumbent at node 203 and proves the optimum at node 2144, so
/// a `deadline_ms = 0` stop after one step is deterministic: 256 nodes
/// leave an incumbent, 16 nodes leave none.
fn heavy_modes() -> ModesSpec {
    ModesSpec {
        app: heavy_app(),
        shared_prefix_rounds: Some(1),
        modes: vec![
            wh_mode("nominal", 10, 40, None),
            wh_mode("degraded", 20, 40, None),
        ],
    }
}

/// `mode_solve` honours `deadline_ms` as `solve` does: the best joint
/// incumbent comes back incomplete, is kept out of the cache and counts
/// as an expired deadline.
#[test]
fn mode_solve_deadline_returns_best_incumbent_marked_incomplete() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
        step_nodes: 256,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    let mut req = mode_request(1, heavy_modes());
    req.deadline_ms = Some(0);
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_INCOMPLETE, "{:?}", r.reason);
    assert_eq!(r.complete, Some(false));
    let incumbent = r.mode_result.expect("best joint incumbent so far");
    assert!(!incumbent.optimal);
    let total = |e: &netdag_core::modes::ModeScheduleExport| {
        e.modes.iter().map(|m| m.makespan_us).sum::<u64>()
    };

    // Not cached: the same mode set without a deadline is solved from
    // scratch and its joint objective is no worse.
    let full = c.send(&mode_request(2, heavy_modes()));
    assert_eq!(full.status, STATUS_OK, "{:?}", full.reason);
    assert_eq!(full.cached, Some(false));
    let full = full.mode_result.expect("mode schedules");
    assert!(full.optimal);
    assert!(total(&full) <= total(&incumbent));

    let body = c
        .send(&Request::op("cache_stats"))
        .cache
        .expect("cache body");
    assert_eq!((body.misses, body.entries), (2, 1));

    c.send(&Request::op("shutdown"));
    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
    assert_eq!(report.deadline_expired, 1);
}

/// A `mode_solve` deadline that expires before any joint incumbent
/// exists is the same structured error a `solve` gets.
#[test]
fn mode_solve_deadline_with_no_incumbent_is_a_structured_error() {
    let _serial = serial();
    let (addr, report_rx) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
        step_nodes: 16,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    let mut req = mode_request(1, heavy_modes());
    req.deadline_ms = Some(0);
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_ERROR);
    assert_eq!(r.complete, Some(false));
    assert!(r.mode_result.is_none());
    assert!(
        r.reason
            .as_deref()
            .unwrap_or("")
            .contains("deadline expired"),
        "{:?}",
        r.reason
    );

    let full = c.send(&mode_request(2, heavy_modes()));
    assert_eq!(full.status, STATUS_OK, "{:?}", full.reason);
    assert_eq!(full.cached, Some(false));

    c.send(&Request::op("shutdown"));
    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
    assert_eq!(report.deadline_expired, 1);
}

/// A daemon for the deadline tests: one worker polling every 256 nodes.
fn deadline_server() -> (std::net::SocketAddr, mpsc::Receiver<ServeReport>) {
    start_server(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 16,
        step_nodes: 256,
        ..ServeConfig::default()
    })
}

/// The `portfolio: 2` twin of
/// [`deadline_returns_best_incumbent_marked_incomplete`]: a race polls
/// the deadline at its 2048-node epoch boundaries, so `deadline_ms = 0`
/// stops it after its first epoch. Under `wh_spec(15, 40)` neither
/// member has finished by then, though both hold an incumbent: run to
/// the end, member 0 proves the optimum after 2521 nodes, in the second
/// epoch, and the race stops there at 6617 nodes.
#[test]
fn portfolio_deadline_returns_best_incumbent_marked_incomplete() {
    let _serial = serial();
    let (addr, report_rx) = deadline_server();
    let mut c = Client::connect(addr);

    let mut req = solve_request(1, heavy_app(), Some(wh_spec(15, 40)));
    req.config = Some(race_of_two());
    req.deadline_ms = Some(0);
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_INCOMPLETE, "{:?}", r.reason);
    assert_eq!(r.complete, Some(false));
    let incumbent = r.result.expect("best incumbent so far");
    assert!(!incumbent.optimal);

    let mut full_req = solve_request(2, heavy_app(), Some(wh_spec(15, 40)));
    full_req.config = Some(race_of_two());
    let full = c.send(&full_req);
    assert_eq!(full.status, STATUS_OK);
    assert_eq!(full.cached, Some(false));
    assert!(full.result.expect("schedule").makespan_us <= incumbent.makespan_us);

    let body = c
        .send(&Request::op("cache_stats"))
        .cache
        .expect("cache body");
    assert_eq!((body.misses, body.entries), (2, 1));

    c.send(&Request::op("shutdown"));
    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
    assert_eq!(report.deadline_expired, 1);
}

/// The `portfolio: 2` twin of
/// [`mode_solve_deadline_returns_best_incumbent_marked_incomplete`]:
/// the joint race stops at its first epoch boundary with an incumbent.
/// With the degraded mode at `(15, 40)` neither member has finished
/// there: run to the end, member 1 proves the joint optimum after 3041
/// nodes, in the second epoch, and the race stops there at 7137 nodes.
#[test]
fn mode_solve_portfolio_deadline_returns_best_incumbent_marked_incomplete() {
    let _serial = serial();
    let (addr, report_rx) = deadline_server();
    let mut c = Client::connect(addr);
    let modes = || ModesSpec {
        modes: vec![
            wh_mode("nominal", 10, 40, None),
            wh_mode("degraded", 15, 40, None),
        ],
        ..heavy_modes()
    };

    let mut req = mode_request(1, modes());
    req.config = Some(race_of_two());
    req.deadline_ms = Some(0);
    let r = c.send(&req);
    assert_eq!(r.status, STATUS_INCOMPLETE, "{:?}", r.reason);
    assert_eq!(r.complete, Some(false));
    let incumbent = r.mode_result.expect("best joint incumbent so far");
    assert!(!incumbent.optimal);
    let total = |e: &netdag_core::modes::ModeScheduleExport| {
        e.modes.iter().map(|m| m.makespan_us).sum::<u64>()
    };

    let mut full_req = mode_request(2, modes());
    full_req.config = Some(race_of_two());
    let full = c.send(&full_req);
    assert_eq!(full.status, STATUS_OK, "{:?}", full.reason);
    assert_eq!(full.cached, Some(false));
    let full = full.mode_result.expect("mode schedules");
    assert!(full.optimal);
    assert!(total(&full) <= total(&incumbent));

    let body = c
        .send(&Request::op("cache_stats"))
        .cache
        .expect("cache body");
    assert_eq!((body.misses, body.entries), (2, 1));

    c.send(&Request::op("shutdown"));
    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
    assert_eq!(report.deadline_expired, 1);
}

/// A race that proves the optimum inside its first epoch stops there,
/// so `deadline_ms = 0` finds it finished: the answer is `ok`, complete
/// and optimal, and it is cached. Under `wh_spec(20, 40)` member 1
/// proves it after 916 nodes; with `heavy_modes` member 1 proves the
/// joint optimum after 1293.
#[test]
fn portfolio_proof_in_the_first_epoch_beats_the_deadline() {
    let _serial = serial();
    let (addr, report_rx) = deadline_server();
    let mut c = Client::connect(addr);

    for id in [1, 2] {
        let mut req = solve_request(id, heavy_app(), Some(wh_spec(20, 40)));
        req.config = Some(race_of_two());
        req.deadline_ms = Some(0);
        let r = c.send(&req);
        assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
        assert_eq!(r.complete, Some(true));
        assert_eq!(r.cached, Some(id == 2));
        assert!(r.result.expect("schedule").optimal);
    }
    for id in [3, 4] {
        let mut req = mode_request(id, heavy_modes());
        req.config = Some(race_of_two());
        req.deadline_ms = Some(0);
        let r = c.send(&req);
        assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
        assert_eq!(r.complete, Some(true));
        assert_eq!(r.cached, Some(id == 4));
        assert!(r.mode_result.expect("mode schedules").optimal);
    }

    let body = c
        .send(&Request::op("cache_stats"))
        .cache
        .expect("cache body");
    assert_eq!((body.misses, body.hits, body.entries), (2, 2, 2));

    c.send(&Request::op("shutdown"));
    let report = report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
    assert_eq!(report.deadline_expired, 0);
}

/// A two-config portfolio race.
fn race_of_two() -> ConfigSpec {
    ConfigSpec {
        portfolio: Some(2),
        ..Default::default()
    }
}

/// Runs a fixed six-request session against a daemon with `workers`
/// worker threads and returns the count-based `serve.solver_nodes`
/// rolling-window stats the `metrics` operation reports afterwards.
/// Requests are issued sequentially on one connection, so the window's
/// tick positions (keyed to the completion counter) and the per-request
/// node counts are independent of how many workers stand idle.
fn solver_nodes_after_session(workers: usize) -> RollingStats {
    let (addr, report_rx) = start_server(ServeConfig {
        workers,
        window_slots: 4,
        window_tick: 2,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);

    // Cold, exact hit, cold, warm (permuted declarations), cold, hit.
    let r = c.send(&solve_request(1, pipeline_app(), Some(wh_spec(10, 40))));
    assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
    assert_eq!(
        c.send(&solve_request(2, pipeline_app(), Some(wh_spec(10, 40))))
            .cached,
        Some(true)
    );
    c.send(&solve_request(3, pipeline_app(), Some(wh_spec(12, 40))));
    let mut permuted = pipeline_app();
    permuted.tasks.swap(0, 1);
    assert_eq!(
        c.send(&solve_request(4, permuted, Some(wh_spec(10, 40))))
            .warm_started,
        Some(true)
    );
    c.send(&solve_request(5, pipeline_app(), Some(wh_spec(14, 40))));
    assert_eq!(
        c.send(&solve_request(6, pipeline_app(), Some(wh_spec(12, 40))))
            .cached,
        Some(true)
    );

    let m = c.send(&Request::op("metrics"));
    assert_eq!(m.status, STATUS_OK);
    let body = m.metrics.expect("metrics body");
    assert_eq!(body.window.slots, 4);
    assert_eq!(body.window.tick_every, 2);
    assert_eq!(body.window.ticks, 3, "six completions at tick-every 2");
    let nodes = body
        .rolling
        .into_iter()
        .find(|r| r.name == "serve.solver_nodes")
        .expect("solver_nodes window");

    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(30));
    nodes
}

/// Count-based windowed metrics are pinned bit-identical across worker
/// counts: the same sequential session yields byte-for-byte equal
/// `serve.solver_nodes` rolling stats at 1, 2, and 8 workers (wall-time
/// windows carry no such pin — they are deliberately not compared).
#[test]
fn rolling_solver_nodes_identical_across_worker_counts() {
    let _serial = serial();
    let w1 = solver_nodes_after_session(1);
    let w2 = solver_nodes_after_session(2);
    let w8 = solver_nodes_after_session(8);
    assert!(w1.count >= 6, "every request observes a node count: {w1:?}");
    assert!(w1.sum > 0, "cold solves explore nodes: {w1:?}");
    assert_eq!(w1, w2);
    assert_eq!(w1, w8);
}

/// The request id [`pin_worker`] holds at its daemon's [`Gate`].
const HOLD_ID: u64 = 100;

/// A gate the test opens itself. Waiting gives up after two minutes, so
/// a test that fails before opening it cannot wedge a worker forever.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        let _ = self
            .opened
            .wait_timeout_while(open, Duration::from_secs(120), |open| !*open);
    }
}

/// A closed gate and the worker hook that holds request [`HOLD_ID`] at
/// it, for the daemon's [`ServeConfig::worker_hook`].
fn hold_gate() -> (Arc<Gate>, WorkerHook) {
    let gate = Arc::new(Gate::default());
    let held = Arc::clone(&gate);
    let hook = WorkerHook::new(move |_op, id| {
        if id == Some(HOLD_ID) {
            held.wait();
        }
    });
    (gate, hook)
}

/// Pins a one-worker daemon's worker: solves once (request id 99), then
/// sends a Monte-Carlo validation of that schedule (id [`HOLD_ID`]) and
/// waits until the worker has dequeued it. The daemon must run the
/// [`hold_gate`] hook, so the worker stays on the validation until the
/// caller opens the gate. Returns the holder, whose pending response is
/// the validation's, and a control connection.
fn pin_worker(addr: std::net::SocketAddr) -> (Client, Client) {
    // Solve once so there is a schedule to validate.
    let mut holder = Client::connect(addr);
    let solved = holder.send(&solve_request(99, pipeline_app(), Some(wh_spec(10, 40))));
    assert_eq!(solved.status, STATUS_OK, "{:?}", solved.reason);

    // Occupy the worker; the caller reads the response.
    let mut hold = Request::op("validate");
    hold.id = Some(HOLD_ID);
    hold.app = Some(pipeline_app());
    hold.weakly_hard = Some(wh_spec(10, 40));
    hold.schedule = solved.result.clone();
    hold.kappa = Some(2_000);
    hold.trials = Some(100);
    holder.write_line(&serde_json::to_string(&hold).expect("serialize"));

    // Wait until the worker has dequeued the hold request.
    let mut ctl = Client::connect(addr);
    let mut polls = 0;
    loop {
        let stats = ctl.send(&Request::op("cache_stats"));
        let body = stats.cache.expect("cache body");
        if body.in_flight == 1 && body.queued == 0 {
            break;
        }
        polls += 1;
        assert!(polls < 3_000, "worker never picked up the hold: {body:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    (holder, ctl)
}

/// The robustness acceptance test: with queue bound N and the single
/// worker pinned, a burst of 4N solves is answered with exactly N
/// accepted and 3N structured rejections, and a shutdown issued while
/// work is still queued drains every accepted request before the server
/// exits.
#[test]
fn backpressure_bounds_queue_and_shutdown_drains() {
    let _serial = serial();
    const N: usize = 2;
    let (gate, hook) = hold_gate();
    let (addr, report_rx) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: N,
        cache_capacity: 16,
        step_nodes: 512,
        worker_hook: Some(hook),
        ..ServeConfig::default()
    });
    let (mut holder, mut ctl) = pin_worker(addr);

    // Burst 4N solves from parallel connections. The worker is pinned,
    // so exactly N fit the queue and 3N are rejected. Shutdown is
    // requested while those N are still queued, so their responses
    // prove the graceful drain.
    let answered = std::sync::atomic::AtomicUsize::new(0);
    let burst: Vec<Response> = std::thread::scope(|scope| {
        let answered = &answered;
        let handles: Vec<_> = (0..4 * N)
            .map(|i| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    // Distinct problems so cached answers play no role.
                    let resp = c.send(&solve_request(
                        i as u64,
                        pipeline_app(),
                        Some(wh_spec(10, 41 + i as u32)),
                    ));
                    answered.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    resp
                })
            })
            .collect();
        // With the worker pinned, the queue settles at exactly N
        // waiting jobs and the other 3N clients hold their rejections.
        // Only then is shutdown sent: every burst connection has been
        // accepted and processed, so the N queued responses prove the
        // graceful drain (nothing is still sitting in the TCP backlog,
        // which a closing listener would reset).
        let mut polls = 0;
        loop {
            let stats = ctl.send(&Request::op("cache_stats"));
            let body = stats.cache.expect("cache body");
            if answered.load(std::sync::atomic::Ordering::SeqCst) == 3 * N
                && body.queued as usize == N
            {
                break;
            }
            polls += 1;
            assert!(polls < 3_000, "queue never settled at {N}: {body:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        let bye = ctl.send(&Request::op("shutdown"));
        assert_eq!(bye.status, STATUS_OK);
        gate.open();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let accepted: Vec<&Response> = burst.iter().filter(|r| r.status == STATUS_OK).collect();
    let rejected: Vec<&Response> = burst
        .iter()
        .filter(|r| r.status == STATUS_REJECTED)
        .collect();
    assert_eq!(
        accepted.len() + rejected.len(),
        4 * N,
        "every burst request is answered exactly once: {burst:?}"
    );
    assert_eq!(
        rejected.len(),
        3 * N,
        "queue bound {N} admits exactly {N}: {burst:?}"
    );
    for r in &rejected {
        assert_eq!(r.reason.as_deref(), Some(REASON_QUEUE_FULL));
    }

    // The pinned validation was drained too, not abandoned.
    let hold_resp = holder.read_response();
    assert_eq!(hold_resp.status, STATUS_OK, "{:?}", hold_resp.reason);
    assert!(hold_resp.validation.expect("validation").passed);

    let report = report_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("server drains accepted work and exits");
    assert_eq!(report.rejected as usize, 3 * N);
    // solve + hold + burst + shutdown + at least one cache_stats poll.
    assert!(report.requests as usize >= 4 * N + 4);
}

/// A `batch_solve` of two distinct weakly hard pipeline problems.
fn batch_request(id: u64, k: [u32; 2]) -> Request {
    let mut req = Request::op("batch_solve");
    req.id = Some(id);
    req.batch = Some(
        k.iter()
            .map(|&k| BatchItem {
                app: Some(pipeline_app()),
                soft: None,
                weakly_hard: Some(wh_spec(10, k)),
                stat: None,
            })
            .collect(),
    );
    req
}

/// Both rejection reasons on both admission shapes. With the worker
/// pinned and the one queue slot taken, a `batch_solve` is rejected
/// whole: one `queue_full` envelope, counted once, and none of its
/// items reaches a worker or the access log. After `shutdown`, a
/// still-open connection gets `shutting_down` for a `solve` and a
/// `batch_solve` alike.
#[test]
fn rejections_cover_both_reasons_on_both_admission_shapes() {
    let _serial = serial();
    let log_path =
        std::env::temp_dir().join(format!("netdag_rejections_{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let (gate, hook) = hold_gate();
    let (addr, report_rx) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        access_log: Some(log_path.clone()),
        worker_hook: Some(hook),
        ..ServeConfig::default()
    });
    let (mut holder, mut ctl) = pin_worker(addr);

    // Take the one queue slot; its answer is read after the drain.
    let mut queued = Client::connect(addr);
    let queued_req = solve_request(1, pipeline_app(), Some(wh_spec(10, 41)));
    queued.write_line(&serde_json::to_string(&queued_req).expect("serialize"));
    let mut polls = 0;
    loop {
        let body = ctl
            .send(&Request::op("cache_stats"))
            .cache
            .expect("cache body");
        if body.queued == 1 {
            break;
        }
        polls += 1;
        assert!(polls < 3_000, "the queue never filled: {body:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let full = ctl.send(&batch_request(500, [42, 43]));
    assert_eq!(full.status, STATUS_REJECTED, "{full:?}");
    assert_eq!(full.reason.as_deref(), Some(REASON_QUEUE_FULL));
    assert_eq!(full.id, Some(500));
    assert!(
        full.batch.is_none(),
        "one envelope, no item answers: {full:?}"
    );

    // Pipelined on one connection, so it is still open when the two
    // requests after `shutdown` are read.
    let lines: Vec<String> = [
        Request::op("shutdown"),
        solve_request(2, pipeline_app(), Some(wh_spec(10, 44))),
        batch_request(501, [45, 46]),
    ]
    .iter()
    .map(|r| serde_json::to_string(r).expect("serialize"))
    .collect();
    ctl.write_line(&lines.join("\n"));
    assert_eq!(ctl.read_response().status, STATUS_OK);
    for id in [2, 501] {
        let late = ctl.read_response();
        assert_eq!(late.status, STATUS_REJECTED, "{late:?}");
        assert_eq!(late.reason.as_deref(), Some(REASON_SHUTTING_DOWN));
        assert_eq!(late.id, Some(id));
    }
    gate.open();

    // Accepted work is drained.
    let drained = queued.read_response();
    assert_eq!(drained.status, STATUS_OK, "{:?}", drained.reason);
    let hold = holder.read_response();
    assert_eq!(hold.status, STATUS_OK, "{:?}", hold.reason);
    let report = report_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("server drains accepted work and exits");
    // The full-queue batch and the two late requests, each counted once.
    assert_eq!(report.rejected, 3);

    // One line per worker job: the set-up solve, the hold and the
    // queued solve. No rejected request reached a worker.
    let logged: Vec<(u64, String)> = take_access_log(&log_path)
        .iter()
        .map(|line| {
            let id = log_field(line, "id").as_u64().expect("id");
            (id, text_of(log_field(line, "op")))
        })
        .collect();
    assert_eq!(
        logged,
        [(99, "solve"), (100, "validate"), (1, "solve")].map(|(id, op)| (id, op.to_owned()))
    );
}

/// `health.workers_live` counts the answering daemon's own workers:
/// two daemons in one process each settle at their own `shards ×
/// workers`, although the `serve.workers_live` gauge they both feed is
/// process-global.
#[test]
fn health_counts_each_daemons_own_workers() {
    let _serial = serial();
    let (a, a_report) = start_server(ServeConfig {
        shards: 2,
        workers: 1,
        ..ServeConfig::default()
    });
    let (b, b_report) = start_server(ServeConfig {
        shards: 1,
        workers: 3,
        ..ServeConfig::default()
    });
    let (mut ca, mut cb) = (Client::connect(a), Client::connect(b));
    let live = |c: &mut Client| c.send(&Request::op("health")).health.expect("health body");
    let mut polls = 0;
    loop {
        // `b` is read first: while the workers start, a shared count
        // only grows, so it cannot read 3 at `b` and then 2 at `a`.
        let (hb, ha) = (live(&mut cb), live(&mut ca));
        if (ha.workers_live, hb.workers_live) == (2, 3) {
            assert_eq!((ha.shards * ha.workers, hb.shards * hb.workers), (2, 3));
            break;
        }
        polls += 1;
        assert!(
            polls < 3_000,
            "workers_live never settled at (2, 3): ({}, {})",
            ha.workers_live,
            hb.workers_live
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for (mut c, report) in [(ca, a_report), (cb, b_report)] {
        assert_eq!(c.send(&Request::op("shutdown")).status, STATUS_OK);
        report
            .recv_timeout(Duration::from_secs(30))
            .expect("server exits");
    }
}

/// The pipeline with its sensing WCET raised by `family` µs: every
/// `family` is its own structural family, so it keys its own cache
/// entry and routes on its own.
fn family_app(family: u64) -> AppSpec {
    let mut app = pipeline_app();
    app.tasks[0].wcet_us += family;
    app
}

/// The shard a daemon with `shards` shards routes a solve of
/// `family_app(family)` under `wh_spec(10, 40)` to: the daemon's route,
/// from the public fingerprint and ring.
fn family_shard(family: u64, shards: usize) -> usize {
    let stat = StatSpec {
        kind: "eq13".into(),
        fss: None,
    };
    let fp = fingerprint(
        &family_app(family),
        None,
        Some(&wh_spec(10, 40)),
        &stat,
        &SchedulerConfig::default(),
    );
    Ring::new(shards).route(fp.structural)
}

/// `batch_solve` amortizes admission by count, not by timing: over a
/// 4-shard daemon, an N-item batch reaches the workers as one job per
/// destination shard, where the same N items sent one at a time are N
/// jobs. (`shard_props.rs` pins the batch's sub-responses byte-equal to
/// sequential solves.)
#[test]
fn batch_solve_reaches_the_workers_as_one_job_per_shard() {
    const N: u64 = 12;
    let _serial = serial();
    let jobs = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&jobs);
    let hook = WorkerHook::new(move |op, _id| {
        seen.lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(op.to_owned());
    });
    let (addr, report_rx) = start_server(ServeConfig {
        shards: 4,
        worker_hook: Some(hook),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr);
    let take_jobs = || std::mem::take(&mut *jobs.lock().unwrap_or_else(|e| e.into_inner()));

    for family in 0..N {
        let r = c.send(&solve_request(
            family,
            family_app(family),
            Some(wh_spec(10, 40)),
        ));
        assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
    }
    assert_eq!(take_jobs(), vec!["solve"; N as usize]);

    let mut batch = Request::op("batch_solve");
    batch.id = Some(N);
    batch.batch = Some(
        (0..N)
            .map(|family| BatchItem {
                app: Some(family_app(family)),
                soft: None,
                weakly_hard: Some(wh_spec(10, 40)),
                stat: None,
            })
            .collect(),
    );
    let r = c.send(&batch);
    assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
    let subs = r.batch.expect("batch responses");
    assert_eq!(subs.len(), N as usize);
    assert!(subs.iter().all(|sub| sub.cached == Some(true)), "{subs:?}");
    let mut shards: Vec<usize> = (0..N).map(|family| family_shard(family, 4)).collect();
    shards.sort_unstable();
    shards.dedup();
    assert!(shards.len() > 1, "the items must span shards: {shards:?}");
    let batched = take_jobs();
    assert!(batched.len() <= 4, "{batched:?}");
    assert_eq!(batched, vec!["batch_solve"; shards.len()]);

    assert_eq!(c.send(&Request::op("shutdown")).status, STATUS_OK);
    report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
}

/// Shards serve in parallel: on a 2-shard daemon with one worker per
/// shard, two solves routed to different shards are both in service
/// before either is released. Each worker signals on entering its job
/// and then waits at a gate the test opens only after both signals, so
/// the check holds on any core count, and `recv_timeout` turns a
/// regression into a failure within seconds.
#[test]
fn two_shards_serve_two_requests_at_once() {
    let _serial = serial();
    let first_on = |shard| {
        (0..)
            .find(|&family| family_shard(family, 2) == shard)
            .expect("a family on every shard")
    };
    let families = [first_on(0), first_on(1)];
    let (entered_tx, entered_rx) = mpsc::channel();
    let gate = Arc::new(Gate::default());
    let held = Arc::clone(&gate);
    let hook = WorkerHook::new(move |_op, id| {
        let _ = entered_tx.send(id);
        held.wait();
    });
    let (addr, report_rx) = start_server(ServeConfig {
        shards: 2,
        workers: 1,
        worker_hook: Some(hook),
        ..ServeConfig::default()
    });

    let mut clients: Vec<Client> = families
        .iter()
        .map(|&family| {
            let mut c = Client::connect(addr);
            let req = solve_request(family, family_app(family), Some(wh_spec(10, 40)));
            c.write_line(&serde_json::to_string(&req).expect("serialize"));
            c
        })
        .collect();
    let mut in_service: Vec<Option<u64>> = (0..2)
        .map(|_| {
            entered_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("both requests must be in service at once")
        })
        .collect();
    let mut expected = families.map(Some);
    in_service.sort_unstable();
    expected.sort_unstable();
    assert_eq!(in_service, expected);
    gate.open();

    for c in &mut clients {
        let r = c.read_response();
        assert_eq!(r.status, STATUS_OK, "{:?}", r.reason);
    }
    assert_eq!(clients[0].send(&Request::op("shutdown")).status, STATUS_OK);
    report_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server exits after shutdown");
}
