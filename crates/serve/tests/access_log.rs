//! Request-id propagation: the structured access log and the trace
//! collector observe the *same* server-assigned `rid` for every
//! worker-handled request, so a log line can be joined against its
//! `serve.request` span in `--trace` output.
//!
//! This test owns the process-global trace collector, so it lives in
//! its own integration binary — sharing one with other daemon tests
//! would interleave their spans into the drained trace. The two tests
//! in this file still share that collector, so each holds [`SERIAL`]
//! for its whole run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use netdag_core::spec::{AppSpec, EdgeSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec};
use netdag_serve::protocol::{Request, Response, STATUS_OK};
use netdag_serve::{serve, ServeConfig, ServeReport};
use netdag_trace::EventKind;
use serde::Value;

/// Serializes this file's daemons: a sibling test's `serve.request`
/// spans would otherwise land in the trace drained below.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock but leaves nothing to repair.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
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

fn solve_request(id: u64, app: AppSpec) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(app);
    req.weakly_hard = Some(WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: "act".into(),
            m: 10,
            k: 40,
        }],
    });
    req
}

fn send(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &Request) -> Response {
    let line = serde_json::to_string(req).expect("serialize");
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    writer.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read");
    serde_json::from_str(&resp).expect("response JSON")
}

fn field<'v>(obj: &'v Value, key: &str) -> &'v Value {
    match obj {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {key:?} in {obj:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

/// Replays a three-request session (cold solve, exact repeat, permuted
/// repeat) against a daemon with an access log and live tracing, then
/// checks the log's `rid` column against the `rid` span argument of the
/// drained `serve.request` trace spans.
#[test]
fn access_log_rid_matches_trace_span_rid() {
    let _serial = serial();
    let log_path = std::env::temp_dir().join(format!(
        "netdag_access_log_test_{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);

    netdag_trace::reset();
    netdag_trace::set_clock(netdag_trace::ClockMode::Logical);
    netdag_trace::set_enabled(true);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cfg = ServeConfig {
        workers: 1,
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let (tx, rx) = mpsc::channel::<ServeReport>();
    std::thread::spawn(move || {
        let report = serve(listener, &cfg).expect("serve");
        let _ = tx.send(report);
    });

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Cold solve, exact repeat (hit), permuted declarations (warm).
    let r1 = send(
        &mut reader,
        &mut writer,
        &solve_request(101, pipeline_app()),
    );
    assert_eq!(r1.status, STATUS_OK, "{:?}", r1.reason);
    assert_eq!(r1.cached, Some(false));
    let r2 = send(
        &mut reader,
        &mut writer,
        &solve_request(102, pipeline_app()),
    );
    assert_eq!(r2.cached, Some(true));
    let mut permuted = pipeline_app();
    permuted.tasks.swap(0, 1);
    let r3 = send(&mut reader, &mut writer, &solve_request(103, permuted));
    assert_eq!(r3.warm_started, Some(true));

    send(&mut reader, &mut writer, &Request::op("shutdown"));
    rx.recv_timeout(Duration::from_secs(30)).expect("report");
    netdag_trace::set_enabled(false);

    // One structured line per worker-handled request, in completion
    // order, with the documented cache classes and node counts.
    let text = std::fs::read_to_string(&log_path).expect("access log");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str_value(l).expect("log line JSON"))
        .collect();
    assert_eq!(lines.len(), 3, "{text}");

    let mut log_rids: BTreeMap<u64, u64> = BTreeMap::new();
    for (line, (id, cache)) in lines
        .iter()
        .zip([(101, "cold"), (102, "hit"), (103, "warm")])
    {
        assert_eq!(field(line, "id").as_u64(), Some(id));
        assert_eq!(as_str(field(line, "op")), "solve");
        assert_eq!(as_str(field(line, "status")), "ok");
        assert_eq!(as_str(field(line, "cache")), cache);
        assert_eq!(as_str(field(line, "fp")).len(), 8);
        let nodes = field(line, "nodes").as_u64().expect("nodes");
        if cache == "hit" {
            assert_eq!(nodes, 0, "exact hits run zero solver nodes");
        } else {
            assert!(nodes > 0, "{cache} solve explores the tree: {line:?}");
        }
        let rid = field(line, "rid").as_u64().expect("rid");
        log_rids.insert(id, rid);
    }
    // The first admitted request gets rid 1; the session is sequential.
    assert_eq!(
        log_rids.values().copied().collect::<Vec<_>>(),
        vec![1, 2, 3]
    );

    // The same rids, attached to the matching ids, on the span side.
    let trace = netdag_trace::drain();
    let mut span_rids: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "serve.request")
    {
        let arg = |key: &str| {
            ev.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("span missing arg {key:?}: {ev:?}"))
        };
        let (netdag_trace::ArgValue::U64(id), netdag_trace::ArgValue::U64(rid)) =
            (arg("id"), arg("rid"))
        else {
            panic!("id/rid span args must be u64: {ev:?}");
        };
        span_rids.insert(id, rid);
    }
    assert_eq!(span_rids, log_rids, "log and trace disagree on rids");

    let _ = std::fs::remove_file(&log_path);
}

/// Telemetry must never fail a request — but it must not vanish
/// silently either. With the access log pointed at `/dev/full` (opens
/// fine, every write fails with ENOSPC) all three requests are still
/// answered normally, and each lost line increments the
/// `serve.access_log.dropped` counter exactly once.
#[test]
fn failed_access_log_writes_are_counted_not_fatal() {
    let _serial = serial();
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available on this platform");
        return;
    }
    let dropped = || {
        netdag_obs::global()
            .counter(netdag_obs::keys::SERVE_ACCESS_LOG_DROPPED)
            .get()
    };
    let before = dropped();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cfg = ServeConfig {
        workers: 1,
        access_log: Some(std::path::PathBuf::from("/dev/full")),
        ..ServeConfig::default()
    };
    let (tx, rx) = mpsc::channel::<ServeReport>();
    std::thread::spawn(move || {
        let report = serve(listener, &cfg).expect("serve");
        let _ = tx.send(report);
    });

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Cold solve, exact repeat, permuted repeat — the same session as
    // above, all answered despite the log sink being unwritable.
    let r1 = send(
        &mut reader,
        &mut writer,
        &solve_request(201, pipeline_app()),
    );
    assert_eq!(r1.status, STATUS_OK, "{:?}", r1.reason);
    let r2 = send(
        &mut reader,
        &mut writer,
        &solve_request(202, pipeline_app()),
    );
    assert_eq!(r2.cached, Some(true));
    let mut permuted = pipeline_app();
    permuted.tasks.swap(0, 1);
    let r3 = send(&mut reader, &mut writer, &solve_request(203, permuted));
    assert_eq!(r3.warm_started, Some(true));

    send(&mut reader, &mut writer, &Request::op("shutdown"));
    rx.recv_timeout(Duration::from_secs(30)).expect("report");

    assert_eq!(
        dropped() - before,
        3,
        "one dropped-line count per lost access-log record"
    );
}
