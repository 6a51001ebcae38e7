//! Determinism acceptance tests for the serving daemon: every response
//! — solved cold, answered from cache, or warm-started from a near
//! miss — must carry the exact `ScheduleExport` document that
//! `netdag schedule --out` writes for the same problem, byte for byte,
//! and every `validate` response the report `netdag validate` prints.
//!
//! The server runs in-process, so it shares the process-global
//! [`netdag_obs`] recorder with the test: the repeated-request case
//! asserts a `solver.nodes` delta of zero, proving the cached answer
//! never touched the search engine.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use netdag_cli::{parse_args, run};
use netdag_obs::keys;
use netdag_serve::protocol::{Request, Response, StatSpec, STATUS_OK};
use netdag_serve::{serve, ServeConfig};
use serde::Value;

/// Both tests here run an in-process daemon against the process-global
/// [`netdag_obs`] recorder; running them concurrently would bleed
/// counter increments into each other's assertions.
static SERIAL: Mutex<()> = Mutex::new(());

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("netdag-serve-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn file(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.0.join(name);
        fs::write(&path, contents).expect("write temp file");
        path
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

const APP: &str = r#"{
  "tasks": [
    {"name": "sense", "node": 0, "wcet_us": 500},
    {"name": "fuse", "node": 1, "wcet_us": 900},
    {"name": "act", "node": 2, "wcet_us": 300}
  ],
  "edges": [
    {"from": "sense", "to": "fuse", "width": 8},
    {"from": "fuse", "to": "act", "width": 4}
  ]
}"#;

fn wh_json(m: u32, k: u32) -> String {
    format!(r#"{{"constraints":[{{"task":"act","m":{m},"k":{k}}}]}}"#)
}

/// Runs `netdag schedule` in-process and returns the bytes it wrote to
/// `--out`.
fn cli_schedule_bytes(dir: &TempDir, tag: &str, m: u32, k: u32) -> String {
    let app = dir.file(&format!("app-{tag}.json"), APP);
    let wh = dir.file(&format!("wh-{tag}.json"), &wh_json(m, k));
    let out = dir.path(&format!("out-{tag}.json"));
    let line = format!(
        "schedule --app {} --weakly-hard {} --out {}",
        app.display(),
        wh.display(),
        out.display()
    );
    let command = parse_args(line.split_whitespace().map(str::to_owned)).expect("parsable");
    let result = run(&command).expect("schedule runs");
    assert!(result.success);
    fs::read_to_string(&out).expect("schedule written")
}

fn solve_request(id: u64, m: u32, k: u32) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(serde_json::from_str(APP).expect("app spec"));
    req.weakly_hard = Some(serde_json::from_str(&wh_json(m, k)).expect("wh spec"));
    req
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

    fn send(&mut self, req: &Request) -> Response {
        serde_json::from_str(&self.send_raw(req)).expect("response JSON")
    }

    /// Sends a request and returns the raw NDJSON response line (for
    /// schema fingerprinting of the wire format itself).
    fn send_raw(&mut self, req: &Request) -> String {
        let line = serde_json::to_string(req).expect("serialize");
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply
    }
}

/// The serve response body, rendered exactly as the CLI renders its
/// `--out` file.
fn response_bytes(resp: &Response) -> String {
    serde_json::to_string_pretty(resp.result.as_ref().expect("schedule in response"))
        .expect("serialize export")
}

#[test]
fn serve_responses_match_cli_schedule_bytes() {
    let _guard = SERIAL.lock().unwrap();
    let dir = TempDir::new("determinism");
    // Reference documents from the batch CLI.
    let cli_cold = cli_schedule_bytes(&dir, "cold", 10, 40);
    let cli_near = cli_schedule_bytes(&dir, "near", 11, 40);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || serve(listener, &ServeConfig::default()));
    let mut c = Client::connect(addr);

    // Cold solve: same bytes as the CLI.
    let cold = c.send(&solve_request(1, 10, 40));
    assert_eq!(cold.status, STATUS_OK, "{:?}", cold.reason);
    assert_eq!(cold.cached, Some(false));
    assert_eq!(cold.warm_started, Some(false));
    assert_eq!(response_bytes(&cold), cli_cold);

    // Repeat: answered from cache — identical bytes, and the search
    // engine is not consulted at all (solver.nodes delta is zero).
    let nodes_before = netdag_obs::global().counter(keys::SOLVER_NODES).get();
    let cached = c.send(&solve_request(2, 10, 40));
    let nodes_after = netdag_obs::global().counter(keys::SOLVER_NODES).get();
    assert_eq!(cached.status, STATUS_OK);
    assert_eq!(cached.cached, Some(true));
    assert_eq!(
        nodes_after - nodes_before,
        0,
        "a cache hit must expand zero solver nodes"
    );
    assert_eq!(response_bytes(&cached), cli_cold);

    // Near miss (same DAG, perturbed constraint): warm-started from the
    // cached bound, still byte-identical to a cold CLI run of the
    // perturbed problem.
    let near = c.send(&solve_request(3, 11, 40));
    assert_eq!(near.status, STATUS_OK, "{:?}", near.reason);
    assert_eq!(near.cached, Some(false));
    assert_eq!(near.warm_started, Some(true));
    assert_eq!(response_bytes(&near), cli_near);

    // The session above fixes every `cache_stats` field exactly: one
    // exact hit, one cold miss, one warm start, both complete solves
    // cached, nothing evicted, nothing queued or in flight.
    let stats = c.send(&Request::op("cache_stats"));
    assert_eq!(stats.status, STATUS_OK);
    let body = stats.cache.expect("cache stats body");
    assert_eq!(body.hits, 1);
    assert_eq!(body.misses, 1);
    assert_eq!(body.warm_starts, 1);
    assert_eq!(body.evictions, 0);
    assert_eq!(body.entries, 2);
    assert_eq!(body.capacity, 64);
    assert_eq!(body.queued, 0);
    assert_eq!(body.in_flight, 0);
    assert_eq!(body.mode_entries, 0);
    assert_eq!(body.restored, 0);
    // The default daemon is one shard, and its row carries the whole
    // aggregate.
    assert_eq!(body.shards.len(), 1);
    assert_eq!(body.shards[0].shard, 0);
    assert_eq!(body.shards[0].entries, 2);
    assert_eq!(body.shards[0].hits, 1);
    assert_eq!(body.shards[0].misses, 1);
    assert_eq!(body.shards[0].warm_starts, 1);
    assert_eq!(body.shards[0].restored, 0);

    let bye = c.send(&Request::op("shutdown"));
    assert_eq!(bye.status, STATUS_OK);
    server.join().expect("server thread").expect("serve exits");
}

/// `netdag validate` and the daemon's `validate` op give one verdict:
/// for a soft, a weakly hard and a combined contract on the pipeline
/// example, the CLI's text equals `validation.report` byte for byte and
/// its success equals `validation.passed`.
#[test]
fn serve_validate_report_matches_cli_validate_text() {
    let _guard = SERIAL.lock().unwrap();
    let dir = TempDir::new("validate");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/data");
    let app = data.join("pipeline_app.json");
    let soft = data.join("pipeline_soft.json");
    let wh = data.join("pipeline_weakly_hard.json");
    let read = |path: &Path| fs::read_to_string(path).expect("read example");
    let cli = |line: String| {
        let command = parse_args(line.split_whitespace().map(str::to_owned)).expect("parsable");
        run(&command).expect("command runs")
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || serve(listener, &ServeConfig::default()));
    let mut c = Client::connect(addr);

    let cases = [
        ("soft", Some(&soft), None, "eq15:1.0"),
        ("weakly-hard", None, Some(&wh), "eq13"),
        ("both", Some(&soft), Some(&wh), "eq15:1.0"),
    ];
    for (id, (tag, soft, wh, stat)) in (1..).zip(cases) {
        let schedule = dir.path(&format!("schedule-{tag}.json"));
        let (flag, spec) = match soft {
            Some(path) => ("--soft", path),
            None => ("--weakly-hard", wh.expect("a contract")),
        };
        let scheduled = cli(format!(
            "schedule --app {} {flag} {} --stat {stat} --out {}",
            app.display(),
            spec.display(),
            schedule.display()
        ));
        assert!(scheduled.success, "{tag}: {}", scheduled.text);
        let mut contract = String::new();
        if let Some(path) = soft {
            contract.push_str(&format!(" --soft {}", path.display()));
        }
        if let Some(path) = wh {
            contract.push_str(&format!(" --weakly-hard {}", path.display()));
        }
        let validated = cli(format!(
            "validate --app {} --schedule {}{contract} --stat {stat} \
             --kappa 4000 --trials 20 --seed 11",
            app.display(),
            schedule.display()
        ));

        let mut req = Request::op("validate");
        req.id = Some(id);
        req.app = Some(serde_json::from_str(&read(&app)).expect("app spec"));
        req.schedule = Some(serde_json::from_str(&read(&schedule)).expect("schedule"));
        req.soft = soft.map(|path| serde_json::from_str(&read(path)).expect("soft spec"));
        req.weakly_hard = wh.map(|path| serde_json::from_str(&read(path)).expect("wh spec"));
        req.stat = Some(StatSpec {
            kind: stat[..4].to_owned(),
            fss: stat
                .strip_prefix("eq15:")
                .map(|fss| fss.parse().expect("fss")),
        });
        req.kappa = Some(4000);
        req.trials = Some(20);
        req.seed = Some(11);
        let resp = c.send(&req);
        assert_eq!(resp.status, STATUS_OK, "{tag}: {:?}", resp.reason);
        let report = resp.validation.expect("validation body");
        assert!(report.report.contains(" → "), "{tag}: {}", report.report);
        assert_eq!(validated.text, report.report, "{tag}");
        assert_eq!(validated.success, report.passed, "{tag}");
    }

    let bye = c.send(&Request::op("shutdown"));
    assert_eq!(bye.status, STATUS_OK);
    server.join().expect("server thread").expect("serve exits");
}

/// The structural fingerprint of a response document: one `path: kind`
/// line per node, not descending into arrays (histogram bucket lists
/// and rolling entries vary with traffic; their presence and kind are
/// pinned, their contents asserted separately).
fn fingerprint(value: &Value, path: &str, out: &mut String) {
    out.push_str(path);
    out.push_str(": ");
    out.push_str(value.kind());
    out.push('\n');
    if let Value::Object(fields) = value {
        for (key, child) in fields {
            fingerprint(child, &format!("{path}/{key}"), out);
        }
    }
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected object, got {}", other.kind()),
    }
}

/// The live-telemetry probes: `metrics` answers with the embedded
/// `netdag-obs/1` snapshot plus rolling windows (schema pinned by a
/// golden file, contents read-only — two consecutive probes of an idle
/// daemon are byte-identical), `health` with liveness and pressure.
#[test]
fn serve_metrics_and_health_probes() {
    let _guard = SERIAL.lock().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || serve(listener, &ServeConfig::default()));
    let mut c = Client::connect(addr);

    // Put some traffic through so the windows and counters are live.
    let cold = c.send(&solve_request(1, 10, 40));
    assert_eq!(cold.status, STATUS_OK, "{:?}", cold.reason);
    let hit = c.send(&solve_request(2, 10, 40));
    assert_eq!(hit.cached, Some(true));

    let mut probe = Request::op("metrics");
    probe.id = Some(7);
    let first = c.send_raw(&probe);
    let second = c.send_raw(&probe);
    assert_eq!(
        first, second,
        "metrics is a pure read: consecutive probes of an idle daemon \
         must be byte-identical"
    );

    let doc = serde_json::from_str_value(&first).expect("metrics JSON");
    let body = get(&doc, "metrics");
    let obs = get(body, "obs");
    assert_eq!(
        get(obs, "schema"),
        &Value::String("netdag-obs/1".into()),
        "the embedded snapshot is the --metrics document"
    );
    let rolling = match get(body, "rolling") {
        Value::Array(entries) => entries,
        other => panic!("rolling must be an array, got {}", other.kind()),
    };
    let names: Vec<&Value> = rolling.iter().map(|e| get(e, "name")).collect();
    assert_eq!(
        names,
        [
            &Value::String("serve.latency_us".into()),
            &Value::String("serve.queue_wait_us".into()),
            &Value::String("serve.service_us".into()),
            &Value::String("serve.solver_nodes".into()),
        ]
    );
    for entry in rolling {
        assert_eq!(get(entry, "count").as_u64(), Some(2), "two handled solves");
    }

    // The full response shape is pinned by the golden file. Regenerate
    // with NETDAG_BLESS=1 after an intentional schema change.
    let mut got = String::new();
    fingerprint(&doc, "", &mut got);
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_metrics_schema.txt");
    if std::env::var_os("NETDAG_BLESS").is_some() {
        fs::write(&golden_path, &got).expect("bless golden file");
    } else {
        let want = fs::read_to_string(&golden_path).expect("golden file exists");
        assert_eq!(
            got, want,
            "metrics response schema drifted from \
             tests/golden/serve_metrics_schema.txt (rerun with \
             NETDAG_BLESS=1 to accept an intentional change)"
        );
    }

    // Health: alive, two worker threads up, cache holding the one
    // complete solve, nothing queued.
    let health = c.send(&Request::op("health"));
    assert_eq!(health.status, STATUS_OK);
    let h = health.health.expect("health body");
    assert_eq!(h.status, "ok");
    assert_eq!(h.shards, 1);
    assert_eq!(h.workers, 2);
    assert_eq!(h.workers_live, 2);
    assert_eq!(h.queue_depth, 0);
    assert_eq!(h.in_flight, 0);
    assert_eq!(h.cache_entries, 1);
    assert_eq!(h.cache_capacity, 64);
    // Read-only probes are excluded from request counting; the two
    // solves and nothing else have been counted.
    assert_eq!(h.uptime_requests, 2);

    let bye = c.send(&Request::op("shutdown"));
    assert_eq!(bye.status, STATUS_OK);
    server.join().expect("server thread").expect("serve exits");
}
