//! Sharding invariants, end to end over real TCP: the consistent-hash
//! ring is an implementation detail that must never show through the
//! wire.
//!
//! * **Byte-identical responses at any shard count** — the same
//!   sequential session answered by 1-, 2-, and 8-shard daemons yields
//!   byte-for-byte equal response lines, because routing by the
//!   *structural* fingerprint keeps every warm-start family on one
//!   shard regardless of the fleet size.
//! * **Shard-count-invariant aggregate `cache_stats`** — hits, misses,
//!   warm starts, entries, and evictions summed over the fleet equal
//!   the single-shard numbers for the same session.
//! * **`batch_solve` equals request-at-a-time** — each sub-response of
//!   a batch is byte-identical to the answer the same item gets when
//!   issued as a standalone `solve` against a fresh daemon.
//! * **Snapshots restore across shard counts** — a 4-shard daemon's
//!   snapshot warm-starts a 2-shard daemon: every previously solved
//!   problem and mode set answers as an exact cache hit with the
//!   identical document.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use netdag_core::modes::{ModeSpec, ModesSpec};
use netdag_core::spec::{AppSpec, EdgeSpec, TaskSpec, WeaklyHardEntry, WeaklyHardSpec};
use netdag_serve::protocol::{BatchItem, CacheStatsBody, Request, Response, STATUS_OK};
use netdag_serve::{serve, ServeConfig, ServeReport};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

    /// Sends a request and returns the raw response line — the bytes on
    /// the wire, which is what the shard-invariance property pins.
    fn send_raw(&mut self, req: &Request) -> String {
        let line = serde_json::to_string(req).expect("serialize");
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut out = String::new();
        self.reader.read_line(&mut out).expect("read");
        out
    }

    fn send(&mut self, req: &Request) -> Response {
        serde_json::from_str(&self.send_raw(req)).expect("response JSON")
    }
}

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

fn sharded(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        workers: 2,
        ..ServeConfig::default()
    }
}

/// A random DAG spec (edges low→high index, so any order is a DAG) with
/// a weakly hard constraint on the last task.
fn random_spec(rng: &mut ChaCha8Rng) -> (AppSpec, WeaklyHardSpec) {
    let n_tasks = rng.gen_range(2usize..5);
    let tasks: Vec<TaskSpec> = (0..n_tasks)
        .map(|i| TaskSpec {
            name: format!("t{i}"),
            node: rng.gen_range(0u32..3),
            wcet_us: rng.gen_range(100u64..1_500),
        })
        .collect();
    let mut edges = Vec::new();
    for from in 0..n_tasks - 1 {
        let width = rng.gen_range(1u32..24);
        for to in from + 1..n_tasks {
            if to == from + 1 || rng.gen_range(0u32..3) == 0 {
                edges.push(EdgeSpec {
                    from: format!("t{from}"),
                    to: format!("t{to}"),
                    width,
                });
            }
        }
    }
    let k = rng.gen_range(20u32..60);
    let wh = WeaklyHardSpec {
        constraints: vec![WeaklyHardEntry {
            task: format!("t{}", n_tasks - 1),
            m: rng.gen_range(1..k / 2),
            k,
        }],
    };
    (AppSpec { tasks, edges }, wh)
}

fn solve_request(id: u64, app: AppSpec, wh: WeaklyHardSpec) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(app);
    req.weakly_hard = Some(wh);
    req
}

/// A `mode_solve` of `app` with one weakly hard mode per named spec.
fn mode_request(id: u64, app: AppSpec, modes: &[(&str, WeaklyHardSpec)]) -> Request {
    let mut req = Request::op("mode_solve");
    req.id = Some(id);
    req.modes = Some(ModesSpec {
        app,
        shared_prefix_rounds: Some(1),
        modes: modes
            .iter()
            .map(|(name, wh)| ModeSpec {
                name: (*name).into(),
                tasks: None,
                soft: None,
                weakly_hard: Some(wh.clone()),
                loss: None,
            })
            .collect(),
    });
    req
}

/// A fixed session over two structural families plus a mode set:
/// cold, exact repeat, perturbed bound (warm), an independent second
/// family, a mode solve and its exact repeat.
fn session_requests(rng: &mut ChaCha8Rng) -> Vec<Request> {
    let (app_a, wh_a) = random_spec(rng);
    let (app_b, wh_b) = random_spec(rng);
    let mut wh_a2 = wh_a.clone();
    wh_a2.constraints[0].k += 1;
    let mode_req = mode_request(
        5,
        app_a.clone(),
        &[("a", wh_a.clone()), ("b", wh_a.clone())],
    );
    let mut mode_repeat = mode_req.clone();
    mode_repeat.id = Some(6);
    vec![
        solve_request(1, app_a.clone(), wh_a.clone()),
        solve_request(2, app_a.clone(), wh_a),
        solve_request(3, app_a, wh_a2),
        solve_request(4, app_b, wh_b),
        mode_req,
        mode_repeat,
    ]
}

/// Runs the session against a fresh daemon with the given shard count;
/// returns the raw response lines plus the closing aggregate stats.
fn run_session(shards: usize, requests: &[Request]) -> (Vec<String>, CacheStatsBody) {
    let (addr, report_rx) = start_server(sharded(shards));
    let mut c = Client::connect(addr);
    let lines: Vec<String> = requests.iter().map(|r| c.send_raw(r)).collect();
    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache stats body");
    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(60));
    (lines, body)
}

/// Strips the per-shard breakdown, leaving only the fields the
/// shard-invariance property pins (the rows legitimately differ — they
/// show where the ring placed the families).
fn aggregate_only(mut body: CacheStatsBody) -> CacheStatsBody {
    body.shards = Vec::new();
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism property: the same session is answered
    /// byte-identically by 1-, 2-, and 8-shard daemons, and the
    /// aggregate cache statistics agree exactly.
    #[test]
    fn responses_byte_identical_across_shard_counts(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let requests = session_requests(&mut rng);
        let (lines1, stats1) = run_session(1, &requests);
        let (lines2, stats2) = run_session(2, &requests);
        let (lines8, stats8) = run_session(8, &requests);
        prop_assert_eq!(&lines1, &lines2, "1 vs 2 shards");
        prop_assert_eq!(&lines1, &lines8, "1 vs 8 shards");
        prop_assert_eq!(
            aggregate_only(stats1.clone()),
            aggregate_only(stats2),
            "aggregate stats, 1 vs 2 shards"
        );
        prop_assert_eq!(
            aggregate_only(stats1.clone()),
            aggregate_only(stats8),
            "aggregate stats, 1 vs 8 shards"
        );
        // When the first family is feasible the session pins one exact
        // hit (request 2) and one warm start (request 3), and a solved
        // mode set one more exact hit (request 6); an infeasible draw
        // still must agree byte-for-byte above, it just caches nothing.
        let first: Response = serde_json::from_str(&lines1[0]).expect("response");
        let mode: Response = serde_json::from_str(&lines1[4]).expect("response");
        let mode_hits = u64::from(mode.status == STATUS_OK);
        if first.status == STATUS_OK && first.complete == Some(true) {
            prop_assert_eq!(stats1.hits, 1 + mode_hits);
            prop_assert_eq!(stats1.warm_starts, 1);
        }
        if mode.status == STATUS_OK {
            prop_assert_eq!(stats1.mode_entries, 1);
        }
    }
}

/// `batch_solve` answers each item exactly as a standalone `solve`
/// would, in request order, including intra-batch cache interplay: a
/// duplicated item is an exact hit against its sibling solved earlier
/// in the same batch.
#[test]
fn batch_solve_matches_request_at_a_time() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let (app_a, wh_a) = random_spec(&mut rng);
    let (app_b, wh_b) = random_spec(&mut rng);
    let mut wh_a2 = wh_a.clone();
    wh_a2.constraints[0].k += 1;
    let items = [
        (app_a.clone(), wh_a.clone()),
        (app_a.clone(), wh_a.clone()), // exact duplicate: in-batch hit
        (app_a, wh_a2),                // perturbed bound: in-batch warm
        (app_b, wh_b),
    ];

    // Reference run: the same items as sequential solves (same id as
    // the batch envelope, so the responses compare byte-for-byte).
    let (addr, report_rx) = start_server(sharded(4));
    let mut c = Client::connect(addr);
    let reference: Vec<String> = items
        .iter()
        .map(|(app, wh)| c.send_raw(&solve_request(42, app.clone(), wh.clone())))
        .collect();
    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(60));

    // Batch run on a fresh daemon.
    let (addr, report_rx) = start_server(sharded(4));
    let mut c = Client::connect(addr);
    let mut batch = Request::op("batch_solve");
    batch.id = Some(42);
    batch.batch = Some(
        items
            .iter()
            .map(|(app, wh)| BatchItem {
                app: Some(app.clone()),
                soft: None,
                weakly_hard: Some(wh.clone()),
                stat: None,
            })
            .collect(),
    );
    let envelope = c.send(&batch);
    assert_eq!(envelope.status, STATUS_OK, "{:?}", envelope.reason);
    let subs = envelope.batch.expect("batch responses");
    assert_eq!(subs.len(), items.len());
    for (i, (sub, want)) in subs.iter().zip(&reference).enumerate() {
        let sub_line = serde_json::to_string(sub).expect("serialize sub");
        assert_eq!(
            format!("{sub_line}\n"),
            *want,
            "batch item {i} differs from its standalone solve"
        );
    }
    // The in-batch duplicate hit and warm start landed in the stats.
    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache stats body");
    assert_eq!(body.hits, 1);
    assert_eq!(body.warm_starts, 1);
    assert_eq!(body.misses, 2);

    // Structured errors stay structured: a missing batch array and a
    // mid-batch item without an app are answered inline.
    let no_array = c.send(&Request::op("batch_solve"));
    assert_eq!(no_array.status, "error");
    let mut holed = Request::op("batch_solve");
    holed.batch = Some(vec![BatchItem {
        app: None,
        soft: None,
        weakly_hard: None,
        stat: None,
    }]);
    let holed_resp = c.send(&holed);
    assert_eq!(holed_resp.status, STATUS_OK);
    assert_eq!(holed_resp.batch.expect("items")[0].status, "error");

    c.send(&Request::op("shutdown"));
    let _ = report_rx.recv_timeout(Duration::from_secs(60));
}

/// A 4-shard daemon's graceful-drain snapshot restores into a 2-shard
/// daemon: every entry is re-routed through the smaller ring, the
/// restored count is reported, and each previously solved problem (and
/// the mode set) answers as an exact cache hit with the identical
/// document.
#[test]
fn snapshot_restores_across_shard_counts() {
    let snap_path =
        std::env::temp_dir().join(format!("netdag_shard_snapshot_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut problems = Vec::new();
    while problems.len() < 4 {
        problems.push(random_spec(&mut rng));
    }

    // First life: 4 shards, solve everything, drain.
    let cfg_a = ServeConfig {
        cache_snapshot: Some(snap_path.clone()),
        ..sharded(4)
    };
    let (addr, report_rx) = start_server(cfg_a);
    let mut c = Client::connect(addr);
    let mut first: Vec<Response> = Vec::new();
    for (i, (app, wh)) in problems.iter().enumerate() {
        first.push(c.send(&solve_request(i as u64, app.clone(), wh.clone())));
    }
    let (mode_app, mode_wh) = problems[0].clone();
    let mode_req = mode_request(9, mode_app, &[("a", mode_wh.clone()), ("b", mode_wh)]);
    let mode_first = c.send(&mode_req);
    assert_eq!(mode_first.status, STATUS_OK, "{:?}", mode_first.reason);
    c.send(&Request::op("shutdown"));
    let report_a = report_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("first daemon exits");
    assert_eq!(report_a.restored, 0);

    // The snapshot is a well-formed, schema-tagged document.
    let text = std::fs::read_to_string(&snap_path).expect("snapshot written on drain");
    let snap: netdag_serve::CacheSnapshot = serde_json::from_str(&text).expect("snapshot parses");
    assert_eq!(snap.schema, netdag_serve::SNAPSHOT_SCHEMA);
    // Every complete solve plus the mode answer.
    let solved = first
        .iter()
        .filter(|r| r.status == STATUS_OK && r.complete == Some(true))
        .count()
        + 1;
    assert_eq!(snap.entries.len(), solved);

    // Second life: 2 shards, same snapshot. Every solved problem is an
    // exact hit with the identical document and zero new solver work.
    let cfg_b = ServeConfig {
        cache_snapshot: Some(snap_path.clone()),
        ..sharded(2)
    };
    let (addr, report_rx) = start_server(cfg_b);
    let mut c = Client::connect(addr);
    let stats = c.send(&Request::op("cache_stats"));
    let body = stats.cache.expect("cache stats body");
    assert_eq!(body.restored, solved as u64);
    assert_eq!(body.entries, solved as u64);
    for (i, (app, wh)) in problems.iter().enumerate() {
        let again = c.send(&solve_request(i as u64, app.clone(), wh.clone()));
        assert_eq!(again.status, first[i].status);
        if first[i].complete == Some(true) {
            assert_eq!(again.cached, Some(true), "problem {i} must hit the cache");
            assert_eq!(
                again.result, first[i].result,
                "problem {i} document drifted"
            );
            assert_eq!(again.fingerprint, first[i].fingerprint);
        }
    }
    let mode_again = c.send(&mode_req);
    assert_eq!(
        mode_again.cached,
        Some(true),
        "the mode set must hit the cache"
    );
    let mut expected = mode_first;
    expected.cached = Some(true);
    assert_eq!(
        serde_json::to_string(&mode_again).expect("serialize"),
        serde_json::to_string(&expected).expect("serialize"),
        "mode answer drifted"
    );
    c.send(&Request::op("shutdown"));
    let report_b = report_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("second daemon exits");
    assert_eq!(report_b.restored, solved as u64);
    assert_eq!(report_b.cache_hits, solved as u64);
    let _ = std::fs::remove_file(&snap_path);
}

/// A present-but-stale snapshot refuses the start instead of silently
/// serving cold; that includes a `/1` document, whose mode answers
/// lived in a separate `mode_entries` list.
#[test]
fn stale_snapshot_refuses_start() {
    let snap_path =
        std::env::temp_dir().join(format!("netdag_stale_snapshot_{}.json", std::process::id()));
    for stale in [
        r#"{"schema":"netdag-cache-snapshot/0","entries":[],"mode_entries":[]}"#,
        r#"{"schema":"netdag-cache-snapshot/1","entries":[],"mode_entries":[{"key":1,"export":{"modes":[],"shared_prefix_rounds":1,"optimal":true}}]}"#,
    ] {
        std::fs::write(&snap_path, stale).expect("write stale snapshot");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cfg = ServeConfig {
            cache_snapshot: Some(snap_path.clone()),
            ..ServeConfig::default()
        };
        let err = serve(listener, &cfg).expect_err("stale schema must refuse start");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{stale}");
    }
    let _ = std::fs::remove_file(&snap_path);
}
