//! The three timed workloads, each a closed loop over loopback TCP
//! against a freshly started in-process daemon.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use netdag_scenario::{run_soak, soak_serve_config, SoakConfig, SoakReport, Violation};
use netdag_serve::protocol::Response;
use netdag_serve::{CacheStatsBody, ServeConfig};

use crate::daemon::{
    cache_stats, check_answer, corpus_request, micros, obs_counter, secs, Daemon, LineClient,
};
use crate::stats::{Digest, OpLog, OpSummary, Samples};

/// Problems in the `cached-hot` pool (well under the per-shard cache).
pub const POOL: usize = 32;
/// Cache capacity per shard of the `cached-hot` / `cold-solve` daemon.
pub const CACHE_CAPACITY: usize = 64;
/// Operations of `cold-solve` folded into its digest.
pub const DIGEST_OPS: u64 = 200;
/// Exchanges kept for the traced replay: the first this many of the
/// timed window (each holds its request and reply text, so a whole
/// run's would take hundreds of megabytes).
pub const CAPTURE_CAP: usize = 4_000;
/// Soak scenarios per `run_soak` call: one batch-revisit group.
pub const SOAK_CHUNK: u64 = 8;
/// Soak chunks folded into its digest.
pub const DIGEST_CHUNKS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CachedHot,
    ColdSolve,
    Soak,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cached-hot" => Some(Workload::CachedHot),
            "cold-solve" => Some(Workload::ColdSolve),
            "soak" => Some(Workload::Soak),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CachedHot => "cached-hot",
            Workload::ColdSolve => "cold-solve",
            Workload::Soak => "soak",
        }
    }

    /// The fixed tail percentile of `latency_tail_us`: the highest of
    /// p99/p95/p90 that leaves ten samples beyond it at the run length.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::CachedHot | Workload::ColdSolve => 99.0,
            Workload::Soak => 90.0,
        }
    }

    /// Operations per second the op log is sized for up front (it grows
    /// past that if a machine is faster).
    fn peak_rate(self) -> usize {
        match self {
            Workload::CachedHot => 40_000,
            Workload::ColdSolve => 5_000,
            Workload::Soak => 50,
        }
    }

    /// The run reports throughput and tail as medians over this many
    /// equal slices of the timed window, so a noisy stretch of a shared
    /// machine does not set the run's figure. Soak scenarios differ too
    /// much in cost, and are too few, for a slice to stand for the run.
    pub fn slices(self) -> usize {
        match self {
            Workload::CachedHot | Workload::ColdSolve => 10,
            Workload::Soak => 1,
        }
    }

    /// Connections the load generator opens.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::CachedHot => nproc,
            Workload::ColdSolve | Workload::Soak => 1,
        }
    }

    /// The daemon configuration: at most `nproc` workers in total.
    pub fn serve_config(self, nproc: usize, access_log: Option<PathBuf>) -> ServeConfig {
        match self {
            Workload::Soak => soak_serve_config(nproc.min(2), 1, access_log),
            _ => ServeConfig {
                shards: 1,
                workers: nproc,
                cache_capacity: CACHE_CAPACITY,
                access_log,
                ..ServeConfig::default()
            },
        }
    }
}

/// One request line sent over TCP, its reply line and the client's
/// round-trip time, kept for the traced replay.
pub struct Exchange {
    pub line: String,
    pub reply: String,
    pub rtt_us: f64,
}

/// What one timed run measured.
#[derive(Default)]
pub struct Run {
    /// Set-up time of each set-up made in this run, seconds.
    pub setups_s: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Each operation's completion time and client-side latency.
    pub ops: OpLog,
    pub digest: Digest,
    /// Operations whose response bytes are folded into `digest`.
    pub digest_ops: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Request/reply exchanges of the timed window (traced runs only).
    pub exchanges: Vec<Exchange>,
    /// `cache_stats` deltas over the timed window: exact hits, warm
    /// starts and all lookups.
    pub cache_hits: u64,
    pub cache_warm: u64,
    pub cache_lookups: u64,
}

impl Run {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    pub fn new(w: Workload, o: &RunOpts) -> Run {
        Run {
            ops: OpLog::with_capacity((o.seconds.ceil() as usize).saturating_mul(w.peak_rate())),
            ..Run::default()
        }
    }

    pub fn record(&mut self, done_s: f64, latency_us: f64) {
        self.ops.push(done_s, latency_us);
    }

    /// The run's throughput, tail and median: see [`Workload::slices`].
    pub fn summary(&mut self, w: Workload) -> OpSummary {
        self.ops
            .summarize(self.elapsed_s, w.slices(), w.tail_percentile())
    }

    /// Opens the timed window on `client`: `cache_stats` first (it counts
    /// as a request), then the read-only `metrics` counters.
    fn open_window(&mut self, client: &mut LineClient) -> io::Result<Window> {
        let cache = cache_stats(client)?;
        Ok(Window {
            requests: obs_counter(client, "serve.requests")?,
            hits: obs_counter(client, "serve.cache_hits")?,
            cache,
        })
    }

    /// Closes the window in the reverse order and checks the daemon's
    /// own counts against the client's: every request was counted, and
    /// exactly `want_hits` were answered from cache.
    fn close_window(
        &mut self,
        client: &mut LineClient,
        w: Window,
        want_hits: u64,
    ) -> io::Result<()> {
        let requests = obs_counter(client, "serve.requests")? - w.requests;
        let hits = obs_counter(client, "serve.cache_hits")? - w.hits;
        let cache = cache_stats(client)?;
        self.cache_hits = cache.hits - w.cache.hits;
        self.cache_warm = cache.warm_starts - w.cache.warm_starts;
        self.cache_lookups = self.cache_hits + self.cache_warm + cache.misses - w.cache.misses;
        self.expect_delta("requests", requests, self.attempted);
        self.expect_delta("cache hits", hits, want_hits);
        Ok(())
    }

    /// Checks a daemon-side counter delta over the timed window against
    /// the client's own count.
    fn expect_delta(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.failed += got.abs_diff(want);
            self.failures.push(format!(
                "daemon counted {got} {what}, client expected {want}"
            ));
        }
    }
}

/// Daemon counters at the start of a timed window.
struct Window {
    requests: u64,
    hits: u64,
    cache: CacheStatsBody,
}

/// Options shared by every workload run.
pub struct RunOpts {
    pub seed: u64,
    pub start_index: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Set-ups to make; the last one carries the timed load.
    pub setups: usize,
    pub access_log: Option<PathBuf>,
    /// Keep exchanges (up to [`CAPTURE_CAP`]) for the traced replay.
    pub capture: bool,
}

pub fn run(w: Workload, o: &RunOpts) -> io::Result<Run> {
    match w {
        Workload::CachedHot => cached_hot(o),
        Workload::ColdSolve => cold_solve(o),
        Workload::Soak => soak(o),
    }
}

/// Starts `setups` daemons in turn, timing each from spawn to ready,
/// and keeps the last one running.
fn set_up<T>(
    o: &RunOpts,
    run: &mut Run,
    mut make: impl FnMut() -> io::Result<T>,
    stop: impl Fn(T) -> io::Result<()>,
) -> io::Result<T> {
    let mut kept = None;
    for _ in 0..o.setups.max(1) {
        if let Some(prev) = kept.take() {
            stop(prev)?;
        }
        let t = Instant::now();
        kept = Some(make()?);
        run.setups_s.push(secs(t));
    }
    Ok(kept.expect("at least one set-up"))
}

/// The `cached-hot` pool: feasible corpus problems and the byte-exact
/// cached answer each must keep returning.
struct Pool {
    lines: Vec<String>,
    answers: Vec<String>,
}

/// Solves corpus problems until `POOL` of them are answered `ok`, then
/// asks each once more and keeps that cached answer as its reference.
fn fill_pool(client: &mut LineClient, o: &RunOpts) -> io::Result<Pool> {
    let mut lines = Vec::new();
    let mut index = o.start_index;
    while lines.len() < POOL {
        if index - o.start_index > 50 * POOL as u64 {
            return Err(io::Error::other("corpus yields too few feasible problems"));
        }
        let req = corpus_request(o.seed, index);
        index += 1;
        let line = serde_json::to_string(&req).map_err(io::Error::other)?;
        let resp: Response =
            serde_json::from_str(&client.send_line(&line)?).map_err(io::Error::other)?;
        match check_answer(&req, &resp) {
            Ok(true) => lines.push(line),
            Ok(false) => {}
            Err(e) => return Err(io::Error::other(format!("pool solve {index}: {e}"))),
        }
    }
    let mut answers = Vec::with_capacity(POOL);
    for line in &lines {
        let reply = client.send_line(line)?;
        let resp: Response = serde_json::from_str(&reply).map_err(io::Error::other)?;
        if resp.status != "ok" || resp.cached != Some(true) {
            return Err(io::Error::other(format!(
                "pool repeat not a cache hit: {reply}"
            )));
        }
        answers.push(reply);
    }
    Ok(Pool { lines, answers })
}

fn cached_hot(o: &RunOpts) -> io::Result<Run> {
    let mut run = Run::new(Workload::CachedHot, o);
    let conns = Workload::CachedHot.connections(o.nproc);
    let cfg = Workload::CachedHot.serve_config(o.nproc, o.access_log.clone());
    let (mut daemon, pool) = set_up(
        o,
        &mut run,
        || {
            let mut d = Daemon::start(cfg.clone(), conns)?;
            let pool = fill_pool(&mut d.clients[0], o)?;
            Ok((d, pool))
        },
        |(d, _)| d.stop().map(drop),
    )?;
    for a in &pool.answers {
        run.digest.fold(a.as_bytes());
    }
    run.digest_ops = POOL as u64;

    let window = run.open_window(&mut daemon.clients[0])?;
    let log = Mutex::new(std::mem::take(&mut run.ops));
    let start = Instant::now();
    // Per connection: requests sent, mismatching answers, and the first
    // (pool index, round trip µs) pairs kept for the traced replay.
    type Tally = (u64, u64, Vec<(usize, f64)>);
    let per_conn: Vec<io::Result<Tally>> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let (pool, log) = (&pool, &log);
                s.spawn(move || -> io::Result<Tally> {
                    let (mut sent, mut mismatches, mut kept) = (0, 0, Vec::new());
                    let mut i = t * POOL / conns;
                    while secs(start) < o.seconds {
                        let t0 = Instant::now();
                        let reply = client.send_line(&pool.lines[i])?;
                        let rtt = micros(t0);
                        log.lock().expect("op log lock").push(secs(start), rtt);
                        sent += 1;
                        if reply != pool.answers[i] {
                            mismatches += 1;
                        }
                        if o.capture && kept.len() < CAPTURE_CAP / conns {
                            kept.push((i, rtt));
                        }
                        i = (i + 1) % POOL;
                    }
                    Ok((sent, mismatches, kept))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    run.elapsed_s = secs(start);
    run.ops = log.into_inner().expect("op log lock");
    for r in per_conn {
        let (sent, mismatches, kept) = r?;
        run.attempted += sent;
        for _ in 0..mismatches {
            run.fail("cached answer differs from its set-up answer".to_owned());
        }
        for (i, rtt) in kept {
            run.exchanges.push(Exchange {
                line: pool.lines[i].clone(),
                reply: pool.answers[i].clone(),
                rtt_us: rtt,
            });
        }
    }
    let all_hits = run.attempted;
    run.close_window(&mut daemon.clients[0], window, all_hits)?;
    daemon.stop()?;
    Ok(run)
}

fn cold_solve(o: &RunOpts) -> io::Result<Run> {
    let mut run = Run::new(Workload::ColdSolve, o);
    let cfg = Workload::ColdSolve.serve_config(o.nproc, o.access_log.clone());
    let mut daemon = set_up(
        o,
        &mut run,
        || Daemon::start(cfg.clone(), 1),
        |d| d.stop().map(drop),
    )?;
    let client = &mut daemon.clients[0];
    let window = run.open_window(client)?;
    let start = Instant::now();
    let mut index = o.start_index;
    while secs(start) < o.seconds {
        let req = corpus_request(o.seed, index);
        index += 1;
        let line = serde_json::to_string(&req).map_err(io::Error::other)?;
        let t0 = Instant::now();
        let reply = client.send_line(&line)?;
        let rtt = micros(t0);
        run.attempted += 1;
        run.record(secs(start), rtt);
        if run.digest_ops < DIGEST_OPS {
            run.digest.fold(reply.as_bytes());
            run.digest_ops += 1;
        }
        match serde_json::from_str::<Response>(&reply) {
            Ok(resp) => match check_answer(&req, &resp) {
                Ok(_) if resp.cached == Some(true) => {
                    run.fail(format!("request {} hit the cache", index - 1));
                }
                Ok(_) => {}
                Err(e) => run.fail(format!("request {}: {e}", index - 1)),
            },
            Err(e) => run.fail(format!("request {}: undecodable answer: {e}", index - 1)),
        }
        if o.capture && run.exchanges.len() < CAPTURE_CAP {
            run.exchanges.push(Exchange {
                line,
                reply,
                rtt_us: rtt,
            });
        }
    }
    run.elapsed_s = secs(start);
    run.close_window(client, window, 0)?;
    daemon.stop()?;
    Ok(run)
}

/// What the soak proxy saw: when each admission solve passed through,
/// and the digest of the reply bytes while folding is on.
#[derive(Default)]
struct ProxyLog {
    admissions: Vec<(u64, Instant)>,
    digest: Digest,
    folding: bool,
}

/// The scenario index of a soak admission solve line (`id = index × 8`).
pub fn admission_index(line: &str) -> Option<u64> {
    let id = request_id(line.strip_prefix(r#"{"op":"solve","#)?)?;
    (id.is_multiple_of(8) && id < 1 << 62).then_some(id / 8)
}

/// The `"id"` of a request line, read without parsing the line.
pub fn request_id(line: &str) -> Option<u64> {
    let rest = line.split_once(r#""id":"#)?.1;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A line relay between `run_soak`'s connections and one persistent
/// daemon connection. It stamps each scenario's admission request, so
/// the soak is timed per scenario from outside, and the daemon sees the
/// single sequential connection the soak driver would give it.
fn relay(
    listener: &TcpListener,
    upstream: &mut LineClient,
    stop: &AtomicBool,
    log: &Mutex<ProxyLog>,
) -> io::Result<()> {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let stream = stream?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut line = String::new();
        while reader.read_line(&mut line)? > 0 {
            let req = line.trim_end();
            let at = Instant::now();
            let reply = upstream.send_line(req)?;
            {
                let mut log = log.lock().expect("proxy log lock");
                if let Some(index) = admission_index(req) {
                    log.admissions.push((index, at));
                }
                if log.folding {
                    log.digest.fold(reply.as_bytes());
                }
            }
            writer.write_all(reply.as_bytes())?;
            writer.flush()?;
            line.clear();
        }
    }
    Ok(())
}

fn soak(o: &RunOpts) -> io::Result<Run> {
    let mut run = Run::new(Workload::Soak, o);
    let cfg = Workload::Soak.serve_config(o.nproc, o.access_log.clone());
    let mut daemon = set_up(
        o,
        &mut run,
        || Daemon::start(cfg.clone(), 1),
        |d| d.stop().map(drop),
    )?;
    let mut upstream = daemon.clients.pop().expect("one connection");
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let proxy_addr = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let log = Mutex::new(ProxyLog {
        folding: true,
        ..ProxyLog::default()
    });
    let mut total = SoakTally::default();
    let driven = std::thread::scope(|s| {
        let proxy = s.spawn(|| relay(&listener, &mut upstream, &stop, &log));
        let driven = drive_soak(o, proxy_addr, &log, &mut run, &mut total);
        stop.store(true, Ordering::SeqCst);
        // Wake the relay's blocking accept so it sees the stop flag.
        let _ = TcpStream::connect(proxy_addr);
        let relayed = proxy.join().expect("proxy thread");
        driven.and(relayed)
    });
    driven?;
    drop(upstream);
    // One failure per scenario with at least one violation.
    let mut failing: Vec<u64> = total.violations.iter().map(|v| v.index).collect();
    failing.sort_unstable();
    failing.dedup();
    run.failed += failing.len() as u64;
    run.failures
        .extend(total.violations.iter().take(10).map(|v| v.to_string()));
    if total.revisit_hits != total.revisits {
        run.fail(format!(
            "revisit hits {} of {} revisits",
            total.revisit_hits, total.revisits
        ));
    }
    daemon.stop()?;
    Ok(run)
}

/// The soak outcomes summed over every chunk of a run.
#[derive(Default)]
struct SoakTally {
    violations: Vec<Violation>,
    revisits: u64,
    revisit_hits: u64,
}

impl SoakTally {
    fn merge(&mut self, r: &SoakReport) {
        self.violations.extend(r.violations.iter().cloned());
        self.revisits += r.revisits;
        self.revisit_hits += r.revisit_hits;
    }
}

/// Streams soak chunks through the relay until the run length is up.
fn drive_soak(
    o: &RunOpts,
    proxy: SocketAddr,
    log: &Mutex<ProxyLog>,
    run: &mut Run,
    total: &mut SoakTally,
) -> io::Result<()> {
    let start = Instant::now();
    let mut index = o.start_index;
    let mut chunks = 0;
    while secs(start) < o.seconds {
        let cfg = SoakConfig {
            master_seed: o.seed,
            start_index: index,
            scenarios: SOAK_CHUNK,
            ..SoakConfig::default()
        };
        let began = Instant::now();
        let report = run_soak(proxy, &cfg)?;
        let ended = Instant::now();
        chunks += 1;
        let mut log = log.lock().expect("proxy log lock");
        if chunks == DIGEST_CHUNKS {
            log.folding = false;
            run.digest = log.digest;
            run.digest_ops = DIGEST_CHUNKS * SOAK_CHUNK;
        }
        // Scenario i runs from its admission request to the next one's;
        // the chunk's first starts with the call, its last ends with it.
        let mut bounds = vec![began];
        for i in index + 1..index + SOAK_CHUNK {
            match log.admissions.iter().find(|&&(k, _)| k == i) {
                Some(&(_, at)) => bounds.push(at),
                None => return Err(io::Error::other(format!("scenario {i} sent no admission"))),
            }
        }
        bounds.push(ended);
        log.admissions.clear();
        for w in bounds.windows(2) {
            run.record(
                (w[1] - start).as_secs_f64(),
                (w[1] - w[0]).as_secs_f64() * 1e6,
            );
        }
        run.attempted += report.scenarios;
        total.merge(&report);
        index += SOAK_CHUNK;
    }
    run.elapsed_s = secs(start);
    Ok(())
}
