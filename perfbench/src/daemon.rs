//! The in-process daemon, the corpus requests sent to it, and the
//! checks every answer must pass.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netdag_scenario::{generate, ConstraintSet, Scenario, ScenarioParams};
use netdag_serve::protocol::{
    ConfigSpec, Request, Response, StatSpec, STATUS_INFEASIBLE, STATUS_OK,
};
use netdag_serve::{serve, ServeConfig, ServeReport};

/// `χ` bound and node budget of every solve: the soak's solve config.
pub const CHI_MAX: u32 = 6;
pub const NODE_LIMIT: u64 = 400_000;

/// The load generator's connection: one `write` per request line.
///
/// `netdag_serve::Client::send_line` writes the line and its newline
/// separately; on loopback the second small write then waits for the
/// daemon's delayed ACK (about 40 ms), which would swamp every cached
/// answer. The soak workload still drives `run_soak`, and so that
/// client, unchanged.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Sends one line (no trailing newline) and returns the reply line,
    /// newline included.
    pub fn send_line(&mut self, line: &str) -> io::Result<String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(reply)
    }

    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        let line = serde_json::to_string(req).map_err(io::Error::other)?;
        serde_json::from_str(&self.send_line(&line)?).map_err(io::Error::other)
    }
}

/// A daemon serving on a loopback port, with its warmed-up connections.
pub struct Daemon {
    pub clients: Vec<LineClient>,
    pub addr: SocketAddr,
    handle: JoinHandle<io::Result<ServeReport>>,
}

impl Daemon {
    /// Binds, opens `conns` connections, starts the daemon and finishes
    /// one untimed round trip per connection.
    ///
    /// The connections are opened before the daemon thread starts, so
    /// the acceptor finds every handshake already queued on its first
    /// poll and no connection waits out the accept loop's sleep.
    pub fn start(cfg: ServeConfig, conns: usize) -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut clients = (0..conns)
            .map(|_| LineClient::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        let handle = std::thread::spawn(move || serve(listener, &cfg));
        for c in &mut clients {
            let reply = c.send_line(r#"{"op":"health"}"#)?;
            if !reply.contains(r#""status":"ok""#) {
                return Err(io::Error::other(format!("warm-up answered {reply}")));
            }
        }
        Ok(Daemon {
            clients,
            addr,
            handle,
        })
    }

    /// Sends `shutdown`, closes every connection and joins the daemon.
    pub fn stop(mut self) -> io::Result<ServeReport> {
        if self.clients.is_empty() {
            self.clients.push(LineClient::connect(self.addr)?);
        }
        self.clients[0].send_line(r#"{"op":"shutdown"}"#)?;
        self.clients.clear();
        self.handle
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds elapsed since `t`.
pub fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

pub fn solve_config() -> ConfigSpec {
    ConfigSpec {
        chi_max: Some(CHI_MAX),
        node_limit: Some(NODE_LIMIT),
        ..ConfigSpec::default()
    }
}

/// Copies the scenario's contract (or its degraded variant) into a
/// request, as the soak driver does.
pub fn attach_constraints(req: &mut Request, sc: &Scenario, degraded: bool) {
    match &sc.constraints {
        ConstraintSet::WeaklyHard { spec, degraded: d } => {
            req.weakly_hard = Some(if degraded { d.clone() } else { spec.clone() });
        }
        ConstraintSet::Soft {
            spec,
            fss,
            degraded: d,
        } => {
            req.soft = Some(if degraded { d.clone() } else { spec.clone() });
            req.stat = Some(StatSpec {
                kind: "eq15".to_owned(),
                fss: Some(*fss),
            });
        }
    }
}

pub fn solve_request(sc: &Scenario, id: u64, degraded: bool) -> Request {
    let mut req = Request::op("solve");
    req.id = Some(id);
    req.app = Some(sc.app.clone());
    attach_constraints(&mut req, sc, degraded);
    req.config = Some(solve_config());
    req
}

/// The `solve` request of corpus scenario `index`; the id is the index.
///
/// The corpus carries no `mode_solve` share: joining a scenario's two
/// contracts as modes gives a few joint solves per corpus run that take
/// hundreds of milliseconds, and their number swung throughput, tail
/// and set-up time from one seed to the next.
pub fn corpus_request(seed: u64, index: u64) -> Request {
    let sc = generate(seed, index, &ScenarioParams::default());
    solve_request(&sc, index, false)
}

/// Checks one `solve` answer: the status is `ok` or `infeasible`, and
/// an `ok` schedule meets the feasibility conditions and re-derives
/// its makespan and bus time. `Ok(true)` means solved.
pub fn check_answer(req: &Request, resp: &Response) -> Result<bool, String> {
    match resp.status.as_str() {
        STATUS_INFEASIBLE => Ok(false),
        STATUS_OK => {
            let spec = req.app.as_ref().ok_or("solve without app")?;
            let export = resp.result.as_ref().ok_or("ok without result")?;
            let (app, _) = spec
                .build()
                .map_err(|e| format!("spec failed to build: {e}"))?;
            let sched = &export.schedule;
            sched
                .check_feasible(&app)
                .map_err(|e| format!("infeasible schedule: {e}"))?;
            if sched.makespan(&app) != export.makespan_us {
                return Err(format!(
                    "makespan drift: {} vs reported {}",
                    sched.makespan(&app),
                    export.makespan_us
                ));
            }
            if sched.total_communication_us() != export.bus_us {
                return Err("bus-time drift".to_owned());
            }
            Ok(true)
        }
        other => Err(format!(
            "answered {other:?} ({})",
            resp.reason.as_deref().unwrap_or("no reason")
        )),
    }
}

/// Reads one counter of the daemon's `metrics` snapshot (read-only
/// probe; it does not count as a request).
pub fn obs_counter(client: &mut LineClient, key: &str) -> io::Result<u64> {
    let resp = client.send(&Request::op("metrics"))?;
    let body = resp
        .metrics
        .ok_or_else(|| io::Error::other("metrics without body"))?;
    Ok(field(&body.obs, "counters")
        .and_then(|c| field(c, key))
        .and_then(serde::Value::as_u64)
        .unwrap_or(0))
}

/// The `cache_stats` body of the daemon.
pub fn cache_stats(client: &mut LineClient) -> io::Result<netdag_serve::CacheStatsBody> {
    client
        .send(&Request::op("cache_stats"))?
        .cache
        .ok_or_else(|| io::Error::other("cache_stats without body"))
}

pub fn field<'a>(value: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    match value {
        serde::Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}
