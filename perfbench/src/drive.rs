//! The load generator: runs `serve::Server` in process and drives it with
//! `serve::Client` connections, one thread each, in closed-loop,
//! open-loop and write-only phases.
//!
//! The open loop is paced by due times: request `k` of connection `c` is
//! due at `start + (k·conns + c) / rate`, is sent at its due time or as
//! soon after as the connection is free, and its latency runs from the due
//! time. A stall therefore shows in the latency of every request it
//! delays, and how late the generator sent is reported separately.

use crate::inputs::Op;
use graph_core::Graph;
use serve::protocol::ResponseBody;
use serve::{Client, ServeConfig, ServeReport, Server};
use std::collections::HashMap;
use std::io;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use treepi::Engine;

/// Probes sent after a write before it counts as never visible.
const MAX_PROBES: usize = 1000;

/// What one connection saw during one phase.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Scripted requests sent plus probe queries.
    pub attempted: usize,
    /// Busy, error and transport failures, and writes that never became
    /// visible. Wrong answers are counted after the run, against the
    /// oracle.
    pub failed: usize,
    /// Latency of each answered scripted request, in ms (from the due
    /// time in the open loop, from the send in the others), with the
    /// query index of a read (`None` for a write).
    pub latency_ms: Vec<(Option<u32>, f64)>,
    /// How late each scripted request was sent, in ms (open loop only).
    pub late_ms: Vec<f64>,
    /// Every query answer: query index, whether it answered a scripted
    /// read (not a probe), and the ids.
    pub answers: Vec<(u32, bool, Vec<u32>)>,
    /// Time from sending each insert until a probe reflected it, in ms.
    pub insert_visible_ms: Vec<f64>,
    /// Time from sending each remove until a probe reflected it, in ms.
    pub remove_visible_ms: Vec<f64>,
}

impl ConnLog {
    /// Fold another log into this one.
    pub fn merge(&mut self, o: ConnLog) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.latency_ms.extend(o.latency_ms);
        self.late_ms.extend(o.late_ms);
        self.answers.extend(o.answers);
        self.insert_visible_ms.extend(o.insert_visible_ms);
        self.remove_visible_ms.extend(o.remove_visible_ms);
    }
}

/// Read-only inputs shared by the connections.
pub struct Ctx<'a> {
    /// The workload's query pool followed by the write probes.
    pub queries: &'a [Graph],
    /// The original database (write donors).
    pub db: &'a [Graph],
    /// Id of every clone inserted so far → the graph it copies.
    pub donors: &'a Mutex<HashMap<u32, u32>>,
}

/// One connection executing a script.
struct Conn<'a, 'c> {
    client: Client,
    ctx: &'c Ctx<'a>,
    log: ConnLog,
    /// The clone this connection inserted last, and its probe.
    own: Option<(u32, u32)>,
}

impl<'a, 'c> Conn<'a, 'c> {
    fn connect(addr: &str, ctx: &'c Ctx<'a>) -> io::Result<Self> {
        Ok(Conn {
            client: Client::connect_retry(addr, Duration::from_secs(10))?,
            ctx,
            log: ConnLog::default(),
            own: None,
        })
    }

    /// Run `op`. Returns when its scripted request was answered (for the
    /// latency sample) — the probes of a write follow inside.
    fn run(&mut self, op: Op, due: Instant) -> io::Result<()> {
        if op == Op::Remove && self.own.is_none() {
            return Ok(()); // the insert failed; nothing to remove
        }
        self.log.attempted += 1;
        match op {
            Op::Query(i) => {
                let resp = self.client.query(&self.ctx.queries[i as usize])?;
                match resp.body {
                    ResponseBody::Matches(ids) => {
                        self.sample(Some(i), due);
                        self.log.answers.push((i, true, ids));
                    }
                    _ => self.log.failed += 1,
                }
            }
            Op::Insert { donor, probe } => {
                let t0 = Instant::now();
                let resp = self.client.insert(&self.ctx.db[donor as usize])?;
                let ResponseBody::Inserted(gid) = resp.body else {
                    self.log.failed += 1;
                    return Ok(());
                };
                self.sample(None, due);
                self.ctx
                    .donors
                    .lock()
                    .expect("donor map poisoned")
                    .insert(gid, donor);
                self.own = Some((gid, probe));
                self.await_visible(t0, probe, gid, true)?;
            }
            Op::Remove => {
                let (gid, probe) = self.own.take().expect("checked above");
                let t0 = Instant::now();
                let resp = self.client.remove(gid)?;
                if resp.body != ResponseBody::Removed(true) {
                    self.log.failed += 1;
                    return Ok(());
                }
                self.sample(None, due);
                self.await_visible(t0, probe, gid, false)?;
            }
        }
        Ok(())
    }

    fn sample(&mut self, read: Option<u32>, due: Instant) {
        self.log
            .latency_ms
            .push((read, due.elapsed().as_secs_f64() * 1e3));
    }

    /// Probe until `gid` is `present` in the probe's answer.
    fn await_visible(
        &mut self,
        t0: Instant,
        probe: u32,
        gid: u32,
        present: bool,
    ) -> io::Result<()> {
        for _ in 0..MAX_PROBES {
            self.log.attempted += 1;
            let resp = self.client.query(&self.ctx.queries[probe as usize])?;
            match resp.body {
                ResponseBody::Matches(ids) => {
                    let seen = ids.binary_search(&gid).is_ok() == present;
                    self.log.answers.push((probe, false, ids));
                    if seen {
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        if present {
                            self.log.insert_visible_ms.push(ms);
                        } else {
                            self.log.remove_visible_ms.push(ms);
                        }
                        return Ok(());
                    }
                }
                _ => self.log.failed += 1,
            }
        }
        self.log.failed += 1;
        Ok(())
    }

    /// Run a whole script; `due(k)` is when op `k` is due (`None` = send
    /// as soon as the previous op finished). A transport failure fails the
    /// op and ends the script, counting every unsent op as failed too.
    fn run_script(mut self, script: &[Op], due: impl Fn(usize) -> Option<Instant>) -> ConnLog {
        for (k, &op) in script.iter().enumerate() {
            let now = Instant::now();
            let due = match due(k) {
                Some(d) => {
                    if d > now {
                        std::thread::sleep(d - now);
                    }
                    self.log.late_ms.push(d.elapsed().as_secs_f64() * 1e3);
                    d
                }
                None => now,
            };
            if self.run(op, due).is_err() {
                let unsent = script.len() - k - 1;
                self.log.attempted += unsent;
                self.log.failed += 1 + unsent;
                break;
            }
        }
        self.log
    }
}

/// Run one script per connection concurrently. With `rate` set the loop
/// is open at that many requests per second over all connections;
/// otherwise each connection sends its next request when the previous one
/// is answered. Returns the merged log and the phase's wall time.
pub fn run_phase(
    addr: &str,
    ctx: &Ctx<'_>,
    scripts: &[Vec<Op>],
    rate: Option<f64>,
) -> (ConnLog, Duration) {
    let conns = scripts.len();
    let barrier = Barrier::new(conns + 1);
    let start = Mutex::new(None::<Instant>);
    let (logs, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    let conn = Conn::connect(addr, ctx);
                    barrier.wait();
                    let Ok(conn) = conn else {
                        return ConnLog {
                            attempted: script.len(),
                            failed: script.len(),
                            ..ConnLog::default()
                        };
                    };
                    let t0 = start.lock().expect("start poisoned").expect("start set");
                    // Both loops start on the clock, so the wall time
                    // spans the whole phase.
                    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
                    conn.run_script(script, |k| {
                        rate.map(|r| t0 + Duration::from_secs_f64((k * conns + c) as f64 / r))
                    })
                })
            })
            .collect();
        // Connections are open before the clock starts.
        *start.lock().expect("start poisoned") = Some(Instant::now() + Duration::from_millis(20));
        barrier.wait();
        let t0 = start.lock().expect("start poisoned").expect("start set");
        let logs: Vec<ConnLog> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (logs, t0.elapsed())
    });
    let mut all = ConnLog::default();
    for l in logs {
        all.merge(l);
    }
    (all, wall)
}

/// Fetch the server's live metrics snapshot.
pub fn stats(addr: &str) -> io::Result<obs::MetricSet> {
    let mut c = Client::connect_retry(addr, Duration::from_secs(10))?;
    match c.stats()?.body {
        ResponseBody::Stats(json) => obs::json::parse_metric_set(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected stats, got {other:?}"),
        )),
    }
}

/// Sends the shutdown request when dropped, so the server thread ends
/// even when a phase fails.
struct ShutdownOnDrop<'a>(&'a str);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect_retry(self.0, Duration::from_secs(10)) {
            let _ = c.shutdown();
        }
    }
}

/// Serve `engine` on an ephemeral local port for the duration of
/// `f(addr)`, then shut the server down and wait for it.
pub fn with_server<T>(
    engine: &Engine,
    config: ServeConfig,
    f: impl FnOnce(&str) -> T,
) -> io::Result<(T, ServeReport)> {
    let server = Server::bind("127.0.0.1:0", config)?;
    let addr = server.local_addr()?.to_string();
    let registry = obs::Registry::new();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(engine, &registry));
        let out = {
            let _stop = ShutdownOnDrop(&addr);
            f(&addr)
        };
        let report = handle.join().expect("server thread panicked")?;
        Ok((out, report))
    })
}
