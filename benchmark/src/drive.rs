//! The load loops: preload, the closed loop and the open loop.
//!
//! One thread per connection, each with its own keep-alive
//! [`HttpClient`], its own [`ConnStream`] and its own sample vectors;
//! nothing is shared while a window runs. Latencies are exact samples in
//! milliseconds (no histogram), so percentiles are nearest-rank.

use crate::gen::{self, ConnStream, Op, Request, Tally};
use crate::spec::{Load, Shape, CONNECTIONS, SLICES};
use hp_edge::wire;
use hp_load::HttpClient;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one connection observed.
#[derive(Debug, Default, Clone)]
pub struct ConnOutcome {
    /// Requests sent.
    pub attempted: u64,
    /// Transport errors, non-200 statuses, shed feedback, degraded or
    /// errored verdicts — one per offending request.
    pub failed: u64,
    /// Feedback lines sent.
    pub sent: u64,
    /// Feedbacks the child reported accepted.
    pub accepted: u64,
    /// Feedbacks the child reported shed.
    pub shed: u64,
    /// Fresh verdicts received.
    pub verdicts: u64,
    /// `POST /ingest` latencies, ms.
    pub ingest_ms: Vec<f64>,
    /// `POST /assess` latencies, ms.
    pub assess_ms: Vec<f64>,
    /// Closed loop: seconds since the window start at each slice boundary
    /// (`SLICES + 1` entries). Open loop: `[0, elapsed]`.
    pub marks: Vec<f64>,
    /// Open loop: requests whose send started more than one interval
    /// behind schedule (hp-load's definition of a late send).
    pub late_sends: u64,
    /// Time spent generating request bodies, s.
    pub gen_s: f64,
}

/// Sends one request, checks the answer, and records it.
fn exchange(client: &mut HttpClient, request: &Request, due: Instant, out: &mut ConnOutcome) {
    let path = match request.op {
        Op::Ingest => "/ingest",
        Op::Assess => "/assess",
    };
    out.attempted += 1;
    let response = client.post(path, request.body.as_bytes());
    let ms = due.elapsed().as_secs_f64() * 1e3;
    let lines = request.lines as u64;
    let ok = match (&response, request.op) {
        (Ok(r), Op::Ingest) if r.status == 200 || r.status == 429 => {
            let accepted = wire::json_u64(&r.body, "accepted").unwrap_or(0);
            let shed = wire::json_u64(&r.body, "shed").unwrap_or(0);
            out.sent += lines;
            out.accepted += accepted;
            out.shed += shed;
            out.ingest_ms.push(ms);
            accepted == lines && shed == 0
        }
        (Ok(r), Op::Assess) if r.status == 200 => {
            let fresh = r.body.matches("\"degraded\":false").count() as u64;
            out.verdicts += fresh;
            out.assess_ms.push(ms);
            fresh == lines
        }
        _ => false,
    };
    if !ok {
        out.failed += 1;
    }
}

/// Opens the connection before any clock starts.
fn connect(addr: SocketAddr) -> HttpClient {
    let mut client = HttpClient::new(addr, crate::child::WAIT_LIMIT);
    let _ = client.get("/version");
    client
}

/// Applies the deterministic preload over [`CONNECTIONS`] connections and
/// returns the per-server tally. Preload requests count as attempted.
pub fn preload(addr: SocketAddr, shape: &Shape, seed: u64) -> (Tally, ConnOutcome) {
    let mix = gen::population(shape, seed);
    let results: Vec<(Tally, ConnOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let mix = &mix;
                scope.spawn(move || {
                    let mut tally = Tally::new(shape.servers);
                    let mut out = ConnOutcome::default();
                    let mut client = connect(addr);
                    for request in gen::preload_bodies(shape, mix, conn, CONNECTIONS, &mut tally) {
                        exchange(&mut client, &request, Instant::now(), &mut out);
                    }
                    (tally, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread"))
            .collect()
    });
    let mut tally = Tally::new(shape.servers);
    let mut outcome = ConnOutcome::default();
    for (t, o) in &results {
        tally.merge(t);
        outcome.attempted += o.attempted;
        outcome.failed += o.failed;
        outcome.sent += o.sent;
        outcome.accepted += o.accepted;
        outcome.shed += o.shed;
    }
    (tally, outcome)
}

/// Runs the workload's window and returns each connection's outcome and
/// the tally after it. `seconds` sizes the work (closed) or the duration
/// (open).
pub fn window(
    addr: SocketAddr,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    after_preload: &Tally,
) -> (Vec<ConnOutcome>, Tally) {
    let results = match shape.load {
        Load::Closed { .. } => closed(addr, shape, seed, shape.cycles(seconds), after_preload),
        Load::Open {
            write_rps,
            read_rps,
        } => open(
            addr,
            shape,
            seed,
            seconds,
            write_rps,
            read_rps,
            after_preload,
        ),
    };
    let mut tally = after_preload.clone();
    for (_, conn_tally) in &results {
        tally.add_growth(conn_tally, after_preload);
    }
    (results.into_iter().map(|(o, _)| o).collect(), tally)
}

fn closed(
    addr: SocketAddr,
    shape: &Shape,
    seed: u64,
    cycles: u64,
    after_preload: &Tally,
) -> Vec<(ConnOutcome, Tally)> {
    let barrier = Barrier::new(CONNECTIONS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stream = ConnStream::new(shape, seed, conn, CONNECTIONS, after_preload);
                    let mut out = ConnOutcome::default();
                    let mut client = connect(addr);
                    let per_slice = cycles / SLICES as u64;
                    barrier.wait();
                    let start = Instant::now();
                    out.marks.push(0.0);
                    for cycle in 1..=cycles {
                        // One ingest, plus the assess that follows every
                        // `assess_every`-th cycle.
                        let requests =
                            if shape.assess_every > 0 && cycle.is_multiple_of(shape.assess_every) {
                                2
                            } else {
                                1
                            };
                        for _ in 0..requests {
                            let gen_start = Instant::now();
                            let request = stream.next_request();
                            let sent_at = Instant::now();
                            out.gen_s += (sent_at - gen_start).as_secs_f64();
                            exchange(&mut client, &request, sent_at, &mut out);
                        }
                        if cycle.is_multiple_of(per_slice) {
                            out.marks.push(start.elapsed().as_secs_f64());
                        }
                    }
                    (out, stream.tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    })
}

/// Sleeps until shortly before `due`, then spins: `thread::sleep` wakes
/// 50–100 µs late, which is a tenth of the latency being measured.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn open(
    addr: SocketAddr,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    write_rps: f64,
    read_rps: f64,
    after_preload: &Tally,
) -> Vec<(ConnOutcome, Tally)> {
    let barrier = Barrier::new(2);
    let write_every = Duration::from_secs_f64(1.0 / write_rps);
    let read_every = Duration::from_secs_f64(1.0 / read_rps);
    let length = Duration::from_secs_f64(seconds);
    // One paced loop; the writer's requests are ingests due at k·interval,
    // the reader's are assesses due half a write interval later.
    let paced = |op: Op, every: Duration, offset: Duration| {
        let barrier = &barrier;
        move || {
            let mut stream = ConnStream::new(shape, seed, 0, 1, after_preload);
            let mut out = ConnOutcome::default();
            let mut client = connect(addr);
            barrier.wait();
            let start = Instant::now();
            let mut k = 0u32;
            loop {
                let due = start + offset + every * k;
                if due - start >= length {
                    break;
                }
                k += 1;
                let gen_start = Instant::now();
                let request = match op {
                    Op::Ingest => stream.ingest_request(false),
                    Op::Assess => stream.assess_request(),
                };
                out.gen_s += gen_start.elapsed().as_secs_f64();
                wait_until(due);
                if due.elapsed() > every {
                    out.late_sends += 1;
                }
                exchange(&mut client, &request, due, &mut out);
            }
            out.marks = vec![0.0, start.elapsed().as_secs_f64()];
            (out, stream.tally)
        }
    };
    std::thread::scope(|scope| {
        let writer = scope.spawn(paced(Op::Ingest, write_every, Duration::ZERO));
        let reader = scope.spawn(paced(Op::Assess, read_every, write_every / 2));
        vec![
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        ]
    })
}
