//! Seeded request streams.
//!
//! Every byte sent to the child is a pure function of `(workload, seed,
//! connection, position)`: feedback content comes from
//! [`PopulationMix::feedback`]`(server, t)`, placement from the workload's
//! [`Kind`], and the one random choice (the Zipf draws) from a
//! `derive_seed` chain. A server belongs to exactly one connection
//! (`server % connections`), so its feedback reaches the child in `t`
//! order and the per-server [`Tally`] is enough to regenerate any history
//! offline.

use crate::spec::{zipf_weight, Kind, Shape, PRELOAD_LINES};
use hp_core::{Feedback, ServerId};
use hp_edge::wire;
use hp_load::{FeedbackStream, PopulationMix};
use hp_stats::derive_seed;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /ingest`, body = feedback lines.
    Ingest,
    /// `POST /assess`, body = one server id per line.
    Assess,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Endpoint.
    pub op: Op,
    /// Request body.
    pub body: String,
    /// Feedback lines (ingest) or server ids (assess) in the body.
    pub lines: usize,
}

/// Feedbacks emitted per server so far: `counts[server]` is the next `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    counts: Vec<u64>,
}

impl Tally {
    /// All zeros over `servers` servers.
    pub fn new(servers: u64) -> Tally {
        Tally {
            counts: vec![0; servers as usize],
        }
    }

    /// Feedbacks emitted for `server`.
    pub fn count(&self, server: u64) -> u64 {
        self.counts[server as usize]
    }

    /// Total feedbacks emitted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another connection's tally (disjoint servers).
    pub fn merge(&mut self, other: &Tally) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Adds what `grown` emitted beyond `base`: a connection's window on
    /// top of the preload every connection started from.
    pub fn add_growth(&mut self, grown: &Tally, base: &Tally) {
        for ((mine, after), before) in self.counts.iter_mut().zip(&grown.counts).zip(&base.counts) {
            *mine += after - before;
        }
    }
}

/// The population a workload draws feedback from: the paper's §5 mix,
/// with the workload's share of honest servers.
pub fn population(shape: &Shape, seed: u64) -> PopulationMix {
    PopulationMix {
        honest_fraction: shape.honest_fraction,
        hibernating_fraction: (1.0 - shape.honest_fraction) / 2.0,
        ..PopulationMix::paper_mix(shape.servers, shape.clients, seed)
    }
}

/// Regenerates the first `len` feedbacks of `server` — what the child
/// holds for it when its tally reads `len`.
pub fn history(mix: &PopulationMix, server: u64, len: u64) -> Vec<Feedback> {
    (0..len)
        .map(|t| mix.feedback(ServerId::new(server), t))
        .collect()
}

/// Renders the next feedback of `server` and advances its clock.
fn emit(mix: &PopulationMix, tally: &mut Tally, server: u64, body: &mut String) {
    let t = tally.counts[server as usize];
    tally.counts[server as usize] = t + 1;
    wire::render_feedback_line(body, &mix.feedback(ServerId::new(server), t));
}

/// The servers connection `conn` of `connections` owns.
pub fn owned(shape: &Shape, conn: usize, connections: usize) -> Vec<u64> {
    (conn as u64..shape.servers).step_by(connections).collect()
}

/// The preload bodies of one connection: each owned server's
/// `preload_len` feedbacks, server by server, cut into
/// [`PRELOAD_LINES`]-line bodies. Advances `tally`.
pub fn preload_bodies(
    shape: &Shape,
    mix: &PopulationMix,
    conn: usize,
    connections: usize,
    tally: &mut Tally,
) -> Vec<Request> {
    let mut bodies = Vec::new();
    let mut body = String::new();
    let mut lines = 0;
    // Highest ids first: the deep servers (lowest ids) are written last,
    // so an LRU spill during preload evicts short histories, not them.
    for server in owned(shape, conn, connections).into_iter().rev() {
        for _ in 0..shape.preload_len(server) {
            emit(mix, tally, server, &mut body);
            lines += 1;
            if lines == PRELOAD_LINES {
                bodies.push(Request {
                    op: Op::Ingest,
                    body: std::mem::take(&mut body),
                    lines,
                });
                lines = 0;
            }
        }
    }
    if lines > 0 {
        bodies.push(Request {
            op: Op::Ingest,
            body,
            lines,
        });
    }
    bodies
}

/// Where one connection's stream stands, by workload.
enum Cursor {
    /// The production generator, fast-forwarded past the preload so its
    /// per-server clocks continue where preload stopped.
    IngestFlood {
        stream: FeedbackStream,
        batch: Vec<Feedback>,
    },
    /// Next index into the connection's servers.
    DeepAssess { next: usize },
    /// Next index into the connection's servers.
    SteadyMix { next: usize },
    /// `cdf[i]` = P(rank ≤ i) over the connection's head servers, the
    /// draws made so far, and how many tail servers have been visited.
    DurableTiered {
        cdf: Vec<f64>,
        draws: u64,
        visited: usize,
    },
}

/// One connection's request stream.
pub struct ConnStream {
    shape: Shape,
    mix: PopulationMix,
    conn: u64,
    /// The servers this connection owns, ascending.
    servers: Vec<u64>,
    cursor: Cursor,
    /// Ingest cycles generated so far.
    cycle: u64,
    /// Assess requests generated so far.
    reads: u64,
    /// The `assess_batch` servers written last in the latest ingest body.
    last_written: Vec<u64>,
    /// Set when the next request is the assess that follows a cycle.
    assess_due: bool,
    /// Per-server feedback counts (preload included once merged).
    pub tally: Tally,
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl ConnStream {
    /// The stream of connection `conn` of `connections`, starting from the
    /// state `after_preload` left.
    pub fn new(
        shape: &Shape,
        seed: u64,
        conn: usize,
        connections: usize,
        after_preload: &Tally,
    ) -> ConnStream {
        let mix = population(shape, seed);
        let servers = owned(shape, conn, connections);
        let cursor = match shape.kind {
            Kind::IngestFlood => {
                let mut stream =
                    FeedbackStream::strided(mix.clone(), conn as u64, connections as u64);
                // Uniform preload is `short_len` round-robin passes of the
                // same stream; skip them so `t` continues.
                let mut skipped = Vec::new();
                stream.next_batch(servers.len() * shape.short_len as usize, &mut skipped);
                Cursor::IngestFlood {
                    stream,
                    batch: Vec::new(),
                }
            }
            Kind::DeepAssess => Cursor::DeepAssess { next: 0 },
            Kind::SteadyMix => Cursor::SteadyMix { next: 0 },
            Kind::DurableTiered => {
                let head = servers.iter().take_while(|&&s| s < shape.deep_servers);
                let total: f64 = head.clone().map(|&s| zipf_weight(s)).sum();
                let mut acc = 0.0;
                let cdf = head
                    .map(|&s| {
                        acc += zipf_weight(s) / total;
                        acc
                    })
                    .collect();
                Cursor::DurableTiered {
                    cdf,
                    draws: 0,
                    visited: 0,
                }
            }
        };
        ConnStream {
            shape: *shape,
            mix,
            conn: conn as u64,
            servers,
            cursor,
            cycle: 0,
            reads: 0,
            last_written: Vec::new(),
            assess_due: false,
            tally: after_preload.clone(),
        }
    }

    /// The next closed-loop request: an ingest body, followed by an
    /// assess after every `assess_every`-th one.
    pub fn next_request(&mut self) -> Request {
        if self.assess_due {
            self.assess_due = false;
            return self.assess_request();
        }
        let every = self.shape.assess_every;
        self.assess_due = every > 0 && (self.cycle + 1).is_multiple_of(every);
        self.ingest_request(self.assess_due)
    }

    /// The next `POST /ingest` body. With `read_follows` the body ends
    /// with a write to each server the next [`ConnStream::assess_request`]
    /// names, so that read recomputes.
    pub fn ingest_request(&mut self, read_follows: bool) -> Request {
        let lines = self.shape.body_lines;
        let mut body = String::with_capacity(lines * 24);
        let mut written = Vec::with_capacity(lines);
        let mut sent = lines;
        match &mut self.cursor {
            Cursor::IngestFlood { stream, batch } => {
                stream.next_batch(lines, batch);
                for feedback in batch.iter() {
                    let server = feedback.server.value();
                    self.tally.counts[server as usize] += 1;
                    written.push(server);
                    wire::render_feedback_line(&mut body, feedback);
                }
            }
            Cursor::DeepAssess { next } | Cursor::SteadyMix { next } => {
                for _ in 0..lines {
                    let server = self.servers[*next];
                    *next = (*next + 1) % self.servers.len();
                    emit(&self.mix, &mut self.tally, server, &mut body);
                    written.push(server);
                }
            }
            Cursor::DurableTiered {
                cdf,
                draws,
                visited,
            } => {
                let chain = derive_seed(derive_seed(self.mix.seed, 0x5A49_5046), self.conn);
                for _ in 0..lines {
                    let u = unit(derive_seed(chain, *draws));
                    *draws += 1;
                    let rank = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
                    emit(&self.mix, &mut self.tally, self.servers[rank], &mut body);
                }
                // The tail (the servers no Zipf write touches) is a ring
                // walked from its highest id down: preload wrote those
                // first, and a full turn is longer than the spill budget
                // holds, so every server met is the least recently used
                // and spilled.
                let tail = &self.servers[cdf.len()..];
                if read_follows {
                    sent += self.shape.assess_batch;
                    for _ in 0..self.shape.assess_batch {
                        let server = tail[tail.len() - 1 - *visited % tail.len()];
                        *visited += 1;
                        emit(&self.mix, &mut self.tally, server, &mut body);
                        written.push(server);
                    }
                }
            }
        }
        self.cycle += 1;
        let keep = written.len().saturating_sub(self.shape.assess_batch);
        self.last_written = written.split_off(keep);
        Request {
            op: Op::Ingest,
            body,
            lines: sent,
        }
    }

    /// The next `POST /assess` body: the servers the latest ingest body
    /// wrote last, except on `steady_mix`, whose reader is a connection of
    /// its own beside a writer that touches every server in every body.
    pub fn assess_request(&mut self) -> Request {
        let read = self.reads;
        self.reads += 1;
        let targets: Vec<u64> = match self.cursor {
            Cursor::SteadyMix { .. } => {
                // One deep server and seven short ones per read, both
                // rotating, so every read costs the same.
                let shorts = self.shape.servers - self.shape.deep_servers;
                let short = self.shape.assess_batch as u64 - 1;
                std::iter::once(read % self.shape.deep_servers)
                    .chain(
                        (0..short).map(|i| self.shape.deep_servers + (read * short + i) % shorts),
                    )
                    .collect()
            }
            _ => self.last_written.clone(),
        };
        let mut body = String::with_capacity(targets.len() * 8);
        for server in &targets {
            body.push_str(&server.to_string());
            body.push('\n');
        }
        Request {
            op: Op::Assess,
            body,
            lines: targets.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Preload plus the first requests of every connection, as bytes.
    fn stream_bytes(shape: &Shape, seed: u64, requests: usize) -> (Vec<u8>, Tally) {
        let mix = population(shape, seed);
        let mut bytes = Vec::new();
        let mut total = Tally::new(shape.servers);
        for conn in 0..2 {
            let mut tally = Tally::new(shape.servers);
            for request in preload_bodies(shape, &mix, conn, 2, &mut tally) {
                bytes.extend_from_slice(request.body.as_bytes());
            }
            let mut stream = ConnStream::new(shape, seed, conn, 2, &tally);
            for _ in 0..requests {
                let request = stream.next_request();
                bytes.push(request.op as u8);
                bytes.extend_from_slice(request.body.as_bytes());
            }
            total.merge(&stream.tally);
        }
        (bytes, total)
    }

    /// A small copy of a workload so the test stays fast.
    fn small(shape: &Shape) -> Shape {
        Shape {
            servers: shape.servers.min(64),
            deep_servers: shape.deep_servers.min(8),
            deep_len: shape.deep_len.min(100),
            short_len: shape.short_len.min(8),
            body_lines: shape.body_lines.min(32),
            ..*shape
        }
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for shape in WORKLOADS.iter().map(small) {
            let (a, tally_a) = stream_bytes(&shape, 7, 40);
            let (b, tally_b) = stream_bytes(&shape, 7, 40);
            let (c, _) = stream_bytes(&shape, 8, 40);
            assert_eq!(a, b, "{}: same seed must give the same stream", shape.name);
            assert_eq!(tally_a, tally_b);
            assert_ne!(
                a, c,
                "{}: another seed must give another stream",
                shape.name
            );
        }
    }

    #[test]
    fn tally_matches_lines_sent_and_clocks_continue_after_preload() {
        for shape in WORKLOADS.iter().map(small) {
            let mix = population(&shape, 3);
            let mut tally = Tally::new(shape.servers);
            let preload: usize = preload_bodies(&shape, &mix, 0, 2, &mut tally)
                .iter()
                .map(|r| r.lines)
                .sum();
            assert_eq!(tally.total(), preload as u64);
            let mut stream = ConnStream::new(&shape, 3, 0, 2, &tally);
            let mut sent = 0;
            let mut first_line = String::new();
            for cycle in 0..10 {
                let request = stream.ingest_request(cycle % 4 == 3);
                if first_line.is_empty() {
                    first_line = request.body.lines().next().unwrap().to_string();
                }
                sent += request.lines;
            }
            assert_eq!(
                stream.tally.total(),
                (preload + sent) as u64,
                "{}",
                shape.name
            );
            // The first window feedback of a server carries t = its
            // preload length: the clock continued.
            let server: u64 = first_line.split(',').nth(1).unwrap().parse().unwrap();
            let t: u64 = first_line.split(',').next().unwrap().parse().unwrap();
            assert_eq!(t, shape.preload_len(server), "{}", shape.name);
        }
    }

    #[test]
    fn every_closed_loop_read_follows_a_write_to_the_same_servers() {
        // Long enough for `durable_tiered`'s tail ring to turn several times.
        for shape in WORKLOADS.iter().map(small) {
            if shape.kind == Kind::SteadyMix {
                continue;
            }
            let mut stream = ConnStream::new(&shape, 9, 0, 2, &Tally::new(shape.servers));
            let mut count_at_last_read = vec![0u64; shape.servers as usize];
            for _ in 0..400 {
                let request = stream.next_request();
                if request.op == Op::Assess {
                    for line in request.body.lines() {
                        let server: usize = line.parse().unwrap();
                        let count = stream.tally.count(server as u64);
                        assert!(
                            count > count_at_last_read[server],
                            "{}: server {server} read twice without a write",
                            shape.name
                        );
                        count_at_last_read[server] = count;
                    }
                }
            }
        }
    }

    #[test]
    fn assess_targets_are_owned_written_servers() {
        for shape in WORKLOADS.iter().map(small) {
            let mut stream = ConnStream::new(&shape, 5, 1, 2, &Tally::new(shape.servers));
            stream.ingest_request(true);
            let request = stream.assess_request();
            assert_eq!(request.lines, shape.assess_batch, "{}", shape.name);
            for line in request.body.lines() {
                let server: u64 = line.parse().unwrap();
                assert!(server < shape.servers);
                if shape.kind != Kind::SteadyMix {
                    assert_eq!(
                        server % 2,
                        1,
                        "{}: connection 1 owns odd servers",
                        shape.name
                    );
                }
            }
        }
    }
}
