//! The datapath workloads: an in-process five-node `pqs-serve` cluster
//! driven by an open-loop client at a fixed rate (`serve-light`,
//! `serve-heavy`), plus the capacity search of `serve-heavy`.
//!
//! The client uses one UDP socket, one sender thread (this one) and one
//! receiver thread. The sender paces requests with `thread::sleep` on a
//! precomputed schedule and owns retransmission and expiry (250 ms, 8
//! attempts, as `LoadConfig`). The receiver blocks on the socket without
//! a timeout until a stop datagram ends the run. Every operation is
//! timed from its due time, so a stall shows on the requests behind it.

use crate::layers::Layers;
use crate::stats::{nproc, peak_rss_mib, process_cpu_s, thread_cpu_s, E2e, Outcome, Samples};
use crate::trace::SpanLog;
use pqs_core::store::Key;
use pqs_core::transport::{Datagram, OpStatus, WireMsg};
use pqs_core::wire;
use pqs_serve::load::value_for;
use pqs_serve::{ping_targets, Cluster, NodeReport, ServeConfig, CLIENT_NODE_ID};
use pqs_sim::metrics::Histogram;
use pqs_sim::rng::{entity_stream, streams};
use rand::Rng;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes in the cluster.
const NODES: usize = 5;
/// Keys seeded with puts before the measured phase.
const KEYS: u64 = 512;
/// Share of measured operations that are gets.
const GET_FRACTION: f64 = 0.8;
/// Offered rate of `serve-light`, operations per second.
pub const LIGHT_RATE: f64 = 2_000.0;
/// Offered rate of `serve-heavy`, operations per second.
pub const HEAVY_RATE: f64 = 40_000.0;
/// Request retransmission timeout (as `LoadConfig`).
const REQ_TIMEOUT: Duration = Duration::from_millis(250);
/// Attempts before a request is abandoned (as `LoadConfig`).
const MAX_ATTEMPTS: u32 = 8;
/// Cluster set-ups per run whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Capacity search: p99 latency limit for gets and puts.
const LIMIT_P99_MS: f64 = 10.0;
/// Capacity search: failed share allowed.
const LIMIT_FAILED: f64 = 0.001;
/// Capacity search: generator lateness (p99) still counted on schedule.
const LIMIT_LATE_P99_MS: f64 = 1.0;
/// Capacity search: the last reply may trail the last due time by this
/// much before the run counts as backlogged.
const LIMIT_BACKLOG_MS: f64 = 50.0;
/// Capacity search: rates are `HEAVY_RATE · 1.05^k`.
const STEP: f64 = 1.05;
/// Capacity search: probe length at each rate, seconds.
const PROBE_SECS: f64 = 1.0;
/// Capacity search: the ladder stops after this many 5% steps either way.
const MAX_STEPS: i32 = 30;

const STOP_NONCE: u64 = 0x5354_4F50_5354_4F50;

/// Slot states of one scheduled operation.
const PENDING: u8 = 0;
const OK: u8 = 1;
const MISMATCH: u8 = 2;
const FAILED: u8 = 3;
const REFUSED: u8 = 4;
const EXPIRED: u8 = 5;

/// One scheduled client operation.
#[derive(Debug, Clone, Copy)]
struct PlannedOp {
    key: Key,
    get: bool,
    target: usize,
}

/// The generator's per-operation result slots, shared with the receiver.
struct Slots {
    state: Vec<AtomicU8>,
    done_ns: Vec<AtomicU64>,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
struct Phase {
    /// Offered rate, operations per second.
    rate: f64,
    /// Operations scheduled.
    ops: u64,
    /// Get latency from due time, ms (answered gets).
    get_ms: Samples,
    /// Put latency from due time, ms (answered puts).
    put_ms: Samples,
    /// Generator lateness at first send, ms.
    late_ms: Samples,
    /// Gets answered `Ok` with `value_for(key)`.
    get_hits: u64,
    /// Gets scheduled.
    gets: u64,
    /// Gets answered `Ok` with another value.
    mismatched: u64,
    /// Operations answered `Failed`.
    failed: u64,
    /// Operations answered `Refused`.
    refused: u64,
    /// Operations abandoned after every attempt timed out.
    unanswered: u64,
    /// Retransmissions sent.
    retransmits: u64,
    /// Datagrams the client sent.
    datagrams_sent: u64,
    /// Answers the client received (duplicates included).
    datagrams_received: u64,
    /// Bytes the client sent and received.
    bytes: u64,
    /// Host seconds from the first due time to the last answer.
    wall_s: f64,
    /// Last answer minus last due time, ms.
    tail_ms: f64,
    /// Process CPU seconds used during the phase (10 ms ticks).
    cpu_s: f64,
    /// CPU seconds of the generator's own two threads (ns resolution).
    gen_cpu_s: f64,
    /// Encode calls timed and their summed nanoseconds (traced only).
    encode: (u64, u64),
    /// Decode calls timed and their summed nanoseconds (traced only).
    decode: (u64, u64),
    /// Spans of the sender (traced only).
    send_spans: Option<SpanLog>,
    /// Spans of the receiver (traced only).
    recv_spans: Option<SpanLog>,
}

impl Phase {
    /// Operations that did not end with the right answer.
    fn failures(&self) -> u64 {
        self.mismatched + self.failed + self.refused + self.unanswered
    }

    /// Failed share of scheduled operations.
    fn fail_ratio(&self) -> f64 {
        self.failures() as f64 / self.ops.max(1) as f64
    }

    /// Gets answered with the right value, over gets scheduled.
    fn hit_ratio(&self) -> f64 {
        self.get_hits as f64 / self.gets.max(1) as f64
    }

    /// The capacity-search limits this phase misses (empty when it
    /// meets them all).
    fn missed_limits(&self) -> Vec<String> {
        let mut missed = Vec::new();
        let checks = [
            ("get p99", self.get_ms.percentile(99.0), LIMIT_P99_MS),
            ("put p99", self.put_ms.percentile(99.0), LIMIT_P99_MS),
            ("failed share", self.fail_ratio(), LIMIT_FAILED),
            ("late p99", self.late_ms.percentile(99.0), LIMIT_LATE_P99_MS),
            ("backlog", self.tail_ms, LIMIT_BACKLOG_MS),
        ];
        for (what, value, limit) in checks {
            if value > limit {
                missed.push(format!("{what} {value:.3} > {limit}"));
            }
        }
        missed
    }
}

/// A client bound to one socket, with request ids unique over its life.
struct Client {
    sock: UdpSocket,
    targets: Vec<SocketAddr>,
    next_req: u64,
    /// Datagrams sent and received over the client's life.
    datagrams: u64,
}

impl Client {
    /// Binds the client socket.
    fn new(targets: &[SocketAddr]) -> io::Result<Self> {
        Ok(Client {
            sock: UdpSocket::bind("127.0.0.1:0")?,
            targets: targets.to_vec(),
            next_req: 1,
            datagrams: 0,
        })
    }

    /// Runs `plan` open loop at `rate`; traced runs time the codec and
    /// record a send and a receive span per request, sharing its id.
    fn run(&mut self, plan: &[PlannedOp], rate: f64, traced: bool) -> io::Result<Phase> {
        let n = plan.len();
        let base = self.next_req;
        self.next_req += n as u64;
        let slots = Arc::new(Slots {
            state: (0..n).map(|_| AtomicU8::new(PENDING)).collect(),
            done_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        });
        let keys: Arc<Vec<(Key, bool)>> = Arc::new(plan.iter().map(|p| (p.key, p.get)).collect());
        let me = self.sock.local_addr()?;
        let t0 = Instant::now();
        let cpu0 = process_cpu_s();
        let gen_cpu0 = thread_cpu_s();

        let rx_sock = self.sock.try_clone()?;
        let rx_slots = Arc::clone(&slots);
        let receiver = std::thread::Builder::new()
            .name("perfbench-recv".into())
            .spawn(move || receive(rx_sock, me, base, t0, &keys, &rx_slots, traced))?;

        let mut phase = Phase {
            rate,
            ops: n as u64,
            ..Phase::default()
        };
        let mut spans = traced.then(SpanLog::new);
        let due_ns = |i: usize| (i as f64 * 1e9 / rate) as u64;
        let mut retry: VecDeque<(usize, u64, u32)> = VecDeque::new();
        let mut next = 0usize;
        let send = |client: &Client,
                    phase: &mut Phase,
                    spans: &mut Option<SpanLog>,
                    i: usize|
         -> io::Result<()> {
            let p = plan[i];
            let req = base + i as u64;
            let msg = if p.get {
                WireMsg::ClientGet { req, key: p.key }
            } else {
                WireMsg::ClientPut {
                    req,
                    key: p.key,
                    value: value_for(p.key),
                }
            };
            let dg = Datagram {
                from: CLIENT_NODE_ID,
                msg,
            };
            let span = spans.as_mut().map(|s| s.open("gen.send", None, Some(req)));
            let frame = if span.is_some() {
                let t = Instant::now();
                let f = wire::encode_frame(&dg);
                phase.encode.0 += 1;
                phase.encode.1 += t.elapsed().as_nanos() as u64;
                f
            } else {
                wire::encode_frame(&dg)
            };
            client.sock.send_to(&frame, client.targets[p.target])?;
            if let (Some(s), Some(span)) = (spans.as_mut(), span) {
                s.close(span);
            }
            phase.datagrams_sent += 1;
            phase.bytes += frame.len() as u64;
            Ok(())
        };

        loop {
            let now = t0.elapsed().as_nanos() as u64;
            // Send everything due.
            while next < n && due_ns(next) <= now {
                send(self, &mut phase, &mut spans, next)?;
                let sent = t0.elapsed().as_nanos() as u64;
                phase
                    .late_ms
                    .push(sent.saturating_sub(due_ns(next)) as f64 / 1e6);
                retry.push_back((next, sent, 1));
                next += 1;
            }
            // Retransmit or expire requests past their timeout.
            let now = t0.elapsed().as_nanos() as u64;
            while let Some(&(i, last, attempts)) = retry.front() {
                if now < last + REQ_TIMEOUT.as_nanos() as u64 {
                    break;
                }
                retry.pop_front();
                if slots.state[i].load(Ordering::Acquire) != PENDING {
                    continue;
                }
                if attempts >= MAX_ATTEMPTS {
                    if slots.state[i]
                        .compare_exchange(PENDING, EXPIRED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        phase.unanswered += 1;
                    }
                    continue;
                }
                send(self, &mut phase, &mut spans, i)?;
                phase.retransmits += 1;
                retry.push_back((i, now, attempts + 1));
            }
            // Drop answered requests from the front so the loop can end.
            while retry
                .front()
                .is_some_and(|&(i, _, _)| slots.state[i].load(Ordering::Acquire) != PENDING)
            {
                retry.pop_front();
            }
            // Entries are in send order, so once every request is sent
            // and the answered ones have been popped, an empty queue
            // means every request is answered or expired.
            if next >= n && retry.is_empty() {
                break;
            }
            // Sleep until the next due send, or poll for retransmits.
            let wake = if next < n {
                due_ns(next)
            } else {
                now + 1_000_000
            };
            let now = t0.elapsed().as_nanos() as u64;
            if wake > now {
                std::thread::sleep(Duration::from_nanos(wake - now));
            }
        }

        // Stop the receiver: a datagram from our own socket to itself.
        let stop = wire::encode_frame(&Datagram {
            from: CLIENT_NODE_ID,
            msg: WireMsg::Pong { nonce: STOP_NONCE },
        });
        self.sock.send_to(&stop, me)?;
        let rx = receiver
            .join()
            .map_err(|_| io::Error::other("receiver thread panicked"))?;
        phase.cpu_s = process_cpu_s() - cpu0;
        phase.gen_cpu_s = thread_cpu_s() - gen_cpu0 + rx.cpu_s;
        self.datagrams += phase.datagrams_sent + rx.received;
        phase.datagrams_received = rx.received;
        phase.bytes += rx.bytes;
        phase.decode = rx.decode;
        phase.recv_spans = rx.spans;
        phase.send_spans = spans;

        let mut last_done = 0u64;
        for (i, p) in plan.iter().enumerate() {
            let state = slots.state[i].load(Ordering::Acquire);
            let done = slots.done_ns[i].load(Ordering::Acquire);
            if p.get {
                phase.gets += 1;
            }
            match state {
                OK | MISMATCH | FAILED | REFUSED => {
                    last_done = last_done.max(done);
                    let ms = done.saturating_sub(due_ns(i)) as f64 / 1e6;
                    if p.get {
                        phase.get_ms.push(ms);
                    } else {
                        phase.put_ms.push(ms);
                    }
                    match state {
                        OK => phase.get_hits += u64::from(p.get),
                        MISMATCH => phase.mismatched += 1,
                        FAILED => phase.failed += 1,
                        _ => phase.refused += 1,
                    }
                }
                _ => {}
            }
        }
        phase.wall_s = last_done as f64 / 1e9;
        phase.tail_ms = last_done.saturating_sub(due_ns(n.saturating_sub(1))) as f64 / 1e6;
        Ok(phase)
    }
}

struct Received {
    cpu_s: f64,
    received: u64,
    bytes: u64,
    decode: (u64, u64),
    spans: Option<SpanLog>,
}

/// The receiver thread: blocks on the socket until the stop datagram,
/// stamping each operation's first answer and checking get values.
fn receive(
    sock: UdpSocket,
    me: SocketAddr,
    base: u64,
    t0: Instant,
    keys: &[(Key, bool)],
    slots: &Slots,
    traced: bool,
) -> Received {
    let cpu0 = thread_cpu_s();
    let mut rx = Received {
        cpu_s: 0.0,
        received: 0,
        bytes: 0,
        decode: (0, 0),
        spans: traced.then(SpanLog::new),
    };
    let mut buf = vec![0u8; wire::MAX_FRAME + 8];
    loop {
        let Ok((len, src)) = sock.recv_from(&mut buf) else {
            continue;
        };
        let at = t0.elapsed().as_nanos() as u64;
        let span = rx.spans.as_mut().map(|s| s.open("gen.recv", None, None));
        let t = Instant::now();
        let decoded = wire::decode_frame(&buf[..len]);
        if traced {
            rx.decode.0 += 1;
            rx.decode.1 += t.elapsed().as_nanos() as u64;
        }
        let Ok((dg, _)) = decoded else {
            if let (Some(s), Some(span)) = (rx.spans.as_mut(), span) {
                s.close(span);
            }
            continue;
        };
        let (req, status, value) = match dg.msg {
            WireMsg::Pong { nonce } if nonce == STOP_NONCE && src == me => {
                if let (Some(s), Some(span)) = (rx.spans.as_mut(), span) {
                    s.close(span);
                }
                rx.cpu_s = thread_cpu_s() - cpu0;
                return rx;
            }
            WireMsg::ClientPutDone { req, status } => (req, status, None),
            WireMsg::ClientGetDone { req, status, value } => (req, status, Some(value)),
            _ => {
                if let (Some(s), Some(span)) = (rx.spans.as_mut(), span) {
                    s.close(span);
                }
                continue;
            }
        };
        rx.received += 1;
        rx.bytes += len as u64;
        if let (Some(s), Some(span)) = (rx.spans.as_mut(), span) {
            s.tag(&span, Some(req));
            s.close(span);
        }
        let Some(i) = req
            .checked_sub(base)
            .map(|i| i as usize)
            .filter(|&i| i < keys.len())
        else {
            continue;
        };
        let (key, get) = keys[i];
        let state = match status {
            OpStatus::Ok if get && value != Some(value_for(key)) => MISMATCH,
            OpStatus::Ok => OK,
            OpStatus::Failed => FAILED,
            OpStatus::Refused => REFUSED,
        };
        // Only the first answer counts; a late duplicate (or an answer
        // after expiry) leaves the slot as it is.
        if slots.state[i].load(Ordering::Acquire) == PENDING {
            slots.done_ns[i].store(at, Ordering::Release);
            let _ = slots.state[i].compare_exchange(
                PENDING,
                state,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }
}

/// The key-seeding puts: every key once, in key order, round-robin over
/// the coordinators.
fn seed_plan() -> Vec<PlannedOp> {
    (0..KEYS)
        .map(|i| PlannedOp {
            key: key_of(i),
            get: false,
            target: (i as usize) % NODES,
        })
        .collect()
}

/// `n` measured operations drawn from `(seed, stream)`: `GET_FRACTION`
/// gets, the rest puts, uniform keys, uniform coordinator.
fn mixed_plan(seed: u64, stream: u64, n: usize) -> Vec<PlannedOp> {
    let mut rng = entity_stream(seed, streams::WORKLOAD, stream);
    (0..n)
        .map(|_| PlannedOp {
            key: key_of(rng.gen_range(0..KEYS)),
            get: rng.gen_bool(GET_FRACTION),
            target: rng.gen_range(0..NODES),
        })
        .collect()
}

fn key_of(i: u64) -> Key {
    (1 << 40) | i
}

/// Rate at which the key-seeding puts are offered during set-up.
const SEED_RATE: f64 = 10_000.0;

/// A spawned, health-checked cluster with every key seeded, and its
/// client.
struct Ready {
    /// The cluster.
    cluster: Cluster,
    /// The client (its socket also sent the seeding puts).
    client: Client,
    /// The seeding phase.
    seeding: Phase,
}

/// Spawns the cluster, pings every node and seeds the keys.
fn set_up(seed: u64) -> io::Result<Ready> {
    let cluster = Cluster::spawn(ServeConfig::sized(NODES, seed, 0.1))?;
    ping_targets(cluster.addrs(), Duration::from_secs(5))?;
    let mut client = Client::new(cluster.addrs())?;
    let seeding = client.run(&seed_plan(), SEED_RATE, false)?;
    Ok(Ready {
        cluster,
        client,
        seeding,
    })
}

/// Sets the cluster up `SETUP_REPS` times (draining the spare ones) and
/// returns the last with the median set-up time.
fn set_up_median(seed: u64) -> io::Result<(Ready, f64)> {
    let mut times = Samples::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let r = set_up(seed)?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            r.cluster.drain()?;
        } else {
            ready = Some(r);
        }
    }
    Ok((ready.expect("at least one set-up"), times.median()))
}

/// Capacity search from `HEAVY_RATE`: steps the offered rate up by 10%
/// (`k += 2` on the grid `HEAVY_RATE·1.05^k`) until a rate misses the
/// limit, then probes the 5% point between the last pass and that miss.
/// A missed probe is repeated once before the rate counts as missed, so
/// a single host hiccup does not end the search. If `HEAVY_RATE` itself
/// misses, the ladder steps down instead. Returns the highest rate that
/// met the limit.
fn capacity_search(
    client: &mut Client,
    seed: u64,
    probes: &mut Vec<(f64, String)>,
) -> io::Result<f64> {
    let rate = |k: i32| HEAVY_RATE * STEP.powi(k);
    let mut passes = |client: &mut Client, k: i32| -> io::Result<bool> {
        for _ in 0..2 {
            let r = rate(k);
            let plan = mixed_plan(seed, 1_000 + probes.len() as u64, (r * PROBE_SECS) as usize);
            let p = client.run(&plan, r, false)?;
            if p.mismatched > 0 {
                return Err(io::Error::other(format!(
                    "capacity probe at {r:.0} ops/s: {} gets returned a wrong value",
                    p.mismatched
                )));
            }
            let missed = p.missed_limits();
            let ok = missed.is_empty();
            probes.push((r, missed.join(", ")));
            if ok {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let (pass, miss) = if passes(client, 0)? {
        let mut k = 0;
        while k < MAX_STEPS && passes(client, k + 2)? {
            k += 2;
        }
        (k, k + 2)
    } else {
        let mut k = 0;
        while k > -MAX_STEPS && !passes(client, k - 2)? {
            k -= 2;
        }
        (k - 2, k)
    };
    let mid = (pass + miss) / 2;
    Ok(rate(if mid != pass && passes(client, mid)? {
        mid
    } else {
        pass
    }))
}

/// Merged engine histograms and counters of the drained cluster.
struct Engines {
    advertise: Histogram,
    lookup: Histogram,
    msgs_sent: u64,
    ops_issued: u64,
    op_retries: u64,
    send_errors: u64,
    malformed: u64,
}

fn merge_reports(reports: &[NodeReport]) -> Engines {
    let mut e = Engines {
        advertise: Histogram::new(),
        lookup: Histogram::new(),
        msgs_sent: 0,
        ops_issued: 0,
        op_retries: 0,
        send_errors: 0,
        malformed: 0,
    };
    for r in reports {
        e.advertise.merge(&r.advertise_latency);
        e.lookup.merge(&r.lookup_latency);
        e.msgs_sent += r.counters.msgs_sent;
        e.ops_issued += r.counters.advertises_issued + r.counters.lookups_issued;
        e.op_retries += r.counters.op_retries;
        e.send_errors += r.send_errors;
        e.malformed += r.malformed_datagrams;
    }
    e
}

/// Asks every node for its `MetricsResp` and sums (issued, completed,
/// failed, refused).
fn metrics_of(targets: &[SocketAddr]) -> io::Result<(u64, u64, u64, u64)> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_read_timeout(Some(Duration::from_millis(200)))?;
    let req = wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg: WireMsg::MetricsReq,
    });
    let mut sum = (0, 0, 0, 0);
    let mut buf = [0u8; 512];
    for addr in targets {
        let mut answered = false;
        for _ in 0..10 {
            sock.send_to(&req, addr)?;
            if let Ok((n, src)) = sock.recv_from(&mut buf) {
                if let Ok((
                    Datagram {
                        msg:
                            WireMsg::MetricsResp {
                                issued,
                                completed,
                                failed,
                                refused,
                                ..
                            },
                        ..
                    },
                    _,
                )) = wire::decode_frame(&buf[..n])
                {
                    if src == *addr {
                        sum.0 += issued;
                        sum.1 += completed;
                        sum.2 += failed;
                        sum.3 += refused;
                        answered = true;
                        break;
                    }
                }
            }
        }
        if !answered {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no metrics from {addr}"),
            ));
        }
    }
    Ok(sum)
}

/// The validity rule of a measured phase: the generator's lateness at
/// the 99th percentile must stay below the median get latency, or the
/// latencies would describe the generator rather than the cluster.
fn generator_on_time(p: &Phase) -> bool {
    p.late_ms.percentile(99.0) <= p.get_ms.percentile(50.0)
}

fn summary(name: &str, p: &Phase) -> String {
    format!(
        "{name}: {:.0} ops/s offered, {} ops, get p50 {:.3} ms / p99 {:.3} ms (n = {}), \
         put p50 {:.3} ms / p99 {:.3} ms (n = {}), late p99 {:.3} ms / max {:.3} ms (n = {}), \
         failures {}, retransmits {}, tail {:.1} ms",
        p.rate,
        p.ops,
        p.get_ms.percentile(50.0),
        p.get_ms.percentile(99.0),
        p.get_ms.len(),
        p.put_ms.percentile(50.0),
        p.put_ms.percentile(99.0),
        p.put_ms.len(),
        p.late_ms.percentile(99.0),
        p.late_ms.max(),
        p.late_ms.len(),
        p.failures(),
        p.retransmits,
        p.tail_ms
    )
}

/// Untraced `serve-light` / `serve-heavy`: set-up (median of 3), the
/// fixed-rate phase for `seconds`, then a drain.
pub fn serve_untraced(name: &str, rate: f64, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let (mut ready, setup_s) = set_up_median(seed)?;
    let plan = mixed_plan(seed, 0, (rate * seconds) as usize);
    let p = ready.client.run(&plan, rate, false)?;
    let reports = ready.cluster.drain()?;
    let eng = merge_reports(&reports);
    let late_ok = generator_on_time(&p);

    let mut o = Outcome {
        correct: p.mismatched == 0 && ready.seeding.mismatched == 0 && late_ok,
        attempted: p.ops + ready.seeding.ops,
        failed: p.failures() + ready.seeding.failures(),
        ..Outcome::default()
    };
    o.note(summary(name, &p));
    if !late_ok {
        o.note(format!(
            "{name}: REJECTED: generator late p99 {:.3} ms exceeds the get p50 {:.3} ms",
            p.late_ms.percentile(99.0),
            p.get_ms.percentile(50.0)
        ));
    }
    o.end_to_end(E2e {
        setup_s,
        sim_wall_s: p.wall_s,
        hit_ratio: p.hit_ratio(),
        msgs_per_op: (eng.msgs_sent + ready.client.datagrams) as f64 / eng.ops_issued.max(1) as f64,
        get: (p.get_ms.percentile(50.0), p.get_ms.percentile(99.0)),
        put: (p.put_ms.percentile(50.0), p.put_ms.percentile(99.0)),
    });
    Ok(o)
}

/// Per-layer numbers of a traced serve run.
struct ServeLayers {
    /// The untraced half.
    plain: Phase,
    /// The traced half.
    traced: Phase,
    /// Merged engine report.
    engines: Engines,
    /// `MetricsResp` sums after the traced half.
    metrics_resp: (u64, u64, u64, u64),
    /// Operations of the key-seeding phase.
    seeding_ops: u64,
    /// Capacity search result and its probes (`serve-heavy` only).
    capacity: Option<(f64, Vec<(f64, String)>)>,
}

/// Traced `serve-*`: after set-up, an untraced and a traced phase of
/// `seconds / 2` each at `rate`; the cluster's own numbers come from
/// `MetricsResp` and the drained `NodeReport`s. With `search`, a fresh
/// cluster then runs the capacity search (on its own cluster, so the
/// probes above the knee stay out of the engine histograms).
fn serve_traced(rate: f64, seed: u64, seconds: f64, search: bool) -> io::Result<ServeLayers> {
    let mut ready = set_up(seed)?;
    let n = (rate * seconds / 2.0) as usize;
    let plain = ready.client.run(&mixed_plan(seed, 0, n), rate, false)?;
    let traced = ready.client.run(&mixed_plan(seed, 1, n), rate, true)?;
    let metrics_resp = metrics_of(ready.cluster.addrs())?;
    let reports = ready.cluster.drain()?;
    let capacity = if search {
        let mut probing = set_up(seed)?;
        let mut probes = Vec::new();
        let max_rate = capacity_search(&mut probing.client, seed, &mut probes)?;
        probing.cluster.drain()?;
        Some((max_rate, probes))
    } else {
        None
    };
    Ok(ServeLayers {
        plain,
        traced,
        engines: merge_reports(&reports),
        metrics_resp,
        seeding_ops: ready.seeding.ops,
        capacity,
    })
}

impl ServeLayers {
    /// Appends the per-layer metrics of the datapath.
    fn metrics(&self, o: &mut Layers) {
        let t = &self.traced;
        let e = &self.engines;
        let us = |h: &Histogram, p: f64| h.percentile(p) as f64;
        let ops = (self.plain.ops + t.ops + self.seeding_ops).max(1) as f64;
        o.set(
            "wire.encode_ns",
            t.encode.1 as f64 / t.encode.0.max(1) as f64,
        );
        o.set(
            "wire.decode_ns",
            t.decode.1 as f64 / t.decode.0.max(1) as f64,
        );
        o.set("wire.bytes_per_op", t.bytes as f64 / t.ops.max(1) as f64);
        o.set("engine.advertise_p50_us", us(&e.advertise, 50.0));
        o.set("engine.advertise_p99_us", us(&e.advertise, 99.0));
        o.set("engine.lookup_p50_us", us(&e.lookup, 50.0));
        o.set("engine.lookup_p99_us", us(&e.lookup, 99.0));
        o.set(
            "engine.msgs_per_op",
            e.msgs_sent as f64 / e.ops_issued.max(1) as f64,
        );
        o.set("engine.op_retries", e.op_retries as f64);
        let hold = |p: f64| (t.get_ms.percentile(p) - us(&e.lookup, p) / 1e3).max(0.0);
        o.set("serve.hold_p50_ms", hold(50.0));
        o.set("serve.hold_p99_ms", hold(99.0));
        o.set("serve.send_errors", e.send_errors as f64);
        o.set("serve.malformed_datagrams", e.malformed as f64);
        o.set(
            "serve.unanswered",
            (self.plain.unanswered + t.unanswered) as f64,
        );
        o.set(
            "gen.retransmits",
            (self.plain.retransmits + t.retransmits) as f64,
        );
        o.set(
            "serve.cpu_busy_ratio",
            t.cpu_s / (t.wall_s.max(1e-9) * nproc() as f64),
        );
        o.set("gen.late_p99_ms", t.late_ms.percentile(99.0));
        o.set("gen.late_max_ms", t.late_ms.max());
        let cpu_per_op = |p: &Phase| p.gen_cpu_s / p.ops.max(1) as f64;
        o.set(
            "trace.overhead_ratio",
            cpu_per_op(t) / cpu_per_op(&self.plain).max(1e-12),
        );
        o.set(
            "op_fail_ratio",
            (self.plain.failures() + t.failures()) as f64 / ops,
        );
        if let Some((max_rate, _)) = &self.capacity {
            o.set("max_rate_ops_s", *max_rate);
        }
    }

    /// Report lines: the get p50 split and the phase summaries.
    fn notes(&self, name: &str, o: &mut Outcome) {
        let t = &self.traced;
        let get_p50 = t.get_ms.percentile(50.0);
        let engine_p50_ms = self.engines.lookup.percentile(50.0) as f64 / 1e3;
        let hold = (get_p50 - engine_p50_ms).max(0.0);
        o.note(summary(&format!("{name} untraced"), &self.plain));
        o.note(summary(&format!("{name} traced"), t));
        o.note(format!(
            "{name}: get_p50_ms {get_p50:.3} = engine.lookup_p50 {engine_p50_ms:.3} ms + serve.hold_p50 {hold:.3} ms; \
             larger share: {}",
            if hold >= engine_p50_ms {
                "pqs-serve (socket queueing, reply batching, timer granularity)"
            } else {
                "pqs-core engine"
            }
        ));
        if let Some((max_rate, probes)) = &self.capacity {
            for (r, missed) in probes {
                o.note(format!(
                    "{name}: capacity probe {r:.0} ops/s: {}",
                    if missed.is_empty() {
                        "meets the limit"
                    } else {
                        missed
                    }
                ));
            }
            o.note(format!(
                "{name}: max_rate_ops_s {max_rate:.0} (5% resolution)"
            ));
        }
        let (issued, completed, failed, refused) = self.metrics_resp;
        o.note(format!(
            "{name}: MetricsResp: issued {issued}, completed {completed}, failed {failed}, refused {refused}; \
             peak_rss_mib {:.1}",
            peak_rss_mib()
        ));
    }
}

/// Traced `serve-*` as a result: the per-layer metrics of
/// [`serve_traced`], with the output checks of both halves.
pub fn serve_traced_outcome(
    name: &str,
    rate: f64,
    search: bool,
    seed: u64,
    seconds: f64,
    out_dir: Option<&Path>,
) -> io::Result<Outcome> {
    let layers = serve_traced(rate, seed, seconds, search)?;
    let (plain, traced) = (&layers.plain, &layers.traced);
    // Conservation at the servers: once the client has its answers,
    // every operation a node issued has completed.
    let (issued, completed, _, _) = layers.metrics_resp;
    let mut o = Outcome {
        correct: plain.mismatched + traced.mismatched == 0
            && generator_on_time(plain)
            && generator_on_time(traced)
            && issued == completed,
        attempted: plain.ops + traced.ops,
        failed: plain.failures() + traced.failures(),
        ..Outcome::default()
    };
    layers.notes(name, &mut o);
    if let Some(dir) = out_dir {
        for (log, side) in [(&traced.send_spans, "send"), (&traced.recv_spans, "recv")] {
            if let Some(log) = log {
                crate::sim::write_trace(log, dir, &format!("{name}-{side}"), seed);
            }
        }
    }
    let mut l = Layers::new();
    layers.metrics(&mut l);
    l.emit(&mut o);
    Ok(o)
}
