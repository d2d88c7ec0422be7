//! The simulator workloads: `substrate-100k` (pqs-sim + pqs-net alone)
//! and `manet-800` (the paper's largest network with the full quorum
//! service over AODV).
//!
//! Untraced runs time the public entry points (`Network::run`,
//! `run_scenario`). The traced run drives the same scenario through the
//! same public API the runner uses, with a wrapper [`Stack`] that opens
//! a span around `Router::on_upcall` and around `QuorumStack::dispatch`
//! for every upcall, and checks that its outcome is identical to the
//! untraced run's.

use crate::layers::Layers;
use crate::stats::{E2e, Outcome, Samples};
use crate::trace::SpanLog;
use pqs_core::messages::AppMsg;
use pqs_core::runner::{run_scenario, PhaseStats, RunMetrics, ScenarioConfig};
use pqs_core::service::{OpKind, QuorumCounters};
use pqs_core::stack::{QuorumNet, QuorumStack};
use pqs_core::workload::Workload;
use pqs_net::{MobilityModel, NetConfig, NetStats, Network, Stack, Upcall};
use pqs_routing::{RoutePacket, RouterEvent};
use pqs_sim::rng::{self, streams};
use pqs_sim::SimTime;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Node count of the `substrate-100k` workload.
pub const SUBSTRATE_N: usize = 100_000;
/// Simulated window of one `substrate-100k` run, seconds.
const SUBSTRATE_HORIZON_S: u64 = 30;
/// Node count of the `manet-800` workload.
pub const MANET_N: usize = 800;

/// The `substrate-100k` network: the paper's density and walking random
/// waypoint mobility at `n` nodes, seeded.
fn substrate_config(n: usize, seed: u64) -> NetConfig {
    let mut cfg = NetConfig::paper(n);
    cfg.seed = seed;
    cfg
}

/// The `manet-800` scenario at `n` nodes: the paper-default service
/// (RANDOM advertise over AODV, UNIQUE-PATH lookup, salvation, local
/// repair, early halting) with random waypoint up to 5 m/s, 30
/// advertises and 150 lookups.
pub fn manet_config(n: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.net.mobility = MobilityModel::fast(5.0);
    cfg.workload = pqs_bench::bench_workload(30, 150, n);
    cfg
}

/// A smaller `manet` shape for the attribution self-test: same service
/// and mobility, `n` nodes, `adv` advertises and `lkp` lookups.
pub fn manet_smoke_config(n: usize, adv: usize, lkp: usize) -> ScenarioConfig {
    let mut cfg = manet_config(n);
    cfg.workload = pqs_bench::bench_workload(adv, lkp, n);
    cfg
}

/// Accepts and drops every upcall: the substrate workload measures the
/// PHY, MAC, heartbeats, grid and mobility only.
struct Sink {
    upcalls: u64,
}

impl Stack<()> for Sink {
    fn on_upcall(&mut self, _net: &mut Network<()>, _upcall: Upcall<()>) {
        self.upcalls += 1;
    }
}

/// Runs `net` over the substrate window one simulated second at a time,
/// recording each second's host milliseconds in `slices`.
fn run_sliced<S: Stack<()>>(net: &mut Network<()>, stack: &mut S, slices: &mut Samples) -> u64 {
    let mut events = 0;
    for s in 1..=SUBSTRATE_HORIZON_S {
        let t = Instant::now();
        events += net.run(stack, SimTime::from_secs(s));
        slices.push(t.elapsed().as_secs_f64() * 1e3);
    }
    events
}

/// Median of `reps` timed calls of `f`, seconds.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::new();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64());
    }
    s.median()
}

/// `substrate-100k` set-ups per run whose median is `setup_s`.
const SUBSTRATE_SETUP_REPS: usize = 5;
/// `manet-800` set-ups per run whose median is `setup_s` (each takes a
/// few milliseconds, so many are cheap and steady the median).
const MANET_SETUP_REPS: usize = 25;

/// Untraced `substrate-100k`: builds the network [`SUBSTRATE_SETUP_REPS`] times
/// (median → `setup_s`), then simulates the window from clones of one
/// built network while another window fits in `seconds` (median →
/// `sim_wall_s`). Every rerun must process the same events.
pub fn substrate_untraced(n: usize, seed: u64, seconds: f64) -> Outcome {
    let cfg = substrate_config(n, seed);
    let setup_s = median_time(SUBSTRATE_SETUP_REPS, || {
        std::hint::black_box(Network::<()>::new(cfg.clone()));
    });
    let template: Network<()> = Network::new(cfg);
    let mut walls = Samples::new();
    let mut slices = Samples::new();
    let mut first: Option<(u64, NetStats)> = None;
    let mut consistent = true;
    let mut upcalls = 0;
    let measure = Instant::now();
    // Another window only if it is expected to end within `seconds`.
    while walls.is_empty() || measure.elapsed().as_secs_f64() + walls.median() <= seconds {
        let mut net = template.clone();
        let mut sink = Sink { upcalls: 0 };
        let t = Instant::now();
        let events = run_sliced(&mut net, &mut sink, &mut slices);
        walls.push(t.elapsed().as_secs_f64());
        upcalls = sink.upcalls;
        match first {
            None => first = Some((events, *net.stats())),
            Some(f) => consistent &= f == (events, *net.stats()),
        }
    }
    let (events, stats) = first.expect("at least one run");
    let node_secs = (n as u64 * SUBSTRATE_HORIZON_S) as f64;
    let sim_wall_s = walls.median();

    let mut o = Outcome {
        correct: consistent && events > 0,
        attempted: walls.len() as u64,
        failed: u64::from(!consistent),
        ..Outcome::default()
    };
    o.note(format!(
        "substrate-{n}: seed {seed}, {SUBSTRATE_HORIZON_S} s simulated, {events} events, \
         {upcalls} upcalls, {} runs, sim_wall_s median {sim_wall_s:.4} (min {:.4}, max {:.4})",
        walls.len(),
        walls.percentile(0.0),
        walls.max()
    ));
    o.note(format!(
        "substrate-{n}: {:.0} events/s; no client operations, so hit_ratio is 1 by convention, \
         msgs_per_op = PHY transmissions per node-second, get/put = host ms per simulated second \
         (n = {} slices)",
        events as f64 / sim_wall_s,
        slices.len()
    ));
    o.end_to_end(E2e {
        setup_s,
        sim_wall_s,
        hit_ratio: 1.0,
        msgs_per_op: stats.phy_tx as f64 / node_secs,
        get: (slices.percentile(50.0), slices.percentile(99.0)),
        put: (slices.percentile(50.0), slices.percentile(99.0)),
    });
    o
}

// ---------------------------------------------------------------------
// manet: the classic drive, plain or traced
// ---------------------------------------------------------------------

/// Span tracing state of a traced drive.
pub struct Tracer {
    /// The span log.
    pub log: SpanLog,
    /// Upcalls seen.
    pub upcalls: u64,
    /// Busy-wait added inside every routing span (zero in benchmark
    /// runs; the attribution self-test sets it to check that the added
    /// time lands on `routing.self_s` alone).
    pub routing_delay: Duration,
}

impl Tracer {
    /// A tracer with an empty log and no injected delay.
    pub fn new() -> Self {
        Tracer {
            log: SpanLog::new(),
            upcalls: 0,
            routing_delay: Duration::ZERO,
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// The wrapper stack of a traced drive: the body of
/// `QuorumStack::on_upcall`, split at the layer boundary.
struct Traced<'a> {
    stack: &'a mut QuorumStack,
    tracer: &'a mut Tracer,
    parent: Option<u32>,
}

fn op_of(event: &RouterEvent<AppMsg>) -> Option<u64> {
    let msg = match event {
        RouterEvent::Delivered { payload, .. }
        | RouterEvent::OneHop { payload, .. }
        | RouterEvent::Transit { payload, .. } => &**payload,
        _ => return None,
    };
    Some(match msg {
        AppMsg::Store { op, .. }
        | AppMsg::LookupReq { op, .. }
        | AppMsg::LookupReply { op, .. } => *op,
        AppMsg::Walk(m) => m.op,
        AppMsg::WalkReply(m) => m.op,
        AppMsg::Flood(m) => m.op,
        AppMsg::FloodReply(m) => m.op,
    })
}

fn busy_wait(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

impl Stack<RoutePacket<AppMsg>> for Traced<'_> {
    fn on_upcall(&mut self, net: &mut QuorumNet, upcall: Upcall<RoutePacket<AppMsg>>) {
        self.tracer.upcalls += 1;
        let span = self.tracer.log.open("routing.on_upcall", self.parent, None);
        let events = self.stack.router.on_upcall(net, upcall);
        if !self.tracer.routing_delay.is_zero() {
            busy_wait(self.tracer.routing_delay);
        }
        let op = events.iter().find_map(op_of);
        self.tracer.log.tag(&span, op);
        self.tracer.log.close(span);
        let span = self.tracer.log.open("quorum.dispatch", self.parent, op);
        self.stack.dispatch(net, events);
        self.tracer.log.close(span);
    }
}

/// Runs `f`, inside a span named `name` when traced; `op` reads the
/// operation id to tag the span with off `f`'s result.
fn in_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: impl FnOnce(&T) -> Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = tracer.as_mut() else {
        return f();
    };
    let span = t.log.open(name, None, None);
    let out = f();
    t.log.tag(&span, op(&out));
    t.log.close(span);
    out
}

fn no_op<T>(_: &T) -> Option<u64> {
    None
}

/// Advances to `until`, inside a `net.run` span when traced.
fn advance(
    net: &mut QuorumNet,
    stack: &mut QuorumStack,
    tracer: &mut Option<&mut Tracer>,
    until: SimTime,
) -> u64 {
    match tracer {
        None => net.run(stack, until),
        Some(t) => {
            let span = t.log.open("net.run", None, None);
            let mut traced = Traced {
                stack,
                tracer: t,
                parent: span.index(),
            };
            let events = net.run(&mut traced, until);
            t.log.close(span);
            events
        }
    }
}

/// Outcome of one classic drive: what `run_scenario` reports plus
/// the event count and phase timings.
#[derive(Debug, Clone)]
pub struct Drive {
    /// Events processed by `Network::run`.
    pub events: u64,
    /// Host seconds from the start of the build to the metrics.
    pub wall_s: f64,
    /// Advertise operations issued.
    pub advertises: usize,
    /// Lookup operations issued.
    pub lookups: usize,
    /// Lookups answered at the originator.
    pub hits: usize,
    /// Lookups whose quorums intersected.
    pub intersections: usize,
    /// Lookups that lost at least one reply.
    pub reply_drops: usize,
    /// Answered lookups whose value is not the key's last advertised value.
    pub wrong_reads: usize,
    /// Messages during the advertise phase.
    pub advertise_phase: PhaseStats,
    /// Messages during the lookup phase.
    pub lookup_phase: PhaseStats,
    /// Strategy counters.
    pub counters: QuorumCounters,
    /// Substrate counters.
    pub net_stats: NetStats,
    /// AODV counters.
    pub routing: pqs_routing::RoutingStats,
    /// PHY admission work.
    pub phy_work: u64,
    /// Lookup hit latency on the simulated clock, ms.
    pub lookup_ms: Samples,
}

impl Drive {
    /// Quorum operations issued.
    pub fn ops(&self) -> usize {
        self.advertises + self.lookups
    }

    /// The fields `run_scenario` also reports that differ from `m`
    /// (empty when the runs agree exactly).
    pub fn mismatches(&self, m: &RunMetrics) -> Vec<&'static str> {
        let mut bad = Vec::new();
        let mut check = |ok: bool, name| {
            if !ok {
                bad.push(name);
            }
        };
        check(self.advertises == m.advertises, "advertises");
        check(self.lookups == m.lookups, "lookups");
        check(self.hits == m.hits, "hits");
        check(self.intersections == m.intersections, "intersections");
        check(self.reply_drops == m.reply_drops, "reply_drops");
        check(self.wrong_reads == m.wrong_reads, "wrong_reads");
        check(self.advertise_phase == m.advertise_phase, "advertise_phase");
        check(self.lookup_phase == m.lookup_phase, "lookup_phase");
        check(self.counters == m.counters, "counters");
        check(self.net_stats == m.net_stats, "net_stats");
        check(
            self.lookup_ms.len() == m.lookup_latency.count() as usize,
            "lookup_latency",
        );
        bad
    }
}

fn snapshot(net: &QuorumNet, stack: &QuorumStack) -> PhaseStats {
    let routing = stack.router.stats();
    PhaseStats {
        data_tx: routing.data_tx,
        control_tx: routing.control_tx(),
        link_tx: stack.counters().link_tx(),
        phy_tx: net.stats().phy_tx,
    }
}

fn minus(a: PhaseStats, b: PhaseStats) -> PhaseStats {
    PhaseStats {
        data_tx: a.data_tx - b.data_tx,
        control_tx: a.control_tx - b.control_tx,
        link_tx: a.link_tx - b.link_tx,
        phy_tx: a.phy_tx - b.phy_tx,
    }
}

/// Runs `cfg` with `seed` through the public API the runner uses —
/// `Network::new`, `QuorumStack::new`, `Workload::generate`,
/// `advertise`/`lookup` and `Network::run` — in the runner's order.
/// With a tracer, every layer call is wrapped in a span. Supports the
/// scenarios the benchmark uses: no churn, no faults, no controller.
pub fn drive(cfg: &ScenarioConfig, seed: u64, mut tracer: Option<&mut Tracer>) -> Drive {
    assert!(
        cfg.churn.is_none() && cfg.faults.is_none(),
        "the benchmark drives churn- and fault-free scenarios only"
    );
    let start = Instant::now();
    let mut net_cfg = cfg.net.clone();
    net_cfg.seed = seed;
    net_cfg.promiscuous =
        cfg.service.promiscuous_replies || cfg.service.caching || net_cfg.promiscuous;

    let mut net: QuorumNet = in_span(&mut tracer, "net.build", no_op, || Network::new(net_cfg));
    let (mut stack, workload) = in_span(&mut tracer, "quorum.build", no_op, || {
        let stack = QuorumStack::new(&net, cfg.service, seed);
        let mut workload_rng = rng::stream(seed, streams::WORKLOAD);
        let workload = Workload::generate(&cfg.workload, &net.alive_nodes(), &mut workload_rng);
        (stack, workload)
    });

    let mut events = 0;
    for &(at, who, key, value) in &workload.advertisements {
        events += advance(&mut net, &mut stack, &mut tracer, at);
        in_span(
            &mut tracer,
            "quorum.advertise",
            |op| Some(*op),
            || stack.advertise(&mut net, who, key, value),
        );
    }
    events += advance(
        &mut net,
        &mut stack,
        &mut tracer,
        cfg.workload.lookup_start(),
    );
    let after_advertise = snapshot(&net, &stack);

    for &(at, who, key) in &workload.lookups {
        let at = at.max(net.now());
        events += advance(&mut net, &mut stack, &mut tracer, at);
        assert!(
            net.is_alive(who),
            "churn-free scenarios keep every looker alive"
        );
        in_span(
            &mut tracer,
            "quorum.lookup",
            |op| Some(*op),
            || stack.lookup(&mut net, who, key),
        );
    }
    let horizon = cfg.workload.lookup_end().max(net.now()) + cfg.drain;
    events += advance(&mut net, &mut stack, &mut tracer, horizon);
    in_span(&mut tracer, "quorum.finalize", no_op, || {
        stack.finalize_pending_lookups(&mut net)
    });
    let final_stats = snapshot(&net, &stack);

    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &(_, _, key, value) in &workload.advertisements {
        truth.insert(key, value);
    }
    let mut d = Drive {
        events,
        wall_s: 0.0,
        advertises: 0,
        lookups: 0,
        hits: 0,
        intersections: 0,
        reply_drops: 0,
        wrong_reads: 0,
        advertise_phase: after_advertise,
        lookup_phase: minus(final_stats, after_advertise),
        counters: *stack.counters(),
        net_stats: *net.stats(),
        routing: *stack.router.stats(),
        phy_work: net.phy_work(),
        lookup_ms: Samples::new(),
    };
    for (_, rec) in stack.ops() {
        match rec.kind {
            OpKind::Advertise => d.advertises += 1,
            OpKind::Lookup => {
                d.lookups += 1;
                if rec.replied {
                    d.hits += 1;
                    if let Some(done) = rec.completed {
                        d.lookup_ms
                            .push((done - rec.started).as_micros() as f64 / 1e3);
                    }
                    if rec.value.is_some() && rec.value != truth.get(&rec.key).copied() {
                        d.wrong_reads += 1;
                    }
                }
                d.intersections += usize::from(rec.intersected);
                d.reply_drops += usize::from(rec.reply_dropped);
            }
        }
    }
    d.wall_s = start.elapsed().as_secs_f64();
    d
}

/// Untraced `manet-800`: builds the network, stack and workload
/// [`MANET_SETUP_REPS`] times (median → `setup_s`), then runs the scenario
/// through `run_scenario` while another run fits in `seconds` (median
/// wall → `sim_wall_s`). Reruns of one seed must agree.
pub fn manet_untraced(cfg: &ScenarioConfig, seed: u64, seconds: f64) -> Outcome {
    let setup_s = median_time(MANET_SETUP_REPS, || {
        let mut net_cfg = cfg.net.clone();
        net_cfg.seed = seed;
        let net: QuorumNet = Network::new(net_cfg);
        let stack = QuorumStack::new(&net, cfg.service, seed);
        let mut r = rng::stream(seed, streams::WORKLOAD);
        let w = Workload::generate(&cfg.workload, &net.alive_nodes(), &mut r);
        std::hint::black_box((net, stack, w));
    });
    let mut walls = Samples::new();
    let mut first: Option<RunMetrics> = None;
    let mut consistent = true;
    let measure = Instant::now();
    // Another run only if it is expected to end within `seconds`.
    while walls.is_empty() || measure.elapsed().as_secs_f64() + walls.median() <= seconds {
        let t = Instant::now();
        let m = run_scenario(cfg, seed);
        walls.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(m),
            Some(f) => consistent &= f.hits == m.hits && f.net_stats == m.net_stats,
        }
    }
    let m = first.expect("at least one run");
    let ops = m.advertises + m.lookups;
    let msgs = m.advertise_phase.app_tx()
        + m.advertise_phase.control_tx
        + m.lookup_phase.app_tx()
        + m.lookup_phase.control_tx;
    let sim_wall_s = walls.median();
    let horizon_s = (cfg.workload.lookup_end() + cfg.drain).as_secs_f64();
    let mut per_sim_s = Samples::new();
    for w in walls.values() {
        per_sim_s.push(w * 1e3 / horizon_s);
    }

    let mut o = Outcome {
        correct: consistent && m.wrong_reads == 0 && ops > 0,
        attempted: ops as u64,
        failed: m.wrong_reads as u64,
        ..Outcome::default()
    };
    o.note(format!(
        "manet-{}: seed {seed}, {} advertises, {} lookups, {} hits, {} runs, \
         sim_wall_s median {sim_wall_s:.4} (min {:.4}, max {:.4})",
        m.n,
        m.advertises,
        m.lookups,
        m.hits,
        walls.len(),
        walls.percentile(0.0),
        walls.max()
    ));
    o.note(format!(
        "manet-{}: {horizon_s:.0} s simulated; no client requests, so get/put = host ms per \
         simulated second (n = {} runs)",
        m.n,
        walls.len()
    ));
    o.end_to_end(E2e {
        setup_s,
        sim_wall_s,
        hit_ratio: m.hit_ratio(),
        msgs_per_op: msgs as f64 / ops.max(1) as f64,
        get: (per_sim_s.median(), per_sim_s.percentile(99.0)),
        put: (per_sim_s.median(), per_sim_s.percentile(99.0)),
    });
    o
}

/// Writes `log` under `out_dir` as `trace-<name>-<seed>.jsonl`.
pub(crate) fn write_trace(log: &SpanLog, out_dir: &Path, name: &str, seed: u64) {
    let path = out_dir.join(format!("trace-{name}-{seed}.jsonl"));
    if let Err(e) = log.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Fills the substrate counters shared by both sim workloads.
fn net_layers(l: &mut Layers, stats: &NetStats, phy_work: u64, upcalls: u64, events: u64) {
    l.set("sim.events", events as f64);
    l.set("net.phy_tx", stats.phy_tx as f64);
    l.set("net.hello_tx", stats.hello_tx as f64);
    l.set("net.data_tx", stats.data_tx as f64);
    l.set("net.delivered", stats.delivered as f64);
    l.set("net.mac_retries", stats.mac_retries as f64);
    l.set("net.mac_backoff_draws", stats.mac_backoff_draws as f64);
    l.set("net.mac_channel_defers", stats.mac_channel_defers as f64);
    l.set("net.mac_failures", stats.mac_failures as f64);
    l.set("net.phy_rx_aborted", stats.phy_rx_aborted as f64);
    l.set("net.phy_work", phy_work as f64);
    l.set("net.upcalls", upcalls as f64);
}

/// Traced `substrate-100k`: one untraced window (the reference), then a
/// build and a window inside `net.build` / `net.run` spans. The traced
/// window must process the same events and counters.
pub fn substrate_traced(n: usize, seed: u64, out_dir: Option<&Path>) -> Outcome {
    let cfg = substrate_config(n, seed);

    let t = Instant::now();
    let mut net: Network<()> = Network::new(cfg.clone());
    let mut sink = Sink { upcalls: 0 };
    let plain_events = run_sliced(&mut net, &mut sink, &mut Samples::new());
    let plain_wall = t.elapsed().as_secs_f64();
    let plain_stats = *net.stats();
    drop(net);

    let mut log = SpanLog::new();
    let t = Instant::now();
    let span = log.open("net.build", None, None);
    let mut net: Network<()> = Network::new(cfg);
    let build_s = log.close(span) as f64 * 1e-9;
    let mut sink = Sink { upcalls: 0 };
    let mut events = 0;
    let mut run_s = 0.0;
    for s in 1..=SUBSTRATE_HORIZON_S {
        let span = log.open("net.run", None, None);
        events += net.run(&mut sink, SimTime::from_secs(s));
        run_s += log.close(span) as f64 * 1e-9;
    }
    let wall = t.elapsed().as_secs_f64();
    let identical = events == plain_events && *net.stats() == plain_stats;

    let mut l = Layers::new();
    net_layers(&mut l, net.stats(), net.phy_work(), sink.upcalls, events);
    l.set("net.self_s", run_s);
    l.set("net.build_s", build_s);
    l.set("trace.overhead_ratio", wall / plain_wall);
    l.set("attribution.coverage", (build_s + run_s) / wall);
    if let Some(dir) = out_dir {
        write_trace(&log, dir, "substrate", seed);
    }

    let mut o = Outcome {
        correct: identical,
        attempted: 2,
        failed: u64::from(!identical),
        ..Outcome::default()
    };
    o.note(format!(
        "substrate-{n} traced: {events} events (untraced {plain_events}), counters {}; \
         net.build_s {build_s:.4}, net.self_s {run_s:.4}, coverage {:.3}",
        if identical { "identical" } else { "DIFFER" },
        (build_s + run_s) / wall
    ));
    l.emit(&mut o);
    o
}

/// Layer self times of a traced manet drive, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SelfTimes {
    /// `Network::run` minus the upcall spans inside it.
    pub net: f64,
    /// `Router::on_upcall`.
    pub routing: f64,
    /// `QuorumStack::dispatch`, `advertise`, `lookup` and the final
    /// `finalize_pending_lookups`.
    pub quorum: f64,
    /// `Network::new`.
    pub net_build: f64,
    /// `QuorumStack::new` and `Workload::generate`.
    pub quorum_build: f64,
    /// Routing spans recorded.
    pub routing_calls: u64,
}

impl SelfTimes {
    /// Reads the self times off a tracer's aggregates.
    pub fn of(t: &Tracer) -> Self {
        let a = |n: &str| t.log.aggregate(n);
        let routing = a("routing.on_upcall");
        let dispatch = a("quorum.dispatch").secs();
        SelfTimes {
            net: a("net.run").secs() - routing.secs() - dispatch,
            routing: routing.secs(),
            quorum: dispatch
                + a("quorum.advertise").secs()
                + a("quorum.lookup").secs()
                + a("quorum.finalize").secs(),
            net_build: a("net.build").secs(),
            quorum_build: a("quorum.build").secs(),
            routing_calls: routing.count,
        }
    }

    /// Sum of every layer's time, seconds.
    pub fn total(&self) -> f64 {
        self.net + self.routing + self.quorum + self.net_build + self.quorum_build
    }
}

/// Traced `manet-800`: `run_scenario` (the untraced reference), the
/// same scenario through the plain drive (untraced wall and event
/// count), then through the traced drive. The traced outcome must
/// equal both.
pub fn manet_traced(cfg: &ScenarioConfig, seed: u64, out_dir: Option<&Path>) -> Outcome {
    let reference = run_scenario(cfg, seed);
    let plain = drive(cfg, seed, None);
    let mut tracer = Tracer::new();
    let traced = drive(cfg, seed, Some(&mut tracer));
    let mut bad = traced.mismatches(&reference);
    if traced.events != plain.events {
        bad.push("events");
    }
    let st = SelfTimes::of(&tracer);

    let mut l = Layers::new();
    net_layers(
        &mut l,
        &traced.net_stats,
        traced.phy_work,
        tracer.upcalls,
        traced.events,
    );
    l.set("net.self_s", st.net);
    l.set("net.build_s", st.net_build);
    let r = &traced.routing;
    l.set("routing.self_s", st.routing);
    l.set("routing.rreq_tx", r.rreq_tx as f64);
    l.set("routing.rrep_tx", r.rrep_tx as f64);
    l.set("routing.rerr_tx", r.rerr_tx as f64);
    l.set("routing.discoveries", r.discoveries as f64);
    l.set(
        "routing.discovery_success_ratio",
        (r.discoveries - r.discovery_failures) as f64 / r.discoveries.max(1) as f64,
    );
    let c = &traced.counters;
    l.set("quorum.self_s", st.quorum);
    l.set("quorum.walk_tx", c.walk_tx as f64);
    l.set("quorum.reply_tx", c.reply_tx as f64);
    l.set("quorum.salvations", c.salvations as f64);
    l.set("quorum.local_repairs", c.local_repairs as f64);
    l.set("quorum.global_repairs", c.global_repairs as f64);
    l.set("quorum.replies_dropped", c.replies_dropped as f64);
    l.set(
        "quorum.intersection_ratio",
        traced.intersections as f64 / traced.lookups.max(1) as f64,
    );
    l.set(
        "quorum.lookup_sim_p50_ms",
        traced.lookup_ms.percentile(50.0),
    );
    l.set(
        "quorum.lookup_sim_p99_ms",
        traced.lookup_ms.percentile(99.0),
    );
    l.set("trace.overhead_ratio", traced.wall_s / plain.wall_s);
    l.set("attribution.coverage", st.total() / traced.wall_s);
    let unanswered = traced.lookups - traced.hits;
    l.set(
        "op_fail_ratio",
        (unanswered + traced.wrong_reads) as f64 / traced.ops().max(1) as f64,
    );
    if let Some(dir) = out_dir {
        write_trace(&tracer.log, dir, "manet", seed);
    }

    let mut o = Outcome {
        correct: bad.is_empty() && traced.wrong_reads == 0,
        attempted: traced.ops() as u64,
        failed: traced.wrong_reads as u64,
        ..Outcome::default()
    };
    o.note(format!(
        "manet-{} traced: {} events (plain drive {}), run_scenario {}: {}",
        cfg.net.n,
        traced.events,
        plain.events,
        if bad.is_empty() {
            "identical"
        } else {
            "DIFFERS"
        },
        if bad.is_empty() {
            "events, hits, PhaseStats, NetStats, counters".to_string()
        } else {
            bad.join(", ")
        }
    ));
    o.note(format!(
        "manet-{} self times: net {:.3} s, routing {:.3} s ({} calls), quorum {:.3} s, \
         builds {:.4} s, wall {:.3} s, coverage {:.3}, lookup sim latency n = {}",
        cfg.net.n,
        st.net,
        st.routing,
        st.routing_calls,
        st.quorum,
        st.net_build + st.quorum_build,
        traced.wall_s,
        st.total() / traced.wall_s,
        traced.lookup_ms.len()
    ));
    l.emit(&mut o);
    o
}
