//! Attribution self-test: a fixed busy-wait injected inside the routing
//! span must land on `routing.self_s` (about calls × delay more), while
//! `net.self_s` and `quorum.self_s` stay within noise — the injected
//! slowdown is pinned to the layer it was injected into.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pqs_perfbench::sim::{drive, manet_smoke_config, SelfTimes, Tracer};
use std::time::Duration;

fn traced(delay: Duration) -> (SelfTimes, u64) {
    let cfg = manet_smoke_config(200, 6, 30);
    let mut tracer = Tracer::new();
    tracer.routing_delay = delay;
    let d = drive(&cfg, 7, Some(&mut tracer));
    (SelfTimes::of(&tracer), d.events)
}

#[test]
fn injected_routing_delay_lands_on_routing() {
    let (base, events) = traced(Duration::ZERO);
    // Size the delay so the injected total is about twice the time the
    // other layers take, which keeps their noise small beside it.
    let calls = base.routing_calls;
    assert!(calls > 10_000, "smoke run too small: {calls} routing calls");
    let delay_ns = ((2.0 * (base.net + base.quorum) / calls as f64) * 1e9).clamp(200.0, 20_000.0);
    let delay = Duration::from_nanos(delay_ns as u64);
    let (slow, slow_events) = traced(delay);
    assert_eq!(
        events, slow_events,
        "the delay must not change the simulation"
    );
    assert_eq!(base.routing_calls, slow.routing_calls);

    let injected = calls as f64 * delay.as_secs_f64();
    let d_routing = slow.routing - base.routing;
    let d_net = slow.net - base.net;
    let d_quorum = slow.quorum - base.quorum;
    eprintln!(
        "calls {calls}, delay {delay:?}, injected {injected:.3} s: \
         Δrouting {d_routing:.3} s, Δnet {d_net:.3} s, Δquorum {d_quorum:.3} s \
         (base routing {:.3}, net {:.3}, quorum {:.3})",
        base.routing, base.net, base.quorum
    );
    assert!(
        (0.8..=1.5).contains(&(d_routing / injected)),
        "routing.self_s rose by {d_routing:.3} s for {injected:.3} s injected"
    );
    assert!(
        d_net.abs() <= 0.25 * injected,
        "net.self_s moved by {d_net:.3} s for {injected:.3} s injected into routing"
    );
    assert!(
        d_quorum.abs() <= 0.25 * injected,
        "quorum.self_s moved by {d_quorum:.3} s for {injected:.3} s injected into routing"
    );
}
