//! The scheduler: an event queue paired with a virtual clock.

use crate::metrics::Counter;
use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// An event queue paired with the current virtual time.
///
/// The scheduler is pure data: it never calls back into user code. A
/// simulation owns a `Scheduler` alongside its own state and drives it
/// either manually with [`Scheduler::pop`] or through [`run_until`].
///
/// Cloning forks the queue and the clock: `EventId`s minted before the
/// clone stay cancellable on both copies, and the copies evolve
/// independently afterwards — the basis of snapshot/fork sweeps.
///
/// # Examples
///
/// ```
/// use pqs_sim::{Scheduler, SimTime, SimDuration};
///
/// let mut scheduler = Scheduler::new();
/// scheduler.schedule_in(SimDuration::from_millis(5), "hello");
/// let (at, event) = scheduler.pop().expect("one event pending");
/// assert_eq!(at, SimTime::from_millis(5));
/// assert_eq!(scheduler.now(), at);
/// assert_eq!(event, "hello");
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    clamped: Counter,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            clamped: Counter::new(),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// Scheduling into the past would break causality; such requests are
    /// clamped to fire at the current time and *counted* in
    /// [`Scheduler::clamped_schedules`] so the violation is visible in
    /// metrics exports rather than silently absorbed (debug and release
    /// builds behave identically, preserving cross-profile determinism).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        if at < self.now {
            self.clamped.inc();
        }
        self.queue.schedule(at.max(self.now), event)
    }

    /// Number of [`Scheduler::schedule_at`] calls whose timestamp lay in
    /// the past and was clamped to `now` — causality violations by the
    /// caller. Zero in a healthy simulation.
    pub fn clamped_schedules(&self) -> u64 {
        self.clamped.get()
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Removes the earliest pending event, advances the clock to its firing
    /// time, and returns it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes the earliest pending event if it fires at or before
    /// `until`, advances the clock to its firing time, and returns it.
    /// Returns `None`, leaving the clock and every pending event in
    /// place, when the next event fires after `until` or none is
    /// pending.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let (at, event) = self.queue.pop_until(until)?;
        self.now = at;
        Some((at, event))
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A simulation that can be driven by [`run_until`].
///
/// Implementors own a [`Scheduler`] and dispatch each popped event in
/// [`handle`](Simulate::handle), during which they may schedule further
/// events. See the crate-level example.
pub trait Simulate {
    /// The event type processed by this simulation.
    type Event;

    /// Grants the driver access to the scheduler.
    fn scheduler_mut(&mut self) -> &mut Scheduler<Self::Event>;

    /// Processes one event at the current virtual time.
    fn handle(&mut self, event: Self::Event);
}

/// Runs `sim` until its queue is exhausted or the next event would fire
/// after `end`. Returns the number of events processed.
///
/// Events scheduled exactly at `end` are still processed.
pub fn run_until<S: Simulate>(sim: &mut S, end: SimTime) -> u64 {
    let mut processed = 0;
    while let Some((_, event)) = sim.scheduler_mut().pop_until(end) {
        sim.handle(event);
        processed += 1;
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_on_pop() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), 1);
        s.pop();
        s.schedule_in(SimDuration::from_secs(2), 2);
        let (at, _) = s.pop().unwrap();
        assert_eq!(at, SimTime::from_secs(3));
    }

    struct Chain {
        scheduler: Scheduler<u32>,
        fired: Vec<(SimTime, u32)>,
    }

    impl Simulate for Chain {
        type Event = u32;
        fn scheduler_mut(&mut self) -> &mut Scheduler<u32> {
            &mut self.scheduler
        }
        fn handle(&mut self, event: u32) {
            self.fired.push((self.scheduler.now(), event));
            if event < 5 {
                self.scheduler
                    .schedule_in(SimDuration::from_secs(1), event + 1);
            }
        }
    }

    #[test]
    fn run_until_processes_chain() {
        let mut sim = Chain {
            scheduler: Scheduler::new(),
            fired: Vec::new(),
        };
        sim.scheduler.schedule_at(SimTime::ZERO, 1);
        let n = run_until(&mut sim, SimTime::from_secs(10));
        assert_eq!(n, 5);
        assert_eq!(sim.fired.len(), 5);
        assert_eq!(sim.fired[4], (SimTime::from_secs(4), 5));
    }

    #[test]
    fn run_until_respects_horizon_inclusive() {
        let mut sim = Chain {
            scheduler: Scheduler::new(),
            fired: Vec::new(),
        };
        sim.scheduler.schedule_at(SimTime::ZERO, 1);
        let n = run_until(&mut sim, SimTime::from_secs(2));
        // Events at t=0, 1, 2 fire; the one at t=3 does not.
        assert_eq!(n, 3);
        assert_eq!(sim.scheduler.len(), 1);
    }

    #[test]
    fn past_schedules_are_clamped_and_counted() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), "late");
        s.pop();
        assert_eq!(s.clamped_schedules(), 0);
        s.schedule_at(SimTime::from_secs(3), "past");
        assert_eq!(s.clamped_schedules(), 1);
        let (at, event) = s.pop().expect("clamped event pending");
        assert_eq!(at, SimTime::from_secs(10), "fires at now, not in the past");
        assert_eq!(event, "past");
        assert_eq!(s.now(), SimTime::from_secs(10));
    }

    #[test]
    fn determinism_same_seedless_trace() {
        let build = || {
            let mut s = Scheduler::new();
            for i in 0..1000u32 {
                s.schedule_at(SimTime::from_micros(u64::from(i % 17)), i);
            }
            std::iter::from_fn(move || s.pop()).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
