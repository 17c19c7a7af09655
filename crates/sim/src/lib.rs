//! Deterministic discrete-event simulation engine.
//!
//! Every Skyloft experiment runs on this engine: virtual time is an integer
//! nanosecond counter, events are totally ordered by `(time, sequence)`, and
//! all randomness flows from a seeded PRNG, so a run is reproducible from
//! its seed.
//!
//! The engine is deliberately minimal: an [`EventQueue`] of typed events and
//! a driver loop ([`run_until`]) that hands each event to a user-supplied
//! handler together with the mutable world state. Higher layers (the
//! hardware model, the scheduling framework, the workloads) define the event
//! type and the world.

#![warn(missing_docs)]

pub mod control;
pub mod event;
#[cfg(any(test, feature = "reference-queue"))]
pub mod reference;
pub mod rng;
pub mod time;

pub use event::{BatchSlot, EventQueue, Token};
pub use rng::{Distribution, Rng};
pub use time::{Cycles, Nanos, CPU_GHZ};

/// Drives the simulation until `deadline` (exclusive) or until the queue is
/// empty, whichever comes first.
///
/// `handle` is called for each event in timestamp order with the world
/// state, the event, and the queue (so handlers can schedule more events).
/// Returns the number of events processed.
pub fn run_until<S, E>(
    state: &mut S,
    q: &mut EventQueue<E>,
    deadline: Nanos,
    mut handle: impl FnMut(&mut S, E, &mut EventQueue<E>),
) -> u64 {
    let mut n = 0;
    while let Some((_, ev)) = q.pop_before(deadline) {
        handle(state, ev, q);
        n += 1;
    }
    q.advance_to(deadline);
    n
}

/// Batched form of [`run_until`]: drains events in same-timestamp batches
/// via [`EventQueue::pop_batch`] and hands each batch of [`BatchSlot`]
/// claims to `handle_batch` together with the shared timestamp, so
/// per-event fixed costs (deadline compare, wheel re-probe,
/// trace/invariant prologues in the caller) are paid once per batch.
///
/// `handle_batch` must drain the batch buffer, redeeming each claim with
/// [`EventQueue::take_batched`] (which returns `None` for events cancelled
/// by an earlier handler of the same batch — skip those, exactly as the
/// serial loop never pops a cancelled event). Events scheduled *by* a
/// handler at the batch's own timestamp land in a fresh batch on the next
/// iteration — their `(time, seq)` keys are larger than everything drained,
/// so the processing order is identical to [`run_until`]'s event-at-a-time
/// order. The buffer is reused across iterations so the steady-state loop
/// never allocates. Returns the number of batch entries drained (an upper
/// bound on events handled; the two differ only when a handler cancels a
/// same-timestamp event).
pub fn run_batched_until<S, E>(
    state: &mut S,
    q: &mut EventQueue<E>,
    deadline: Nanos,
    batch: &mut Vec<BatchSlot>,
    mut handle_batch: impl FnMut(&mut S, Nanos, &mut Vec<BatchSlot>, &mut EventQueue<E>),
) -> u64 {
    let mut n = 0;
    while let Some(at) = q.pop_batch(deadline, batch) {
        n += batch.len() as u64;
        handle_batch(state, at, batch, q);
        debug_assert!(batch.is_empty(), "handle_batch must drain the batch");
    }
    q.advance_to(deadline);
    n
}

/// Drives the simulation until the queue is empty or `max_events` have been
/// processed. Returns the number of events processed.
pub fn run_to_completion<S, E>(
    state: &mut S,
    q: &mut EventQueue<E>,
    max_events: u64,
    mut handle: impl FnMut(&mut S, E, &mut EventQueue<E>),
) -> u64 {
    let mut n = 0;
    while n < max_events {
        let Some((_, ev)) = q.pop() else { break };
        handle(state, ev, q);
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_until_stops_at_deadline() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(Nanos(10), 1);
        q.schedule(Nanos(20), 2);
        q.schedule(Nanos(30), 3);
        let mut seen = Vec::new();
        let n = run_until(&mut seen, &mut q, Nanos(25), |s, e, _| s.push(e));
        assert_eq!(n, 2);
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(q.now(), Nanos(25));
        // The remaining event is still there.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn handlers_can_schedule() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(Nanos(1), 0);
        let mut count = 0u32;
        run_until(&mut count, &mut q, Nanos(100), |c, e, q| {
            *c += 1;
            if e < 5 {
                let at = q.now() + Nanos(1);
                q.schedule(at, e + 1);
            }
        });
        assert_eq!(count, 6);
    }

    #[test]
    fn run_batched_until_matches_serial_order() {
        let build = || {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..30u32 {
                q.schedule(Nanos(10 * (i as u64 / 3)), i);
            }
            q
        };
        let mut serial = build();
        let mut want = Vec::new();
        run_until(&mut want, &mut serial, Nanos(75), |s, e, _| s.push(e));
        let mut batched = build();
        let mut got = Vec::new();
        let mut scratch = Vec::new();
        let n = run_batched_until(
            &mut got,
            &mut batched,
            Nanos(75),
            &mut scratch,
            |s: &mut Vec<u32>, _, b, q| s.extend(b.drain(..).filter_map(|c| q.take_batched(c))),
        );
        assert_eq!(got, want);
        assert_eq!(n, want.len() as u64);
        assert_eq!(batched.now(), serial.now());
        assert_eq!(batched.len(), serial.len());
    }

    #[test]
    fn run_batched_handlers_schedule_at_own_timestamp() {
        // A handler scheduling at the batch's own timestamp must see that
        // event in a *later* batch, preserving (time, seq) order.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(Nanos(5), 0);
        q.schedule(Nanos(5), 1);
        let mut batches: Vec<Vec<u32>> = Vec::new();
        let mut scratch = Vec::new();
        run_batched_until(
            &mut batches,
            &mut q,
            Nanos(100),
            &mut scratch,
            |s, _, b, q| {
                let mut evs: Vec<u32> = Vec::new();
                for c in b.drain(..) {
                    if let Some(e) = q.take_batched(c) {
                        evs.push(e);
                    }
                }
                if evs.contains(&0) {
                    q.schedule(q.now(), 7);
                }
                s.push(evs);
            },
        );
        assert_eq!(batches, vec![vec![0, 1], vec![7]]);
    }

    #[test]
    fn run_to_completion_respects_budget() {
        let mut q: EventQueue<()> = EventQueue::new();
        for i in 0..10 {
            q.schedule(Nanos(i), ());
        }
        let mut s = ();
        let n = run_to_completion(&mut s, &mut q, 4, |_, _, _| {});
        assert_eq!(n, 4);
        assert_eq!(q.len(), 6);
    }
}
