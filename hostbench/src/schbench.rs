//! schbench with seeded per-request work.
//!
//! The same message-thread protocol as `skyloft_apps::schbench` (a worker
//! computes, queues itself on the messenger's mailbox, wakes the
//! messenger and blocks; the messenger re-wakes queued workers one at a
//! time, paying 1 µs of bookkeeping per wake), except that each request's
//! work is drawn uniformly from `work ± work/2` by a per-worker generator
//! seeded from the benchmark seed. With identical fixed work the model is
//! periodic: it locks into an orbit chosen by the start phase, and the
//! wakeup-latency median moves by 3x between start phases, so no two
//! seeds would be comparable. The jitter lets the statistics converge
//! (±20% was not enough to break the orbits).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use skyloft::machine::{Event, Machine};
use skyloft::task::{Behavior, Step, TaskId};
use skyloft::SpawnOpts;
use skyloft_sim::{EventQueue, Nanos, Rng};

/// Workers waiting to be re-woken, and the messenger that wakes them.
#[derive(Default)]
struct Mailbox {
    completed: VecDeque<TaskId>,
    messenger: Option<TaskId>,
}

type Shared = Rc<RefCell<Mailbox>>;

enum Phase {
    Work,
    Notify,
    Sleep,
}

struct Worker {
    mailbox: Shared,
    work: Nanos,
    rng: Rng,
    phase: Phase,
}

impl Behavior for Worker {
    fn step(&mut self, _now: Nanos, id: TaskId) -> Step {
        match self.phase {
            Phase::Work => {
                self.phase = Phase::Notify;
                let spread = self.work.0 / 2;
                Step::Compute(Nanos(
                    self.work.0 - spread + self.rng.next_below(2 * spread + 1),
                ))
            }
            Phase::Notify => {
                self.phase = Phase::Sleep;
                let mut mb = self.mailbox.borrow_mut();
                mb.completed.push_back(id);
                match mb.messenger {
                    Some(m) => Step::Wake(m),
                    None => Step::Block,
                }
            }
            Phase::Sleep => {
                self.phase = Phase::Work;
                Step::Block
            }
        }
    }
}

struct Messenger {
    mailbox: Shared,
    pending_work: bool,
}

/// Messenger bookkeeping per wake (futex and queue walk).
const WAKE_WORK: Nanos = Nanos(1_000);

impl Behavior for Messenger {
    fn step(&mut self, _now: Nanos, _id: TaskId) -> Step {
        if self.pending_work {
            self.pending_work = false;
            return Step::Compute(WAKE_WORK);
        }
        let next = self.mailbox.borrow_mut().completed.pop_front();
        match next {
            Some(w) => {
                self.pending_work = true;
                Step::Wake(w)
            }
            None => Step::Block,
        }
    }
}

/// Spawns one messenger and `workers` workers into application `app`.
/// Worker wakeups are recorded in `stats.wakeup_hist`; the messenger's
/// are not.
pub fn spawn(
    m: &mut Machine,
    q: &mut EventQueue<Event>,
    app: usize,
    workers: usize,
    work: Nanos,
    seed: u64,
) {
    let mailbox = Shared::default();
    let messenger = m.spawn(
        q,
        Box::new(Messenger {
            mailbox: Rc::clone(&mailbox),
            pending_work: false,
        }),
        SpawnOpts {
            record_wakeup: false,
            ..SpawnOpts::app(app)
        },
    );
    mailbox.borrow_mut().messenger = Some(messenger);
    for i in 0..workers {
        m.spawn(
            q,
            Box::new(Worker {
                mailbox: Rc::clone(&mailbox),
                work,
                rng: Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                phase: Phase::Work,
            }),
            SpawnOpts::app(app),
        );
    }
}
