//! Policy hot-path microbenchmark: per-policy enqueue/pick/dequeue cost
//! and pick throughput at task populations {16, 256, 4096, 65536}, for
//! the optimized implementations *and* the frozen pre-optimization
//! oracles in `skyloft_policies::reference` (DESIGN.md §14), plus an
//! end-to-end high-population machine sweep on EEVDF and the event
//! queue's timing wheel against the binary heap it replaced.
//!
//! Results go to `results/polbench.csv`; `--write` records them into the
//! repo-root `BENCH_policy.json` (one section per policy, spliced with
//! `baseline::upsert_section` so other benches' sections survive;
//! canonical runs only), with the oracle's numbers alongside as the
//! pre-optimization reference.
//! `--check` is the CI gate: it fails on a >30% pick-throughput
//! regression against the stored baseline, and it fails outright if
//! EEVDF's pick throughput at the 4096-task population is not at least
//! 5x the oracle's — the headline claim of the incremental-accounting
//! rework, re-proven on every run — or if the timing wheel is not at
//! least [`QUEUE_FLOOR`] times as fast as the `reference-queue` heap on
//! one schedule/cancel/pop trace (both measured in this process, so the
//! ratio does not depend on the host's speed).

use std::time::Instant;

use skyloft::ops::{EnqueueFlags, Policy, SchedEnv};
use skyloft::task::{Task, TaskId, TaskTable};
use skyloft::SchedParams;
use skyloft_apps::harness::trace_arg;
use skyloft_apps::schbench;
use skyloft_bench::baseline::Gate;
use skyloft_bench::{build, out, scaled, Flags};
use skyloft_metrics::Table;
use skyloft_policies::{cfs, eevdf, reference, rr, shinjuku, shinjuku_shenango, work_stealing};
use skyloft_sim::reference::{RefToken, ReferenceQueue};
use skyloft_sim::{EventQueue, Nanos, Rng, Token};

const POPULATIONS: [usize; 4] = [16, 256, 4096, 65536];
const WORKER_CORES: usize = 4;
/// The population the CI gate and the baseline floor key on.
const GATE_POP: usize = 4096;
const GATE_SPEEDUP: f64 = 5.0;
/// The least wheel-over-heap speedup `--check` accepts: below the
/// 2.37–2.99× of ten `SKYLOFT_FAST=10` runs on a 2-vCPU Xeon host.
const QUEUE_FLOOR: f64 = 1.75;

/// One policy variant under test.
struct Contender {
    /// Section name in `BENCH_policy.json` / row label in the CSV.
    name: &'static str,
    /// `true` for the frozen `reference` module oracle.
    oracle: bool,
    mk: fn() -> Box<dyn Policy>,
}

fn contenders() -> Vec<Contender> {
    fn b<P: Policy + 'static>(p: P) -> Box<dyn Policy> {
        Box::new(p)
    }
    vec![
        Contender {
            name: "eevdf",
            oracle: false,
            mk: || b(eevdf::Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
        },
        Contender {
            name: "eevdf_oracle",
            oracle: true,
            mk: || b(reference::Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
        },
        Contender {
            name: "cfs",
            oracle: false,
            mk: || b(cfs::Cfs::new(SchedParams::SKYLOFT_CFS)),
        },
        Contender {
            name: "cfs_oracle",
            oracle: true,
            mk: || b(reference::Cfs::new(SchedParams::SKYLOFT_CFS)),
        },
        Contender {
            name: "rr",
            oracle: false,
            mk: || b(rr::RoundRobin::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "rr_oracle",
            oracle: true,
            mk: || b(reference::RoundRobin::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "work_stealing",
            oracle: false,
            mk: || b(work_stealing::WorkStealing::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "work_stealing_oracle",
            oracle: true,
            mk: || b(reference::WorkStealing::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "shinjuku",
            oracle: false,
            mk: || b(shinjuku::Shinjuku::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "shinjuku_oracle",
            oracle: true,
            mk: || b(reference::Shinjuku::new(Some(Nanos::from_us(20)))),
        },
        Contender {
            name: "shinjuku_shenango",
            oracle: false,
            mk: || {
                b(shinjuku_shenango::ShinjukuShenango::new(Some(
                    Nanos::from_us(20),
                )))
            },
        },
        Contender {
            name: "shinjuku_shenango_oracle",
            oracle: true,
            mk: || b(reference::ShinjukuShenango::new(Some(Nanos::from_us(20)))),
        },
    ]
}

#[derive(Clone, Copy)]
struct PopSample {
    enqueue_ns: f64,
    pick_ns: f64,
    dequeue_ns: f64,
    picks_per_sec: f64,
}

/// Pick+requeue iterations at steady population `n`: enough for stable
/// timing, bounded so the O(n)-per-pick oracles stay affordable at the
/// top population. `SKYLOFT_FAST` shrinks the budget for smoke runs.
fn iters_for(n: usize) -> usize {
    let base = match n {
        0..=64 => 200_000,
        65..=1024 => 50_000,
        1025..=8192 => 20_000,
        _ => 2_000,
    };
    (base / skyloft_bench::fast_factor().unwrap_or(1) as usize).max(100)
}

/// Measures one policy at one population: enqueue all `n` tasks, run the
/// steady-state pick+requeue loop round-robin over the worker cores, then
/// drain to empty. Vruntimes and weights are spread so the weighted
/// policies exercise their accumulator math rather than an all-ties
/// degenerate queue.
fn bench_policy(mk: fn() -> Box<dyn Policy>, n: usize) -> PopSample {
    let cores: Vec<usize> = (0..WORKER_CORES).collect();
    let mut p = mk();
    p.sched_init(&SchedEnv {
        worker_cores: cores.clone(),
        dispatcher: None,
    });
    let mut tasks = TaskTable::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            let id = tasks.insert(|id| Task::bare(id, 0));
            p.task_init(&mut tasks, id, Nanos(i as u64));
            let pd = &mut tasks.get_mut(id).pd;
            pd.weight = [1024u32, 423, 2048, 88761][i % 4];
            pd.vruntime = (i as u64).wrapping_mul(7919) % 1_000_000;
            pd.deadline = pd.vruntime + 1 + (i as u64) % 50_000;
            id
        })
        .collect();

    let t0 = Instant::now();
    for (i, &id) in ids.iter().enumerate() {
        p.task_enqueue(
            &mut tasks,
            id,
            Some(cores[i % cores.len()]),
            EnqueueFlags::New,
            Nanos(i as u64),
        );
    }
    let enqueue_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;

    let iters = iters_for(n);
    let mut now = Nanos(1_000_000);
    let mut picked = 0u64;
    let t0 = Instant::now();
    for k in 0..iters {
        let cpu = cores[k % cores.len()];
        now += Nanos(97);
        let t = p
            .task_dequeue(&mut tasks, cpu, now)
            .or_else(|| p.sched_balance(&mut tasks, cpu, now));
        if let Some(t) = t {
            picked += 1;
            p.task_enqueue(&mut tasks, t, Some(cpu), EnqueueFlags::Preempted, now);
        }
    }
    let pick_wall = t0.elapsed().as_secs_f64();
    let pick_ns = pick_wall * 1e9 / iters.max(1) as f64;
    let picks_per_sec = picked as f64 / pick_wall;

    let mut drained = 0usize;
    let t0 = Instant::now();
    while drained < n {
        let mut any = false;
        for &cpu in &cores {
            now += Nanos(97);
            if let Some(t) = p
                .task_dequeue(&mut tasks, cpu, now)
                .or_else(|| p.sched_balance(&mut tasks, cpu, now))
            {
                p.task_terminate(&mut tasks, t, now);
                tasks.remove(t);
                drained += 1;
                any = true;
            }
        }
        assert!(any, "policy lost tasks: drained {drained} of {n}");
    }
    let dequeue_ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;

    PopSample {
        enqueue_ns,
        pick_ns,
        dequeue_ns,
        picks_per_sec,
    }
}

/// End-to-end high-population sweep: schbench with a large worker herd on
/// per-CPU EEVDF, where every timer tick and wakeup goes through the
/// incremental accounting. Returns simulator events/sec.
fn run_end_to_end() -> f64 {
    let t0 = Instant::now();
    let (mut m, mut q) = build::skyloft_percpu(
        8,
        100_000,
        Box::new(eevdf::Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
    );
    schbench::spawn(&mut m, &mut q, 0, 1024, schbench::DEFAULT_WORK);
    let events = m.run(&mut q, scaled(Nanos::from_ms(200)));
    events as f64 / t0.elapsed().as_secs_f64()
}

/// The operations the event-queue comparison drives, implemented by the
/// timing wheel and by the reference heap.
trait Timeline: Default {
    type Token: Copy;
    fn schedule(&mut self, at: Nanos, e: u64) -> Self::Token;
    fn cancel(&mut self, t: Self::Token);
    fn pop(&mut self) -> Option<(Nanos, u64)>;
}

impl Timeline for EventQueue<u64> {
    type Token = Token;
    fn schedule(&mut self, at: Nanos, e: u64) -> Token {
        EventQueue::schedule(self, at, e)
    }
    fn cancel(&mut self, t: Token) {
        EventQueue::cancel(self, t);
    }
    fn pop(&mut self) -> Option<(Nanos, u64)> {
        EventQueue::pop(self)
    }
}

impl Timeline for ReferenceQueue<u64> {
    type Token = RefToken;
    fn schedule(&mut self, at: Nanos, e: u64) -> RefToken {
        ReferenceQueue::schedule(self, at, e)
    }
    fn cancel(&mut self, t: RefToken) {
        ReferenceQueue::cancel(self, t);
    }
    fn pop(&mut self) -> Option<(Nanos, u64)> {
        ReferenceQueue::pop(self)
    }
}

/// Events the trace keeps pending: a busy machine's timers, segment
/// completions and arrivals.
const QUEUE_LIVE: usize = 1024;

/// A delay shaped like the simulator's: mostly ticks, IPIs and short
/// segments (µs), some long segments (≤ 1 ms), a few timeouts (≤ 20 ms).
fn delay(rng: &mut Rng) -> Nanos {
    Nanos(match rng.next_below(100) {
        0..70 => 1 + rng.next_below(20_000),
        70..95 => 20_000 + rng.next_below(980_000),
        _ => 1_000_000 + rng.next_below(19_000_000),
    })
}

/// Replays one fixed trace on a fresh `Q`: [`QUEUE_LIVE`] events pending,
/// then `steps` times pop the next event and schedule a successor, and
/// every fourth step also cancel one of the last 64 scheduled events
/// (fired or not) and schedule a replacement. Returns a digest of the
/// popped `(time, payload)` stream and the wall time in seconds.
fn replay<Q: Timeline>(steps: usize) -> (u64, f64) {
    let mut q = Q::default();
    let mut rng = Rng::seed_from_u64(0xE7E7);
    let mut recent = [None; 64];
    let t0 = Instant::now();
    for i in 0..QUEUE_LIVE {
        recent[i % 64] = Some(q.schedule(delay(&mut rng), i as u64));
    }
    let mut digest = 0u64;
    for i in 0..steps {
        let (at, e) = q.pop().expect("the trace keeps events pending");
        digest = digest.rotate_left(5) ^ at.0 ^ e;
        let next = QUEUE_LIVE + i;
        recent[next % 64] = Some(q.schedule(at + delay(&mut rng), next as u64));
        if i % 4 == 0 {
            let victim = recent[rng.next_below(64) as usize];
            q.cancel(victim.expect("filled before the loop"));
            q.schedule(at + delay(&mut rng), u64::MAX - i as u64);
        }
    }
    (digest, t0.elapsed().as_secs_f64())
}

/// `(wheel ns/step, heap ns/step, identical pop streams)`: the best of
/// five alternating replays each.
fn bench_event_queue() -> (f64, f64, bool) {
    let steps = 2_000_000 / skyloft_bench::fast_factor().unwrap_or(1) as usize;
    let (mut wheel, mut heap, mut same) = (f64::MAX, f64::MAX, true);
    for _ in 0..5 {
        let (dw, tw) = replay::<EventQueue<u64>>(steps);
        let (dh, th) = replay::<ReferenceQueue<u64>>(steps);
        wheel = wheel.min(tw);
        heap = heap.min(th);
        same &= dw == dh;
    }
    let per = 1e9 / steps as f64;
    (wheel * per, heap * per, same)
}

/// `(contender name, is_oracle, per-population samples)`.
type ContenderResult = (&'static str, bool, Vec<(usize, PopSample)>);

fn section_body(samples: &[(usize, PopSample)]) -> String {
    let mut lines = Vec::new();
    for (n, s) in samples {
        lines.push(format!("    \"enqueue_ns_{n}\": {:.1},", s.enqueue_ns));
        lines.push(format!("    \"pick_ns_{n}\": {:.1},", s.pick_ns));
        lines.push(format!("    \"dequeue_ns_{n}\": {:.1},", s.dequeue_ns));
        lines.push(format!(
            "    \"picks_per_sec_{n}\": {:.0},",
            s.picks_per_sec
        ));
    }
    let mut body = lines.join("\n");
    body.pop(); // drop the trailing comma
    body
}

fn main() {
    let _ = trace_arg();
    let mut gate = Gate::new("polbench", "BENCH_policy.json", Flags::parse());

    let mut t = Table::new(&[
        "policy",
        "population",
        "enqueue_ns",
        "pick_ns",
        "dequeue_ns",
        "picks_per_sec",
    ]);
    let mut results: Vec<ContenderResult> = Vec::new();
    for c in contenders() {
        eprintln!("polbench: measuring {}...", c.name);
        let mut samples = Vec::new();
        for n in POPULATIONS {
            let s = bench_policy(c.mk, n);
            t.row_owned(vec![
                c.name.to_string(),
                n.to_string(),
                format!("{:.1}", s.enqueue_ns),
                format!("{:.1}", s.pick_ns),
                format!("{:.1}", s.dequeue_ns),
                format!("{:.0}", s.picks_per_sec),
            ]);
            samples.push((n, s));
        }
        results.push((c.name, c.oracle, samples));
    }
    eprintln!("polbench: measuring end-to-end high-population sweep...");
    let e2e_events_per_sec = run_end_to_end();
    eprintln!("polbench: measuring the event queue...");
    let (wheel_ns, heap_ns, same_stream) = bench_event_queue();
    let queue_speedup = heap_ns / wheel_ns;
    out::emit("polbench", "Policy hot-path microbenchmark", &t);
    println!("end-to-end eevdf schbench events/sec: {e2e_events_per_sec:.0}");
    println!(
        "event queue ns/step: wheel {wheel_ns:.1}, reference heap {heap_ns:.1} \
         ({queue_speedup:.2}x)"
    );

    let gate_pick = |name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _, _)| *n == name)
            .and_then(|(_, _, s)| s.iter().find(|(p, _)| *p == GATE_POP))
            .map(|(_, s)| s.picks_per_sec)
            .unwrap_or(0.0)
    };
    let speedup = gate_pick("eevdf") / gate_pick("eevdf_oracle").max(1.0);
    println!("eevdf pick speedup vs oracle at {GATE_POP} tasks: {speedup:.1}x");

    for (name, _, samples) in &results {
        gate.upsert(name, section_body(samples));
    }
    gate.upsert(
        "end_to_end",
        format!(
            "    \"eevdf_schbench_events_per_sec\": {e2e_events_per_sec:.0},\n    \"eevdf_speedup_vs_oracle_{GATE_POP}\": {speedup:.1}"
        ),
    );
    gate.upsert(
        "event_queue",
        format!(
            "    \"wheel_ns_per_step\": {wheel_ns:.1},\n    \"heap_ns_per_step\": {heap_ns:.1},\n    \"wheel_speedup_vs_heap\": {queue_speedup:.2}"
        ),
    );

    gate.require(
        speedup >= GATE_SPEEDUP,
        format_args!(
            "eevdf pick throughput at {GATE_POP} tasks is {speedup:.1}x the oracle \
             (need >= {GATE_SPEEDUP:.0}x)"
        ),
    );
    gate.require(
        same_stream,
        "the timing wheel pops the reference heap's event stream",
    );
    gate.require(
        queue_speedup >= QUEUE_FLOOR,
        format_args!(
            "timing wheel is {queue_speedup:.2}x the reference heap per step \
             (need >= {QUEUE_FLOOR:.2}x)"
        ),
    );
    let key = format!("picks_per_sec_{GATE_POP}");
    for (name, oracle, _) in &results {
        if !*oracle {
            // the oracles are the yardstick, not the product
            gate.at_least(name, &key, gate_pick(name), 0.7);
        }
    }
    gate.finish();
}
