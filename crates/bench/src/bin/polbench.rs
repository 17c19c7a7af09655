//! Policy hot-path microbenchmark: per-policy enqueue/pick/dequeue cost
//! and pick throughput at task populations {16, 256, 4096, 65536}, for
//! the optimized implementations *and* the frozen pre-optimization
//! oracles in `skyloft_policies::reference` (DESIGN.md §14), plus an
//! end-to-end high-population machine sweep on EEVDF.
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
//! rework, re-proven on every run.

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
use skyloft_sim::Nanos;

const POPULATIONS: [usize; 4] = [16, 256, 4096, 65536];
const WORKER_CORES: usize = 4;
/// The population the CI gate and the baseline floor key on.
const GATE_POP: usize = 4096;
const GATE_SPEEDUP: f64 = 5.0;

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
    out::emit("polbench", "Policy hot-path microbenchmark", &t);
    println!("end-to-end eevdf schbench events/sec: {e2e_events_per_sec:.0}");

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

    gate.require(
        speedup >= GATE_SPEEDUP,
        format_args!(
            "eevdf pick throughput at {GATE_POP} tasks is {speedup:.1}x the oracle \
             (need >= {GATE_SPEEDUP:.0}x)"
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
