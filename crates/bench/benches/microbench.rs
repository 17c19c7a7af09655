//! Criterion microbenchmarks for the hot paths of the reproduction:
//! event-queue operations, the UINTR fabric, histogram recording, RSS
//! hashing, policy runqueue operations, an end-to-end machine step, and
//! the real uthread runtime's switch/spawn (Table 7's operations under
//! Criterion's statistics).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use skyloft::builtin::GlobalFifo;
use skyloft::machine::{AppKind, Machine, MachineConfig};
use skyloft::ops::{EnqueueFlags, Policy, SchedEnv};
use skyloft::task::{Task, TaskTable};
use skyloft::{Platform, SchedParams};
use skyloft_hw::uintr::UittEntry;
use skyloft_hw::{Topology, UintrFabric};
use skyloft_metrics::Histogram;
use skyloft_net::RssHasher;
use skyloft_policies::{Cfs, WorkStealing};
use skyloft_sim::{EventQueue, Nanos};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/schedule_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let tok = q.schedule(Nanos(t), t);
            black_box(tok);
            black_box(q.pop());
        });
    });
    c.bench_function("event_queue/schedule_cancel", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let tok = q.schedule(Nanos(t), t);
            black_box(q.cancel(tok));
        });
    });
}

fn bench_uintr(c: &mut Criterion) {
    c.bench_function("uintr/senduipi_recognize_deliver", |b| {
        let mut f = UintrFabric::new(2);
        let upid = f.alloc_upid(0xe1, 1);
        f.bind_receiver(1, upid, 0xe1);
        f.set_user_mode(1, true);
        let e = UittEntry { upid, user_vec: 3 };
        b.iter(|| {
            black_box(f.senduipi(e));
            black_box(f.on_interrupt_arrival(1, 0xe1));
            if f.deliverable(1) {
                black_box(f.begin_delivery(1));
                f.uiret(1);
            }
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 40));
        });
    });
    c.bench_function("histogram/p99", |b| {
        let mut h = Histogram::new();
        for v in 0..100_000u64 {
            h.record(v);
        }
        b.iter(|| black_box(h.percentile(99.0)));
    });
}

fn bench_rss(c: &mut Criterion) {
    c.bench_function("rss/toeplitz_flow", |b| {
        let h = RssHasher::new(16);
        let mut port = 0u16;
        b.iter(|| {
            port = port.wrapping_add(1);
            black_box(h.ring_for_flow(0x0a000001, 0x0a000002, port, 11211))
        });
    });
}

fn bench_policies(c: &mut Criterion) {
    c.bench_function("policy/cfs_enqueue_dequeue", |b| {
        let mut p = Cfs::new(SchedParams::SKYLOFT_CFS);
        p.sched_init(&SchedEnv {
            worker_cores: vec![0],
            dispatcher: None,
        });
        let mut tasks = TaskTable::new();
        let ids: Vec<_> = (0..64)
            .map(|_| tasks.insert(|id| Task::bare(id, 0)))
            .collect();
        for &t in &ids {
            p.task_init(&mut tasks, t, Nanos::ZERO);
            p.task_enqueue(&mut tasks, t, Some(0), EnqueueFlags::New, Nanos::ZERO);
        }
        b.iter(|| {
            let t = p.task_dequeue(&mut tasks, 0, Nanos::ZERO).unwrap();
            tasks.get_mut(t).pd.vruntime += 1000;
            p.task_enqueue(&mut tasks, t, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        });
    });
    c.bench_function("policy/ws_steal", |b| {
        let mut p = WorkStealing::new(None);
        p.sched_init(&SchedEnv {
            worker_cores: vec![0, 1],
            dispatcher: None,
        });
        let mut tasks = TaskTable::new();
        let t = tasks.insert(|id| Task::bare(id, 0));
        b.iter(|| {
            p.task_enqueue(&mut tasks, t, Some(0), EnqueueFlags::New, Nanos::ZERO);
            black_box(p.sched_balance(&mut tasks, 1, Nanos::ZERO));
        });
    });
}

fn bench_machine(c: &mut Criterion) {
    c.bench_function("machine/request_end_to_end", |b| {
        // Amortized cost of one request through the full machine: spawn,
        // dispatch, timer delegation, completion accounting.
        b.iter_batched(
            || {
                let cfg = MachineConfig {
                    plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
                    n_workers: 4,
                    seed: 1,
                    core_alloc: None,
                    utimer_period: None,
                };
                let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
                m.add_app("bench", AppKind::Lc);
                let mut q = EventQueue::new();
                m.start(&mut q);
                (m, q)
            },
            |(mut m, mut q)| {
                for i in 0..1000u64 {
                    q.schedule(
                        Nanos(i * 1000),
                        skyloft::Event::Call(skyloft::Call::Fn(Box::new(|m, q| {
                            m.spawn_request(q, 0, Nanos::from_us(2), 0, None);
                        }))),
                    );
                }
                m.run(&mut q, Nanos::from_ms(3));
                assert_eq!(m.stats.completed, 1000);
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_uthread(c: &mut Criterion) {
    c.bench_function("uthread/yield_pair", |b| {
        // Criterion cannot run its closure inside the runtime, so measure a
        // fixed batch of yields per iteration.
        b.iter_custom(|iters| {
            let total = std::sync::Arc::new(std::sync::Mutex::new(Duration::ZERO));
            let t2 = total.clone();
            skyloft_uthread::Runtime::run(1, move || {
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    skyloft_uthread::yield_now();
                }
                *t2.lock().unwrap() = t0.elapsed();
            });
            let v = *total.lock().unwrap();
            v
        });
    });
    c.bench_function("uthread/spawn_join", |b| {
        b.iter_custom(|iters| {
            let total = std::sync::Arc::new(std::sync::Mutex::new(Duration::ZERO));
            let t2 = total.clone();
            skyloft_uthread::Runtime::run(1, move || {
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    skyloft_uthread::spawn(|| {}).join();
                }
                *t2.lock().unwrap() = t0.elapsed();
            });
            let v = *total.lock().unwrap();
            v
        });
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_queue, bench_uintr, bench_histogram, bench_rss,
              bench_policies, bench_machine, bench_uthread
}
criterion_main!(benches);
