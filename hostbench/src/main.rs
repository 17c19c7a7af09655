//! Host-cost benchmark of the Skyloft simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <teleport_dispersive|nic_slo_2x|schbench_deep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. Every run performs the same passes over the
//! workload's fixed-size job (see `workloads.rs` and `passes.rs`):
//!
//! 1. untraced rounds, repeated until `--seconds` of host time have
//!    passed (at least [`MIN_ROUNDS`]): set-up, then the timed window one
//!    virtual-time slice per `Machine::run`;
//! 2. one round that runs the window in a single `Machine::run`;
//! 3. one traced round: the benchmark's own event loop with per-layer
//!    spans and `violations_of` after every batch.
//!
//! The simulated outcome of all of them must have the same digest, and
//! every correctness check must pass; a failed check is reported by name
//! and the process exits non-zero. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones. Host time is wall time of the
//! machine running the benchmark; virtual time is the modelled machine's.
//! The last stdout line is the JSON result; the lines before it repeat
//! each metric with its unit and the host fingerprint.

mod alloc;
mod passes;
mod schbench;
mod timed;
mod workloads;

use std::time::Instant;

use skyloft_metrics::Histogram;

use passes::{SimOut, SlicedRound, Span, Traced};
use timed::Op;
use workloads::{Kind, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fewest untraced rounds per run, whatever `--seconds` says. The
/// simulated metrics merge exactly these rounds, so they cover the same
/// sub-seeds on every host.
const MIN_ROUNDS: usize = 24;

/// The slice percentile `wall_ns_per_req` reports. A shared 2-vCPU Xeon
/// host ran the same slice up to 1.8x slower while other tenants contended
/// for its core's caches, in spells of seconds whose share of a run
/// drifted over minutes. A low percentile reads the uncontended cost,
/// which the share of contended time does not move; the contended cost
/// shows in `wall_ns_per_req_tail`.
const FAST_PERCENTILE: f64 = 5.0;

/// Candidate tail percentiles, highest first; the report uses the highest
/// that still has at least [`TAIL_BEYOND`] slices above it.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
const TAIL_BEYOND: f64 = 10.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("hostbench: {msg}");
    eprintln!(
        "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::ALL.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(&val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val}"))),
                )
            }
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// The seed of untraced round `i`: round 0 runs on `seed` itself.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Median of `v` (mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Percentile `p` of a latency histogram in µs, interpolated linearly
/// inside the bucket that holds the rank. `Histogram::percentile` returns
/// the bucket's upper bound, so a p50 or p99 that moves by less than a
/// bucket (1/64 of its power of two) would not show; the histogram's
/// documented layout (64 linear sub-buckets per power of two) gives the
/// bucket's edges.
fn hist_percentile_us(h: &Histogram, p: f64) -> f64 {
    let upper = h.percentile(p);
    if h.count() == 0 || upper < 64 {
        return upper as f64 / 1e3;
    }
    // `percentile` clamps the bucket bound to the largest sample, so take
    // the bucket's edges from the bit pattern, not from `upper` itself.
    let shift = (63 - upper.leading_zeros()) - 6;
    let lower = (upper >> shift) << shift;
    let below = h.count_le(lower - 1);
    let in_bucket = (h.count_le(lower + (1u64 << shift) - 1) - below).max(1);
    let rank = ((p / 100.0) * h.count() as f64).ceil().max(1.0);
    let frac = ((rank - below as f64) / in_bucket as f64).clamp(0.0, 1.0);
    (lower as f64 + frac * (1u64 << shift) as f64).min(upper as f64) / 1e3
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] of `n`
/// samples above it.
fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND)
        .unwrap_or(50.0)
}

/// `VmHWM` of this process in MB (host memory high-water mark).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model string of the host.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Named correctness checks; every one is reported, none is skipped.
#[derive(Default)]
struct Checks(Vec<(String, bool, String)>);

impl Checks {
    fn add(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.0.push((name.to_string(), ok, detail.into()));
    }

    fn failed(&self) -> usize {
        self.0.iter().filter(|c| !c.1).count()
    }
}

/// The correctness checks that every round's simulated outcome must pass.
fn check_sim(c: &mut Checks, pass: &str, w: &Workload, s: &SimOut) {
    c.add(
        &format!("{pass}.conservation"),
        s.conservation.is_empty(),
        s.conservation.join("; "),
    );
    c.add(
        &format!("{pass}.rings_drained"),
        s.in_flight == 0,
        format!(
            "{} datagrams still in RX rings after the drain",
            s.in_flight
        ),
    );
    c.add(
        &format!("{pass}.timer_lost"),
        s.timer_lost == 0,
        format!("{} timer interrupts lost", s.timer_lost),
    );
    c.add(
        &format!("{pass}.invariants_after_drain"),
        s.violations.is_empty(),
        s.violations.join("; "),
    );
    if w.kind != Kind::Schbench {
        // Every generated request resolves exactly once (completion,
        // timeout or runqueue shed) by the end of the drain.
        let generated = s.generated_before + s.generated;
        let resolved = s.resolved_before + s.resolved;
        c.add(
            &format!("{pass}.requests_conserved"),
            generated == resolved,
            format!("generated {generated}, resolved {resolved}"),
        );
    }
    if w.kind == Kind::NicSlo {
        // The batch goodput subtracts all of LC's completions from the
        // completions under the batch limit, which is exact only while
        // every LC completion lies under it.
        c.add(
            &format!("{pass}.lc_completions_under_timeout"),
            s.lc_under_timeout == s.lc_completed,
            format!(
                "{} LC samples under the client timeout, {} LC completions",
                s.lc_under_timeout, s.lc_completed
            ),
        );
    }
    c.add(
        &format!("{pass}.work_done"),
        s.generated > 0 && s.good > 0,
        format!("generated {}, good {}", s.generated, s.good),
    );
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// What it measures, and in which time base.
    note: String,
}

fn metric(
    out: &mut Vec<Metric>,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    });
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn end_to_end(w: &Workload, rounds: &[SlicedRound], rss_mb: f64, tail_p: f64) -> Vec<Metric> {
    let per_slice: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.wall_ns
                .iter()
                .zip(&r.requests)
                .map(|(&ns, &n)| ns as f64 / n.max(1) as f64)
        })
        .collect();
    let allocs: u64 = rounds.iter().flat_map(|r| &r.allocs).sum();
    let requests: u64 = rounds.iter().flat_map(|r| &r.requests).sum();
    // Best of the rounds' set-ups: a run has too few of them for a low
    // percentile, and, as for `wall_ns_per_req`, the uncontended one is
    // the steady figure.
    let setup_s = rounds.iter().map(|r| r.setup_ns).min().unwrap_or(0) as f64 / 1e9;
    let n = per_slice.len();
    // The simulated outcome of the first MIN_ROUNDS rounds, merged: a
    // fixed set of sub-seeds, so it repeats exactly for a seed whatever
    // the host's speed.
    let sims: Vec<&SimOut> = rounds[..MIN_ROUNDS].iter().map(|r| &r.sim).collect();
    let mut tight = sims[0].tight.clone();
    sims[1..].iter().for_each(|s| tight.merge(&s.tight));
    let good: u64 = sims.iter().map(|s| s.good).sum();
    let resolved: u64 = sims.iter().map(|s| s.resolved).sum();
    let secs = w.window().as_secs() * MIN_ROUNDS as f64;
    let what = if w.kind == Kind::Schbench {
        "wakeup"
    } else {
        "response"
    };
    let mut m = Vec::new();
    metric(
        &mut m,
        "wall_ns_per_req",
        percentile(&per_slice, FAST_PERCENTILE),
        "ns",
        format!(
            "host ns per simulated request, p{FAST_PERCENTILE} of {n} slices; median {:.1}",
            median(&per_slice)
        ),
    );
    metric(
        &mut m,
        "wall_ns_per_req_tail",
        percentile(&per_slice, tail_p),
        "ns",
        format!("host ns per simulated request, p{tail_p} of {n} slices"),
    );
    metric(
        &mut m,
        "allocs_per_req",
        ratio(allocs as f64, requests as f64),
        "allocs",
        format!(
            "heap allocations per simulated request in the timed windows of {} rounds",
            rounds.len()
        ),
    );
    metric(
        &mut m,
        "peak_rss_mb",
        rss_mb,
        "MB",
        format!("host memory high-water mark (VmHWM) after the first {MIN_ROUNDS} untraced rounds"),
    );
    metric(
        &mut m,
        "setup_s",
        setup_s,
        "s",
        format!(
            "host s to build, install and warm up, least of {} rounds",
            rounds.len()
        ),
    );
    metric(
        &mut m,
        "sim_p50_us",
        hist_percentile_us(&tight, 50.0),
        "virtual_us",
        format!("virtual {what} latency p50 of the tightest class, {MIN_ROUNDS} rounds merged"),
    );
    metric(
        &mut m,
        "sim_p99_us",
        hist_percentile_us(&tight, 99.0),
        "virtual_us",
        format!("virtual {what} latency p99 of the tightest class, {MIN_ROUNDS} rounds merged"),
    );
    metric(
        &mut m,
        "sim_goodput_rps",
        good as f64 / secs,
        "virtual_req/s",
        "virtual requests/s completed within their limit",
    );
    metric(
        &mut m,
        "failed_frac",
        ratio((resolved - good) as f64, resolved as f64),
        "ratio",
        "failed simulated requests / requests resolved after warm-up",
    );
    m
}

fn per_layer(tr: &Traced, untraced_ns: f64) -> Vec<Metric> {
    let sim = tr.sim.as_ref().expect("traced round finished");
    let req = sim.generated.max(1) as f64;
    let per = |v: u64| v as f64 / req;
    let mut m = Vec::new();
    // sim
    metric(
        &mut m,
        "sim.pop_ns_per_req",
        per(tr.sim_ns),
        "ns",
        "host ns in pop_batch + take_batched per request",
    );
    metric(
        &mut m,
        "sim.events_per_req",
        per(tr.events),
        "count",
        "events handled per request",
    );
    metric(
        &mut m,
        "sim.events_per_batch",
        ratio(tr.events as f64, tr.batches as f64),
        "count",
        "events per same-timestamp batch",
    );
    metric(
        &mut m,
        "sim.queue_len_max",
        tr.queue_len_max as f64,
        "count",
        "largest pending-event count",
    );
    // core
    for s in Span::CORE {
        let st = tr.span(s);
        metric(
            &mut m,
            format!("core.{}_per_req", s.name()),
            per(st.events),
            "count",
            "events of this kind per request",
        );
        metric(
            &mut m,
            format!("core.{}_self_ns_per_req", s.name()),
            per(st.self_ns),
            "ns",
            "host handler ns minus nested policy ns, per request",
        );
    }
    let ipis = tr.span(Span::Ipi).events;
    metric(
        &mut m,
        "core.preemptions_per_req",
        per(sim.preemptions),
        "count",
        "virtual preemptions per request",
    );
    metric(
        &mut m,
        "kmod.app_switches_per_req",
        per(sim.app_switches),
        "count",
        "virtual inter-app switches per request",
    );
    metric(
        &mut m,
        "hw.timer_delivered_per_req",
        per(sim.timer_delivered),
        "count",
        "virtual timer interrupts delivered per request",
    );
    metric(
        &mut m,
        "hw.spurious_ipi_ratio",
        ratio(sim.spurious_ipis as f64, ipis as f64),
        "ratio",
        "spurious IPIs / IPIs arrived",
    );
    metric(
        &mut m,
        "hw.timer_lost",
        sim.timer_lost as f64,
        "count",
        "virtual timer interrupts lost (must be 0)",
    );
    // policies
    for op in Op::ALL {
        let s = tr.policy.op(op);
        metric(
            &mut m,
            format!("policy.{}_per_req", op.name()),
            per(s.calls),
            "count",
            "calls per request",
        );
        metric(
            &mut m,
            format!("policy.{}_ns", op.name()),
            ratio(s.ns as f64, s.calls as f64),
            "ns",
            "host ns per call",
        );
    }
    let op = |o: Op| tr.policy.op(o);
    metric(
        &mut m,
        "policy.dequeue_hit_ratio",
        ratio(op(Op::Dequeue).hits as f64, op(Op::Dequeue).calls as f64),
        "ratio",
        "dequeues that returned a task",
    );
    metric(
        &mut m,
        "policy.balance_hit_ratio",
        ratio(op(Op::Balance).hits as f64, op(Op::Balance).calls as f64),
        "ratio",
        "balances that stole a task",
    );
    metric(
        &mut m,
        "policy.poll_placements_per_call",
        ratio(op(Op::Poll).hits as f64, op(Op::Poll).calls as f64),
        "count",
        "placements per poll",
    );
    metric(
        &mut m,
        "policy.tick_preempt_ratio",
        ratio(op(Op::Tick).hits as f64, op(Op::Tick).calls as f64),
        "ratio",
        "ticks that asked for preemption",
    );
    // net / apps
    let net = tr.span(Span::Net);
    metric(
        &mut m,
        "net.call_self_ns_per_req",
        per(net.self_ns),
        "ns",
        "host ns in Call/Recur handlers minus nested policy ns, per request",
    );
    metric(
        &mut m,
        "net.calls_per_req",
        per(net.events),
        "count",
        "Call/Recur events per request",
    );
    metric(
        &mut m,
        "net.allocs_per_req",
        per(net.self_allocs),
        "count",
        "heap allocations in Call/Recur handlers per request",
    );
    let l = &sim.ledger;
    let dg = l.generated as f64;
    metric(
        &mut m,
        "net.delivered_ratio",
        ratio(l.delivered as f64, dg),
        "ratio",
        "virtual datagrams delivered / generated",
    );
    metric(
        &mut m,
        "net.ring_drop_ratio",
        ratio(l.ring_drops as f64, dg),
        "ratio",
        "virtual RX-ring tail drops / datagrams",
    );
    metric(
        &mut m,
        "net.aqm_drop_ratio",
        ratio(l.aqm_drops as f64, dg),
        "ratio",
        "virtual CoDel drops / datagrams",
    );
    metric(
        &mut m,
        "net.admission_shed_ratio",
        ratio(l.sheds as f64, dg),
        "ratio",
        "virtual admission sheds / datagrams",
    );
    metric(
        &mut m,
        "net.retry_ratio",
        ratio(l.retries as f64, dg),
        "ratio",
        "virtual retry datagrams / datagrams",
    );
    metric(
        &mut m,
        "net.rq_shed_ratio",
        ratio(l.rq_sheds as f64, dg),
        "ratio",
        "virtual runqueue sheds / datagrams",
    );
    // trace
    metric(
        &mut m,
        "trace.check_ns_per_batch",
        ratio(tr.trace_ns as f64, tr.batches as f64),
        "ns",
        "host ns per violations_of call",
    );
    metric(
        &mut m,
        "trace.violations",
        tr.violations.len() as f64,
        "count",
        "invariant violations (must be 0)",
    );
    metric(
        &mut m,
        "trace.overhead_frac",
        tr.total_ns as f64 / untraced_ns - 1.0,
        "ratio",
        "traced / untraced window host time - 1",
    );
    // alloc
    let core_allocs: u64 = Span::CORE.iter().map(|&s| tr.span(s).self_allocs).sum();
    metric(
        &mut m,
        "alloc.sim_per_req",
        per(tr.sim_allocs),
        "count",
        "allocations in the sim span per request",
    );
    metric(
        &mut m,
        "alloc.core_per_req",
        per(core_allocs),
        "count",
        "allocations in core self spans per request",
    );
    metric(
        &mut m,
        "alloc.policy_per_req",
        per(tr.policy.allocs),
        "count",
        "allocations in policy spans per request",
    );
    metric(
        &mut m,
        "alloc.net_per_req",
        per(net.self_allocs),
        "count",
        "allocations in the net span per request",
    );
    metric(
        &mut m,
        "alloc.trace_per_req",
        per(tr.trace_allocs),
        "count",
        "allocations in the trace span per request",
    );
    // bench
    let residual = tr.total_ns as f64 - tr.attributed_ns() as f64;
    metric(
        &mut m,
        "bench.traced_ns_per_req",
        per(tr.total_ns),
        "ns",
        "host ns per request of the traced window",
    );
    metric(
        &mut m,
        "bench.residual_ns_per_req",
        residual / req,
        "ns",
        "traced total minus attributed spans, per request",
    );
    m
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let seed = args.seed;
    let mut checks = Checks::default();

    // 1. Untraced rounds, each on its own sub-seed of `seed`.
    let start = Instant::now();
    let mut rounds: Vec<SlicedRound> = Vec::new();
    let mut rss_mb = 0.0;
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let s = sub_seed(seed, rounds.len());
        rounds.push(passes::sliced(&w, s, w.arrivals(s).as_ref()));
        if rounds.len() == MIN_ROUNDS {
            // The same sub-seeds on every host, however many rounds fit.
            rss_mb = peak_rss_mb();
        }
    }
    // 2. The single-run reference and 3. the traced round, both on round
    // 0's sub-seed.
    let arrivals = w.arrivals(sub_seed(seed, 0));
    let single = passes::single(&w, sub_seed(seed, 0), arrivals.as_ref());
    let traced = passes::traced(&w, sub_seed(seed, 0), arrivals.as_ref());
    let tsim = traced.sim.as_ref().expect("traced round finished");

    for (i, r) in rounds.iter().enumerate() {
        check_sim(&mut checks, &format!("round{i}"), &w, &r.sim);
    }
    check_sim(&mut checks, "single", &w, &single);
    check_sim(&mut checks, "traced", &w, tsim);
    let d0 = rounds[0].sim.digest;
    checks.add(
        "neutrality.single_run",
        single.digest == d0,
        format!(
            "sliced digest {d0:016x} != single-run digest {:016x}",
            single.digest
        ),
    );
    checks.add(
        "neutrality.traced",
        tsim.digest == d0,
        format!(
            "sliced digest {d0:016x} != traced digest {:016x}",
            tsim.digest
        ),
    );
    checks.add(
        "traced.violations",
        traced.violations.is_empty(),
        traced.violations.join("; "),
    );
    let attributed = traced.attributed_ns();
    checks.add(
        "traced.spans_within_total",
        attributed <= traced.total_ns,
        format!(
            "attributed {attributed} ns > traced total {} ns",
            traced.total_ns
        ),
    );

    let n_slices = rounds.len() * w.slices;
    let tail_p = tail_percentile(n_slices);
    let untraced_ns = median(
        &rounds
            .iter()
            .map(|r| r.wall_ns.iter().sum::<u64>() as f64)
            .collect::<Vec<_>>(),
    );
    let metrics = if args.trace {
        per_layer(&traced, untraced_ns)
    } else {
        end_to_end(&w, &rounds, rss_mb, tail_p)
    };

    println!(
        "# hostbench workload={} seed={seed} trace={} nproc={} cpu=\"{}\" rustc=\"{}\" commit={} rounds={} slices={n_slices} slice_virtual_ms={} tail=p{tail_p}",
        w.name,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        env!("HOSTBENCH_RUSTC"),
        env!("HOSTBENCH_COMMIT"),
        rounds.len(),
        w.slice.0 as f64 / 1e6,
    );
    for c in &checks.0 {
        if !c.1 {
            println!("CHECK FAILED {}: {}", c.0, c.2);
        }
    }
    println!("# {} checks, {} failed", checks.0.len(), checks.failed());
    for x in &metrics {
        println!("{} = {} {}  ({})", x.name, x.value, x.unit, x.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.0.len(),
        checks.failed(),
        body.join(", ")
    );
    if checks.failed() > 0 {
        std::process::exit(1);
    }
}

/// A finite JSON number (NaN/inf cannot be encoded; they report as 0
/// and are caught by the checks that guard their inputs).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentile_interpolates_inside_the_bucket() {
        let mut h = Histogram::new();
        for v in 1_000..=10_999u64 {
            h.record(v);
        }
        // Exact order statistics: p50 = 5 999, p99 = 10 899 (ns).
        for (p, exact) in [(50.0, 5_999.0), (99.0, 10_899.0)] {
            let got = hist_percentile_us(&h, p) * 1e3;
            let upper = h.percentile(p) as f64;
            assert!(got <= upper, "p{p}: {got} above the bucket bound {upper}");
            // Within a few ns, where the bucket bound is 16 and 100 ns off.
            assert!((got - exact).abs() < 4.0, "p{p}: {got} vs exact {exact}");
        }
        let mut small = Histogram::new();
        small.record(40);
        assert_eq!(hist_percentile_us(&small, 50.0), 0.04);
        assert_eq!(hist_percentile_us(&Histogram::new(), 50.0), 0.0);
    }
}
