//! The `skyloft-trace` layer: structured scheduling events and a runtime
//! invariant checker.
//!
//! Every event the [`Machine`] processes is recorded into per-core ring
//! buffers ([`Tracer`]) together with the scheduling actions it caused
//! (task switches, preemptions, parks, core grants/revokes). Two consumers
//! sit on top:
//!
//! * **Chrome-trace export** ([`Tracer::to_chrome_json`],
//!   [`Machine::write_trace`]): the rings serialize to the Chrome trace
//!   event format, loadable in Perfetto (`ui.perfetto.dev`) or
//!   `chrome://tracing`. Run slices (`ph:"X"`) are reconstructed from
//!   [`TraceKind::Switch`]/stop pairs; everything else becomes an instant.
//! * **Invariant checking** ([`InvariantChecker`]): after *every* event, in
//!   debug/test builds, the machine state is validated against the
//!   framework's structural invariants (see [`violations_of`]). A violation
//!   panics by default, so property tests and the tier-1 suite catch
//!   scheduling bugs at the event where they happen, not at test end.
//!
//! The whole module is behind the `trace` cargo feature (on by default).
//! Compiling `skyloft-core` with `--no-default-features` removes the
//! tracer field and every emission site, leaving zero overhead on the
//! event hot path.

use std::fmt::Write as _;

use skyloft_sim::Nanos;

use crate::conf::PreemptMechanism;
use crate::machine::{CoreRole, Event, IpiPurpose, Machine};
use crate::ops::CoreId;
use crate::task::{AppId, TaskId, TaskState};

/// Default per-ring capacity (events); older events are dropped first.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What happened, as recorded in a [`TraceEvent`].
///
/// The first group mirrors the raw [`Event`]s entering
/// [`Machine::handle`]; the second group records the scheduling actions
/// the machine took while handling them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A periodic timer fired on a core ([`Event::TimerFire`]).
    TimerFire,
    /// A UINTR timer interrupt found an empty PIR and was lost (§3.2
    /// pitfall). Should never appear unless a fault was injected.
    TimerLost,
    /// A preemption notification arrived ([`Event::IpiArrive`]).
    IpiArrive {
        /// What the sender wanted.
        purpose: IpiPurpose,
    },
    /// A compute segment completed ([`Event::SegmentDone`]).
    SegmentDone,
    /// Dispatcher-side quantum check ([`Event::QuantumCheck`]).
    QuantumCheck,
    /// An idle core woke to look for work ([`Event::StartCore`]).
    StartCore,
    /// A dispatcher placement reached a worker ([`Event::PlaceTask`]).
    PlaceTask,
    /// A §5.2 core-allocator decision ran ([`Event::CoreAllocTick`]).
    CoreAllocTick,
    /// A task started running on a core (opens a run slice).
    Switch,
    /// The current task was preempted (closes the run slice).
    Preempt,
    /// The machine-managed BE task was parked off a revoked core.
    Park,
    /// The current task yielded voluntarily.
    Yield,
    /// The current task blocked.
    Block,
    /// The current task exited.
    Finish,
    /// The core allocator granted a core to the best-effort application.
    Grant,
    /// A revoke took effect: the core returned to the LC application.
    Revoke,
    /// A kernel thread page-faulted and blocked in the kernel (§6); the
    /// running task was frozen (closes the run slice).
    FaultBlock,
    /// A blocked kernel thread's fault resolved; it is parked again.
    FaultResolve,
    /// The watchdog re-armed a worker whose §3.2 timer PIR was lost.
    TimerRearm,
    /// The recovery layer resent a revoke IPI that never took effect.
    IpiRetry,
    /// The watchdog declared a worker stalled and drained its runqueue.
    WorkerStalled,
    /// A task migrated off a stalled worker onto a healthy one.
    TaskMigrated,
    /// The NIC data plane steered a datagram into an RX ring (§3.5).
    RxEnqueue,
    /// A full RX ring tail-dropped a datagram; the client will time out.
    RxDrop,
    /// The polling core drained a burst from an RX ring toward a worker.
    RxPoll,
    /// The CoDel drop law shed a datagram at the polling core (sojourn
    /// above target for a full interval; overload control).
    AqmDrop,
    /// Deadline-aware admission shed a request at poll time: its worker
    /// backlog times the service estimate already exceeded the remaining
    /// SLO budget.
    AdmissionShed,
    /// A client retry datagram reached the NIC (spent from the global
    /// retry budget).
    NetRetry,
    /// The runqueue AQM shed a queued request whose sojourn sat above the
    /// CoDel target for a full interval (the scheduler-side containment
    /// ring, DESIGN.md §16).
    RqShed,
    /// The brownout controller engaged: sustained overload signal, BE
    /// share is being shed.
    BrownoutShed,
    /// The brownout controller released: the overload signal drained and
    /// the BE application may be re-admitted.
    BrownoutClear,
}

impl TraceKind {
    /// Short stable name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::TimerFire => "TimerFire",
            TraceKind::TimerLost => "TimerLost",
            TraceKind::IpiArrive {
                purpose: IpiPurpose::Preempt,
            } => "IpiPreempt",
            TraceKind::IpiArrive {
                purpose: IpiPurpose::Revoke,
            } => "IpiRevoke",
            TraceKind::SegmentDone => "SegmentDone",
            TraceKind::QuantumCheck => "QuantumCheck",
            TraceKind::StartCore => "StartCore",
            TraceKind::PlaceTask => "PlaceTask",
            TraceKind::CoreAllocTick => "CoreAllocTick",
            TraceKind::Switch => "Switch",
            TraceKind::Preempt => "Preempt",
            TraceKind::Park => "Park",
            TraceKind::Yield => "Yield",
            TraceKind::Block => "Block",
            TraceKind::Finish => "Finish",
            TraceKind::Grant => "Grant",
            TraceKind::Revoke => "Revoke",
            TraceKind::FaultBlock => "FaultBlock",
            TraceKind::FaultResolve => "FaultResolve",
            TraceKind::TimerRearm => "TimerRearm",
            TraceKind::IpiRetry => "IpiRetry",
            TraceKind::WorkerStalled => "WorkerStalled",
            TraceKind::TaskMigrated => "TaskMigrated",
            TraceKind::RxEnqueue => "RxEnqueue",
            TraceKind::RxDrop => "RxDrop",
            TraceKind::RxPoll => "RxPoll",
            TraceKind::AqmDrop => "AqmDrop",
            TraceKind::AdmissionShed => "AdmissionShed",
            TraceKind::NetRetry => "NetRetry",
            TraceKind::RqShed => "RqShed",
            TraceKind::BrownoutShed => "BrownoutShed",
            TraceKind::BrownoutClear => "BrownoutClear",
        }
    }

    /// Whether this kind ends the run slice opened by a
    /// [`TraceKind::Switch`] on the same core.
    fn ends_slice(&self) -> bool {
        matches!(
            self,
            TraceKind::Preempt
                | TraceKind::Park
                | TraceKind::Yield
                | TraceKind::Block
                | TraceKind::Finish
                | TraceKind::FaultBlock
        )
    }
}

/// One recorded scheduling event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub ts: Nanos,
    /// Core the event concerns; `None` for machine-wide events
    /// (core-allocator ticks).
    pub core: Option<CoreId>,
    /// Task the event concerns, when one is identifiable.
    pub task: Option<TaskId>,
    /// Owning application of `task`, resolved at record time (the task may
    /// be gone by export time).
    pub app: Option<AppId>,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded FIFO of trace events.
///
/// Stored as a flat circular buffer: once full, `push` overwrites in
/// place at a rotating write index. Recording an event at steady state is
/// one indexed store — this runs on every simulation event, so it must
/// not shift, reallocate, or branch on capacity growth.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<TraceEvent>,
    /// Oldest entry (and next overwrite target) once the buffer is full.
    head: usize,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap),
            head: 0,
        }
    }

    /// Appends `ev`, evicting the oldest entry when at `cap`. Returns
    /// whether an entry was evicted.
    #[inline]
    fn push(&mut self, ev: TraceEvent, cap: usize) -> bool {
        if self.buf.len() < cap {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == cap {
                self.head = 0;
            }
            true
        }
    }

    /// Buffered events, oldest first.
    fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The newest buffered event.
    fn last(&self) -> Option<&TraceEvent> {
        if self.buf.is_empty() {
            None
        } else if self.head == 0 {
            self.buf.last()
        } else {
            Some(&self.buf[self.head - 1])
        }
    }
}

/// Records machine state validated (or violated) after each event.
///
/// The checker is consulted by [`Machine::handle`] after every dispatched
/// event. It is `enabled` by default only in debug builds (tests), so
/// release benchmark runs record traces without paying for validation.
#[derive(Debug)]
pub struct InvariantChecker {
    /// Whether checks run at all.
    pub enabled: bool,
    /// Panic at the first violation (default). When `false`, violations
    /// accumulate in [`InvariantChecker::violations`] instead.
    pub panic_on_violation: bool,
    /// §3.2 arming invariant budget: how many lost timer interrupts are
    /// expected (from injected faults). With the default of zero, any
    /// `timer_lost` growth is a violation.
    pub allowed_timer_lost: u64,
    violations: Vec<String>,
    checks_run: u64,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        InvariantChecker {
            enabled: cfg!(debug_assertions),
            panic_on_violation: true,
            allowed_timer_lost: 0,
            violations: Vec::new(),
            checks_run: 0,
        }
    }
}

impl InvariantChecker {
    /// Number of post-event validations performed.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Violations collected while `panic_on_violation` was off.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Per-core ring buffers of [`TraceEvent`]s plus the invariant checker.
#[derive(Debug)]
pub struct Tracer {
    /// One ring per core, plus a final ring for machine-wide events.
    rings: Vec<Ring>,
    capacity: usize,
    dropped: u64,
    /// Master runtime recording switch (see [`Tracer::set_active`]).
    active: bool,
    /// The runtime invariant checker driven by [`Machine::handle`].
    pub checker: InvariantChecker,
}

impl Tracer {
    /// Creates a tracer for a machine with `n_cores` cores, with the
    /// default per-ring capacity.
    pub fn new(n_cores: usize) -> Self {
        Tracer::with_capacity(n_cores, DEFAULT_RING_CAPACITY)
    }

    /// Creates a tracer with an explicit per-ring capacity.
    ///
    /// Rings are allocated to full capacity up front so steady-state
    /// recording never grows a buffer on the event hot path.
    pub fn with_capacity(n_cores: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Tracer {
            rings: (0..n_cores + 1)
                .map(|_| Ring::with_capacity(capacity))
                .collect(),
            capacity,
            dropped: 0,
            active: true,
            checker: InvariantChecker::default(),
        }
    }

    /// Whether recording is active (see [`Tracer::set_active`]).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Enables or disables recording at runtime.
    ///
    /// While inactive, the machine's emit paths take one predictable
    /// branch and construct no [`TraceEvent`] at all — benchmark drivers
    /// can turn the ring off without rebuilding the machine or compiling
    /// out the `trace` feature. Scheduling decisions are unaffected either
    /// way, and the invariant checker is controlled independently through
    /// [`InvariantChecker::enabled`].
    pub fn set_active(&mut self, on: bool) {
        self.active = on;
    }

    /// Appends an event to its core's ring (machine-wide events go to the
    /// last ring), evicting the oldest event when the ring is full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        let last = self.rings.len() - 1;
        let idx = ev.core.map_or(last, |c| c.min(last));
        if self.rings[idx].push(ev, self.capacity) {
            self.dropped += 1;
        }
    }

    /// Total events currently buffered.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.buf.len()).sum()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because a ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All buffered events, core by core, oldest first within a core.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.rings.iter().flat_map(|r| r.iter())
    }

    /// Serializes the buffered events to Chrome trace event format
    /// (the JSON object form: `{"traceEvents":[...]}`), loadable in
    /// Perfetto or `chrome://tracing`. `pid` is always 0; `tid` is the
    /// core id (the last tid is the machine-wide track). Timestamps are
    /// microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + 112 * self.len());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (tid, ring) in self.rings.iter().enumerate() {
            let mut open: Option<TraceEvent> = None;
            for ev in ring.iter() {
                if ev.kind == TraceKind::Switch {
                    // A Switch while a slice is open can only come from a
                    // ring that lost its closing event to eviction; start
                    // over from the newer slice.
                    open = Some(*ev);
                    continue;
                }
                if ev.kind.ends_slice() {
                    if let Some(start) = open.take() {
                        push_slice(&mut out, &mut first, tid, &start, ev.ts);
                    }
                }
                push_instant(&mut out, &mut first, tid, ev);
            }
            // Close a slice still running at the end of the recording.
            if let Some(start) = open {
                let end = ring.last().map_or(start.ts, |e| e.ts.max(start.ts));
                push_slice(&mut out, &mut first, tid, &start, end);
            }
        }
        out.push_str("]}");
        out
    }
}

/// Microseconds (Chrome trace unit) from virtual nanoseconds.
fn us(t: Nanos) -> f64 {
    t.0 as f64 / 1000.0
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn push_slice(out: &mut String, first: &mut bool, tid: usize, start: &TraceEvent, end: Nanos) {
    sep(out, first);
    let mut name = String::new();
    if let Some(app) = start.app {
        let _ = write!(name, "app{app}/");
    }
    match start.task {
        Some(t) => {
            let _ = write!(name, "{t:?}");
        }
        None => name.push_str("task"),
    }
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"run\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{tid}}}",
        us(start.ts),
        us(end.saturating_sub(start.ts)),
    );
}

fn push_instant(out: &mut String, first: &mut bool, tid: usize, ev: &TraceEvent) {
    sep(out, first);
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":0,\"tid\":{tid}",
        ev.kind.name(),
        us(ev.ts),
    );
    if ev.task.is_some() || ev.app.is_some() {
        out.push_str(",\"args\":{");
        let mut afirst = true;
        if let Some(t) = ev.task {
            let _ = write!(out, "\"task\":\"{t:?}\"");
            afirst = false;
        }
        if let Some(a) = ev.app {
            if !afirst {
                out.push(',');
            }
            let _ = write!(out, "\"app\":{a}");
        }
        out.push('}');
    }
    out.push('}');
}

/// Validates the machine's structural invariants and returns a description
/// of each violation (empty when the state is consistent).
///
/// The checks, in order:
///
/// 1. **Single Binding Rule (§3.3)** — at most one active kernel thread per
///    isolated core, with the kernel module's cache agreeing with its
///    thread table ([`skyloft_kmod::Kmod::check_binding_rule`]).
/// 2. **Segment token** — a core has a pending `SegmentDone` exactly when a
///    task is current, and its scheduled completion is not in the past.
/// 3. **Busy accounting** — a core's open busy interval exists exactly when
///    a task runs, is attributed to that task's application, and the total
///    busy time over all applications never exceeds elapsed wall time times
///    the worker count.
/// 4. **§3.2 arming** — under the `UserTimer` mechanism every worker's
///    receiver stays bound to its UPID with `SN` set and a non-empty PIR
///    (the handler re-armed before `uiret`), so `timer_lost` only grows
///    when faults were injected ([`InvariantChecker::allowed_timer_lost`]).
/// 5. **Exclusivity** — `incoming` (a kick/placement in flight) and
///    `current` are mutually exclusive, dispatcher cores never run tasks,
///    a current task is live and `Running`, and a revoke can only be in
///    flight toward a core that is still granted to the BE application.
/// 6. **Kernel-thread coherence** — each core's `cur_app` agrees with the
///    kernel module's active-thread table, through §6 fault substitutions
///    included (`cur_app == None` exactly when a fault vacated the core
///    with no substitute available).
/// 7. **Datagram conservation (§3.5)** — every datagram the NIC data plane
///    steered is accounted for exactly once: `net_generated ==
///    net_delivered + rx_ring_drops + net_in_flight` (extended by check 8's
///    overload buckets). A leak here means the RX rings, the polling core,
///    or the drop accounting lost or double-counted a packet.
/// 8. **Overload-control conservation** — the full ledger with the
///    overload buckets: `net_generated == net_delivered + rx_ring_drops +
///    aqm_drops + admission_sheds + net_in_flight + retries_spent`. A
///    retry datagram is *terminal*: it is counted into `net_generated`
///    and `retries_spent` at NIC arrival and enters no other bucket, so
///    AQM, admission, and the retry client cannot hide a lost or
///    double-counted packet behind each other.
/// 9. **Per-class conservation (DESIGN.md §16)** — the per-class ledger
///    arrays balance class by class (`generated[c] == delivered[c] +
///    rx_drops[c] + aqm_drops[c] + sheds[c] + in_flight[c] + retries[c]`)
///    and each array sums back to its global counter, so one class's
///    books cannot hide a leak inside another's.
pub fn violations_of(m: &Machine, now: Nanos) -> Vec<String> {
    let mut v = Vec::new();

    // 1. Single Binding Rule.
    if let Err(e) = m.kmod.check_binding_rule() {
        v.push(format!("single-binding-rule: {e:?}"));
    }

    // Per-core structural checks (2, 3 locals, 5).
    for (core, c) in m.cores.iter().enumerate() {
        if c.done_token.is_some() != c.current.is_some() {
            v.push(format!(
                "core {core}: pending SegmentDone token ({}) disagrees with current task ({:?})",
                c.done_token.is_some(),
                c.current
            ));
        }
        if c.done_token.is_some() && c.seg_end < now {
            v.push(format!(
                "core {core}: pending segment ends at {:?}, before now {now:?}",
                c.seg_end
            ));
        }
        match (c.busy_since, c.current) {
            (None, None) => {}
            (Some((since, app)), Some(t)) => {
                if since > now {
                    v.push(format!("core {core}: busy anchor {since:?} in the future"));
                }
                if m.tasks.contains(t) && m.tasks.get(t).app != app {
                    v.push(format!(
                        "core {core}: busy interval charged to app {app}, but runs a task of app {}",
                        m.tasks.get(t).app
                    ));
                }
            }
            (busy, cur) => {
                v.push(format!(
                    "core {core}: busy anchor {busy:?} disagrees with current task {cur:?}"
                ));
            }
        }
        if c.incoming && c.current.is_some() {
            v.push(format!(
                "core {core}: kick in flight while {:?} is current",
                c.current
            ));
        }
        if c.role == CoreRole::Dispatcher && c.current.is_some() {
            v.push(format!("core {core}: dispatcher core runs {:?}", c.current));
        }
        if let Some(t) = c.current {
            if !m.tasks.contains(t) {
                v.push(format!("core {core}: current task {t:?} is stale"));
            } else if m.tasks.get(t).state != TaskState::Running {
                v.push(format!(
                    "core {core}: current task {t:?} is {:?}, not Running",
                    m.tasks.get(t).state
                ));
            }
        }
        if c.revoking && !c.granted_to_be {
            v.push(format!(
                "core {core}: revoke in flight for a core not granted to the BE app"
            ));
        }
        // 6. Kernel-thread coherence: the core's notion of the active
        // application agrees with the kernel module — through fault
        // substitutions included.
        if !c.kthreads.is_empty() {
            let active = m.kmod.active_thread(core);
            let expected = c.cur_app.map(|a| c.kthreads[a]);
            if active != expected {
                v.push(format!(
                    "core {core}: active kernel thread {active:?} disagrees with \
                     cur_app {:?} (expected {expected:?})",
                    c.cur_app
                ));
            }
        }
    }

    // 3. Busy-time conservation across the whole machine.
    let elapsed = now.saturating_sub(m.stats.since).0 as u128;
    let capacity = elapsed * m.worker_cores.len() as u128;
    let busy: u128 = (0..m.apps.len()).map(|a| m.busy_ns(a, now) as u128).sum();
    if busy > capacity {
        v.push(format!(
            "busy-time conservation: {busy} busy ns across apps exceeds {capacity} \
             (elapsed x workers)"
        ));
    }

    // 4. §3.2 arming invariant (UserTimer receivers only).
    if let PreemptMechanism::UserTimer { .. } = m.plat.mech {
        for &core in &m.worker_cores {
            let Some(upid) = m.cores[core].upid else {
                v.push(format!("core {core}: UserTimer worker without a UPID"));
                continue;
            };
            if m.uintr.receiver_upid(core) != Some(upid) {
                v.push(format!(
                    "core {core}: receiver UPID {:?} no longer bound (expected {upid:?})",
                    m.uintr.receiver_upid(core)
                ));
            }
            let u = m.uintr.upid(upid);
            if !u.sn {
                v.push(format!("core {core}: timer UPID lost its SN bit"));
            }
            if u.pir == 0 && !m.core_arming_lost(core) && m.tracer.checker.allowed_timer_lost == 0 {
                v.push(format!(
                    "core {core}: timer PIR unarmed — the next timer interrupt will be lost"
                ));
            }
        }
        if m.stats.timer_lost > m.tracer.checker.allowed_timer_lost {
            v.push(format!(
                "timer_lost = {} exceeds the injected-fault budget of {}",
                m.stats.timer_lost, m.tracer.checker.allowed_timer_lost
            ));
        }
    }

    // 7, 8, 9. The NIC data plane's conservation ledger.
    v.extend(m.stats.ledger_violations());

    v
}

impl Machine {
    /// Records the raw event entering [`Machine::handle`].
    pub(crate) fn trace_raw(&mut self, ev: &Event, now: Nanos) {
        if !self.tracer.active {
            return;
        }
        let (core, task, kind) = match ev {
            Event::TimerFire { core } => (Some(*core), None, TraceKind::TimerFire),
            Event::IpiArrive {
                core,
                purpose,
                expect,
            } => (
                Some(*core),
                *expect,
                TraceKind::IpiArrive { purpose: *purpose },
            ),
            Event::SegmentDone { core } => (
                Some(*core),
                self.cores[*core].current,
                TraceKind::SegmentDone,
            ),
            Event::QuantumCheck { core, task } => {
                (Some(*core), Some(*task), TraceKind::QuantumCheck)
            }
            Event::StartCore { core } => (Some(*core), None, TraceKind::StartCore),
            Event::PlaceTask { core, task } => (Some(*core), Some(*task), TraceKind::PlaceTask),
            Event::CoreAllocTick => (None, None, TraceKind::CoreAllocTick),
            // The AQM tick traces through the RqShed events it causes.
            Event::RqAqmTick => return,
            // Chaos machinery traces through the specific fault/recovery
            // kinds it emits while handling the event.
            #[cfg(feature = "chaos")]
            Event::Chaos(_) => return,
            // Callback bodies trace through the machine calls they make.
            Event::Call(_) | Event::Recur(_) => return,
        };
        self.trace_emit(now, core, task, kind);
    }

    /// Records a scheduling action, resolving the task's application.
    pub(crate) fn trace_emit(
        &mut self,
        ts: Nanos,
        core: Option<CoreId>,
        task: Option<TaskId>,
        kind: TraceKind,
    ) {
        // The cached runtime flag is the whole fast path: when the ring is
        // off, every emit site is a single well-predicted branch with no
        // TraceEvent construction or app resolution behind it.
        if !self.tracer.active {
            return;
        }
        let app = task
            .filter(|&t| self.tasks.contains(t))
            .map(|t| self.tasks.get(t).app);
        self.tracer.record(TraceEvent {
            ts,
            core,
            task,
            app,
            kind,
        });
    }

    /// Validates all machine invariants; called after every dispatched
    /// event. Panics on the first violation unless
    /// [`InvariantChecker::panic_on_violation`] was cleared.
    pub(crate) fn check_invariants(&mut self, now: Nanos) {
        if !self.tracer.checker.enabled || !self.started {
            return;
        }
        self.tracer.checker.checks_run += 1;
        let vs = violations_of(self, now);
        if vs.is_empty() {
            return;
        }
        if self.tracer.checker.panic_on_violation {
            panic!(
                "scheduling invariant violated at {now:?}: {}",
                vs.join("; ")
            );
        }
        self.tracer.checker.violations.extend(vs);
    }

    /// Serializes the recorded trace to Chrome trace event format
    /// (see [`Tracer::to_chrome_json`]).
    pub fn trace_to_chrome_json(&self) -> String {
        self.tracer.to_chrome_json()
    }

    /// Writes the recorded trace as Chrome-trace JSON to `path`.
    pub fn write_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.trace_to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, core: Option<CoreId>, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            ts: Nanos(ts),
            core,
            task: None,
            app: None,
            kind,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut tr = Tracer::with_capacity(1, 2);
        for ts in 0..5 {
            tr.record(ev(ts, Some(0), TraceKind::TimerFire));
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
        let first = tr.events().next().unwrap();
        assert_eq!(first.ts, Nanos(3));
    }

    #[test]
    fn global_events_use_their_own_ring() {
        let mut tr = Tracer::with_capacity(2, 8);
        tr.record(ev(1, None, TraceKind::CoreAllocTick));
        tr.record(ev(2, Some(1), TraceKind::TimerFire));
        assert_eq!(tr.len(), 2);
        let json = tr.to_chrome_json();
        // The machine-wide ring is the last tid (n_cores == 2).
        assert!(json.contains("\"name\":\"CoreAllocTick\""), "{json}");
        assert!(json.contains("\"tid\":2"), "{json}");
    }

    #[test]
    fn chrome_json_builds_slices_from_switch_stop_pairs() {
        let mut tr = Tracer::with_capacity(1, 16);
        tr.record(ev(1_000, Some(0), TraceKind::Switch));
        tr.record(ev(3_500, Some(0), TraceKind::Preempt));
        tr.record(ev(4_000, Some(0), TraceKind::Switch));
        let json = tr.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\":["), "{json}");
        // 1.0 us start, 2.5 us duration.
        assert!(
            json.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500"),
            "{json}"
        );
        // The trailing open slice closes with zero duration.
        assert!(json.contains("\"ts\":4.000,\"dur\":0.000"), "{json}");
    }

    #[test]
    fn orphan_stop_is_just_an_instant() {
        let mut tr = Tracer::with_capacity(1, 4);
        tr.record(ev(500, Some(0), TraceKind::Finish));
        let json = tr.to_chrome_json();
        assert!(!json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"Finish\""), "{json}");
    }
}
