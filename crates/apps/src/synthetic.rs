//! Open-loop synthetic workloads (§5.2, Figure 7).
//!
//! The dispersive workload follows the ghOSt paper's setup, reused by
//! Skyloft: 99.5% short requests of 4 μs and 0.5% long requests of 10 ms,
//! arriving as a Poisson process. Requests run as one-shot tasks on the
//! machine; this module turns an [`OpenLoop`] generator into a
//! self-rescheduling chain of simulation events.
//!
//! Two ingress paths exist:
//!
//! * **The NIC data plane** ([`Placement::Rss`], [`install_tenants`]):
//!   datagrams transit the wire (a [`wire_draw`] each), are RSS-steered
//!   into the bounded per-core RX rings of a [`MultiQueueNic`], and a
//!   polling core drains them in bursts toward workers with room in their
//!   in-service window. Overload tail-drops at the rings (client times
//!   out) instead of accumulating unbounded queues inside the simulator.
//!   Wire loss and duplication ([`LossModel`]), overload control and
//!   co-located tenants exist only on this path.
//! * **The teleport path** ([`Placement::Queue`],
//!   [`Placement::RssDirect`]): requests spawn directly at their arrival
//!   instant, with wire and stack costs folded in as accounting, on a
//!   lossless wire. Queues are unbounded — fine below saturation,
//!   unphysical above it. Kept for policy-comparison studies where the
//!   NIC must not be a variable, and as the pre-data-plane baseline in
//!   `netbench`.
//!
//! [`install_open_loop`] installs one tenant on either path;
//! [`install_tenants`] is the NIC path with everything.
//!
//! Both paths charge [`WIRE_LATENCY`] on *both* directions of every
//! delivered request: a client measures request→response round trip, and
//! omitting the wire understated every latency figure by ~2 μs.

use std::cell::RefCell;
use std::mem;
use std::rc::Rc;

use skyloft::machine::{Call, CallSink, Event, Machine, NetTrace, Recur};
use skyloft::stats::class_slot;
use skyloft::task::RequestMeta;
use skyloft::SpawnOpts;
use skyloft_net::dataplane::{MultiQueueNic, NicConfig};
use skyloft_net::loadgen::{Backoff, ClassRetryBudgets, OpenLoop, RetryBudget, RetryPolicy};
use skyloft_net::nic::{stack_overhead, wire_draw, LossModel, PacketFate, WIRE_LATENCY};
use skyloft_net::overload::{AdmissionConfig, AdmissionCtl, CodelConfig, MAX_CLASSES};
use skyloft_net::rss::{RssHasher, INDIRECTION_ENTRIES};
use skyloft_sim::{Distribution, EventQueue, Nanos, Rng};

/// The §5.2 dispersive service-time distribution.
pub fn dispersive() -> Distribution {
    Distribution::Bimodal {
        p_long: 0.005,
        short: Nanos::from_us(4),
        long: Nanos::from_ms(10),
    }
}

/// Class threshold separating short from long requests for dispersive
/// workloads.
pub fn dispersive_threshold() -> Nanos {
    Nanos::from_us(100)
}

/// The client and server endpoints every synthetic flow runs between; the
/// varying source port is what spreads flows across rings.
const CLIENT_IP: u32 = 0x0a00_0001;
const SERVER_IP: u32 = 0x0a00_0002;
const SERVER_PORT: u16 = 11_211;

/// First source port of the synthetic client population; request `seq`
/// uses port `FLOW_PORT_BASE + seq % FLOW_COUNT`.
const FLOW_PORT_BASE: u16 = 20_000;
/// Distinct client flows the generator cycles through.
const FLOW_COUNT: u64 = 20_000;

/// Per-flow Toeplitz hash cache for the synthetic client population.
///
/// Only the source port varies between flows, and the generator cycles
/// through [`FLOW_COUNT`] of them, so in steady state every packet of a
/// flow after its first reuses the hash instead of re-walking the
/// 12-byte tuple. The hash depends on the RSS *key* alone — never
/// rewritten mid-run — not the indirection table, so cached values stay
/// valid across chaos indirection rewrites; steering still goes through
/// the live table via [`RssHasher::ring_for_hash`]. Each slot remembers
/// the port it was filled for, so an out-of-pattern port can never alias
/// another flow's hash.
struct FlowHashCache {
    slots: Vec<Option<(u16, u32)>>,
}

impl FlowHashCache {
    fn new() -> Self {
        FlowHashCache {
            slots: vec![None; FLOW_COUNT as usize],
        }
    }

    /// The Toeplitz hash of the flow with source port `src_port`,
    /// computed on first use and cached thereafter.
    fn hash(&mut self, h: &RssHasher, src_port: u16) -> u32 {
        let idx = usize::from(src_port.wrapping_sub(FLOW_PORT_BASE)) % self.slots.len();
        match self.slots[idx] {
            Some((port, hash)) if port == src_port => hash,
            _ => {
                let hash = h.hash_flow(CLIENT_IP, SERVER_IP, src_port, SERVER_PORT);
                self.slots[idx] = Some((src_port, hash));
                hash
            }
        }
    }
}

/// Seed of the wire-transit jitter RNG. A fixed constant, not wall-clock
/// derived: a sweep point must replay identically whether it runs on the
/// serial or the threaded harness.
const WIRE_SEED: u64 = 0x57A6_6E12_D1CE_0001;

/// How arriving requests are placed onto cores.
#[derive(Clone)]
pub enum Placement {
    /// No placement hint: the policy decides (centralized queues).
    Queue,
    /// The kernel-bypass NIC path (§3.5), configured by the
    /// [`NicConfig`]: each request's flow is Toeplitz-hashed through the
    /// indirection table onto one of the bounded RX rings, and the
    /// polling core hands it to the ring's worker. Overload tail-drops at
    /// the rings; a dropped request enters the histograms at
    /// [`NicConfig::client_timeout`].
    Rss(NicConfig),
    /// Legacy RSS placement: the flow hash pins the request, but it
    /// spawns directly with no ring, no polling core, and no drop — the
    /// full per-request network overhead is added to the executed
    /// segment. Queues are unbounded past saturation.
    RssDirect {
        /// Worker count.
        n: usize,
    },
}

/// Installs an open-loop arrival process into the machine: each generated
/// request spawns a one-shot task of its service time for application
/// `app`; generation stops at `until` (virtual time).
///
/// [`Placement::Rss`] routes the load through the NIC data plane as one
/// tenant with no overload control armed (plain tail-drop rings); use
/// [`install_tenants`] for co-located tenants, overload control, or a
/// lossy wire.
pub fn install_open_loop(
    q: &mut EventQueue<Event>,
    gen: OpenLoop,
    app: usize,
    placement: Placement,
    until: Nanos,
) {
    match placement {
        Placement::Rss(nic) => install_tenants(
            q,
            vec![Tenant {
                gen,
                app,
                class: None,
            }],
            nic,
            until,
            None,
            OverloadControl::default(),
        ),
        Placement::Queue => schedule_next_direct(q, gen, app, None, until),
        Placement::RssDirect { n } => schedule_next_direct(
            q,
            gen,
            app,
            Some((RssHasher::new(n), FlowHashCache::new())),
            until,
        ),
    }
}

// ---------------------------------------------------------------------------
// The teleport path (Placement::Queue / Placement::RssDirect).
// ---------------------------------------------------------------------------

fn schedule_next_direct(
    q: &mut EventQueue<Event>,
    mut gen: OpenLoop,
    app: usize,
    mut rss: Option<(RssHasher, FlowHashCache)>,
    until: Nanos,
) {
    let base = q.now();
    let Some(first) = gen.next() else { return };
    let first_at = base + first.at;
    if first_at >= until {
        return;
    }
    // One self-rescheduling closure carries the generator for the whole
    // run: each firing delivers the pending request, draws the next
    // arrival, and returns its time so the machine re-schedules the same
    // box — the arrival chain allocates once, not once per request.
    let mut pending = first;
    let mut seq: u64 = 0;
    let hook = move |m: &mut Machine, q: &mut EventQueue<Event>| {
        let req = pending;
        let (pin, overhead) = match rss.as_mut() {
            Some((h, flow_cache)) => {
                // Model a distinct client flow per request (varying
                // source port), hashed by the NIC onto a worker ring.
                // Steady-state flows hash once: the cache keyed by source
                // port skips the Toeplitz walk after a flow's first packet.
                let src_port = FLOW_PORT_BASE.wrapping_add((seq % FLOW_COUNT) as u16);
                let core = h.ring_for_hash(flow_cache.hash(h, src_port));
                (Some(core), skyloft_net::nic::per_request_overhead())
            }
            None => (None, Nanos::ZERO),
        };
        seq += 1;
        // The teleport path has no physical wire events; both transits of
        // the round trip are charged by backdating the arrival, so
        // response = wire + server time + wire.
        let meta = RequestMeta {
            arrival: q.now().saturating_sub(WIRE_LATENCY * 2),
            service: req.service,
            class: req.class,
        };
        let body = m.pooled_oneshot(req.service + overhead);
        m.spawn(
            q,
            body,
            SpawnOpts {
                app,
                pin,
                req: Some(meta),
                weight: 1024,
                record_wakeup: false,
            },
        );
        let next = gen.next()?;
        let at = base + next.at;
        if at >= until {
            return None;
        }
        pending = next;
        Some(at)
    };
    q.schedule(first_at, Event::Recur(Recur(Box::new(hook))));
}

// ---------------------------------------------------------------------------
// The NIC data plane path (Placement::Rss).
// ---------------------------------------------------------------------------

/// A request datagram in flight through the wire or an RX ring.
#[derive(Clone, Copy, Debug)]
struct Pkt {
    /// Original client send instant: the client's latency clock starts
    /// here and is *never* reset by a retry, so every histogram sample
    /// spans the full wait (coordinated-omission-safe).
    send: Nanos,
    /// This attempt's transmit instant (the per-attempt timeout clock).
    sent_at: Nanos,
    service: Nanos,
    class: u8,
    /// Owning application: tenants co-located on one shared NIC plane
    /// spawn under their own app, so per-app accounting (busy shares,
    /// SLO classes, fault scoping) attributes correctly.
    app: usize,
    src_port: u16,
    /// Whether this is the second delivery of a duplicated datagram.
    copy: bool,
    /// Retransmission count: 0 is the original request. Retries are a
    /// terminal ledger bucket — every per-datagram conservation counter
    /// except `net_generated`/`retries_spent` is gated on `attempt == 0`.
    attempt: u8,
}

/// End-to-end overload-control configuration for the NIC path: which of
/// the three defence layers are armed. The default arms none, leaving
/// the pure tail-drop pipeline exactly as it was before this module
/// learned to shed load.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverloadControl {
    /// CoDel drop law, one independent controller per RX ring.
    pub codel: Option<CodelConfig>,
    /// Deadline-aware admission at the polling core: a request whose
    /// backlog-predicted finish already overruns its SLO budget is shed
    /// at poll time instead of burning a worker.
    pub admission: Option<AdmissionConfig>,
    /// Client-side retries: per-attempt timeout, decorrelated-jitter
    /// backoff, and a global retry budget.
    pub retry: Option<RetryPolicy>,
    /// Per-class retry provisioning: `Some(fracs)` replaces the single
    /// global retry bucket with one token bucket per SLO class, class
    /// `c` filling at `fracs[c]` permille of its *own* offered load
    /// (`None` entries inherit the policy-wide `budget_permille`). This
    /// is how an `SloClass::retry_frac` reaches the client: a batch
    /// tenant's timeout storm can then never drain the retry capacity a
    /// latency-critical tenant was provisioned. Ignored unless `retry`
    /// is also armed.
    pub retry_frac: Option<[Option<u32>; MAX_CLASSES]>,
}

impl OverloadControl {
    /// All three layers at their default settings.
    pub fn full() -> Self {
        OverloadControl {
            codel: Some(CodelConfig::default()),
            admission: Some(AdmissionConfig::default()),
            retry: Some(RetryPolicy::default()),
            retry_frac: None,
        }
    }
}

/// The retrying client's mutable state.
struct RetryState {
    policy: RetryPolicy,
    /// The single global bucket (used when `class_budget` is unarmed).
    budget: RetryBudget,
    /// Per-class buckets, when [`OverloadControl::retry_frac`] armed
    /// them; exactly one of the two bucket fields is live at a time.
    class_budget: Option<ClassRetryBudgets>,
    backoff: Backoff,
}

impl RetryState {
    /// Accrues budget for one offered request of `class`.
    fn on_request(&mut self, class: u8) {
        match self.class_budget.as_mut() {
            Some(cb) => cb.on_request(class),
            None => self.budget.on_request(),
        }
    }

    /// Attempts to spend one retry token for `class`.
    fn try_spend(&mut self, class: u8) -> bool {
        match self.class_budget.as_mut() {
            Some(cb) => cb.try_spend(class),
            None => self.budget.try_spend(),
        }
    }
}

/// A data-plane event in flight: the payload a [`Call::Sink`] token of
/// the [`Plane`] names while the event waits in the queue.
enum PlaneEv {
    /// A datagram reaches the NIC ([`nic_rx`]).
    Wire(Pkt),
    /// A poll round's admitted burst reaches its ring's worker
    /// ([`hand_off`]).
    Handoff { ring: usize, pkts: Vec<Pkt> },
    /// A lost attempt's client timeout fires ([`lose_attempt`]).
    Loss(Pkt),
    /// A wedged indirection entry gets its original ring back.
    Restore { entry: usize, old: u16 },
}

/// Parked [`PlaneEv`]s, indexed by token. Redeemed slots go on the free
/// list and are reused, so at steady state parking allocates nothing.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<PlaneEv>>,
    free: Vec<u32>,
}

impl Slab {
    fn park(&mut self, ev: PlaneEv) -> u32 {
        match self.free.pop() {
            Some(token) => {
                self.slots[token as usize] = Some(ev);
                token
            }
            None => {
                self.slots.push(Some(ev));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, token: u32) -> PlaneEv {
        let ev = self.slots[token as usize]
            .take()
            .expect("a plane token is redeemed exactly once");
        self.free.push(token);
        ev
    }
}

/// One installed NIC data plane: the [`CallSink`] that every wire,
/// handoff, loss and restore event of the plane fires into.
struct Plane(RefCell<PlaneState>);

impl Plane {
    /// Parks `ev` in the slab and returns the queue event that redeems it.
    fn event(self: &Rc<Self>, s: &mut PlaneState, ev: PlaneEv) -> Event {
        Event::Call(Call::Sink(self.clone(), s.slab.park(ev)))
    }
}

impl CallSink for Plane {
    fn fire(self: Rc<Self>, m: &mut Machine, q: &mut EventQueue<Event>, token: u32) {
        let ev = self.0.borrow_mut().slab.take(token);
        match ev {
            PlaneEv::Wire(pkt) => nic_rx(m, q, &self, pkt),
            PlaneEv::Handoff { ring, mut pkts } => {
                hand_off(m, q, ring, &mut pkts);
                self.0.borrow_mut().spare.push(pkts);
            }
            PlaneEv::Loss(pkt) => lose_attempt(m, q, &self, pkt),
            PlaneEv::Restore { entry, old } => {
                let mut s = self.0.borrow_mut();
                let mut table = *s.nic.hasher().indirection();
                table[entry] = old;
                s.nic.hasher_mut().set_indirection(table);
            }
        }
    }
}

/// Driver state shared between the arrival chain, the in-flight wire
/// events, and the polling core. One per installed load; the simulation
/// is single-threaded, so a `RefCell` inside the [`Plane`] suffices.
struct PlaneState {
    nic: MultiQueueNic<Pkt>,
    /// Packets handed to each worker core since install; `handed[c] -
    /// stats.finished_by_core[c]` is the worker's in-service backlog the
    /// poller backpressures on.
    handed: Vec<u64>,
    wire_rng: Rng,
    /// Datagrams currently transiting the wire toward the NIC.
    wire_pending: u64,
    /// Arrival chains still generating (one per tenant). The poller may
    /// deregister only once every chain has produced its last request.
    gens_live: usize,
    /// Per-attempt client abandon timeout for lost datagrams.
    timeout: Nanos,
    /// Deadline-aware admission controller, when armed.
    admission: Option<AdmissionCtl>,
    /// Retrying-client state, when armed.
    retry: Option<RetryState>,
    /// Pending loss decisions (timeout fires that may still turn into a
    /// retry); keeps the poller alive until the last retry has landed.
    /// Only maintained when retries are armed, so the retry-free poller
    /// deregisters exactly when it always has.
    loss_pending: u64,
    /// Rolls the choice of which indirection entry a chaos fault wedges.
    stick_seq: u64,
    /// Per-flow Toeplitz hash cache: steady-state flows hash once, and
    /// [`nic_rx`] steers by cached hash through the live indirection
    /// table.
    flow_cache: FlowHashCache,
    /// Payloads of the plane's events waiting in the queue.
    slab: Slab,
    /// Emptied handoff bursts, reused by later poll rounds.
    spare: Vec<Vec<Pkt>>,
    /// Poll-round scratch (`mem::take`n around the round): the packets a
    /// ring drain kept, and those its drop law shed.
    batch: Vec<(Nanos, Pkt)>,
    shed: Vec<Pkt>,
}

/// One co-located application's share of a multi-tenant load: its own
/// arrival process and application id, plus (optionally) a fixed SLO
/// class stamped on every request it generates.
pub struct Tenant {
    /// This tenant's open-loop arrival process (an empty or zero-rate
    /// generator installs nothing — a legal degenerate sweep point).
    pub gen: OpenLoop,
    /// Application the tenant's requests spawn under.
    pub app: usize,
    /// SLO class stamped on every generated request; `None` keeps the
    /// generator's own service-threshold classification (the
    /// single-tenant behavior).
    pub class: Option<u8>,
}

/// Installs one or more tenants onto ONE shared NIC data plane — wire
/// transit, RSS steering into the bounded RX rings of a
/// [`MultiQueueNic`], a burst-draining polling core, per-worker
/// backpressure — with the layers of [`OverloadControl`] armed: CoDel on
/// the rings, deadline-aware admission at the polling core, and the
/// retrying client.
///
/// All arrival chains feed the same rings and the same polling core, so
/// tenants contend for ring slots, poll bandwidth, and workers exactly as
/// co-located applications contend for a real NIC. With
/// [`AdmissionConfig::class_slo`] armed, the polling core sheds each
/// request against *its own class's* deadline and service estimate; with
/// [`OverloadControl::retry_frac`] armed, each class retries from its
/// own token bucket. The poller also feeds the machine's brownout
/// controller ([`Machine::note_overload_sample`]) one sample per poll
/// round — worst head-of-ring sojourn plus whether any drain was
/// backpressured — whether or not any layer here is armed.
///
/// `net` is the wire's [`LossModel`] (`None` is the perfect wire): each
/// request datagram draws a fate. A dropped request never reaches the
/// NIC; a duplicated one transits the wire twice, independently, and the
/// server runs the copy without recording a second response
/// (`stats.net_dropped`, `stats.net_duplicated`). A lost attempt — on the
/// wire, at a ring, or shed — is given up on (or retried) at the client
/// timeout: the armed [`RetryPolicy::timeout`], else
/// [`NicConfig::client_timeout`]. Abandoned requests enter the latency
/// histograms at their full wait; excluding them would understate the
/// tail exactly when the system is misbehaving.
pub fn install_tenants(
    q: &mut EventQueue<Event>,
    tenants: Vec<Tenant>,
    cfg: NicConfig,
    until: Nanos,
    net: Option<LossModel>,
    ctl: OverloadControl,
) {
    install_plane(q, tenants, cfg, until, net, ctl);
}

/// [`install_tenants`], returning the plane it built (installed only if
/// some tenant generates a request).
fn install_plane(
    q: &mut EventQueue<Event>,
    tenants: Vec<Tenant>,
    cfg: NicConfig,
    until: Nanos,
    net: Option<LossModel>,
    ctl: OverloadControl,
) -> Rc<Plane> {
    let timeout = ctl.retry.map_or(cfg.client_timeout, |r| r.timeout);
    let poll_interval = cfg.poll_interval;
    let poll_batch = cfg.poll_batch;
    let worker_depth = cfg.worker_depth;
    let mut nic = MultiQueueNic::new(cfg);
    if let Some(law) = ctl.codel {
        nic.set_codel(law);
    }
    let class_budget = match (ctl.retry, ctl.retry_frac) {
        (Some(policy), Some(fracs)) => {
            let mut cb = ClassRetryBudgets::new(policy.budget_permille, policy.budget_burst);
            for (c, frac) in fracs.iter().enumerate() {
                if let Some(permille) = frac {
                    cb.set_class(c as u8, *permille, policy.budget_burst);
                }
            }
            Some(cb)
        }
        _ => None,
    };
    let plane = Rc::new(Plane(RefCell::new(PlaneState {
        handed: vec![0; nic.n_rings()],
        nic,
        wire_rng: Rng::seed_from_u64(WIRE_SEED),
        wire_pending: 0,
        gens_live: 0,
        timeout,
        admission: ctl.admission.map(AdmissionCtl::new),
        retry: ctl.retry.map(|policy| RetryState {
            budget: RetryBudget::new(policy.budget_permille, policy.budget_burst),
            class_budget,
            backoff: Backoff::new(policy.backoff_base, policy.backoff_cap, WIRE_SEED),
            policy,
        }),
        loss_pending: 0,
        stick_seq: 0,
        flow_cache: FlowHashCache::new(),
        slab: Slab::default(),
        spare: Vec::new(),
        batch: Vec::new(),
        shed: Vec::new(),
    })));

    // One arrival chain per tenant, all feeding the shared plane; the
    // poller starts one interval after the earliest first arrival.
    let mut earliest: Option<Nanos> = None;
    for tenant in tenants {
        if let Some(first_at) = install_tenant_chain(q, tenant, until, net.clone(), &plane) {
            plane.0.borrow_mut().gens_live += 1;
            earliest = Some(earliest.map_or(first_at, |e| e.min(first_at)));
        }
    }
    // Every tenant degenerate (zero rate, or first arrival past the
    // horizon): nothing to poll for, install nothing.
    let Some(first_at) = earliest else {
        return plane;
    };

    // The polling core: visits the rings every poll_interval, drains a
    // burst from each ring whose worker has room (shedding what the drop
    // law or the admission deadline says to), and hands the burst over
    // once the per-packet poll cost has been paid on the (serial)
    // polling core.
    let st_poll = plane.clone();
    let poller = move |m: &mut Machine, q: &mut EventQueue<Event>| {
        let now = q.now();
        let mut s = st_poll.0.borrow_mut();
        if s.gens_live == 0
            && s.wire_pending == 0
            && s.loss_pending == 0
            && s.nic.total_occupancy() == 0
        {
            // Everything generated has been delivered, dropped, or given
            // up on; stop polling so runs can drain to an empty queue.
            return None;
        }
        let extra = match m.chaos_rx_poll_fate() {
            // The poll visit itself is lost: the rings keep aging.
            None => return Some(now + poll_interval),
            Some(d) => d,
        };
        if let Some(dur) = m.chaos_indirection_stick(now) {
            wedge_indirection(q, &st_poll, &mut s, dur);
        }
        // Per-class admission resync, once per poll round: each class's
        // in-service backlog is what was handed to workers and has
        // neither completed nor been shed by the runqueue AQM — divided
        // by the worker count, because the class law predicts a single
        // queue draining at the class's per-request estimate while the
        // machine drains RSS-spread backlog on all workers in parallel.
        // Admits later this round grow it via `note_admitted`, so a
        // batch admitted at ring 0 is already backlog for ring 3.
        let classed = s.admission.as_ref().is_some_and(|a| a.has_classes());
        if classed {
            let workers = s.handed.len().max(1) as u64;
            if let Some(adm) = s.admission.as_mut() {
                for c in 0..MAX_CLASSES {
                    let done = m.stats.completed_by_class[c] + m.stats.rq_sheds_by_class[c];
                    let backlog = m.stats.delivered_by_class[c].saturating_sub(done);
                    adm.set_class_backlog(c as u8, backlog / workers);
                }
            }
        }
        let mut worst_sojourn = Nanos::ZERO;
        let mut backpressured = false;
        let mut batch = mem::take(&mut s.batch);
        let mut shed = mem::take(&mut s.shed);
        for ring in 0..s.nic.n_rings() {
            m.stats.rx_occ_hist.record(s.nic.occupancy(ring) as u64);
            if let Some(sojourn) = s.nic.oldest_sojourn(ring, now) {
                worst_sojourn = worst_sojourn.max(sojourn);
            }
            if s.nic.occupancy(ring) == 0 {
                continue;
            }
            let finished = m.stats.finished_by_core.get(ring).copied().unwrap_or(0);
            let outstanding = s.handed[ring].saturating_sub(finished) as usize;
            let take = worker_depth.saturating_sub(outstanding).min(poll_batch);
            if take == 0 {
                backpressured = true;
                continue; // backpressure: leave packets in the ring
            }
            let k = s.nic.drain(now, ring, take, &mut batch, &mut shed);
            for pkt in shed.drain(..) {
                if pkt.attempt == 0 {
                    let c = class_slot(pkt.class);
                    m.stats.aqm_drops += 1;
                    m.stats.aqm_drops_by_class[c] += 1;
                    m.stats.net_in_flight -= 1;
                    m.stats.in_flight_by_class[c] -= 1;
                }
                m.note_net(now, Some(ring), NetTrace::AqmDrop);
                client_loss(q, &st_poll, &mut s, pkt);
            }
            if k == 0 {
                continue;
            }
            // Deadline-aware admission over the kept batch: a request
            // whose predicted finish (behind the worker's backlog)
            // already overruns its SLO budget is shed here, at poll
            // cost, instead of burning a worker on a doomed response.
            // The predicted start charges the ring's adaptive per-packet
            // poll cost for the NIC-side delay ahead of this packet, so
            // a perturbed poller (whose handoffs run late) sheds
            // borderline requests it can no longer save.
            let nic_cost = s.nic.poll_cost(ring);
            let mut admitted = s.spare.pop().unwrap_or_default();
            for (_, pkt) in batch.drain(..) {
                let doomed = match s.admission.as_ref() {
                    // Class-aware: judged against the request's own
                    // class deadline and that class's service estimate
                    // and backlog, so a 5 ms batch SLO can never launder
                    // a doomed 200 µs request through a blended mean.
                    Some(adm) if classed => adm.should_shed_class(
                        pkt.class,
                        now + nic_cost * (admitted.len() as u64 + 1),
                        pkt.send,
                    ),
                    Some(adm) => adm.should_shed(
                        now + nic_cost * (admitted.len() as u64 + 1),
                        pkt.send,
                        outstanding + admitted.len(),
                    ),
                    None => false,
                };
                if doomed {
                    if pkt.attempt == 0 {
                        let c = class_slot(pkt.class);
                        m.stats.admission_sheds += 1;
                        m.stats.sheds_by_class[c] += 1;
                        m.stats.net_in_flight -= 1;
                        m.stats.in_flight_by_class[c] -= 1;
                    }
                    m.note_net(now, Some(ring), NetTrace::AdmissionShed);
                    // Displacement: what dooms a tight-class request is
                    // queued looser-class work, so reclaim one slot from
                    // the loosest backlog per tight-class shed — the
                    // feedback that makes the *next* request of this
                    // class admittable (batch is shed first). A shed
                    // batch request displaces nothing: no class is
                    // looser than it.
                    if classed {
                        if let Some(slo) = s.admission.as_ref().and_then(|a| a.class_slo(pkt.class))
                        {
                            m.shed_for_class(slo);
                        }
                    }
                    client_loss(q, &st_poll, &mut s, pkt);
                } else {
                    if let Some(adm) = s.admission.as_mut() {
                        // The estimate must cover the full marginal cost
                        // of a queued request, not just its service time,
                        // or every borderline admit busts its deadline.
                        if classed {
                            adm.observe_class(pkt.class, pkt.service + stack_overhead());
                            adm.note_admitted(pkt.class);
                        } else {
                            adm.observe(pkt.service + stack_overhead());
                        }
                    }
                    admitted.push(pkt);
                }
            }
            if admitted.is_empty() {
                s.spare.push(admitted);
                continue;
            }
            s.handed[ring] += admitted.len() as u64;
            let handoff = s.nic.poller_admit_on(now, ring, k, extra);
            m.note_net(now, Some(ring), NetTrace::RxPoll);
            let ev = st_poll.event(
                &mut s,
                PlaneEv::Handoff {
                    ring,
                    pkts: admitted,
                },
            );
            q.schedule(handoff, ev);
        }
        s.batch = batch;
        s.shed = shed;
        m.note_overload_sample(now, worst_sojourn, backpressured);
        Some(now + poll_interval)
    };
    q.schedule(
        first_at + poll_interval,
        Event::Recur(Recur(Box::new(poller))),
    );
    plane
}

/// A poll round's admitted burst reaches its ring's worker: each packet
/// spawns as a request task pinned to the ring's core. Leaves `pkts`
/// empty for reuse.
fn hand_off(m: &mut Machine, q: &mut EventQueue<Event>, ring: usize, pkts: &mut Vec<Pkt>) {
    for pkt in pkts.drain(..) {
        if pkt.attempt == 0 {
            let c = class_slot(pkt.class);
            m.stats.net_in_flight -= 1;
            m.stats.in_flight_by_class[c] -= 1;
            m.stats.net_delivered += 1;
            m.stats.delivered_by_class[c] += 1;
        }
        let body = m.pooled_oneshot(pkt.service + stack_overhead());
        // The forward wire and all queueing are physical on this path;
        // backdating covers only the response's return transit.
        let req = (!pkt.copy).then(|| RequestMeta {
            arrival: pkt.send.saturating_sub(WIRE_LATENCY),
            service: pkt.service,
            class: pkt.class,
        });
        m.spawn(
            q,
            body,
            SpawnOpts {
                app: pkt.app,
                pin: Some(ring),
                req,
                weight: 1024,
                record_wakeup: false,
            },
        );
    }
}

/// Installs one tenant's arrival chain: a self-rescheduling Recur
/// carrying the tenant's generator, whose deliveries become wire-transit
/// events toward the shared NIC. Returns the first arrival instant, or
/// `None` when the tenant is degenerate (empty generator, or first
/// arrival at/past the horizon) and nothing was installed.
fn install_tenant_chain(
    q: &mut EventQueue<Event>,
    tenant: Tenant,
    until: Nanos,
    mut net: Option<LossModel>,
    st: &Rc<Plane>,
) -> Option<Nanos> {
    let Tenant {
        mut gen,
        app,
        class,
    } = tenant;
    let base = q.now();
    let first = gen.next()?;
    let first_at = base + first.at;
    if first_at >= until {
        return None;
    }
    let mut pending = first;
    let mut seq: u64 = 0;
    let st_arr = st.clone();
    let hook = move |m: &mut Machine, q: &mut EventQueue<Event>| {
        let req = pending;
        // A tenant with a registered SLO class stamps it on every
        // request; otherwise the generator's service-threshold
        // classification stands.
        let req_class = class.unwrap_or(req.class);
        let fate = match net.as_mut() {
            Some(loss) => loss.fate(),
            None => PacketFate::Deliver,
        };
        let src_port = FLOW_PORT_BASE.wrapping_add((seq % FLOW_COUNT) as u16);
        seq += 1;
        let now = q.now();
        {
            // Every offered request refills the retry budget, whatever
            // its fate — the budget tracks offered load, not successes.
            let mut s = st_arr.0.borrow_mut();
            if let Some(r) = s.retry.as_mut() {
                r.on_request(req_class);
            }
        }
        match fate {
            PacketFate::Drop => {
                // Lost on the wire: the datagram never reaches the NIC
                // (so it never enters the conservation ledger); the
                // client times out — or, with retries armed, resends.
                m.stats.net_dropped += 1;
                let pkt = Pkt {
                    send: now,
                    sent_at: now,
                    service: req.service,
                    class: req_class,
                    app,
                    src_port,
                    copy: false,
                    attempt: 0,
                };
                let mut s = st_arr.0.borrow_mut();
                client_loss(q, &st_arr, &mut s, pkt);
            }
            PacketFate::Deliver | PacketFate::Duplicate => {
                let copies = if fate == PacketFate::Duplicate {
                    m.stats.net_duplicated += 1;
                    2
                } else {
                    1
                };
                let mut s = st_arr.0.borrow_mut();
                for copy in 0..copies {
                    // Each datagram — the duplicate included — transits
                    // the wire independently, so copies arrive staggered.
                    let transit = wire_draw(&mut s.wire_rng);
                    s.wire_pending += 1;
                    let pkt = Pkt {
                        send: now,
                        sent_at: now,
                        service: req.service,
                        class: req_class,
                        app,
                        src_port,
                        copy: copy == 1,
                        attempt: 0,
                    };
                    let ev = st_arr.event(&mut s, PlaneEv::Wire(pkt));
                    q.schedule_after(transit, ev);
                }
            }
        }
        match gen.next() {
            Some(next) => {
                let at = base + next.at;
                if at >= until {
                    st_arr.0.borrow_mut().gens_live -= 1;
                    None
                } else {
                    pending = next;
                    Some(at)
                }
            }
            None => {
                st_arr.0.borrow_mut().gens_live -= 1;
                None
            }
        }
    };
    q.schedule(first_at, Event::Recur(Recur(Box::new(hook))));
    Some(first_at)
}

/// A datagram reaches the NIC: RSS-steer it into its ring, or tail-drop
/// it if the ring is full (the client times out or retries; a dropped
/// *copy* costs nothing extra — the original is still in play). Retries
/// enter the conservation ledger as `net_generated` + `retries_spent`
/// only: they are a terminal bucket, never double-counted as delivered,
/// dropped, shed, or in flight.
fn nic_rx(m: &mut Machine, q: &mut EventQueue<Event>, plane: &Rc<Plane>, pkt: Pkt) {
    let mut s = plane.0.borrow_mut();
    s.wire_pending -= 1;
    let c = class_slot(pkt.class);
    m.stats.net_generated += 1;
    m.stats.generated_by_class[c] += 1;
    let now = q.now();
    if pkt.attempt > 0 {
        m.stats.retries_spent += 1;
        m.stats.retries_by_class[c] += 1;
        m.note_net(now, None, NetTrace::NetRetry);
    }
    // Steer by the cached flow hash (identical to `enqueue_flow`, minus
    // the repeat Toeplitz walk); the indirection lookup still reads the
    // live table, so chaos rewrites keep steering exactly as before.
    let s = &mut *s;
    let hash = s.flow_cache.hash(s.nic.hasher(), pkt.src_port);
    match s.nic.enqueue_hashed(now, hash, pkt) {
        Ok(ring) => {
            if pkt.attempt == 0 {
                m.stats.net_in_flight += 1;
                m.stats.in_flight_by_class[c] += 1;
            }
            m.note_net(now, Some(ring), NetTrace::RxEnqueue);
        }
        Err(ring) => {
            if pkt.attempt == 0 {
                m.stats.rx_ring_drops += 1;
                m.stats.rx_drops_by_class[c] += 1;
            }
            m.note_net(now, Some(ring), NetTrace::RxDrop);
            client_loss(q, plane, s, pkt);
        }
    }
}

/// Schedules the client-side outcome of a lost attempt (wire loss, ring
/// tail-drop, AQM shed, or admission shed): at the attempt's timeout the
/// client either spends a retry token and resends, or gives up. Copies
/// carry no client state, so their loss costs nothing extra.
fn client_loss(q: &mut EventQueue<Event>, plane: &Rc<Plane>, s: &mut PlaneState, pkt: Pkt) {
    if pkt.copy {
        return;
    }
    if s.retry.is_some() {
        s.loss_pending += 1;
    }
    let fires = (pkt.sent_at + s.timeout).max(q.now());
    let ev = plane.event(s, PlaneEv::Loss(pkt));
    q.schedule(fires, ev);
}

/// An attempt's timeout fired. With budget and attempts remaining, the
/// request retransmits after a decorrelated-jitter backoff; otherwise
/// the client gives up and the *cumulative* wait since the original send
/// enters the latency histograms — under-reporting abandoned requests is
/// exactly the coordinated-omission trap.
fn lose_attempt(m: &mut Machine, q: &mut EventQueue<Event>, plane: &Rc<Plane>, pkt: Pkt) {
    let mut s = plane.0.borrow_mut();
    if s.retry.is_some() {
        s.loss_pending -= 1;
    }
    let retry_delay = s.retry.as_mut().and_then(|r| {
        let more = pkt.attempt + 1 < r.policy.max_attempts;
        (more && r.try_spend(pkt.class)).then(|| r.backoff.next_delay())
    });
    match retry_delay {
        Some(delay) => {
            s.wire_pending += 1;
            let transit = wire_draw(&mut s.wire_rng);
            let mut p = pkt;
            p.attempt += 1;
            p.sent_at = q.now() + delay;
            let ev = plane.event(&mut s, PlaneEv::Wire(p));
            q.schedule_after(delay + transit, ev);
        }
        None => {
            let waited = q.now().saturating_sub(pkt.send);
            m.stats.record_timeout(pkt.class, waited, pkt.service);
        }
    }
}

/// A chaos fault wedged an RSS indirection entry: remap it onto ring 0
/// for `dur`, concentrating that entry's flows, then restore the
/// original mapping.
fn wedge_indirection(q: &mut EventQueue<Event>, plane: &Rc<Plane>, s: &mut PlaneState, dur: Nanos) {
    let entry = (s.stick_seq.wrapping_mul(67) % INDIRECTION_ENTRIES as u64) as usize;
    s.stick_seq += 1;
    let mut table = *s.nic.hasher().indirection();
    let old = table[entry];
    table[entry] = 0;
    s.nic.hasher_mut().set_indirection(table);
    let ev = plane.event(s, PlaneEv::Restore { entry, old });
    q.schedule_after(dur, ev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft::builtin::{CentralizedFcfs, GlobalFifo};
    use skyloft::machine::{AppKind, MachineConfig};
    use skyloft::Platform;
    use skyloft_hw::Topology;

    #[test]
    fn dispersive_mean_matches_paper() {
        // 0.995 * 4us + 0.005 * 10ms = 53.98 us.
        assert!((dispersive().mean() - 53_980.0).abs() < 1.0);
    }

    #[test]
    fn open_loop_drives_centralized_machine() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_centralized(Topology::single(5)),
            n_workers: 4,
            seed: 3,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(
            cfg,
            Box::new(CentralizedFcfs::new(Some(Nanos::from_us(30)))),
        );
        m.add_app("lc", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        let gen = OpenLoop::new(
            50_000.0,
            Distribution::Constant(Nanos::from_us(10)),
            Nanos::from_us(100),
            9,
        );
        install_open_loop(&mut q, gen, 0, Placement::Queue, Nanos::from_ms(20));
        m.run(&mut q, Nanos::from_ms(40));
        // ~50k rps for 20 ms = ~1000 requests.
        assert!(
            (800..1200).contains(&(m.stats.completed as usize)),
            "completed {}",
            m.stats.completed
        );
        // Response includes the round-trip wire charge: an uncontended
        // 10 us request takes at least 10 us + 2 us of wire.
        let p50 = m.stats.resp_hist.percentile(50.0);
        assert!(p50 >= 12_000, "p50 {p50}");
    }

    /// A 4-worker per-CPU machine with one LC app, started.
    fn nic_machine() -> (Machine, EventQueue<Event>) {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
            n_workers: 4,
            seed: 3,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
        m.add_app("lc", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        (m, q)
    }

    /// Installs `gen` as one tenant on a 4-ring NIC plane with a `timeout`
    /// client timeout, no overload control, and wire loss `net`.
    fn install_lossy(
        q: &mut EventQueue<Event>,
        gen: OpenLoop,
        timeout: Nanos,
        net: Option<LossModel>,
    ) {
        let mut nic = NicConfig::for_workers(4);
        nic.client_timeout = timeout;
        let tenant = Tenant {
            gen,
            app: 0,
            class: None,
        };
        install_tenants(
            q,
            vec![tenant],
            nic,
            Nanos::from_ms(20),
            net,
            OverloadControl::default(),
        );
    }

    #[test]
    fn lossy_net_accounts_timeouts_in_the_tail() {
        // 50k rps of 10 us requests on 4 workers: far below saturation,
        // so the rings never drop and every loss is the wire's.
        let gen = || {
            OpenLoop::new(
                50_000.0,
                Distribution::Constant(Nanos::from_us(10)),
                Nanos::from_us(100),
                9,
            )
        };
        let timeout = Nanos::from_ms(1);
        let (mut lossy, mut q) = nic_machine();
        install_lossy(&mut q, gen(), timeout, Some(LossModel::new(4, 0.10, 0.05)));
        lossy.run(&mut q, Nanos::from_ms(40));
        let s = &lossy.stats;
        assert_eq!(s.rx_ring_drops, 0, "the rings must not drop at this load");
        assert!(s.net_dropped > 50, "drops {}", s.net_dropped);
        assert!(s.net_duplicated > 20, "dups {}", s.net_duplicated);
        assert_eq!(
            s.timeouts, s.net_dropped,
            "every drop surfaces as a timeout sample"
        );
        // Every offered request resolves exactly once: a completion if a
        // datagram reached the server (copies excluded), else a timeout.
        assert_eq!(
            s.completed + s.timeouts,
            s.net_generated - s.net_duplicated + s.net_dropped,
            "each request completes or times out, once"
        );
        // Timeouts sit in the histogram at the timeout value, so the tail
        // reflects the loss instead of silently excluding it.
        let (mut clean, mut q2) = nic_machine();
        install_lossy(&mut q2, gen(), timeout, None);
        clean.run(&mut q2, Nanos::from_ms(40));
        assert_eq!(clean.stats.timeouts, 0);
        assert_eq!(
            s.resp_hist.count(),
            s.completed + s.timeouts,
            "histogram denominator = completions + timeouts"
        );
        assert!(
            s.resp_hist.percentile(99.0) >= timeout.0,
            "p99 {} should be dominated by {} ns timeouts",
            s.resp_hist.percentile(99.0),
            timeout.0
        );
        assert!(clean.stats.resp_hist.percentile(99.0) < timeout.0 / 2);
    }

    #[test]
    fn duplicates_run_but_do_not_complete_twice() {
        let (mut m, mut q) = nic_machine();
        let gen = OpenLoop::new(
            20_000.0,
            Distribution::Constant(Nanos::from_us(5)),
            Nanos::from_us(100),
            21,
        );
        // Duplicate every single datagram.
        let timeout = Nanos::from_ms(1);
        install_lossy(&mut q, gen, timeout, Some(LossModel::new(5, 0.0, 1.0)));
        m.run(&mut q, Nanos::from_ms(40));
        assert_eq!(m.stats.rx_ring_drops, 0, "the rings must not drop");
        assert!(m.stats.completed > 300, "completed {}", m.stats.completed);
        assert_eq!(
            m.stats.net_duplicated, m.stats.completed,
            "every request was duplicated exactly once"
        );
        // Copies burn server time (~2x busy) but never enter the
        // histograms: the client keeps only the first response.
        assert_eq!(m.stats.resp_hist.count(), m.stats.completed);
        let busy: u64 = m.stats.busy_by_app.iter().sum();
        let expected = 2 * m.stats.completed * Nanos::from_us(5).0;
        assert!(
            busy as f64 > 0.9 * expected as f64,
            "busy {busy} vs 2x-work expectation {expected}"
        );
    }

    #[test]
    fn rss_placement_spreads_work() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
            n_workers: 4,
            seed: 3,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
        m.add_app("kv", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        let gen = OpenLoop::new(
            200_000.0,
            Distribution::Constant(Nanos::from_us(2)),
            Nanos::from_us(100),
            10,
        );
        install_open_loop(
            &mut q,
            gen,
            0,
            Placement::Rss(NicConfig::for_workers(4)),
            Nanos::from_ms(10),
        );
        m.run(&mut q, Nanos::from_ms(20));
        assert!(m.stats.completed > 1500, "completed {}", m.stats.completed);
        // Response includes both wire transits (~2 us), the service
        // (2 us), the worker stack overhead, and the poll pipeline.
        let p50 = m.stats.resp_hist.percentile(50.0);
        assert!(p50 >= 4_400, "p50 {p50}");
        // Nothing was lost: at this load the rings never fill.
        assert_eq!(m.stats.rx_ring_drops, 0);
        assert_eq!(m.stats.net_generated, m.stats.net_delivered);
        assert_eq!(m.stats.net_in_flight, 0);
    }

    #[test]
    fn rss_direct_placement_still_spreads_work() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
            n_workers: 4,
            seed: 3,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
        m.add_app("kv", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        let gen = OpenLoop::new(
            200_000.0,
            Distribution::Constant(Nanos::from_us(2)),
            Nanos::from_us(100),
            10,
        );
        install_open_loop(
            &mut q,
            gen,
            0,
            Placement::RssDirect { n: 4 },
            Nanos::from_ms(10),
        );
        m.run(&mut q, Nanos::from_ms(20));
        assert!(m.stats.completed > 1500, "completed {}", m.stats.completed);
        // Teleport path: service + per-request overhead + 2x wire
        // backdate, no rings involved.
        let p50 = m.stats.resp_hist.percentile(50.0);
        assert!(p50 >= 4_530, "p50 {p50}");
        assert_eq!(m.stats.net_generated, 0, "no NIC on the direct path");
    }

    #[test]
    fn overload_control_preserves_goodput_at_2x() {
        let slo = Nanos::from_us(200);
        let run = |ctl: OverloadControl| {
            let cfg = MachineConfig {
                plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
                n_workers: 4,
                seed: 3,
                core_alloc: None,
                utimer_period: None,
            };
            let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
            m.add_app("kv", AppKind::Lc);
            let mut q = EventQueue::new();
            m.start(&mut q);
            // 4 workers x 2 us service saturate at 2M rps; offer 4M.
            let gen = OpenLoop::new(
                4_000_000.0,
                Distribution::Constant(Nanos::from_us(2)),
                Nanos::from_us(100),
                10,
            );
            let mut nic = NicConfig::for_workers(4);
            nic.client_timeout = Nanos::from_ms(1);
            let tenant = Tenant {
                gen,
                app: 0,
                class: None,
            };
            install_tenants(&mut q, vec![tenant], nic, Nanos::from_ms(10), None, ctl);
            m.run(&mut q, Nanos::from_ms(40));
            m
        };
        // The admission deadline carries headroom below the client SLO:
        // its backlog model covers ring wait + worker queue, so the slack
        // absorbs what it cannot see (poll handoff, return wire,
        // scheduling jitter). Shedding at 75% of the budget keeps every
        // admitted request comfortably inside the real deadline.
        let mut ctl = OverloadControl::full();
        ctl.admission = Some(skyloft_net::AdmissionConfig {
            slo: Nanos(slo.0 * 3 / 4),
            ..Default::default()
        });
        let on = run(ctl);
        let off = run(OverloadControl::default());
        for s in [&on.stats, &off.stats] {
            assert_eq!(s.ledger_violations(), Vec::<String>::new());
        }
        assert_eq!(on.stats.net_in_flight, 0, "drained by end of run");
        assert!(on.stats.aqm_drops > 0, "CoDel never shed at 2x overload");
        // Tail-drop keeps full 256-deep rings: ~512 us of head sojourn,
        // so nearly nothing finishes inside a 200 us SLO. The controller
        // sheds early, keeps sojourns near the CoDel target, and most of
        // what it serves is good.
        let good_on = on.stats.served_hist.count_le(slo.0);
        let good_off = off.stats.served_hist.count_le(slo.0);
        assert!(
            good_on > 5_000,
            "controller-on goodput collapsed: {good_on} within SLO of {} served",
            on.stats.served_hist.count()
        );
        assert!(
            good_on > 10 * good_off.max(1),
            "controller must beat tail-drop: on {good_on} vs off {good_off}"
        );
        // Early shedding, not extra capacity: the controller serves fewer
        // requests overall but finishes what it admits inside the SLO.
        let p99_on = on.stats.served_hist.percentile(99.0);
        assert!(
            p99_on < 2 * slo.0,
            "served p99 {p99_on} should hug the SLO with AQM on"
        );
    }

    #[test]
    fn tenants_share_one_plane_and_shed_batch_first() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
            n_workers: 4,
            seed: 3,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
        m.add_app("lc", AppKind::Lc);
        m.add_app("batch", AppKind::Lc);
        // The full class stack: registered SLO classes, the runqueue AQM
        // (batch's 5 ms SLO makes it the sheddable class), and per-class
        // deadline admission at the polling core.
        m.set_slo_class(
            0,
            skyloft::conf::SloClass::latency_critical(Nanos::from_us(200)),
        );
        m.set_slo_class(1, skyloft::conf::SloClass::batch(Nanos::from_ms(5)));
        // Microsecond-scale services need a tighter CoDel interval than
        // the default: the shed rate scales as sqrt(count)/interval, and
        // at ~1M rps a 500 us interval cannot shed excess batch work as
        // fast as it arrives.
        m.set_runqueue_aqm(skyloft::conf::RunqueueAqmConfig {
            interval: Nanos::from_us(100),
            ..Default::default()
        });
        let mut q = EventQueue::new();
        m.start(&mut q);
        // LC: 2 us requests at half the machine's work capacity (2 of 4
        // cores). Batch: 50 us requests worth 6 cores of demand, so the
        // mix offers ~2x total utilization.
        let lc = Tenant {
            gen: OpenLoop::new(
                1_000_000.0,
                Distribution::Constant(Nanos::from_us(2)),
                Nanos::from_us(100),
                10,
            ),
            app: 0,
            class: Some(0),
        };
        let batch = Tenant {
            gen: OpenLoop::new(
                120_000.0,
                Distribution::Constant(Nanos::from_us(50)),
                Nanos::from_us(100),
                11,
            ),
            app: 1,
            class: Some(1),
        };
        let mut adm = skyloft_net::AdmissionConfig::default();
        adm.class_slo[0] = Some(Nanos::from_us(200));
        adm.class_slo[1] = Some(Nanos::from_ms(5));
        let ctl = OverloadControl {
            codel: Some(CodelConfig::default()),
            admission: Some(adm),
            retry: None,
            retry_frac: None,
        };
        let mut nic = NicConfig::for_workers(4);
        nic.client_timeout = Nanos::from_ms(1);
        install_tenants(&mut q, vec![lc, batch], nic, Nanos::from_ms(10), None, ctl);
        m.run(&mut q, Nanos::from_ms(60));
        let s = &m.stats;
        // The ledger balances class by class and the class arrays sum to
        // the global counters; each tenant's traffic lands in its own
        // class slot.
        assert_eq!(s.ledger_violations(), Vec::<String>::new());
        assert_eq!(s.net_in_flight, 0, "drained by end of run");
        assert!(
            s.generated_by_class[0] > 5_000,
            "{:?}",
            s.generated_by_class
        );
        assert!(s.generated_by_class[1] > 100, "{:?}", s.generated_by_class);
        // Both apps did real work under their own accounting.
        assert!(m.stats.busy_by_app[0] > 0 && m.stats.busy_by_app[1] > 0);
        // Graceful degradation: overload is paid by the loose-SLO batch
        // class, not the latency-critical one. With the live-class queue
        // cap, admission sheds batch at the NIC before a deep runqueue
        // forms; the scheduler-side AQM is the backstop for transients,
        // and whenever it does fire its victims are batch-only — LC's
        // tighter SLO keeps it off the victim list entirely.
        assert!(
            s.sheds_by_class[1] + s.rq_sheds_by_class[1] > 0,
            "no batch request was ever shed at 2x overload"
        );
        assert_eq!(
            s.rq_sheds_by_class[0], 0,
            "the latency-critical class must never be scheduler-shed"
        );
        assert_eq!(s.rq_sheds_by_class[1], s.rq_sheds);
        let lost = |c: usize| {
            s.sheds_by_class[c]
                + s.rx_drops_by_class[c]
                + s.aqm_drops_by_class[c]
                + s.rq_sheds_by_class[c]
        };
        let lc_loss_frac = lost(0) as f64 / s.generated_by_class[0] as f64;
        let batch_loss_frac = lost(1) as f64 / s.generated_by_class[1].max(1) as f64;
        assert!(
            s.delivered_by_class[0] as f64 > 0.80 * s.generated_by_class[0] as f64,
            "LC starved: {} of {} delivered (lost {:.3})",
            s.delivered_by_class[0],
            s.generated_by_class[0],
            lc_loss_frac,
        );
        assert!(
            batch_loss_frac > lc_loss_frac,
            "batch was not shed first: batch {batch_loss_frac:.3} vs lc {lc_loss_frac:.3}"
        );
        // LC completions actually completed, under the LC app.
        assert!(
            s.completed_by_class[0] > 5_000,
            "lc completions {}",
            s.completed_by_class[0]
        );
    }

    #[test]
    fn zero_rate_tenants_install_nothing() {
        let build = || {
            let cfg = MachineConfig {
                plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
                n_workers: 4,
                seed: 3,
                core_alloc: None,
                utimer_period: None,
            };
            let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
            m.add_app("kv", AppKind::Lc);
            let mut q = EventQueue::new();
            m.start(&mut q);
            (m, q)
        };
        let tenant = |rate: f64| Tenant {
            gen: OpenLoop::new(
                rate,
                Distribution::Constant(Nanos::from_us(2)),
                Nanos::from_us(100),
                10,
            ),
            app: 0,
            class: Some(0),
        };
        // A zero-rate co-tenant (the degenerate sweep point) is skipped;
        // the live tenant still runs.
        let (mut m, mut q) = build();
        install_tenants(
            &mut q,
            vec![tenant(0.0), tenant(200_000.0)],
            NicConfig::for_workers(4),
            Nanos::from_ms(10),
            None,
            OverloadControl::default(),
        );
        m.run(&mut q, Nanos::from_ms(20));
        assert!(m.stats.completed > 1_500, "completed {}", m.stats.completed);
        // All tenants degenerate: nothing installs, nothing runs, and
        // nothing panics.
        let (mut m, mut q) = build();
        install_tenants(
            &mut q,
            vec![tenant(0.0), tenant(0.0)],
            NicConfig::for_workers(4),
            Nanos::from_ms(10),
            None,
            OverloadControl::default(),
        );
        m.run(&mut q, Nanos::from_ms(20));
        assert_eq!(m.stats.completed, 0);
        assert_eq!(m.stats.net_generated, 0);
    }

    #[test]
    fn retry_budget_recovers_losses_within_bound() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
            n_workers: 4,
            seed: 3,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
        m.add_app("kv", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        // Well below saturation, but a lossy wire drops 10% of requests.
        let gen = OpenLoop::new(
            500_000.0,
            Distribution::Constant(Nanos::from_us(2)),
            Nanos::from_us(100),
            10,
        );
        let ctl = OverloadControl {
            retry: Some(RetryPolicy::default()),
            ..OverloadControl::default()
        };
        let tenant = Tenant {
            gen,
            app: 0,
            class: None,
        };
        install_tenants(
            &mut q,
            vec![tenant],
            NicConfig::for_workers(4),
            Nanos::from_ms(10),
            Some(LossModel::new(4, 0.10, 0.0)),
            ctl,
        );
        m.run(&mut q, Nanos::from_ms(60));
        let s = &m.stats;
        assert_eq!(s.ledger_violations(), Vec::<String>::new());
        assert_eq!(s.net_in_flight, 0);
        assert!(s.net_dropped > 100, "wire drops {}", s.net_dropped);
        assert!(s.retries_spent > 0, "no retries despite 10% loss");
        // Retries turn most wire losses into (slow) completions instead
        // of timeouts.
        assert!(
            s.timeouts < s.net_dropped / 2,
            "retries recovered too little: {} timeouts of {} drops",
            s.timeouts,
            s.net_dropped
        );
        // The retry budget is a hard bound: spent retries never exceed
        // 10% of offered load plus the burst allowance.
        let offered = s.net_dropped + (s.net_generated - s.retries_spent);
        let policy = RetryPolicy::default();
        let bound = (offered * u64::from(policy.budget_permille)) / 1000
            + u64::from(policy.budget_burst)
            + 1;
        assert!(
            s.retries_spent <= bound,
            "budget breached: {} retries > bound {bound}",
            s.retries_spent
        );
    }

    #[test]
    fn overloaded_rings_drop_and_bound_the_backlog() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
            n_workers: 4,
            seed: 3,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
        m.add_app("kv", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        // 4 workers x 2 us service saturate at 2M rps; offer 4M.
        let gen = OpenLoop::new(
            4_000_000.0,
            Distribution::Constant(Nanos::from_us(2)),
            Nanos::from_us(100),
            10,
        );
        let mut nic = NicConfig::for_workers(4);
        nic.client_timeout = Nanos::from_ms(1);
        install_open_loop(&mut q, gen, 0, Placement::Rss(nic), Nanos::from_ms(10));
        m.run(&mut q, Nanos::from_ms(30));
        let s = &m.stats;
        assert!(s.rx_ring_drops > 0, "2x overload must tail-drop");
        assert_eq!(s.ledger_violations(), Vec::<String>::new());
        assert_eq!(s.aqm_drops + s.admission_sheds + s.retries_spent, 0);
        assert_eq!(s.net_in_flight, 0, "drained by end of run");
        assert_eq!(
            s.timeouts, s.rx_ring_drops,
            "every ring-dropped original times out at the client"
        );
        // Bounded rings bound the tail: nothing waits longer than the
        // client timeout plus slack for the in-ring + in-service path.
        let p999 = s.resp_hist.percentile(99.9);
        assert!(
            p999 <= Nanos::from_ms(1).0 + 100_000,
            "p99.9 {p999} not bounded by the client timeout"
        );
        // Occupancy telemetry saw the rings fill.
        assert!(
            s.rx_occ_hist.max() >= 200,
            "occ max {}",
            s.rx_occ_hist.max()
        );
    }

    #[test]
    fn every_parked_plane_event_is_redeemed_exactly_once() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(3), 100_000),
            n_workers: 3,
            seed: 5,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
        m.add_app("kv", AppKind::Lc);
        // Dropped polls and wedged indirection entries on the data plane.
        m.install_fault_plan(
            skyloft::FaultPlan::seeded(11)
                .drop_rx_polls(0.1)
                .stuck_indirections(Nanos::from_us(500), Nanos::from_us(200)),
        );
        let mut q = EventQueue::new();
        m.start(&mut q);
        // 3 workers x 2 us saturate at 1.5M rps; offer 2M through a wire
        // that drops and duplicates, with retries armed.
        let gen = OpenLoop::new(
            2_000_000.0,
            Distribution::Constant(Nanos::from_us(2)),
            Nanos::from_us(100),
            12,
        );
        let tenant = Tenant {
            gen,
            app: 0,
            class: None,
        };
        let mut nic = NicConfig::for_workers(3);
        nic.client_timeout = Nanos::from_ms(1);
        let plane = install_plane(
            &mut q,
            vec![tenant],
            nic,
            Nanos::from_ms(4),
            Some(LossModel::new(13, 0.05, 0.05)),
            OverloadControl::full(),
        );
        let table = *plane.0.borrow().nic.hasher().indirection();
        m.run(&mut q, Nanos::from_ms(40));

        // Every kind was parked: wire transits (and retransmissions),
        // handoffs, client timeouts, and indirection restores.
        let st = &m.stats;
        assert!(st.retries_spent > 0 && st.net_delivered > 0);
        assert!(st.net_dropped > 0 && st.net_duplicated > 0);
        let chaos = &m.chaos.as_ref().expect("plan installed").stats;
        assert!(chaos.indirection_sticks > 0 && chaos.rx_polls_dropped > 0);

        // Drained: every token was redeemed once, no event still holds
        // the plane, and every wedged entry was restored.
        let s = plane.0.borrow();
        assert!(!s.slab.slots.is_empty());
        assert!(s.slab.slots.iter().all(Option::is_none));
        assert_eq!(s.slab.free.len(), s.slab.slots.len());
        assert!(s.spare.iter().all(Vec::is_empty));
        assert_eq!(Rc::strong_count(&plane), 1);
        assert_eq!(*s.nic.hasher().indirection(), table);
    }
}
