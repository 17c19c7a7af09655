//! The best-effort batch application co-located with the LC workload in
//! §5.2 (Figures 7b/7c).
//!
//! Under a *centralized* LC policy the framework manages the batch
//! application directly (one machine-owned spin task per core, granted and
//! revoked by the Shenango-style allocator — see `Machine::add_app` with
//! [`skyloft::AppKind::Be`]). Under a *per-CPU* policy (the Linux CFS
//! comparison), the batch application is ordinary low-weight tasks that the
//! fair scheduler time-shares; this module spawns those.

use skyloft::machine::{Event, Machine, Spin};
use skyloft::SpawnOpts;
use skyloft_sim::{EventQueue, Nanos};

/// Linux weight of a nice-19 task (the batch priority in the ghOSt-style
/// co-location experiments).
pub const NICE19_WEIGHT: u32 = 15;

/// Spawns one low-weight infinite spin task per worker core into `app`
/// (per-CPU policies only). Returns the number of tasks spawned.
pub fn spawn_percpu_batch(
    m: &mut Machine,
    q: &mut EventQueue<Event>,
    app: usize,
    chunk: Nanos,
    weight: u32,
) -> usize {
    let cores = m.worker_cores.clone();
    for &core in &cores {
        m.spawn(
            q,
            Box::new(Spin::new(chunk)),
            SpawnOpts {
                app,
                pin: Some(core),
                req: None,
                weight,
                record_wakeup: false,
            },
        );
    }
    cores.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft::machine::{AppKind, MachineConfig};
    use skyloft::{Platform, SchedParams};
    use skyloft_hw::Topology;
    use skyloft_policies::Cfs;

    #[test]
    fn cfs_time_shares_batch_with_lc() {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(2), 100_000),
            n_workers: 2,
            seed: 5,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(Cfs::new(SchedParams::SKYLOFT_CFS)));
        let lc = m.add_app("lc", AppKind::Lc);
        let be = m.add_app("batch", AppKind::Be);
        let mut q = EventQueue::new();
        m.start(&mut q);
        spawn_percpu_batch(&mut m, &mut q, be, Nanos::from_us(50), NICE19_WEIGHT);
        // LC requests arrive while batch spins.
        for i in 0..200 {
            let at = Nanos::from_us(50 * i);
            q.schedule(
                at,
                Event::Call(skyloft::Call::Fn(Box::new(move |m, q| {
                    m.spawn_request(q, 0, Nanos::from_us(20), 0, None);
                }))),
            );
        }
        m.run(&mut q, Nanos::from_ms(20));
        assert_eq!(m.stats.completed, 200);
        let now = q.now();
        let lc_share = m.app_share(lc, now);
        let be_share = m.app_share(be, now);
        // Batch soaks up the slack; LC work (200 × 20 us over 2 cores ×
        // 20 ms) is ~10%.
        assert!(be_share > 0.5, "batch share {be_share}");
        assert!(lc_share > 0.05, "lc share {lc_share}");
        // LC requests are not starved by the spinning batch: CFS's weight
        // ratio (1024 vs 15) preempts batch quickly.
        let p99 = m.stats.resp_hist.percentile(99.0);
        assert!(p99 < 1_000_000, "LC p99 {p99} under batch co-location");
    }
}
