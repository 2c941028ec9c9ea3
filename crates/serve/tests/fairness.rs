//! Property-based starvation-freedom checks for the weighted deficit
//! round-robin scheduler.
//!
//! The scheduler's documented bound: within one priority class, with `T`
//! tenants and job costs bounded by `C`, a backlogged tenant of weight `w`
//! waits at most `ceil(C / w) + T` dispatches between two of its
//! own dispatches. The properties below drive random workloads through
//! [`FairShare`] and check the bound exactly, plus the strict-priority and
//! quota invariants the daemon's preemption logic relies on.

use exa_serve::scheduler::{FairShare, TenantConfig};
use proptest::prelude::*;

fn no_running(_: &str) -> usize {
    0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-class workloads: no tenant's inter-dispatch gap may exceed
    /// the DRR bound, no matter the weights, costs or backlog shapes.
    #[test]
    fn bounded_wait_within_a_priority_class(
        tenants in prop::collection::vec(
            (1u64..5, prop::collection::vec(1u64..9, 1..14)),
            2..6,
        ),
    ) {
        let mut s = FairShare::new(TenantConfig::default());
        let mut remaining = Vec::new();
        let mut next_id = 1u64;
        for (i, (weight, costs)) in tenants.iter().enumerate() {
            let name = format!("t{i}");
            s.set_tenant(&name, TenantConfig { weight: *weight, max_running: usize::MAX });
            for &cost in costs {
                s.enqueue(next_id, &name, 0, cost);
                next_id += 1;
            }
            remaining.push(costs.len());
        }
        let t_count = tenants.len();
        let max_cost = tenants.iter().flat_map(|(_, c)| c.iter().copied()).max().unwrap();
        // Dispatches each backlogged tenant has waited since its own last
        // dispatch (or since the start).
        let mut waited = vec![0usize; t_count];
        while let Some(job) = s.next(&no_running) {
            let winner: usize = job.tenant[1..].parse().unwrap();
            remaining[winner] -= 1;
            for i in 0..t_count {
                if i == winner {
                    waited[i] = 0;
                } else if remaining[i] > 0 {
                    waited[i] += 1;
                    let w = tenants[i].0;
                    let bound = (max_cost.div_ceil(w) as usize) + t_count;
                    prop_assert!(
                        waited[i] <= bound,
                        "tenant t{i} (weight {w}) waited {} dispatches, bound {bound}",
                        waited[i],
                    );
                }
            }
        }
        prop_assert!(remaining.iter().all(|&r| r == 0), "scheduler left jobs queued");
    }

    /// Strict priority classes: with any same-class backlog in the system,
    /// a single strictly-higher-priority job always dispatches first —
    /// the invariant that lets a preemptor overtake its requeued victim.
    #[test]
    fn higher_priority_always_dispatches_first(
        backlog in prop::collection::vec((0usize..4, 1u64..9), 1..20),
        urgent_tenant in 0usize..4,
        urgent_cost in 1u64..9,
    ) {
        let mut s = FairShare::new(TenantConfig::default());
        for (i, (tenant, cost)) in backlog.iter().enumerate() {
            s.enqueue(100 + i as u64, &format!("t{tenant}"), 0, *cost);
        }
        s.enqueue(1, &format!("t{urgent_tenant}"), 5, urgent_cost);
        let first = s.next(&no_running).unwrap();
        prop_assert_eq!(first.id, 1, "priority-5 job must win the first dispatch");
    }

    /// Quota: a tenant at its `max_running` limit is never dispatched, and
    /// the backlog drains once capacity frees up.
    #[test]
    fn quota_is_never_exceeded(
        jobs_per_tenant in prop::collection::vec(1usize..8, 2..5),
        quota in 1usize..3,
    ) {
        let mut s = FairShare::new(TenantConfig::default());
        for (i, &n) in jobs_per_tenant.iter().enumerate() {
            let name = format!("t{i}");
            s.set_tenant(&name, TenantConfig { weight: 1, max_running: quota });
            for j in 0..n {
                s.enqueue((i * 100 + j) as u64 + 1, &name, 0, 1);
            }
        }
        // Simulate: dispatched jobs run forever until every tenant hits its
        // quota; next() must stop exactly then.
        let mut running = vec![0usize; jobs_per_tenant.len()];
        let total: usize = jobs_per_tenant.iter().map(|&n| n.min(quota)).sum();
        for _ in 0..total {
            let snapshot = running.clone();
            let job = s
                .next(&move |t| snapshot[t[1..].parse::<usize>().unwrap()])
                .unwrap();
            let tenant: usize = job.tenant[1..].parse().unwrap();
            running[tenant] += 1;
            prop_assert!(running[tenant] <= quota, "tenant t{tenant} exceeded quota {quota}");
        }
        let snapshot = running.clone();
        prop_assert!(
            s.next(&move |t| snapshot[t[1..].parse::<usize>().unwrap()]).is_none(),
            "all tenants at quota: nothing is dispatchable"
        );
        // One slot frees: the next dispatch must come from that tenant (if
        // it still has a backlog).
        if jobs_per_tenant[0] > quota {
            running[0] -= 1;
            let snapshot = running.clone();
            let job = s
                .next(&move |t| snapshot[t[1..].parse::<usize>().unwrap()])
                .unwrap();
            prop_assert_eq!(&job.tenant, "t0");
        }
    }
}
