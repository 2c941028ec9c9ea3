//! Weighted deficit round-robin fair-share scheduling.
//!
//! Each tenant owns a priority-ordered queue and a *deficit counter*. A
//! [`FairShare::next`] call runs credit rounds — each credits every
//! backlogged tenant its `weight` in deficit, then walks the tenants
//! round-robin from a rotating cursor — until some tenant can afford its
//! head job, which it dispatches, debiting the job's cost. The rounds are
//! counted in closed form, so a call costs one pass over the tenants
//! whatever the costs. The counter resets when a tenant's queue drains, so
//! idle tenants cannot bank credit.
//!
//! Priorities form *strict global classes*: a dispatch always comes from
//! the highest priority class that has an eligible job, and the weighted
//! round-robin shares capacity between tenants *within* that class. Strict
//! classes are what make checkpoint-preemption coherent — the
//! higher-priority submission that preempted a running job is guaranteed to
//! dispatch before its victim resumes.
//!
//! Within a class the scheme gives the classic DRR guarantee in dispatch
//! counts rather than bytes: with `T` tenants and job costs bounded by `C`,
//! a tenant of weight `w` waits at most `ceil(C / w) + T`
//! dispatches before its head job runs — no starvation regardless of how
//! much same-class traffic other tenants submit. The property test in
//! `tests/fairness.rs` checks this bound under random workloads.
//!
//! The scheduler is pure bookkeeping: it knows nothing about threads,
//! journals or runs, which keeps it unit-testable and lets the daemon hold
//! it under one mutex.

use crate::JobId;

/// Per-tenant policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Relative share of dispatch capacity (deficit accrual rate). At least
    /// 1.
    pub weight: u64,
    /// Concurrency quota: jobs of this tenant allowed to run at once.
    pub max_running: usize,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            weight: 1,
            max_running: usize::MAX,
        }
    }
}

/// A job as the scheduler sees it: identity plus accounting inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    pub id: JobId,
    pub tenant: String,
    /// Intra-tenant order: higher priority first, then older `seq` first.
    pub priority: u32,
    /// Deficit charge (clamped to ≥ 1 on enqueue).
    pub cost: u64,
    /// Admission order; preempted jobs are re-queued with a negative `seq`
    /// so they return to the front of their priority class.
    pub seq: i64,
}

#[derive(Debug)]
struct TenantState {
    name: String,
    cfg: TenantConfig,
    deficit: u64,
    /// Sorted by (priority desc, seq asc); head at index 0.
    queue: Vec<QueuedJob>,
    dispatched: u64,
}

impl TenantState {
    fn insert(&mut self, job: QueuedJob) {
        let at = self
            .queue
            .partition_point(|q| (q.priority, -q.seq) >= (job.priority, -job.seq));
        self.queue.insert(at, job);
    }
}

/// The fair-share scheduler: all tenants, their queues and deficits.
#[derive(Debug)]
pub struct FairShare {
    default_cfg: TenantConfig,
    /// First-seen order; the cursor rotates over this.
    tenants: Vec<TenantState>,
    cursor: usize,
    next_seq: i64,
    next_front_seq: i64,
}

impl FairShare {
    /// A scheduler crediting each tenant's `weight` per
    /// [`FairShare::next`] round, with `default_cfg` for tenants never
    /// named in [`FairShare::set_tenant`].
    pub fn new(default_cfg: TenantConfig) -> FairShare {
        FairShare {
            default_cfg,
            tenants: Vec::new(),
            cursor: 0,
            next_seq: 0,
            next_front_seq: -1,
        }
    }

    /// Install (or update) a tenant's policy. Unknown tenants get the
    /// default config on first enqueue.
    pub fn set_tenant(&mut self, name: &str, cfg: TenantConfig) {
        let cfg = TenantConfig {
            weight: cfg.weight.max(1),
            ..cfg
        };
        self.tenant_mut(name).cfg = cfg;
    }

    fn tenant_mut(&mut self, name: &str) -> &mut TenantState {
        if let Some(i) = self.tenants.iter().position(|t| t.name == name) {
            return &mut self.tenants[i];
        }
        self.tenants.push(TenantState {
            name: name.to_string(),
            cfg: self.default_cfg,
            deficit: 0,
            queue: Vec::new(),
            dispatched: 0,
        });
        self.tenants.last_mut().unwrap()
    }

    /// Admit a new job at the back of its priority class.
    pub fn enqueue(&mut self, id: JobId, tenant: &str, priority: u32, cost: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let job = QueuedJob {
            id,
            tenant: tenant.to_string(),
            priority,
            cost: cost.max(1),
            seq,
        };
        self.tenant_mut(tenant).insert(job);
    }

    /// Return a preempted job to the *front* of its priority class so a
    /// resumed run is not overtaken by its own tenant's backlog.
    pub fn requeue_front(&mut self, id: JobId, tenant: &str, priority: u32, cost: u64) {
        let seq = self.next_front_seq;
        self.next_front_seq -= 1;
        let job = QueuedJob {
            id,
            tenant: tenant.to_string(),
            priority,
            cost: cost.max(1),
            seq,
        };
        self.tenant_mut(tenant).insert(job);
    }

    /// Remove a queued job. Returns whether it was present.
    pub fn cancel(&mut self, id: JobId) -> bool {
        for t in &mut self.tenants {
            if let Some(i) = t.queue.iter().position(|q| q.id == id) {
                t.queue.remove(i);
                if t.queue.is_empty() {
                    t.deficit = 0;
                }
                return true;
            }
        }
        false
    }

    /// Total queued jobs across tenants.
    pub fn depth(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Per-tenant `(name, queued, dispatched)` gauges, in first-seen order.
    pub fn gauges(&self) -> Vec<(String, u64, u64)> {
        self.tenants
            .iter()
            .map(|t| (t.name.clone(), t.queue.len() as u64, t.dispatched))
            .collect()
    }

    /// Pick the next job to dispatch. `running` reports how many jobs of a
    /// tenant are currently executing, for quota enforcement. Returns
    /// `None` when no tenant has a dispatchable job (empty queues or all
    /// quotas exhausted).
    pub fn next(&mut self, running: &dyn Fn(&str) -> usize) -> Option<QueuedJob> {
        let quota_ok =
            |t: &TenantState| !t.queue.is_empty() && running(&t.name) < t.cfg.max_running;
        // Strict priority classes: only tenants whose head job sits in the
        // top eligible class compete for this dispatch.
        let top = self
            .tenants
            .iter()
            .filter(|t| quota_ok(t))
            .map(|t| t.queue[0].priority)
            .max()?;
        let eligible = move |t: &TenantState| quota_ok(t) && t.queue[0].priority == top;
        // Each credit round adds every eligible tenant's weight, and the
        // first round in which some tenant affords its head job ends the
        // accrual: that is round `r* = min over tenants of r_t`, where
        // `r_t = max(1, ceil((cost − deficit) / weight))`. Crediting
        // `r*·weight` at once leaves the deficits `r*` single rounds
        // leave (saturation included), whatever the costs.
        let rounds = self
            .tenants
            .iter()
            .filter(|t| eligible(t))
            .map(|t| {
                let short = t.queue[0].cost.saturating_sub(t.deficit);
                short.div_ceil(t.cfg.weight).max(1)
            })
            .min()?;
        for t in self.tenants.iter_mut().filter(|t| eligible(t)) {
            t.deficit = t
                .deficit
                .saturating_add(rounds.saturating_mul(t.cfg.weight));
        }
        // Round `r*`'s cursor walk: the first eligible tenant from the
        // cursor that now affords its head job.
        let n = self.tenants.len();
        let idx = (0..n)
            .map(|i| (self.cursor + i) % n)
            .find(|&idx| {
                let t = &self.tenants[idx];
                eligible(t) && t.deficit >= t.queue[0].cost
            })
            .expect("the tenant that sets the round count affords its head job");
        let t = &mut self.tenants[idx];
        t.deficit -= t.queue[0].cost;
        let job = t.queue.remove(0);
        if t.queue.is_empty() {
            t.deficit = 0;
        }
        t.dispatched += 1;
        self.cursor = (idx + 1) % n;
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl FairShare {
        /// [`FairShare::next`] as the per-round loop it replaces: one credit
        /// round and one cursor walk at a time, until some tenant affords its
        /// head job. The oracle of the closed form.
        fn next_by_rounds(&mut self, running: &dyn Fn(&str) -> usize) -> Option<QueuedJob> {
            let quota_ok =
                |t: &TenantState| !t.queue.is_empty() && running(&t.name) < t.cfg.max_running;
            let top = self
                .tenants
                .iter()
                .filter(|t| quota_ok(t))
                .map(|t| t.queue[0].priority)
                .max()?;
            let eligible = move |t: &TenantState| quota_ok(t) && t.queue[0].priority == top;
            let n = self.tenants.len();
            loop {
                for t in self.tenants.iter_mut().filter(|t| eligible(t)) {
                    t.deficit = t.deficit.saturating_add(t.cfg.weight);
                }
                for i in 0..n {
                    let idx = (self.cursor + i) % n;
                    let t = &mut self.tenants[idx];
                    if !eligible(t) {
                        continue;
                    }
                    let head_cost = t.queue[0].cost;
                    if t.deficit >= head_cost {
                        t.deficit -= head_cost;
                        let job = t.queue.remove(0);
                        if t.queue.is_empty() {
                            t.deficit = 0;
                        }
                        t.dispatched += 1;
                        self.cursor = (idx + 1) % n;
                        return Some(job);
                    }
                }
            }
        }
    }

    fn no_running(_: &str) -> usize {
        0
    }

    #[test]
    fn single_tenant_is_fifo_within_priority() {
        let mut s = FairShare::new(TenantConfig::default());
        s.enqueue(1, "a", 0, 1);
        s.enqueue(2, "a", 5, 1);
        s.enqueue(3, "a", 0, 1);
        s.enqueue(4, "a", 5, 1);
        let order: Vec<JobId> = std::iter::from_fn(|| s.next(&no_running).map(|j| j.id))
            .take(4)
            .collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
        assert_eq!(s.depth(), 0);
        assert!(s.next(&no_running).is_none());
    }

    #[test]
    fn requeue_front_overtakes_same_priority_backlog() {
        let mut s = FairShare::new(TenantConfig::default());
        s.enqueue(1, "a", 0, 1);
        s.enqueue(2, "a", 0, 1);
        s.requeue_front(9, "a", 0, 1);
        assert_eq!(s.next(&no_running).unwrap().id, 9);
        assert_eq!(s.next(&no_running).unwrap().id, 1);
    }

    #[test]
    fn weights_skew_dispatch_share() {
        let mut s = FairShare::new(TenantConfig::default());
        s.set_tenant(
            "heavy",
            TenantConfig {
                weight: 3,
                max_running: usize::MAX,
            },
        );
        // Equal-cost backlogs; the weight-3 tenant should get ~3× the
        // dispatches over any window.
        for i in 0..40 {
            s.enqueue(100 + i, "heavy", 0, 3);
            s.enqueue(200 + i, "light", 0, 3);
        }
        let mut heavy = 0;
        let mut light = 0;
        for _ in 0..24 {
            let j = s.next(&no_running).unwrap();
            if j.tenant == "heavy" {
                heavy += 1;
            } else {
                light += 1;
            }
        }
        assert!(
            heavy >= 2 * light,
            "weight-3 tenant got {heavy} of 24 dispatches vs {light}"
        );
        assert!(light > 0, "light tenant must not starve");
    }

    #[test]
    fn quota_caps_concurrency_and_releases() {
        let mut s = FairShare::new(TenantConfig::default());
        s.set_tenant(
            "a",
            TenantConfig {
                weight: 1,
                max_running: 1,
            },
        );
        s.enqueue(1, "a", 0, 1);
        s.enqueue(2, "a", 0, 1);
        assert_eq!(s.next(&no_running).unwrap().id, 1);
        // One "a" job running: quota of 1 blocks the second.
        assert!(s.next(&|t| usize::from(t == "a")).is_none());
        // Job finished: the quota frees up.
        assert_eq!(s.next(&no_running).unwrap().id, 2);
    }

    #[test]
    fn priority_classes_are_strict_across_tenants() {
        let mut s = FairShare::new(TenantConfig::default());
        // A preempted low-priority job re-queued at the front must still
        // lose to the high-priority submission that displaced it.
        s.requeue_front(1, "batch", 0, 100);
        s.enqueue(2, "interactive", 9, 1);
        assert_eq!(s.next(&no_running).unwrap().id, 2);
        assert_eq!(s.next(&no_running).unwrap().id, 1);
    }

    #[test]
    fn cancel_removes_queued_job() {
        let mut s = FairShare::new(TenantConfig::default());
        s.enqueue(1, "a", 0, 1);
        s.enqueue(2, "a", 0, 1);
        assert!(s.cancel(1));
        assert!(!s.cancel(1));
        assert_eq!(s.next(&no_running).unwrap().id, 2);
    }

    #[test]
    fn drained_tenant_loses_banked_deficit() {
        let mut s = FairShare::new(TenantConfig::default());
        s.enqueue(1, "a", 0, 1);
        assert_eq!(s.next(&no_running).unwrap().id, 1);
        // "a" drained; its deficit reset. A later expensive job must pay
        // full price (several next() calls of accrual), during which "b"
        // keeps dispatching — regression guard for credit banking.
        for i in 0..10 {
            s.enqueue(10 + i, "b", 0, 1);
        }
        s.enqueue(99, "a", 0, 5);
        let mut before_expensive = 0;
        loop {
            let j = s.next(&no_running).unwrap();
            if j.id == 99 {
                break;
            }
            before_expensive += 1;
        }
        assert!(
            (3..=6).contains(&before_expensive),
            "cost-5 job should wait ~4 dispatches, waited {before_expensive}"
        );
    }

    #[test]
    fn huge_head_costs_dispatch_at_once() {
        for cost in [1_000_000_000_000, u64::MAX] {
            let mut s = FairShare::new(TenantConfig::default());
            s.enqueue(1, "a", 0, cost);
            s.enqueue(2, "b", 0, 3);
            s.set_tenant(
                "b",
                TenantConfig {
                    weight: 2,
                    max_running: usize::MAX,
                },
            );
            let t0 = std::time::Instant::now();
            assert_eq!(s.next(&no_running).unwrap().id, 2, "cost {cost}");
            assert_eq!(s.next(&no_running).unwrap().id, 1, "cost {cost}");
            assert!(s.next(&no_running).is_none());
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(1),
                "cost {cost}: {:?}",
                t0.elapsed()
            );
        }
    }

    proptest! {
        /// The closed form dispatches exactly what the per-round loop
        /// dispatches, and leaves the same deficits and cursor, over random
        /// small costs, weights, quotas and running counts.
        #[test]
        fn closed_form_matches_the_round_loop(
            weights in (1u64..5, 1u64..5, 1u64..5),
            quotas in (1usize..4, 1usize..4, 1usize..4),
            // (what, tenant, priority, cost, running counts): what 0 is an
            // enqueue, 1 a requeue at the front, 2 a cancel, 3.. a dispatch.
            ops in prop::collection::vec(
                (0u8..6, 0u8..3, 0u32..3, 1u64..12, (0u8..3, 0u8..3, 0u8..3)),
                1..80,
            ),
        ) {
            let name = |t: u8| ["a", "b", "c"][t as usize];
            let weights = [weights.0, weights.1, weights.2];
            let quotas = [quotas.0, quotas.1, quotas.2];
            let build = || {
                let mut s = FairShare::new(TenantConfig::default());
                for t in 0..3u8 {
                    s.set_tenant(name(t), TenantConfig {
                        weight: weights[t as usize],
                        max_running: quotas[t as usize],
                    });
                }
                s
            };
            let (mut fast, mut slow) = (build(), build());
            for (id, (what, tenant, priority, cost, running)) in ops.into_iter().enumerate() {
                let id = id as u64;
                let tenant = name(tenant);
                match what {
                    0 => {
                        fast.enqueue(id, tenant, priority, cost);
                        slow.enqueue(id, tenant, priority, cost);
                    }
                    1 => {
                        fast.requeue_front(id, tenant, priority, cost);
                        slow.requeue_front(id, tenant, priority, cost);
                    }
                    2 => {
                        let target = (cost * 7) % (id + 1);
                        prop_assert_eq!(fast.cancel(target), slow.cancel(target));
                    }
                    _ => {
                        let running = |t: &str| match t {
                            "a" => running.0 as usize,
                            "b" => running.1 as usize,
                            _ => running.2 as usize,
                        };
                        prop_assert_eq!(fast.next(&running), slow.next_by_rounds(&running));
                    }
                }
                let deficits =
                    |s: &FairShare| s.tenants.iter().map(|t| t.deficit).collect::<Vec<_>>();
                prop_assert_eq!(deficits(&fast), deficits(&slow));
                prop_assert_eq!(fast.cursor, slow.cursor);
            }
        }
    }
}
