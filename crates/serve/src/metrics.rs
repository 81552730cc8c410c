//! Per-job outcomes and per-tenant service reports.

use std::collections::BTreeMap;

use crate::digest::EntryDigest;
use crate::resilience::{FailedJob, ShedCounts};

/// Everything recorded about one completed job.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JobOutcome {
    /// Job id from the arrival trace.
    pub id: u32,
    /// Owning tenant.
    pub tenant: u32,
    /// Report label of the job's shape (kernel name or `"expr"`).
    pub label: String,
    /// Arrival cycle (trace time).
    pub arrival: u64,
    /// Cycle the job first reached a serving slot.
    pub first_start: u64,
    /// Cycle the job fully drained.
    pub completion: u64,
    /// Cycles the job actually held a slot (across all its segments).
    pub service_cycles: u64,
    /// Times the scheduler preempted the job mid-run.
    pub preemptions: u32,
    /// Retry attempts the job consumed after serving-visible faults
    /// (0 = completed on its first attempt).
    pub retries: u32,
    /// Whether the job completed after its deadline.
    pub deadline_missed: bool,
    /// Digest of the job's marshaled outQ entry stream.
    pub digest: EntryDigest,
}

impl JobOutcome {
    /// Cycles spent waiting: sojourn minus slot occupancy.
    pub fn queue_cycles(&self) -> u64 {
        self.sojourn_cycles().saturating_sub(self.service_cycles)
    }

    /// Arrival-to-completion cycles.
    pub fn sojourn_cycles(&self) -> u64 {
        self.completion.saturating_sub(self.arrival)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=100).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let q = u64::from(q.min(100));
    // Nearest-rank: ceil(q/100 * n), 1-indexed.
    let rank = (q * sorted.len() as u64).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// p50/p95/p99 of one latency distribution, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

impl LatencySummary {
    /// Summarizes `samples` (consumed: sorted in place).
    pub fn of(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        Self {
            p50: percentile(samples, 50),
            p95: percentile(samples, 95),
            p99: percentile(samples, 99),
        }
    }
}

/// One tenant's service report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u32,
    /// Jobs completed.
    pub completed: u64,
    /// Arrivals rejected at admission (queue full or circuit open).
    pub rejected: u64,
    /// Jobs that terminally failed after exhausting their retry budget.
    pub failed: u64,
    /// Retry attempts across the tenant's jobs (completed and failed).
    pub retries: u64,
    /// Completed jobs that finished past their deadline.
    pub deadline_misses: u64,
    /// Total slot cycles the tenant consumed.
    pub service_cycles: u64,
    /// Jobs completed per million cycles of makespan.
    pub throughput_per_mcycle: f64,
    /// Queueing delay distribution (arrival → slot, minus service).
    pub queue: LatencySummary,
    /// Service-time distribution (slot occupancy).
    pub service: LatencySummary,
    /// Sojourn distribution (arrival → completion).
    pub sojourn: LatencySummary,
}

/// Builds per-tenant reports from completed-job outcomes, terminal
/// failures, shed arrivals, and retry counts.
pub fn tenant_reports(
    outcomes: &[JobOutcome],
    failed: &[FailedJob],
    shed: &BTreeMap<u32, ShedCounts>,
    retries: &BTreeMap<u32, u64>,
    makespan: u64,
) -> Vec<TenantReport> {
    let mut by_tenant: BTreeMap<u32, Vec<&JobOutcome>> = BTreeMap::new();
    for o in outcomes {
        by_tenant.entry(o.tenant).or_default().push(o);
    }
    for (&tenant, counts) in shed {
        if counts.total() > 0 {
            by_tenant.entry(tenant).or_default();
        }
    }
    for f in failed {
        by_tenant.entry(f.tenant).or_default();
    }
    by_tenant
        .into_iter()
        .map(|(tenant, jobs)| {
            let mut queue: Vec<u64> = jobs.iter().map(|o| o.queue_cycles()).collect();
            let mut service: Vec<u64> = jobs.iter().map(|o| o.service_cycles).collect();
            let mut sojourn: Vec<u64> = jobs.iter().map(|o| o.sojourn_cycles()).collect();
            TenantReport {
                tenant,
                completed: jobs.len() as u64,
                rejected: shed.get(&tenant).map_or(0, ShedCounts::total),
                failed: failed.iter().filter(|f| f.tenant == tenant).count() as u64,
                retries: retries.get(&tenant).copied().unwrap_or(0),
                deadline_misses: jobs.iter().filter(|o| o.deadline_missed).count() as u64,
                service_cycles: service.iter().sum(),
                throughput_per_mcycle: if makespan == 0 {
                    0.0
                } else {
                    jobs.len() as f64 * 1.0e6 / makespan as f64
                },
                queue: LatencySummary::of(&mut queue),
                service: LatencySummary::of(&mut service),
                sojourn: LatencySummary::of(&mut sojourn),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[42], 99), 42);
        assert_eq!(percentile(&[], 50), 0);
        // Small-sample nearest rank: ceil(0.5 * 2) = 1st element.
        assert_eq!(percentile(&[10, 20], 50), 10);
        assert_eq!(percentile(&[10, 20], 95), 20);
    }

    #[test]
    fn reports_split_by_tenant_and_count_rejects() {
        use crate::resilience::{FailReason, JobFault};
        let digest = EntryDigest { hash: 1, count: 1 };
        let job =
            |id: u32, tenant: u32, arrival: u64, start: u64, end: u64, service: u64| JobOutcome {
                id,
                tenant,
                label: "spmv".into(),
                arrival,
                first_start: start,
                completion: end,
                service_cycles: service,
                preemptions: 0,
                retries: 0,
                deadline_missed: false,
                digest,
            };
        let outcomes = vec![
            job(0, 0, 0, 10, 110, 100),
            job(1, 0, 50, 150, 260, 100),
            job(2, 1, 0, 200, 300, 90),
        ];
        let mut shed = BTreeMap::new();
        shed.insert(
            1u32,
            ShedCounts {
                queue_full: 2,
                circuit_open: 0,
            },
        );
        let failed = vec![FailedJob {
            id: 9,
            tenant: 2,
            label: "spmv".into(),
            arrival: 40,
            attempts: 4,
            reason: FailReason::RetryBudgetExhausted {
                budget: 3,
                last: JobFault::SlotCrash,
            },
        }];
        let mut retries = BTreeMap::new();
        retries.insert(0u32, 1u64);
        let reports = tenant_reports(&outcomes, &failed, &shed, &retries, 1_000_000);
        assert_eq!(reports.len(), 3, "failed-only tenants get a report too");
        let t0 = &reports[0];
        assert_eq!((t0.tenant, t0.completed, t0.rejected), (0, 2, 0));
        assert_eq!((t0.failed, t0.retries), (0, 1));
        assert_eq!(t0.service_cycles, 200);
        assert_eq!(t0.sojourn.p50, 110);
        assert_eq!(t0.queue.p50, 10);
        assert!((t0.throughput_per_mcycle - 2.0).abs() < 1e-9);
        let t1 = &reports[1];
        assert_eq!((t1.tenant, t1.completed, t1.rejected), (1, 1, 2));
        assert_eq!(t1.sojourn.p99, 300);
        let t2 = &reports[2];
        assert_eq!((t2.tenant, t2.completed, t2.failed), (2, 0, 1));
    }

    #[test]
    fn deadline_misses_aggregate_per_tenant() {
        let digest = EntryDigest { hash: 0, count: 0 };
        let mk = |id: u32, missed: bool| JobOutcome {
            id,
            tenant: 0,
            label: "spmv".into(),
            arrival: 0,
            first_start: 0,
            completion: 100,
            service_cycles: 50,
            preemptions: 0,
            retries: 0,
            deadline_missed: missed,
            digest,
        };
        let outcomes = vec![mk(0, true), mk(1, false), mk(2, true)];
        let reports = tenant_reports(
            &outcomes,
            &[],
            &BTreeMap::new(),
            &BTreeMap::new(),
            1_000_000,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].deadline_misses, 2);
    }
}
