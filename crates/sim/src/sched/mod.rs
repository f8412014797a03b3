//! Scheduling policies: which jobs run this round (Section IV-A2).
//!
//! A scheduling policy orders the active queue; the simulator then marks
//! the schedulable prefix and hands it to the placement policy. Job
//! *selection* is orthogonal to PAL's contribution, so these are faithful,
//! simple implementations of the three schedulers the paper attaches its
//! placement policies to: FIFO, Tiresias/LAS, and SRTF.

mod fifo;
mod las;
mod srsf;
mod srtf;

pub use fifo::Fifo;
pub use las::Las;
pub use srsf::Srsf;
pub use srtf::Srtf;

use crate::job_state::ActiveJob;
use pal_trace::{JobId, JobSpec};

/// The cached sort key of one queued job: the policy's primary key plus
/// the universal tie-breakers (arrival time, then job id), computed once
/// per round and sorted without re-invoking the policy — the cached-key
/// sort the engine's hot loop relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedKey {
    /// Policy priority (smaller = runs earlier).
    pub key: f64,
    /// Arrival-time tie-breaker.
    pub arrival: f64,
    /// Job-id tie-breaker, making the order total and deterministic.
    pub id: JobId,
    /// Index of the job in the caller's job table.
    pub job: usize,
}

impl SchedKey {
    /// Strict total order: key, then arrival, then id. Panics on NaN keys
    /// (a policy bug) exactly like the seed engine's comparator did. Public
    /// because the engine re-derives keys at skipped round boundaries and
    /// checks the cached sequence is still sorted under this order.
    pub fn cmp_total(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .partial_cmp(&other.key)
            .expect("NaN scheduling key")
            .then(
                self.arrival
                    .partial_cmp(&other.arrival)
                    .expect("NaN arrival"),
            )
            .then(self.id.cmp(&other.id))
    }
}

/// A scheduling policy: produce a total priority order over active jobs.
///
/// Implementations return a sort key per job; the simulator sorts ascending
/// (smaller key = higher priority) with arrival time and job id as
/// universal tie-breakers, so every policy yields a deterministic total
/// order.
///
/// The engine calls [`order_into`](SchedulingPolicy::order_into) — and
/// only it — with the *borrowed* job table and reusable scratch buffers:
/// keys are computed exactly once per job (no closure re-evaluation
/// inside the comparator) and nothing is cloned or allocated once the
/// buffers have warmed up. Customize a policy by implementing
/// [`key`](SchedulingPolicy::key); an ordering not expressible as a
/// per-job scalar key must override `order_into` itself (the engine
/// honors such overrides). [`order`](SchedulingPolicy::order) is an
/// allocating convenience wrapper for tests and one-off callers — the
/// engine never calls it, so overriding it has no effect on simulation.
pub trait SchedulingPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Primary sort key for one job (smaller = runs earlier).
    fn key(&self, job: &ActiveJob) -> f64;

    /// Write the scheduling order of `queue` (indices into `jobs`) into
    /// `out`, highest priority first. Each job's key is computed exactly
    /// once; `keys` is scratch the caller reuses across rounds, so the
    /// sort is allocation-free at steady state. Because the `(key,
    /// arrival, id)` order is total and strict, the result is independent
    /// of the order of `queue` itself.
    fn order_into(
        &self,
        jobs: &[ActiveJob],
        queue: &[usize],
        keys: &mut Vec<SchedKey>,
        out: &mut Vec<usize>,
    ) {
        keys.clear();
        for &ji in queue {
            let job = &jobs[ji];
            keys.push(SchedKey {
                key: self.key(job),
                arrival: job.spec.arrival,
                id: job.spec.id,
                job: ji,
            });
        }
        // Unstable sort allocates nothing; the unique job-id tie-breaker
        // makes the order strict, so stability cannot matter.
        keys.sort_unstable_by(SchedKey::cmp_total);
        out.clear();
        out.extend(keys.iter().map(|k| k.job));
    }

    /// Order the given jobs by priority, returning indices into `jobs`.
    fn order(&self, jobs: &[ActiveJob]) -> Vec<usize> {
        let queue: Vec<usize> = (0..jobs.len()).collect();
        let mut keys = Vec::with_capacity(jobs.len());
        let mut out = Vec::with_capacity(jobs.len());
        self.order_into(jobs, &queue, &mut keys, &mut out);
        out
    }

    /// Skip-mode opt-in for a key-based scheduler that does not declare
    /// [`incremental_keys`](SchedulingPolicy::incremental_keys): how many
    /// consecutive upcoming round boundaries — counting the one the engine
    /// is about to process, whose keys equal the state in `jobs` — the
    /// ordering in `sorted` (the current queue order, ascending) may be
    /// carried forward, assuming the active queue does not change and each
    /// job retires `progress_per_round[job]` seconds of ideal work per
    /// round (zero for jobs not running). The boundary reached after `m`
    /// further rounds of accrual may be skipped when the returned value
    /// exceeds `m`.
    ///
    /// The answer only has to be a best effort: the engine re-derives
    /// every key at each skipped boundary and stops the moment the order
    /// actually shifts, so an optimistic answer (`usize::MAX` included)
    /// costs nothing and a pessimistic one only a shorter skip. Returning
    /// nonzero asserts that the policy's ordering is the default
    /// `(key, arrival, id)` cached-key sort, which is what that re-check
    /// validates. A policy that overrides
    /// [`order_into`](SchedulingPolicy::order_into) with an ordering not
    /// derived from [`key`](SchedulingPolicy::key) must keep the default
    /// of `0` ("may change every round"), which disables skipping.
    ///
    /// The engine does not call this hook for policies declaring
    /// `incremental_keys`: their ordering is the cached-key sort by
    /// contract, so skip mode hops without a horizon and the event core
    /// uses [`crossing_rounds`](SchedulingPolicy::crossing_rounds).
    fn order_stable_rounds(
        &self,
        jobs: &[ActiveJob],
        sorted: &[SchedKey],
        progress_per_round: &[f64],
        round_duration: f64,
    ) -> usize {
        let _ = (jobs, sorted, progress_per_round, round_duration);
        0
    }

    /// Whether this policy supports *incremental* key maintenance: its
    /// ordering is the default `(key, arrival, id)` cached-key sort, its
    /// key is a pure function of the job's hot fields
    /// ([`key_parts`](SchedulingPolicy::key_parts)), and it can bound when
    /// an adjacent pair of keys may invert
    /// ([`crossing_rounds`](SchedulingPolicy::crossing_rounds)). The
    /// event-queue engine core keeps the scheduling order as a kinetic
    /// sorted sequence — swapping pairs at predicted crossings instead of
    /// re-sorting per round — only for policies that return `true`. Skip
    /// mode hops without an
    /// [`order_stable_rounds`](SchedulingPolicy::order_stable_rounds)
    /// horizon for them.
    ///
    /// A further contract the hooks rely on: the key of a job that is
    /// *not* running never changes on its own (waiting jobs' remaining
    /// work and attained service are frozen). All four built-in policies
    /// satisfy this.
    fn incremental_keys(&self) -> bool {
        false
    }

    /// The primary key recomputed from a job's hot fields, without
    /// touching the full [`ActiveJob`]. Must equal
    /// [`key`](SchedulingPolicy::key) bit-for-bit when handed that job's
    /// `spec`, `remaining_work`, and `attained_service` — the event core
    /// evaluates keys from its dense SoA arrays mid-replay, before the
    /// values are written back to the job table.
    ///
    /// Required when [`incremental_keys`](SchedulingPolicy::incremental_keys)
    /// returns `true`; the default panics.
    fn key_parts(&self, spec: &JobSpec, remaining_work: f64, attained_service: f64) -> f64 {
        let _ = (spec, remaining_work, attained_service);
        unimplemented!("key_parts required when incremental_keys() is true")
    }

    /// Upper bound on how soon the adjacent ordered pair `(lo, hi)` —
    /// `lo` currently at or before `hi` under `cmp_total` — can invert:
    /// the pair provably keeps its order at boundaries reached after `m`
    /// further rounds of constant-rate accrual while `m < return value`
    /// (`usize::MAX` = never). The event core re-derives both exact keys
    /// when the certificate expires, swaps if the pair actually inverted,
    /// and re-arms either way — and it schedules the check a safety margin
    /// *early*, so a bound computed in closed form (which can drift a
    /// round or two from the engine's repeated-subtraction accrual) is
    /// still checked before the true crossing.
    ///
    /// Required when [`incremental_keys`](SchedulingPolicy::incremental_keys)
    /// returns `true`; the default panics.
    fn crossing_rounds(&self, lo: &KeyState, hi: &KeyState, round_duration: f64) -> usize {
        let _ = (lo, hi, round_duration);
        unimplemented!("crossing_rounds required when incremental_keys() is true")
    }
}

/// The hot per-job inputs to [`SchedulingPolicy::crossing_rounds`]: the
/// current exact key plus the constant-rate dynamics that move it while
/// the allocation is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct KeyState {
    /// Current primary key (exact, from the replayed job state).
    pub key: f64,
    /// Ideal seconds retired per round at the current allocation; `0.0`
    /// for jobs not running (their keys are frozen).
    pub progress_per_round: f64,
    /// GPU demand (service accrues at `gpu_demand × dt` per round while
    /// running).
    pub gpu_demand: f64,
    /// Current attained GPU service, GPU-seconds (exact).
    pub attained_service: f64,
}

/// Rounds until an adjacent pair of linearly-decaying keys may invert:
/// the analysis behind [`SchedulingPolicy::crossing_rounds`] for
/// policies whose key shrinks at a constant per-round rate while a job
/// runs (SRTF, SRSF). `lo` is currently at or before `hi`; each key drops
/// by its `drop` per round while the job runs, so the gap `hi - lo`
/// closes by `hi_drop - lo_drop` per round. Ties (`gap <= 0`, ordered by
/// the universal tie-breakers) flip after one round of strictly faster
/// decay.
pub fn crossing_rounds_linear(lo_key: f64, lo_drop: f64, hi_key: f64, hi_drop: f64) -> usize {
    let closing = hi_drop - lo_drop;
    if closing <= 0.0 {
        return usize::MAX; // the gap never shrinks
    }
    let gap = hi_key - lo_key;
    if gap <= 0.0 {
        1
    } else {
        ((gap / closing).ceil() as usize).max(1)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::job_state::ActiveJob;
    use pal_cluster::JobClass;
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec};

    /// Build a minimal active job for policy tests.
    pub fn job(id: u32, arrival: f64, demand: usize, iters: u64) -> ActiveJob {
        ActiveJob::new(JobSpec {
            id: JobId(id),
            model: Workload::ResNet50,
            class: JobClass::A,
            arrival,
            gpu_demand: demand,
            iterations: iters,
            base_iter_time: 1.0,
        })
    }
}
