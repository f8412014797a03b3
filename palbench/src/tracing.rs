//! The traced run: layer wrappers registered through the benchmark's own
//! [`Registry`], timing every call into a layer from outside it.
//!
//! Each scheduler, admission policy and placement policy of a traced run
//! is a wrapper that forwards every trait method — default-bodied hooks
//! included — to the real policy and records a count and a span per
//! call. Trace and profile factories are wrapped the same way; the
//! campaign's metrics sink and result sink are wrapped by the caller
//! ([`TracedSink`], [`TimedResultSink`]).
//!
//! Spans nest cell → layer call. A cell runs on one worker thread from
//! its policy factory call to its result `accept`, so layer calls add
//! into a thread-local [`CellAcc`]; the metrics-sink factory call opens
//! the cell span and `accept` closes it, moving the thread's accumulator
//! into a [`CellSpan`] keyed by the cell index. High-frequency calls are
//! aggregated per cell (count and busy nanoseconds), so memory stays
//! bounded however long a cell runs. Spans are kept in memory and
//! written out when the run ends.

use crate::registry::bench_registry;
use pal::{AdaptiveConfig, AdaptivePal, PalPlacement, PmFirstPlacement, PmTableCache};
use pal_cluster::ClusterState;
use pal_config::{PolicyCtx, Registry};
use pal_sim::admission::{AdmissionCtx, AdmissionPolicy};
use pal_sim::job_state::ActiveJob;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{KeyState, SchedKey, SchedulingPolicy};
use pal_sim::{
    Allocation, CampaignResult, CellInfo, JobEvent, MetricsSink, PlacementCtx, PlacementPolicy,
    PlacementRequest, ResultSink, RoundEvent, RoundObservation, ServingBatchEvent, SimError,
};
use pal_trace::JobSpec;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Calls into one layer and the wall time they took.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Layer {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

impl Layer {
    fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Layer) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Everything recorded inside one cell, aggregated per layer.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CellAcc {
    /// `SchedulingPolicy::order_into` calls.
    pub sched_order: Layer,
    /// Keys those calls sorted.
    pub keys_sorted: u64,
    /// `order_stable_rounds`, `crossing_rounds` and `key_parts` calls.
    pub sched_hook: Layer,
    /// Other forwarded scheduler calls (`key`, `order`,
    /// `incremental_keys`). Per-job `key` calls are counted, not timed:
    /// a clock read costs more than the call.
    pub sched_other: Layer,
    /// `AdmissionPolicy::admit` calls.
    pub admit: Layer,
    /// Admissions refused.
    pub admit_rejected: u64,
    /// `placement_order_into` calls.
    pub place_order: Layer,
    /// `place_into` calls.
    pub place: Layer,
    /// GPUs handed out by those calls.
    pub place_gpus: u64,
    /// Other forwarded placement calls (`wants_observations`,
    /// `export_state`, `import_state`, `placement_order`, `place`, and
    /// `observe` on non-adaptive policies). The per-job `observe` and
    /// `wants_observations` calls are counted, not timed.
    pub place_other: Layer,
    /// Adaptive-PAL `observe` calls.
    pub observe: Layer,
    /// Observations after which Adaptive-PAL's table changed identity.
    pub rebins: u64,
    /// PM-score table lookups (`PmTableCache::get_or_build_default`).
    pub table_build: Layer,
    /// Metrics-sink calls, including the final flush.
    pub sink: Layer,
    /// `RoundEvent`s delivered.
    pub steps: u64,
    /// Simulated rounds at the last `RoundEvent`.
    pub sim_rounds: u64,
    /// Busy-GPU-second increments: one per running job per simulated
    /// round.
    pub job_rounds: u64,
    /// Serving batch events.
    pub batches: u64,
}

impl CellAcc {
    /// Add `o`'s counts and times into this accumulator.
    pub fn merge(&mut self, o: &CellAcc) {
        self.sched_order.merge(o.sched_order);
        self.keys_sorted += o.keys_sorted;
        self.sched_hook.merge(o.sched_hook);
        self.sched_other.merge(o.sched_other);
        self.admit.merge(o.admit);
        self.admit_rejected += o.admit_rejected;
        self.place_order.merge(o.place_order);
        self.place.merge(o.place);
        self.place_gpus += o.place_gpus;
        self.place_other.merge(o.place_other);
        self.observe.merge(o.observe);
        self.rebins += o.rebins;
        self.table_build.merge(o.table_build);
        self.sink.merge(o.sink);
        self.steps += o.steps;
        self.sim_rounds += o.sim_rounds;
        self.job_rounds += o.job_rounds;
        self.batches += o.batches;
    }

    /// Nanoseconds of the spans nested directly inside the cell span.
    pub fn child_ns(&self) -> u64 {
        self.sched_order.ns
            + self.sched_hook.ns
            + self.sched_other.ns
            + self.admit.ns
            + self.place_order.ns
            + self.place.ns
            + self.place_other.ns
            + self.observe.ns
            + self.sink.ns
    }
}

/// One closed cell span and the layer spans inside it, sharing the cell
/// index as their id.
#[derive(Debug, Clone)]
pub struct CellSpan {
    /// Cell index in campaign order — the span id.
    pub cell: usize,
    /// Scenario tag.
    pub scenario: String,
    /// Policy column.
    pub policy: String,
    /// Span start (the metrics-sink factory call), ns since the trace
    /// epoch.
    pub start_ns: u64,
    /// Span end (the result `accept` returned), ns since the trace epoch.
    pub end_ns: u64,
    /// The result sink's `accept`.
    pub accept: Layer,
    /// Layer spans inside the cell, aggregated.
    pub acc: CellAcc,
}

impl CellSpan {
    /// The cell span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The engine's self time: the cell span minus its child spans.
    pub fn self_ns(&self) -> u64 {
        self.ns()
            .saturating_sub(self.acc.child_ns() + self.accept.ns)
    }
}

/// Set-up phase spans, recorded on whichever thread builds the campaign.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SetupAcc {
    /// Trace factory calls.
    pub trace: Layer,
    /// Jobs those factories produced.
    pub trace_jobs: u64,
    /// Profile factory calls.
    pub profile: Layer,
    /// Table lookups made while building the campaign.
    pub table_build: Layer,
}

/// Process-wide trace state: the epoch, closed cell spans, set-up spans
/// and the campaign's PM-table cache.
struct Store {
    epoch: Instant,
    cells: Mutex<Vec<CellSpan>>,
    setup: Mutex<SetupAcc>,
    table_cache: Mutex<Option<Arc<PmTableCache>>>,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store {
        epoch: Instant::now(),
        cells: Mutex::new(Vec::new()),
        setup: Mutex::new(SetupAcc::default()),
        table_cache: Mutex::new(None),
    })
}

/// The open cell on this worker thread: its start and its accumulator.
#[derive(Default)]
struct ThreadCell {
    start_ns: Option<u64>,
    acc: CellAcc,
}

thread_local! {
    static CELL: RefCell<ThreadCell> = RefCell::new(ThreadCell::default());
}

fn now_ns() -> u64 {
    store().epoch.elapsed().as_nanos() as u64
}

fn with_acc(f: impl FnOnce(&mut CellAcc)) {
    CELL.with(|c| f(&mut c.borrow_mut().acc));
}

/// Start the trace epoch (call before anything is timed).
pub fn init() {
    let _ = store();
}

/// Open the cell span on this thread: called from the metrics-sink
/// factory, right before the cell's simulation runs.
fn open_cell() {
    let start = now_ns();
    CELL.with(|c| c.borrow_mut().start_ns = Some(start));
}

/// Move whatever this thread recorded outside a cell (the set-up probe's
/// table lookups) into the set-up totals, so it is not charged to the
/// first cell this thread runs.
pub fn flush_thread_into_setup() {
    let acc = CELL.with(|c| std::mem::take(&mut *c.borrow_mut()).acc);
    store()
        .setup
        .lock()
        .expect("trace setup lock")
        .table_build
        .merge(acc.table_build);
}

/// The set-up spans recorded so far.
pub fn setup() -> SetupAcc {
    store().setup.lock().expect("trace setup lock").clone()
}

/// Every closed cell span, in cell order.
pub fn cells() -> Vec<CellSpan> {
    let mut cells = store().cells.lock().expect("trace cells lock").clone();
    cells.sort_by_key(|c| c.cell);
    cells
}

/// `PmTableCache::builds()` of the traced campaign's cache (0 when no
/// policy consulted one).
pub fn table_builds() -> usize {
    store()
        .table_cache
        .lock()
        .expect("trace cache lock")
        .as_ref()
        .map_or(0, |c| c.builds())
}

// ---------------------------------------------------------------------
// Scheduler, admission and placement wrappers.
// ---------------------------------------------------------------------

/// A scheduling policy that records every call into the wrapped one: a
/// span for each sort and hook call, a count for each per-job `key`.
pub struct TracedSched(Box<dyn SchedulingPolicy + Send + Sync>);

impl SchedulingPolicy for TracedSched {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        with_acc(|a| a.sched_other.calls += 1);
        self.0.key(job)
    }

    fn order_into(
        &self,
        jobs: &[ActiveJob],
        queue: &[usize],
        keys: &mut Vec<SchedKey>,
        out: &mut Vec<usize>,
    ) {
        let t = Instant::now();
        self.0.order_into(jobs, queue, keys, out);
        with_acc(|a| {
            a.sched_order.add(t);
            a.keys_sorted += queue.len() as u64;
        });
    }

    fn order(&self, jobs: &[ActiveJob]) -> Vec<usize> {
        let t = Instant::now();
        let out = self.0.order(jobs);
        with_acc(|a| a.sched_other.add(t));
        out
    }

    fn order_stable_rounds(
        &self,
        jobs: &[ActiveJob],
        sorted: &[SchedKey],
        progress_per_round: &[f64],
        round_duration: f64,
    ) -> usize {
        let t = Instant::now();
        let n = self
            .0
            .order_stable_rounds(jobs, sorted, progress_per_round, round_duration);
        with_acc(|a| a.sched_hook.add(t));
        n
    }

    fn incremental_keys(&self) -> bool {
        with_acc(|a| a.sched_other.calls += 1);
        self.0.incremental_keys()
    }

    fn key_parts(&self, spec: &JobSpec, remaining_work: f64, attained_service: f64) -> f64 {
        let t = Instant::now();
        let k = self.0.key_parts(spec, remaining_work, attained_service);
        with_acc(|a| a.sched_hook.add(t));
        k
    }

    fn crossing_rounds(&self, lo: &KeyState, hi: &KeyState, round_duration: f64) -> usize {
        let t = Instant::now();
        let n = self.0.crossing_rounds(lo, hi, round_duration);
        with_acc(|a| a.sched_hook.add(t));
        n
    }
}

/// An admission policy that counts every decision of the wrapped one.
pub struct TracedAdmission(Box<dyn AdmissionPolicy + Send + Sync>);

impl AdmissionPolicy for TracedAdmission {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn admit(&self, job: &JobSpec, ctx: &AdmissionCtx) -> bool {
        let t = Instant::now();
        let yes = self.0.admit(job, ctx);
        with_acc(|a| {
            a.admit.add(t);
            a.admit_rejected += u64::from(!yes);
        });
        yes
    }
}

/// A placement policy that records every call into the wrapped one: a
/// span for each ordering, placement, state or adaptive call, a count for
/// each `wants_observations` and each (no-op) `observe` of a
/// non-adaptive policy. For Adaptive-PAL, `table_id` names its current
/// PM-score table, which changes identity on each re-bin, and its
/// `observe` calls are the `adaptive` layer.
pub struct TracedPlace<P> {
    inner: P,
    table_id: Option<fn(&P) -> usize>,
}

impl<P: PlacementPolicy> PlacementPolicy for TracedPlace<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, obs: &RoundObservation) {
        let Some(table_id) = self.table_id else {
            with_acc(|a| a.place_other.calls += 1);
            return self.inner.observe(obs);
        };
        let before = table_id(&self.inner);
        let t = Instant::now();
        self.inner.observe(obs);
        let rebinned = table_id(&self.inner) != before;
        with_acc(|a| {
            a.observe.add(t);
            a.rebins += u64::from(rebinned);
        });
    }

    fn wants_observations(&self) -> bool {
        with_acc(|a| a.place_other.calls += 1);
        self.inner.wants_observations()
    }

    fn placement_order_into(
        &self,
        requests: &[PlacementRequest],
        ctx: &PlacementCtx,
        out: &mut Vec<usize>,
    ) {
        let t = Instant::now();
        self.inner.placement_order_into(requests, ctx, out);
        with_acc(|a| a.place_order.add(t));
    }

    fn place_into(
        &mut self,
        request: &PlacementRequest,
        ctx: &PlacementCtx,
        state: &ClusterState,
        out: &mut Allocation,
    ) {
        let t = Instant::now();
        self.inner.place_into(request, ctx, state, out);
        with_acc(|a| {
            a.place.add(t);
            a.place_gpus += out.len() as u64;
        });
    }

    fn export_state(&self) -> Option<serde::Value> {
        let t = Instant::now();
        let s = self.inner.export_state();
        with_acc(|a| a.place_other.add(t));
        s
    }

    fn import_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.import_state(state);
        with_acc(|a| a.place_other.add(t));
        r
    }

    fn placement_order(&self, requests: &[PlacementRequest], ctx: &PlacementCtx) -> Vec<usize> {
        let t = Instant::now();
        let out = self.inner.placement_order(requests, ctx);
        with_acc(|a| a.place_other.add(t));
        out
    }

    fn place(
        &mut self,
        request: &PlacementRequest,
        ctx: &PlacementCtx,
        state: &ClusterState,
    ) -> Allocation {
        let t = Instant::now();
        let out = self.inner.place(request, ctx, state);
        with_acc(|a| a.place_other.add(t));
        out
    }
}

fn traced<P: PlacementPolicy + Send + 'static>(inner: P) -> Box<dyn PlacementPolicy + Send> {
    Box::new(TracedPlace {
        inner,
        table_id: None,
    })
}

/// The campaign's shared PM table for `ctx.profile`, timed, with the
/// cache recorded so its build count can be read after the run.
fn shared_table(ctx: &PolicyCtx) -> Arc<pal::PmScoreTable> {
    store()
        .table_cache
        .lock()
        .expect("trace cache lock")
        .get_or_insert_with(|| Arc::clone(ctx.table_cache));
    let t = Instant::now();
    let table = ctx.table_cache.get_or_build_default(ctx.profile);
    with_acc(|a| a.table_build.add(t));
    table
}

// ---------------------------------------------------------------------
// Metrics and result sinks.
// ---------------------------------------------------------------------

/// A metrics sink that counts and times every event it forwards to the
/// cell's real sink (if any), including the final flush on drop.
pub struct TracedSink {
    inner: Option<Box<dyn MetricsSink + Send>>,
    acc: CellAcc,
}

impl TracedSink {
    /// Open the cell span and wrap `inner`.
    pub fn open(inner: Option<Box<dyn MetricsSink + Send>>) -> Box<dyn MetricsSink + Send> {
        open_cell();
        Box::new(TracedSink {
            inner,
            acc: CellAcc::default(),
        })
    }

    /// Forward one event. Events without a real sink behind them are
    /// only counted: there is nothing to time.
    fn forward(&mut self, f: impl FnOnce(&mut dyn MetricsSink)) {
        match self.inner.as_deref_mut() {
            Some(inner) => {
                let t = Instant::now();
                f(inner);
                self.acc.sink.add(t);
            }
            None => self.acc.sink.calls += 1,
        }
    }
}

impl MetricsSink for TracedSink {
    fn on_gpu_usage(&mut self, t: f64, gpus: f64) {
        self.forward(|s| s.on_gpu_usage(t, gpus));
    }

    fn on_busy_gpu_seconds(&mut self, gpu_seconds: f64) {
        self.acc.job_rounds += 1;
        self.forward(|s| s.on_busy_gpu_seconds(gpu_seconds));
    }

    fn on_placement_compute(&mut self, seconds: f64) {
        self.forward(|s| s.on_placement_compute(seconds));
    }

    fn on_job(&mut self, event: &JobEvent) {
        self.forward(|s| s.on_job(event));
    }

    fn on_round(&mut self, event: &RoundEvent) {
        self.acc.steps += 1;
        self.acc.sim_rounds = event.round as u64;
        self.forward(|s| s.on_round(event));
    }

    fn on_serving_batch(&mut self, event: &ServingBatchEvent) {
        self.acc.batches += 1;
        self.forward(|s| s.on_serving_batch(event));
    }
}

impl Drop for TracedSink {
    fn drop(&mut self) {
        let t = Instant::now();
        drop(self.inner.take());
        self.acc.sink.ns += t.elapsed().as_nanos() as u64;
        let acc = std::mem::take(&mut self.acc);
        with_acc(|a| a.merge(&acc));
    }
}

/// The metrics-sink factory of a traced campaign: opens each cell span
/// and wraps the cell's real sink, if the run streams metrics.
pub fn sink_factory(
    real: Option<pal_config::MetricsDir>,
) -> impl Fn(&CellInfo) -> Option<Box<dyn MetricsSink + Send>> + Send + Sync + 'static {
    move |cell| {
        Some(TracedSink::open(
            real.as_ref().and_then(|m| m.sink_for(cell)),
        ))
    }
}

/// A result sink that times `accept` on the wrapped sink and closes the
/// accepted cell's span.
pub struct TimedResultSink<'a>(pub &'a dyn ResultSink);

impl ResultSink for TimedResultSink<'_> {
    fn accept(&self, cell: usize, result: CampaignResult) -> Result<(), SimError> {
        let (scenario, policy) = (result.scenario.clone(), result.policy.clone());
        let t = Instant::now();
        let outcome = self.0.accept(cell, result);
        let mut accept = Layer::default();
        accept.add(t);
        let end_ns = now_ns();
        let open = CELL.with(|c| std::mem::take(&mut *c.borrow_mut()));
        store()
            .cells
            .lock()
            .expect("trace cells lock")
            .push(CellSpan {
                cell,
                scenario,
                policy,
                start_ns: open.start_ns.unwrap_or(end_ns),
                end_ns,
                accept,
                acc: open.acc,
            });
        outcome
    }
}

// ---------------------------------------------------------------------
// The traced registry.
// ---------------------------------------------------------------------

/// The benchmark registry with every scheduler, admission policy,
/// placement policy, trace factory and profile factory replaced by its
/// traced wrapper. Policy kinds keep their builtin names, column names
/// and stickiness, so cell seeds — and results — match the untraced
/// run's.
pub fn traced_registry() -> Registry {
    let base = bench_registry();
    let mut r = base.clone();
    for kind in base.trace_kinds() {
        let inner = base.trace(&kind).expect("listed kind").clone();
        r.register_trace(kind, move |args, ctx| {
            let t = Instant::now();
            let trace = inner(args, ctx)?;
            let mut setup = store().setup.lock().expect("trace setup lock");
            setup.trace.add(t);
            setup.trace_jobs += trace.len() as u64;
            Ok(trace)
        });
    }
    for kind in base.profile_kinds() {
        let inner = base.profile(&kind).expect("listed kind").clone();
        r.register_profile(kind, move |args, ctx| {
            let t = Instant::now();
            let profile = inner(args, ctx)?;
            store()
                .setup
                .lock()
                .expect("trace setup lock")
                .profile
                .add(t);
            Ok(profile)
        });
    }
    for kind in base.scheduler_kinds() {
        let inner = base.scheduler(&kind).expect("listed kind").clone();
        r.register_scheduler(kind, move |args| Ok(Box::new(TracedSched(inner(args)?))));
    }
    for kind in base.admission_kinds() {
        let inner = base.admission(&kind).expect("listed kind").clone();
        r.register_admission(kind, move |args| {
            Ok(Box::new(TracedAdmission(inner(args)?)))
        });
    }
    register_traced_policies(&mut r);
    r
}

/// Placement policies, built as the builtins build them, behind
/// [`TracedPlace`]. The builtin factories are private to `pal-config`,
/// so the construction is repeated here; the equality of the traced and
/// untraced CSV checks that it matches.
fn register_traced_policies(r: &mut Registry) {
    r.register_policy("random-sticky", "Random-Sticky", true, |_args, ctx| {
        Ok(traced(RandomPlacement::new(ctx.seed)))
    });
    r.register_policy("random", "Random-Non-Sticky", false, |_args, ctx| {
        Ok(traced(RandomPlacement::new(ctx.seed)))
    });
    r.register_policy("gandiva", "Gandiva", false, |_args, ctx| {
        Ok(traced(PackedPlacement::randomized(ctx.seed)))
    });
    r.register_policy("tiresias", "Tiresias", true, |_args, ctx| {
        Ok(traced(PackedPlacement::randomized(ctx.seed)))
    });
    r.register_policy("pm-first", "PM-First", false, |_args, ctx| {
        Ok(traced(PmFirstPlacement::from_shared(shared_table(ctx))))
    });
    r.register_policy("pal", "PAL", false, |_args, ctx| {
        Ok(traced(PalPlacement::from_shared(shared_table(ctx))))
    });
    r.register_policy("adaptive-pal", "Adaptive-PAL", false, |args, ctx| {
        let d = AdaptiveConfig::default();
        let config = AdaptiveConfig {
            alpha: args.get_or("alpha", d.alpha)?,
            rebin_every: args.get_or("rebin_every", d.rebin_every)?,
            binning: d.binning,
        };
        let inner = AdaptivePal::from_shared(ctx.profile, shared_table(ctx), config);
        Ok(Box::new(TracedPlace {
            inner,
            table_id: Some(|p: &AdaptivePal| p.table() as *const pal::PmScoreTable as usize),
        }) as Box<dyn PlacementPolicy + Send>)
    });
    r.register_policy("packed", "Packed-Randomized", false, |_args, ctx| {
        Ok(traced(PackedPlacement::randomized(ctx.seed)))
    });
    r.register_policy(
        "packed-deterministic",
        "Packed-Deterministic",
        false,
        |_args, _ctx| Ok(traced(PackedPlacement::deterministic())),
    );
}
