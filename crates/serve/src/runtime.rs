//! The request runtime: submission queue, dynamic batcher and the
//! supervised multi-array scheduler.
//!
//! ```text
//!  submit()──►[bounded MPSC queue]──►batcher──►[BatchQueue]─┬─►worker 0 (Cluster of A arrays)
//!   blocks when full (backpressure)   seals at   ▲          ├─►worker 1 (Cluster of A arrays)
//!                                     max_batch, │          └─►worker W-1      │
//!                                     or at      └─ idle worker parked in pop  │
//!                                     max_wait + idle worker     supervisor restarts the dead
//! ```
//!
//! Batches form when a worker is free to run them: the batcher holds a
//! partial batch open, absorbing arrivals, until a worker parks in
//! [`BatchQueue::pop`] ([`BatchQueue::wait_idle`]). With the default
//! zero `max_wait` an idle worker takes whatever is queued at once; a
//! busy pool lets batches fill. `serve.form_ns` (oldest arrival → batch
//! sealed) and `serve.pickup_ns` (sealed → worker start) split a
//! batch's queue wait into waiting for company and waiting for a
//! worker.
//!
//! With a [`SchedConfig`] the FIFO front-end is replaced by the
//! scheduling layer ([`crate::sched`]) — per-tenant admission control
//! in `submit_with`, then a deadline/priority [`ReadyQueue`] the
//! batcher drains instead of the MPSC channel:
//!
//! ```text
//!  submit_with(opts)──►admission──►[ReadyQueue: tier→DRR→EDF]──►batcher──►[BatchQueue]──►workers
//!      tenant, deadline,  reject infeasible /   expired entries shed        (unchanged)
//!      priority           over-quota / burn     at dispatch
//! ```
//!
//! Each worker owns a private [`eyeriss_cluster::Cluster`] — array-level
//! parallelism inside a batch flows through `eyeriss-par`, which runs
//! one array's share on the worker thread itself and spawns a thread
//! for each other array — and executes batches from precompiled
//! plans fetched from the shared [`crate::PlanCache`]. Every completed
//! request carries a queue/compile/execute latency breakdown; the
//! server aggregates p50/p99 and throughput in [`ServerStats`].
//!
//! # Fault tolerance
//!
//! Workers run batches under `catch_unwind`; a supervisor thread
//! restarts a worker that panics (the in-flight batch's requests fail
//! with a typed [`ServeError::WorkerLost`] — never a hung client — via
//! each request's drop guard). Typed transient failures from the
//! cluster (an ABFT [`ClusterError::Corrupted`] mismatch or an injected
//! [`ClusterError::Crashed`]) retry with bounded backoff through
//! [`BatchQueue::requeue`]; arrays that fail
//! [`RecoveryPolicy::quarantine_after`] consecutive times are
//! quarantined and the worker re-plans onto its healthy subset. A
//! worker whose every array is quarantined retires, shrinking the pool
//! in the admission estimates. Deterministic fault injection opts in
//! via [`ServeConfig::faults`]; ABFT via [`ServeConfig::abft`]; both
//! are off by default and cost one branch when disabled.

use crate::attrib::Attribution;
use crate::batch::{collect_batch, BatchPolicy};
use crate::error::ServeError;
use crate::metrics::{LatencyBreakdown, RequestRecord, ServerSnapshot, ServerStats};
use crate::plan::{CompiledPlan, PlanCompiler, StagePlan};
use crate::recover::{BatchQueue, RecoveryPolicy};
use crate::sched::queue::{PushError, Pushed, ReadyQueue};
use crate::sched::tenant::TenantState;
use crate::sched::{
    AdmissionController, AdmissionError, AdmitRequest, Backlog, Priority, SchedConfig, TenantId,
    TenantRegistry, TenantSnapshot, TenantSpec,
};
use eyeriss_arch::cost::CostReport;
use eyeriss_arch::AcceleratorConfig;
use eyeriss_cluster::{Cluster, ClusterError, ClusterHealth};
use eyeriss_nn::network::Network;
use eyeriss_nn::{reference, Fix16, LayerProblem, Tensor4};
use eyeriss_sim::fault::{FaultInjector, FaultPlan};
use eyeriss_sim::Accelerator;
use eyeriss_telemetry::{
    Counter, Gauge, Histogram, RetroSpan, SloMonitor, SloSpec, Telemetry, TraceContext,
    REQUEST_ROW_TID,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The per-batch-size network plans shared by every worker: each
/// `(batch size, cluster width)` the pool can need maps to one
/// immutable [`Arc<CompiledPlan>`], compiled once and handed out by
/// reference — workers never lock the layer-level plan cache (or clone
/// a plan) at request time. Widths below the configured array count
/// exist only on degraded clusters (quarantined arrays); their
/// compilers are derived via [`PlanCompiler::resized`] and share the
/// base compiler's content-keyed layer cache.
struct NetPlans {
    net: Arc<Network>,
    base: Arc<PlanCompiler>,
    compilers: Mutex<HashMap<usize, Arc<PlanCompiler>>>,
    by_batch: Mutex<HashMap<(usize, usize), Arc<CompiledPlan>>>,
    /// Per-batch-size attribution basis — the plan's `(cost report,
    /// analytic delay)` — computed at most once per size, so traced
    /// requests never re-price the network on the hot path.
    basis_by_batch: Mutex<HashMap<usize, Arc<(CostReport, f64)>>>,
}

impl NetPlans {
    fn new(net: Arc<Network>, compiler: Arc<PlanCompiler>) -> Self {
        let mut compilers = HashMap::new();
        compilers.insert(compiler.arrays(), Arc::clone(&compiler));
        NetPlans {
            net,
            base: compiler,
            compilers: Mutex::new(compilers),
            by_batch: Mutex::new(HashMap::new()),
            basis_by_batch: Mutex::new(HashMap::new()),
        }
    }

    /// The compiler for a cluster of `width` arrays (the base compiler
    /// at full width, a cache-sharing resize below it).
    fn compiler_for(&self, width: usize) -> Arc<PlanCompiler> {
        let mut map = self
            .compilers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(width)
                .or_insert_with(|| Arc::new(self.base.resized(width))),
        )
    }

    /// The network plan for batch size `b` on a cluster of `width`
    /// healthy arrays — a shared handle, compiled at most once per
    /// `(size, width)` (a lost race wastes one duplicate compile, which
    /// itself hits the layer cache).
    fn get_for(&self, b: usize, width: usize) -> Result<Arc<CompiledPlan>, ServeError> {
        if let Some(plan) = self
            .by_batch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(b, width))
        {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(self.compiler_for(width).compile_network(&self.net, b)?);
        let mut plans = self.by_batch.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(plans.entry((b, width)).or_insert(plan)))
    }

    /// [`NetPlans::get_for`] at the configured (full) cluster width.
    fn get(&self, b: usize) -> Result<Arc<CompiledPlan>, ServeError> {
        self.get_for(b, self.base.arrays())
    }

    /// The attribution basis for `plan`: its full [`CostReport`] under
    /// the compiler's cost model and its analytic delay, shared and
    /// memoized per batch size.
    fn attribution_basis(&self, plan: &CompiledPlan) -> Arc<(CostReport, f64)> {
        let mut memo = self
            .basis_by_batch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(memo.entry(plan.batch).or_insert_with(|| {
            Arc::new((
                plan.cost_report(self.base.cost_model().as_ref()),
                plan.analytic_delay(),
            ))
        }))
    }
}

/// Server sizing and batching policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated arrays per worker cluster.
    pub arrays: usize,
    /// Worker threads (each owning one cluster). The simulated-array
    /// pool is `workers x arrays`.
    pub workers: usize,
    /// Dynamic batching bounds.
    pub policy: BatchPolicy,
    /// Submission-queue depth; a full queue blocks [`Server::submit`]
    /// (backpressure) and fails [`Server::try_submit`].
    pub queue_capacity: usize,
    /// Per-array hardware configuration.
    pub hw: AcceleratorConfig,
    /// Telemetry instance the server records into. `None` (the
    /// default) gives the server a private, always-enabled instance so
    /// [`Server::snapshot`] is live out of the box; pass a shared
    /// instance to fold serve/cluster/sim metrics into one timeline
    /// (e.g. [`eyeriss_telemetry::Telemetry::global`], or the engine's
    /// via its builder).
    pub telemetry: Option<Telemetry>,
    /// Service-level objectives evaluated live by the server's
    /// [`SloMonitor`] (empty = monitoring off). A breach dumps the
    /// flight recorder; see [`Server::slo_monitor`].
    pub slos: Vec<SloSpec>,
    /// Capacity of the flight recorder: how many recent per-request
    /// [`Attribution`] summaries a breach dump covers.
    pub flight_capacity: usize,
    /// Scheduling layer configuration. `None` (the default) keeps the
    /// legacy FIFO path; `Some` routes every submit through tenant
    /// admission control and the deadline/priority ready queue (see
    /// [`crate::sched`]).
    pub sched: Option<SchedConfig>,
    /// Deterministic fault-injection schedule. `None` or an empty plan
    /// (the default) means no injection and zero hot-path cost; see
    /// [`eyeriss_sim::fault`].
    pub faults: Option<FaultPlan>,
    /// ABFT checksum verification of every executed conv tile:
    /// detected corruption fails the batch with a retryable
    /// [`ClusterError::Corrupted`] instead of returning wrong numbers.
    /// Off by default.
    pub abft: bool,
    /// Retry, backoff and quarantine policy for faulted batches.
    pub recovery: RecoveryPolicy,
}

impl ServeConfig {
    /// A small default: two workers of two arrays each, default batching
    /// bounds, and the fabricated chip's per-array configuration.
    pub fn new() -> Self {
        ServeConfig {
            arrays: 2,
            workers: 2.min(eyeriss_par::num_threads()).max(1),
            policy: BatchPolicy::default(),
            queue_capacity: 64,
            hw: AcceleratorConfig::eyeriss_chip(),
            telemetry: None,
            slos: Vec::new(),
            flight_capacity: 256,
            sched: None,
            faults: None,
            abft: false,
            recovery: RecoveryPolicy::new(),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

/// Pre-resolved handles for every serve-layer metric, so the hot paths
/// never touch the registry lock. Cloning shares the same storage.
#[derive(Clone)]
struct ServeTele {
    queue_depth: Gauge,
    inflight_batches: Gauge,
    live_workers: Gauge,
    completed: Counter,
    shed: Counter,
    expired: Counter,
    retries: Counter,
    worker_restarts: Counter,
    failed: Counter,
    queue_ns: Histogram,
    form_ns: Histogram,
    pickup_ns: Histogram,
    compile_ns: Histogram,
    execute_ns: Histogram,
    total_ns: Histogram,
    batch_size: Histogram,
    delay_residual: Histogram,
}

impl ServeTele {
    fn resolve(tele: &Telemetry) -> Self {
        ServeTele {
            queue_depth: tele.gauge("serve.queue_depth"),
            inflight_batches: tele.gauge("serve.inflight_batches"),
            live_workers: tele.gauge("serve.live_workers"),
            completed: tele.counter("serve.completed"),
            shed: tele.counter("serve.shed"),
            expired: tele.counter("serve.expired"),
            retries: tele.counter("serve.retries"),
            worker_restarts: tele.counter("serve.worker_restarts"),
            failed: tele.counter("serve.failed"),
            queue_ns: tele.histogram("serve.queue_ns"),
            form_ns: tele.histogram("serve.form_ns"),
            pickup_ns: tele.histogram("serve.pickup_ns"),
            compile_ns: tele.histogram("serve.compile_ns"),
            execute_ns: tele.histogram("serve.execute_ns"),
            total_ns: tele.histogram("serve.total_ns"),
            batch_size: tele.histogram("serve.batch_size"),
            delay_residual: tele.histogram("serve.delay_residual"),
        }
    }
}

/// One in-flight request.
struct Pending {
    id: u64,
    input: Tensor4<Fix16>,
    submitted: Instant,
    trace: TraceContext,
    /// Taken exactly once by [`Pending::respond`]. A `Pending` dropped
    /// with the sender still armed died mid-flight (a worker panic, a
    /// closed pool) — its `Drop` sends a typed
    /// [`ServeError::WorkerLost`], so no client ever hangs.
    tx: Option<Sender<Result<Response, ServeError>>>,
    /// Scheduling provenance — present on sched-enabled servers only.
    meta: Option<ReqMeta>,
    /// `serve.failed` handle, carried so the drop guard can account a
    /// lost request without reaching the server.
    failed: Counter,
    /// Transient-fault retries this request's batch has burned.
    attempts: u32,
}

impl Pending {
    /// Delivers the result (first call wins; later calls no-op).
    fn respond(&mut self, result: Result<Response, ServeError>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(result);
        }
    }

    /// Fails the request with full accounting: the `serve.failed`
    /// counter, the tenant's failed count, and a typed error to the
    /// client.
    fn fail(&mut self, err: ServeError) {
        self.failed.inc();
        if let Some(meta) = &self.meta {
            meta.tenant.note_failed();
        }
        self.respond(Err(err));
    }

    /// Drops the responder without the worker-lost accounting — for
    /// submit-side rejections, where the caller already holds a typed
    /// error and the handle never escaped.
    fn disarm(&mut self) {
        self.tx = None;
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.tx.is_some() {
            self.fail(ServeError::WorkerLost);
        }
    }
}

/// A batch on its way from the batcher (or a retry) to a worker.
struct Sealed {
    batch: Vec<Pending>,
    /// When the batch was sealed or requeued: `serve.pickup_ns` runs
    /// from here to worker start.
    at: Instant,
}

impl Sealed {
    /// Seals `batch` now.
    fn now(batch: Vec<Pending>) -> Sealed {
        Sealed {
            batch,
            at: Instant::now(),
        }
    }

    /// Seals a freshly formed batch, recording `serve.form_ns` from its
    /// oldest request's arrival.
    fn formed(batch: Vec<Pending>, form_ns: &Histogram) -> Sealed {
        let sealed = Sealed::now(batch);
        if let Some(oldest) = sealed.batch.iter().map(|p| p.submitted).min() {
            form_ns.record_duration(sealed.at.duration_since(oldest));
        }
        sealed
    }
}

/// Scheduling metadata riding one request through the ready queue to
/// the worker that completes (or sheds) it.
struct ReqMeta {
    tenant: Arc<TenantState>,
    /// Absolute deadline on the telemetry epoch timeline; checked again
    /// at worker pickup so a request that outlived its deadline in the
    /// dispatch pipeline expires instead of completing late.
    deadline_ns: Option<u64>,
}

/// Per-request scheduling options for
/// [`Server::submit_with`] — tenant identity, an optional
/// deadline and a priority override.
///
/// On servers without a [`SchedConfig`] the options are ignored (the
/// legacy FIFO has no tenants or deadlines).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// The submitting tenant (default: [`TenantId::DEFAULT`]).
    pub tenant: TenantId,
    /// Relative deadline from submission; the request is rejected at
    /// admission if its estimated completion misses it, and shed at
    /// dispatch if it expires in queue. `None` = best effort.
    pub deadline: Option<Duration>,
    /// Overrides the tenant's configured [`Priority`] for this request.
    pub priority: Option<Priority>,
}

impl SubmitOptions {
    /// Options for `tenant` with no deadline and its configured
    /// priority.
    pub fn tenant(tenant: TenantId) -> SubmitOptions {
        SubmitOptions {
            tenant,
            ..SubmitOptions::default()
        }
    }

    /// Sets the relative deadline.
    pub fn deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the priority override.
    pub fn priority(mut self, priority: Priority) -> SubmitOptions {
        self.priority = Some(priority);
        self
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request id assigned at submission.
    pub id: u64,
    /// The network output for this request (`[1][M][E][E]`), bit-exact
    /// against a single-array simulation of the same input.
    pub output: Tensor4<Fix16>,
    /// Where this request's latency went.
    pub latency: LatencyBreakdown,
    /// How many requests shared the batch.
    pub batch_size: usize,
    /// Energy/delay attribution for this request — present whenever
    /// the server's telemetry instance was enabled at execution time.
    pub attribution: Option<Attribution>,
}

/// The caller's side of one submitted request.
#[derive(Debug)]
pub struct RequestHandle {
    id: u64,
    trace: u64,
    rx: Receiver<Result<Response, ServeError>>,
}

impl RequestHandle {
    /// The request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace id minted at submission (0 when telemetry is
    /// disabled) — the key tying this request to its span tree in the
    /// server's telemetry snapshot.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns the worker's error for this batch;
    /// [`ServeError::WorkerLost`] if the responder vanished mid-flight
    /// without delivering anything (every in-runtime loss path sends
    /// the same typed error explicitly, so this is the uniform
    /// worst-case answer — never a hang).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}

/// The submission front-end: the legacy FIFO channel, or the
/// scheduling layer.
enum Front {
    Fifo(SyncSender<Pending>),
    Sched(Arc<SchedShared>),
}

/// Shared state of a sched-enabled server: the ready queue the batcher
/// pulls from, the tenant registry, the admission controller, and the
/// memoized batch-1 analytic delay the completion estimate prices.
struct SchedShared {
    queue: ReadyQueue<Pending>,
    registry: TenantRegistry,
    admission: AdmissionController,
    unit_cycles: OnceLock<Option<f64>>,
}

/// How a worker's loop ended, reported to the supervisor.
enum WorkerExit {
    /// The dispatch queue closed and drained: clean shutdown.
    Shutdown,
    /// Every array in this worker's cluster is quarantined; the worker
    /// handed its batch back and left the pool.
    Retired,
    /// The worker panicked mid-batch (injected or real); the
    /// supervisor respawns the slot.
    Died,
}

/// Everything a worker (and the supervisor respawning workers) needs,
/// shared once behind an `Arc`.
struct WorkerShared {
    queue: Arc<BatchQueue<Sealed>>,
    net: Arc<Network>,
    plans: Arc<NetPlans>,
    records: Arc<Mutex<Vec<RequestRecord>>>,
    tele: Telemetry,
    metrics: ServeTele,
    monitor: SloMonitor,
    sched: Option<Arc<SchedShared>>,
    /// Per-slot health records — shared with each slot's cluster and
    /// *surviving* worker restarts, so a quarantine outlives the panic
    /// that exposed the bad array.
    healths: Vec<Arc<ClusterHealth>>,
    faults: Option<FaultInjector>,
    recovery: RecoveryPolicy,
    abft: bool,
    arrays: usize,
    hw: AcceleratorConfig,
}

/// Spawns worker `idx`: builds its private cluster around the slot's
/// persistent health record and runs the loop, reporting the exit to
/// the supervisor.
fn spawn_worker(
    idx: usize,
    shared: &Arc<WorkerShared>,
    exit_tx: Sender<(usize, WorkerExit)>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let cluster = Cluster::new(shared.arrays, shared.hw)
            .with_telemetry(shared.tele.clone())
            .with_health(Arc::clone(&shared.healths[idx]))
            .with_faults(shared.faults.clone())
            .array_base(idx * shared.arrays)
            .abft(shared.abft);
        let pool_chip = Accelerator::new(shared.hw).telemetry(shared.tele.clone());
        let exit = worker_loop(idx, &shared, &cluster, pool_chip);
        let _ = exit_tx.send((idx, exit));
    })
}

/// An inference server for one network.
///
/// # Example
///
/// ```no_run
/// use eyeriss_serve::{ServeConfig, Server};
/// use eyeriss_nn::network::NetworkBuilder;
/// use eyeriss_nn::synth;
///
/// let net = NetworkBuilder::new(3, 19).conv("C1", 8, 3, 2)?.build(7);
/// let input = synth::ifmap(&net.stages()[0].shape, 1, 42);
/// let server = Server::start(net, ServeConfig::new());
/// let response = server.submit(input)?.wait()?;
/// println!("request {} done in {:?}", response.id, response.latency.total());
/// let stats = server.shutdown();
/// assert_eq!(stats.completed(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    front: Front,
    batcher: JoinHandle<()>,
    supervisor: JoinHandle<()>,
    records: Arc<Mutex<Vec<RequestRecord>>>,
    compiler: Arc<PlanCompiler>,
    plans: Arc<NetPlans>,
    max_batch: usize,
    started: Instant,
    next_id: AtomicU64,
    input_dims: (usize, usize),
    tele: Telemetry,
    metrics: ServeTele,
    monitor: SloMonitor,
    worker_count: usize,
    healths: Vec<Arc<ClusterHealth>>,
    faults: Option<FaultInjector>,
}

impl Server {
    /// Starts batcher, worker and supervisor threads serving `net` with
    /// a fresh plan cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.arrays` or `cfg.workers` is zero.
    pub fn start(net: Network, cfg: ServeConfig) -> Self {
        let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
        Server::start_with_compiler(net, cfg, compiler)
    }

    /// [`Server::start`] with a caller-provided compiler, so a warm
    /// [`crate::PlanCache`] can be shared across server restarts (or
    /// across servers) via [`PlanCompiler::with_cache`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero or the compiler's cluster width
    /// disagrees with `cfg.arrays`.
    pub fn start_with_compiler(net: Network, cfg: ServeConfig, compiler: PlanCompiler) -> Self {
        assert!(cfg.workers > 0, "server needs at least one worker");
        assert_eq!(
            compiler.arrays(),
            cfg.arrays,
            "compiler cluster width must match the server's"
        );
        let net = Arc::new(net);
        let compiler = Arc::new(compiler);
        let plans = Arc::new(NetPlans::new(Arc::clone(&net), Arc::clone(&compiler)));
        let records = Arc::new(Mutex::new(Vec::new()));
        let input_dims = net.input_dims();
        let tele = cfg.telemetry.unwrap_or_else(Telemetry::new_enabled);
        let metrics = ServeTele::resolve(&tele);
        let monitor = SloMonitor::new(cfg.slos, cfg.flight_capacity);
        // One shared injector: clones share run counters, so a spec's
        // timeline is fleet-global and survives worker restarts.
        // Telemetry must attach before the first clone escapes.
        let faults = cfg
            .faults
            .as_ref()
            .filter(|p| !p.is_empty())
            .map(|p| FaultInjector::new(p.clone()).with_telemetry(&tele));
        let healths: Vec<_> = (0..cfg.workers)
            .map(|_| Arc::new(ClusterHealth::new(cfg.arrays)))
            .collect();
        metrics.live_workers.set(cfg.workers as i64);

        // The batch queue is bounded by the worker count so that a slow
        // pool pushes back through the batcher into the submission queue
        // (FIFO) or onto the admission estimate (sched). Workers put
        // transiently-faulted batches *back* via its unbounded
        // front-of-queue requeue — the operation a plain channel lacks.
        // Its `wait_idle` is what lets the batchers hold a partial batch
        // open until a worker is parked and ready to start it.
        let queue = Arc::new(BatchQueue::<Sealed>::new(cfg.workers));

        let policy = cfg.policy;
        let (front, batcher) = match cfg.sched.clone() {
            None => {
                let (submit_tx, submit_rx) =
                    mpsc::sync_channel::<Pending>(cfg.queue_capacity.max(1));
                let metrics = metrics.clone();
                let queue = Arc::clone(&queue);
                let batcher = std::thread::spawn(move || {
                    let wait_idle = || {
                        queue.wait_idle();
                    };
                    while let Some(batch) = collect_batch(&submit_rx, &policy, wait_idle) {
                        metrics.queue_depth.add(-(batch.len() as i64));
                        if queue.push(Sealed::formed(batch, &metrics.form_ns)).is_err() {
                            break; // the pool is gone
                        }
                    }
                    queue.close();
                });
                (Front::Fifo(submit_tx), batcher)
            }
            Some(sc) => {
                let capacity = if sc.capacity > 0 {
                    sc.capacity
                } else {
                    cfg.queue_capacity.max(1)
                };
                let registry = TenantRegistry::new(tele.clone());
                for spec in sc.tenants {
                    registry.register(spec);
                }
                let shared = Arc::new(SchedShared {
                    queue: ReadyQueue::new(
                        capacity,
                        sc.quantum,
                        sc.aging.as_nanos().min(u64::MAX as u128) as u64,
                    ),
                    registry,
                    admission: AdmissionController::new(cfg.workers, cfg.policy.max_batch),
                    unit_cycles: OnceLock::new(),
                });
                let batcher = {
                    let shared = Arc::clone(&shared);
                    let tele = tele.clone();
                    let metrics = metrics.clone();
                    let queue = Arc::clone(&queue);
                    std::thread::spawn(move || {
                        let now = || tele.since_epoch(Instant::now());
                        let wait_idle = || {
                            queue.wait_idle();
                        };
                        while let Some(drained) = shared.queue.next_batch(&policy, now, wait_idle) {
                            for mut pending in drained.expired {
                                metrics.queue_depth.dec();
                                metrics.expired.inc();
                                if let Some(meta) = &pending.meta {
                                    meta.tenant.note_expired();
                                }
                                pending.respond(Err(AdmissionError::DeadlinePassed.into()));
                            }
                            if drained.batch.is_empty() {
                                continue;
                            }
                            metrics.queue_depth.add(-(drained.batch.len() as i64));
                            if queue
                                .push(Sealed::formed(drained.batch, &metrics.form_ns))
                                .is_err()
                            {
                                break; // the pool is gone
                            }
                        }
                        queue.close();
                    })
                };
                (Front::Sched(shared), batcher)
            }
        };

        let shared = Arc::new(WorkerShared {
            queue: Arc::clone(&queue),
            net: Arc::clone(&net),
            plans: Arc::clone(&plans),
            records: Arc::clone(&records),
            tele: tele.clone(),
            metrics: metrics.clone(),
            monitor: monitor.clone(),
            sched: match &front {
                Front::Sched(s) => Some(Arc::clone(s)),
                Front::Fifo(_) => None,
            },
            healths: healths.clone(),
            faults: faults.clone(),
            recovery: cfg.recovery,
            abft: cfg.abft,
            arrays: cfg.arrays,
            hw: cfg.hw,
        });

        let (exit_tx, exit_rx) = mpsc::channel::<(usize, WorkerExit)>();
        let mut handles: Vec<Option<JoinHandle<()>>> = (0..cfg.workers)
            .map(|i| Some(spawn_worker(i, &shared, exit_tx.clone())))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut alive = handles.len();
                while alive > 0 {
                    let Ok((idx, exit)) = exit_rx.recv() else {
                        break;
                    };
                    if let Some(handle) = handles[idx].take() {
                        let _ = handle.join();
                    }
                    match exit {
                        WorkerExit::Died => {
                            shared.metrics.worker_restarts.inc();
                            handles[idx] = Some(spawn_worker(idx, &shared, exit_tx.clone()));
                        }
                        WorkerExit::Retired | WorkerExit::Shutdown => alive -= 1,
                    }
                }
                // The pool is gone — drained shutdown, or every worker
                // retired. Close the dispatch queue and drain whatever
                // is still queued: each dropped request's guard sends a
                // typed `WorkerLost`, so no client waits forever.
                shared.queue.close();
                while shared.queue.pop().is_some() {}
            })
        };

        Server {
            front,
            batcher,
            supervisor,
            records,
            compiler,
            plans,
            max_batch: cfg.policy.max_batch.max(1),
            started: Instant::now(),
            next_id: AtomicU64::new(0),
            input_dims,
            tele,
            metrics,
            monitor,
            worker_count: cfg.workers,
            healths,
            faults,
        }
    }

    /// Compiles the served network's plans for every batch size the
    /// batcher can form (`1..=max_batch`), so no request ever pays a
    /// plan search at serving time. Returns one shared
    /// [`crate::CompiledPlan`] handle per batch size, in increasing-size
    /// order — the same `Arc`s the workers will execute from.
    ///
    /// # Errors
    ///
    /// Fails if any weighted stage has no feasible plan at some batch
    /// size.
    pub fn prewarm(&self) -> Result<Vec<Arc<CompiledPlan>>, ServeError> {
        (1..=self.max_batch).map(|n| self.plans.get(n)).collect()
    }

    fn pending(&self, input: Tensor4<Fix16>) -> Result<(Pending, RequestHandle), ServeError> {
        let (c, h) = self.input_dims;
        if input.dims() != [1, c, h, h] {
            return Err(ServeError::Input(format!(
                "expected [1, {c}, {h}, {h}], got {:?}",
                input.dims()
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = self.tele.mint_trace();
        let (tx, rx) = mpsc::channel();
        Ok((
            Pending {
                id,
                input,
                submitted: Instant::now(),
                trace,
                tx: Some(tx),
                meta: None,
                failed: self.metrics.failed.clone(),
                attempts: 0,
            },
            RequestHandle {
                id,
                trace: trace.trace,
                rx,
            },
        ))
    }

    /// Feeds one admission decision to the SLO monitor when a shed
    /// spec is configured (a relaxed load plus a bool check otherwise).
    fn observe_admission(&self, shed: bool) {
        if self.monitor.wants_shed() && self.tele.enabled() {
            self.monitor
                .observe_shed(self.tele.since_epoch(Instant::now()), shed);
        }
    }

    /// Submits one single-image request (`[1][C][H][H]`), blocking while
    /// the submission queue is full — the backpressure path. On a
    /// sched-enabled server this is
    /// [`Server::submit_with`] under default [`SubmitOptions`] (the
    /// default tenant, no deadline), and admission may reject instead
    /// of blocking.
    ///
    /// # Errors
    ///
    /// Fails on mismatched input dimensions, a shut-down server, or —
    /// sched only — an [`AdmissionError`].
    pub fn submit(&self, input: Tensor4<Fix16>) -> Result<RequestHandle, ServeError> {
        match &self.front {
            Front::Fifo(tx) => {
                let (pending, handle) = self.pending(input)?;
                // Increment before the send: the matching decrement (in
                // the batcher) can only follow a successful send, so the
                // gauge never goes negative (counting a blocked submit
                // as queued).
                self.metrics.queue_depth.inc();
                if let Err(e) = tx.send(pending) {
                    e.0.disarm_for_caller();
                    self.metrics.queue_depth.dec();
                    return Err(ServeError::ShutDown);
                }
                self.observe_admission(false);
                Ok(handle)
            }
            Front::Sched(shared) => self.submit_sched(shared, input, SubmitOptions::default()),
        }
    }

    /// Non-blocking [`Server::submit`]: a full queue returns
    /// [`ServeError::Saturated`] immediately instead of waiting (load
    /// shedding for open-loop clients). The scheduling path never
    /// blocks on a full queue, so on a sched-enabled server this is
    /// exactly [`Server::submit`] (full-queue rejections surface as
    /// [`AdmissionError::QueueFull`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Saturated`] when the queue is full, plus every
    /// [`Server::submit`] failure mode.
    pub fn try_submit(&self, input: Tensor4<Fix16>) -> Result<RequestHandle, ServeError> {
        match &self.front {
            Front::Fifo(tx) => {
                let (pending, handle) = self.pending(input)?;
                self.metrics.queue_depth.inc();
                match tx.try_send(pending) {
                    Ok(()) => {
                        self.observe_admission(false);
                        Ok(handle)
                    }
                    Err(TrySendError::Full(mut p)) => {
                        p.disarm();
                        self.metrics.queue_depth.dec();
                        self.metrics.shed.inc();
                        self.observe_admission(true);
                        Err(ServeError::Saturated)
                    }
                    Err(TrySendError::Disconnected(mut p)) => {
                        p.disarm();
                        self.metrics.queue_depth.dec();
                        Err(ServeError::ShutDown)
                    }
                }
            }
            Front::Sched(shared) => self.submit_sched(shared, input, SubmitOptions::default()),
        }
    }

    /// Submits one request with explicit scheduling options — tenant,
    /// deadline, priority. On a FIFO server (no [`SchedConfig`]) the
    /// options are ignored and this is [`Server::submit`].
    ///
    /// # Errors
    ///
    /// Every [`Server::submit`] failure mode plus a typed
    /// [`ServeError::Admission`] when the scheduling layer rejects:
    /// unknown tenant, passed or infeasible deadline, over-quota,
    /// burn-rate shed, or a full queue the request does not outrank.
    pub fn submit_with(
        &self,
        input: Tensor4<Fix16>,
        opts: SubmitOptions,
    ) -> Result<RequestHandle, ServeError> {
        match &self.front {
            Front::Fifo(_) => self.submit(input),
            Front::Sched(shared) => self.submit_sched(shared, input, opts),
        }
    }

    /// The scheduling submit path: admission control, then a ranked
    /// push into the ready queue.
    fn submit_sched(
        &self,
        shared: &SchedShared,
        input: Tensor4<Fix16>,
        opts: SubmitOptions,
    ) -> Result<RequestHandle, ServeError> {
        let Some(tenant) = shared.registry.get(opts.tenant) else {
            return Err(AdmissionError::UnknownTenant(opts.tenant.0).into());
        };
        let (mut pending, handle) = self.pending(input)?;
        tenant.note_submitted();
        let now_ns = self.tele.since_epoch(pending.submitted);
        let deadline_ns = opts
            .deadline
            .map(|d| now_ns.saturating_add(d.as_nanos().min(u64::MAX as u128) as u64));
        let tier = opts.priority.unwrap_or(tenant.spec().priority).tier();
        // The batch-1 analytic delay prices the completion estimate;
        // compiled lazily once (prewarmed servers pay nothing here).
        let unit_cycles = *shared.unit_cycles.get_or_init(|| {
            self.plans
                .get(1)
                .ok()
                .map(|p| self.plans.attribution_basis(&p).1)
        });
        let backlog = Backlog {
            queued: self.metrics.queue_depth.get(),
            inflight: self.metrics.inflight_batches.get(),
        };
        if let Err(e) = shared.admission.admit(
            &tenant,
            AdmitRequest {
                tier,
                deadline_ns,
                now_ns,
                unit_cycles,
                backlog,
                burning: self.monitor.burning(),
            },
        ) {
            pending.disarm();
            tenant.note_rejected(&e);
            self.metrics.shed.inc();
            self.observe_admission(true);
            return Err(e.into());
        }
        pending.meta = Some(ReqMeta {
            tenant: Arc::clone(&tenant),
            deadline_ns,
        });
        self.metrics.queue_depth.inc();
        let weight = tenant.spec().weight;
        match shared.queue.push(
            pending,
            opts.tenant.index(),
            weight,
            tier,
            deadline_ns,
            now_ns,
        ) {
            Ok(Pushed::Queued) => {}
            Ok(Pushed::Displaced(mut victim)) => {
                // The new entry took the victim's slot: net queue depth
                // is unchanged, the victim is shed.
                self.metrics.queue_depth.dec();
                self.metrics.shed.inc();
                if let Some(meta) = &victim.meta {
                    meta.tenant.note_shed();
                }
                self.observe_admission(true);
                victim.respond(Err(AdmissionError::Shed.into()));
            }
            Err(PushError::Full(mut p)) => {
                p.disarm();
                self.metrics.queue_depth.dec();
                let e = AdmissionError::QueueFull;
                tenant.note_rejected(&e);
                self.metrics.shed.inc();
                self.observe_admission(true);
                return Err(e.into());
            }
            Err(PushError::Closed(mut p)) => {
                p.disarm();
                self.metrics.queue_depth.dec();
                return Err(ServeError::ShutDown);
            }
        }
        tenant.note_admitted();
        self.observe_admission(false);
        Ok(handle)
    }

    /// Registers a new tenant on a sched-enabled server, returning its
    /// id for [`SubmitOptions::tenant`]. Returns `None` on a FIFO
    /// server (no scheduling layer to register with).
    pub fn register_tenant(&self, spec: TenantSpec) -> Option<TenantId> {
        match &self.front {
            Front::Fifo(_) => None,
            Front::Sched(shared) => Some(shared.registry.register(spec)),
        }
    }

    /// Live per-tenant counters in tenant-id order; empty on a FIFO
    /// server.
    pub fn tenants(&self) -> Vec<TenantSnapshot> {
        match &self.front {
            Front::Fifo(_) => Vec::new(),
            Front::Sched(shared) => shared.registry.snapshots(),
        }
    }

    /// The admission controller's live completion estimate for a
    /// request submitted right now — expected queue wait against the
    /// current backlog plus one service time. `None` on a FIFO server,
    /// or before the workers have fed the estimator its first sample.
    pub fn estimated_completion(&self) -> Option<Duration> {
        let Front::Sched(shared) = &self.front else {
            return None;
        };
        let unit_cycles = *shared.unit_cycles.get_or_init(|| {
            self.plans
                .get(1)
                .ok()
                .map(|p| self.plans.attribution_basis(&p).1)
        });
        let backlog = Backlog {
            queued: self.metrics.queue_depth.get(),
            inflight: self.metrics.inflight_batches.get(),
        };
        let now_ns = self.tele.since_epoch(Instant::now());
        shared
            .admission
            .estimate_completion_ns(now_ns, unit_cycles, backlog)
            .map(|est| Duration::from_nanos(est.saturating_sub(now_ns)))
    }

    /// Snapshot of the plan-cache counters.
    pub fn cache_stats(&self) -> crate::plan::CacheStats {
        self.compiler.cache().stats()
    }

    /// A live, point-in-time view of the server — queue depth,
    /// in-flight batches, pool health and streaming latency quantiles —
    /// available **while requests are running**, unlike
    /// [`Server::shutdown`]'s [`ServerStats`]. With the default
    /// configuration (no injected telemetry) the backing instance is
    /// always enabled, so this is never empty once requests complete.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            elapsed: self.started.elapsed(),
            completed: self.metrics.completed.get(),
            shed: self.metrics.shed.get(),
            queue_depth: self.metrics.queue_depth.get(),
            inflight_batches: self.metrics.inflight_batches.get(),
            workers: self.worker_count,
            live_workers: self.metrics.live_workers.get(),
            worker_restarts: self.metrics.worker_restarts.get(),
            retries: self.metrics.retries.get(),
            failed: self.metrics.failed.get(),
            quarantined_arrays: self
                .healths
                .iter()
                .map(|h| h.quarantined_count() as u64)
                .sum(),
            faults_injected: self.faults.as_ref().map_or(0, |f| f.injected()),
            faults_detected: self.tele.counter("sim.faults_detected").get(),
            cache: self.compiler.cache().stats(),
            queue_ns: self.metrics.queue_ns.snapshot(),
            compile_ns: self.metrics.compile_ns.snapshot(),
            execute_ns: self.metrics.execute_ns.snapshot(),
            total_ns: self.metrics.total_ns.snapshot(),
            batch_size: self.metrics.batch_size.snapshot(),
            delay_residual: self.metrics.delay_residual.snapshot(),
            tenants: self.tenants(),
        }
    }

    /// The live SLO monitor (configured via [`ServeConfig::slos`]):
    /// breach counts and flight-recorder dumps are readable while the
    /// server runs, and survive until [`Server::shutdown`] through the
    /// handle's clones.
    pub fn slo_monitor(&self) -> &SloMonitor {
        &self.monitor
    }

    /// The telemetry instance this server records into — spans from the
    /// workers' clusters and simulated chips land here too, so
    /// [`eyeriss_telemetry::Telemetry::snapshot`] plus
    /// [`eyeriss_telemetry::TelemetrySnapshot::chrome_trace`] yields a
    /// loadable `chrome://tracing` timeline of the serving run.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Drains in-flight requests, stops every thread and returns the
    /// lifetime statistics.
    pub fn shutdown(self) -> ServerStats {
        let Server {
            front,
            batcher,
            supervisor,
            records,
            compiler,
            started,
            ..
        } = self;
        match front {
            // Dropping the sender disconnects the channel: the batcher
            // drains the queue, then exits (closing the batch queue
            // behind itself).
            Front::Fifo(submit_tx) => drop(submit_tx),
            // Closing the ready queue has the same contract: blocked
            // consumers drain what is queued, then observe shutdown.
            Front::Sched(shared) => shared.queue.close(),
        }
        let _ = batcher.join();
        let _ = supervisor.join();
        let records = std::mem::take(&mut *records.lock().unwrap_or_else(PoisonError::into_inner));
        ServerStats {
            records,
            elapsed: started.elapsed(),
            cache: compiler.cache().stats(),
        }
    }
}

impl Pending {
    /// [`Pending::disarm`] through an `mpsc::SendError` (the error owns
    /// the value, so the by-value wrapper keeps call sites tidy).
    fn disarm_for_caller(mut self) {
        self.disarm();
    }
}

/// One worker: picks whole batches off the shared queue and executes
/// them on its private cluster under `catch_unwind`, retrying
/// transiently-faulted batches, until the queue closes, the worker's
/// last array is quarantined, or a panic kills it.
fn worker_loop(
    idx: usize,
    shared: &WorkerShared,
    cluster: &Cluster,
    mut pool_chip: Accelerator,
) -> WorkerExit {
    while let Some(Sealed { batch, at }) = shared.queue.pop() {
        let Some(batch) = recheck_deadlines(shared, batch) else {
            continue;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if shared.faults.as_ref().is_some_and(|f| f.poll_worker(idx)) {
                panic!("injected worker panic (chaos)");
            }
            execute_batch(shared, cluster, &mut pool_chip, batch, at)
        }));
        match outcome {
            // The closure owned the batch, so it dropped during the
            // unwind and every request's guard already delivered a
            // typed `WorkerLost`. The supervisor respawns this slot.
            Err(_) => return WorkerExit::Died,
            Ok(Ok(())) => {}
            Ok(Err((batch, err))) => {
                if let Some(exit) = handle_failure(shared, cluster, batch, err) {
                    return exit;
                }
            }
        }
    }
    WorkerExit::Shutdown
}

/// Re-checks deadlines at pickup (sched only): the dispatch queue holds
/// several batches, so a request can outlive its deadline between
/// dispatch and pickup. Expiring it now bounds a completed request's
/// latency by its deadline plus one batch execution. Returns the live
/// remainder, or `None` when nothing survived.
fn recheck_deadlines(shared: &WorkerShared, batch: Vec<Pending>) -> Option<Vec<Pending>> {
    if shared.sched.is_none() {
        return Some(batch);
    }
    let now_ns = shared.tele.since_epoch(Instant::now());
    let mut live = Vec::with_capacity(batch.len());
    for mut pending in batch {
        let expired = pending
            .meta
            .as_ref()
            .and_then(|m| m.deadline_ns)
            .is_some_and(|d| d < now_ns);
        if expired {
            shared.metrics.expired.inc();
            if let Some(meta) = &pending.meta {
                meta.tenant.note_expired();
            }
            pending.respond(Err(AdmissionError::DeadlinePassed.into()));
        } else {
            live.push(pending);
        }
    }
    (!live.is_empty()).then_some(live)
}

/// Executes one batch end to end and delivers the responses. A typed
/// execution error hands the batch back to the caller for retry /
/// quarantine handling instead of consuming it. `sealed` is when the
/// batch was sealed (or requeued), for `serve.pickup_ns`.
fn execute_batch(
    shared: &WorkerShared,
    cluster: &Cluster,
    pool_chip: &mut Accelerator,
    batch: Vec<Pending>,
    sealed: Instant,
) -> Result<(), (Vec<Pending>, ServeError)> {
    let metrics = &shared.metrics;
    let tele = &shared.tele;
    let outcome = {
        // A panic in run_batch unwinds through the guard, so the
        // inflight gauge can never leak an increment. The guard also
        // drops before responses are delivered: a client that has
        // seen its response never observes its batch as inflight.
        let _inflight = metrics.inflight_batches.scoped_inc();
        // The batch joins the first request's trace; every request's
        // queue wait links into the batch span as a flow arrow, so
        // multi-trace batches stay attributable.
        let dispatch = Instant::now();
        metrics
            .pickup_ns
            .record_duration(dispatch.saturating_duration_since(sealed));
        let batch_trace = batch.first().map_or(0, |p| p.trace.trace);
        let _root = tele.in_context(TraceContext {
            trace: batch_trace,
            parent: 0,
        });
        let batch_span = tele.span_with("serve.batch", "serve", batch.len() as u64);
        let bid = batch_span.id();
        if bid != 0 {
            for pending in &batch {
                tele.record_retro(RetroSpan {
                    name: "serve.queue",
                    cat: "serve",
                    arg: pending.id,
                    tid: REQUEST_ROW_TID,
                    ctx: pending.trace,
                    start: pending.submitted,
                    dur: dispatch.duration_since(pending.submitted),
                    link: bid,
                });
            }
        }
        // `batch_span` is still live: spans opened inside run_batch
        // on this thread parent to it through the ambient context.
        run_batch(&shared.net, &shared.plans, cluster, pool_chip, &batch, tele)
    };
    match outcome {
        Ok(done) => {
            // Calibrate the admission estimator: one sample per
            // executed batch, its plan's analytic delay against the
            // measured execute wall time.
            if let Some(sched) = &shared.sched {
                if let (Some(first), Ok(plan)) = (done.first(), shared.plans.get(batch.len())) {
                    let execute_ns =
                        first.0.latency.execute.as_nanos().min(u64::MAX as u128) as u64;
                    let cycles = shared.plans.attribution_basis(&plan).1;
                    sched.admission.estimator().observe(cycles, execute_ns);
                }
            }
            let wants_records = !shared.monitor.is_empty();
            let mut recs = shared
                .records
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (mut pending, response) in batch.into_iter().zip(done) {
                if let Some(meta) = &pending.meta {
                    meta.tenant.note_completed();
                }
                let latency = response.0.latency;
                metrics.queue_ns.record_duration(latency.queue);
                metrics.compile_ns.record_duration(latency.compile);
                metrics.execute_ns.record_duration(latency.execute);
                metrics.total_ns.record_duration(latency.total());
                metrics.batch_size.record(response.0.batch_size as u64);
                metrics.completed.inc();
                if let Some(att) = &response.0.attribution {
                    metrics
                        .delay_residual
                        .record(att.residual_cycles().abs() as u64);
                    if wants_records {
                        shared.monitor.record(att.flight_record());
                    }
                }
                recs.push(RequestRecord {
                    id: response.0.id,
                    batch_size: response.0.batch_size,
                    latency,
                    sim_cycles: response.1,
                });
                pending.respond(Ok(response.0));
            }
            Ok(())
        }
        Err(e) => Err((batch, e)),
    }
}

/// Decides what a typed batch failure means: strike → quarantine
/// bookkeeping for the offending array, retirement when the worker's
/// cluster has no healthy arrays left, bounded-backoff retry for
/// transient faults, and a typed failure to every client once the
/// budget is spent. Returns `Some(exit)` when the worker must leave
/// the pool.
fn handle_failure(
    shared: &WorkerShared,
    cluster: &Cluster,
    mut batch: Vec<Pending>,
    err: ServeError,
) -> Option<WorkerExit> {
    // Only the cluster's fault-typed errors are retryable: a clean
    // re-execution can produce the bit-exact output a corrupted or
    // crashed one could not. Everything else (no plan, bad input) would
    // fail identically again.
    let faulty_array = match &err {
        ServeError::Cluster(
            ClusterError::Corrupted { array } | ClusterError::Crashed { array },
        ) => Some(*array),
        _ => None,
    };
    if let Some(array) = faulty_array {
        // The cluster already struck the array; consecutive strikes
        // reaching the threshold mean the fault is persistent, not
        // transient — quarantine it and re-plan on the healthy subset.
        if cluster.health().strikes(array) >= shared.recovery.quarantine_after {
            cluster.quarantine(array);
        }
        if cluster.healthy_arrays() == 0 {
            // Nothing left to execute on: hand the batch to the rest of
            // the pool and retire. The requeue bypasses the retry
            // budget — another worker's healthy cluster may complete it
            // first try.
            shared.queue.requeue(Sealed::now(batch));
            shared.metrics.live_workers.dec();
            if let Some(sched) = &shared.sched {
                let live = shared.metrics.live_workers.get().max(1) as usize;
                sched.admission.set_workers(live);
            }
            return Some(WorkerExit::Retired);
        }
    }
    let attempt = batch.iter().map(|p| p.attempts).max().unwrap_or(0) + 1;
    if faulty_array.is_some() && attempt <= shared.recovery.max_retries {
        for pending in &mut batch {
            pending.attempts = attempt;
        }
        shared.metrics.retries.add(batch.len() as u64);
        std::thread::sleep(shared.recovery.backoff_for(attempt));
        shared.queue.requeue(Sealed::now(batch));
    } else {
        for mut pending in batch {
            pending.fail(err.clone());
        }
    }
    None
}

/// Executes one batch end-to-end; returns one `(response, sim_cycles)`
/// per request, in batch order. With telemetry enabled, each response
/// carries an [`Attribution`] built from the executed plan's cost
/// report and the simulator's measured cycles. Plans resolve at the
/// cluster's *healthy* width, so a degraded worker transparently
/// re-plans onto its surviving arrays.
fn run_batch(
    net: &Network,
    plans: &NetPlans,
    cluster: &Cluster,
    pool_chip: &mut Accelerator,
    batch: &[Pending],
    tele: &Telemetry,
) -> Result<Vec<(Response, u64)>, ServeError> {
    let started = Instant::now();
    let b = batch.len();
    let (c, h) = net.input_dims();
    // Stack the single-image requests into one [b][C][H][H] batch: each
    // request's image is one contiguous copy, no per-element indexing.
    let mut act = Tensor4::zeros([b, c, h, h]);
    for (z, pending) in batch.iter().enumerate() {
        act.image_mut(z).copy_from_slice(pending.input.image(0));
    }

    // One shared network plan for the whole batch: every weighted stage's
    // `Arc<ClusterPlan>` is already resolved, so the execute loop touches
    // no cache lock and clones nothing.
    let t0 = Instant::now();
    let netplan = plans.get_for(b, cluster.healthy_arrays())?;
    let compile = t0.elapsed();
    let mut sim_cycles = 0u64;
    // Weighted-stage cycles only: the residual compares against
    // `analytic_delay`, which prices weighted stages.
    let mut layer_cycles = 0u64;
    for (stage, splan) in net.stages().iter().zip(&netplan.stages) {
        match splan {
            StagePlan::Pool { shape, .. } => {
                let (out, stats) = pool_chip.run_pool(shape, b, &act);
                sim_cycles += stats.total_cycles();
                act = out;
            }
            StagePlan::Layer {
                shape, relu, plan, ..
            } => {
                let weights = stage.weights.as_ref().expect("weighted stage");
                let bias = stage.bias.as_ref().expect("weighted stage");
                let problem = LayerProblem::new(*shape, b);
                let run = cluster.execute(plan, &problem, &act, weights, bias)?;
                sim_cycles += run.stats.cluster_cycles();
                layer_cycles += run.stats.cluster_cycles();
                act = reference::quantize(&run.psums, *relu);
            }
        }
    }
    let execute = started.elapsed().saturating_sub(compile);
    let completed = Instant::now();
    // One memoized (cost report, analytic delay) pair per batch size:
    // attribution costs no plan re-pricing per request.
    let basis = tele.enabled().then(|| plans.attribution_basis(&netplan));

    let [_, m, e, _] = act.dims();
    Ok(batch
        .iter()
        .enumerate()
        .map(|(z, pending)| {
            // Unstack by image: one contiguous copy per response.
            let output = Tensor4::from_vec([1, m, e, e], act.image(z).to_vec());
            let latency = LatencyBreakdown {
                queue: started.duration_since(pending.submitted),
                compile,
                execute,
            };
            let attribution = basis.as_ref().map(|basis| Attribution {
                id: pending.id,
                trace: pending.trace.trace,
                batch_size: b,
                latency,
                report: basis.0,
                analytic_delay: basis.1,
                measured_cycles: layer_cycles,
                submitted_ns: tele.since_epoch(pending.submitted),
                completed_ns: tele.since_epoch(completed),
            });
            (
                Response {
                    id: pending.id,
                    output,
                    latency,
                    batch_size: b,
                    attribution,
                },
                sim_cycles,
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::GridDims;
    use eyeriss_nn::network::NetworkBuilder;
    use eyeriss_nn::synth;
    use eyeriss_sim::fault::{FaultKind, FaultSpec};

    fn tiny_net() -> Network {
        NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .pool("P1", 3, 2)
            .unwrap()
            .conv("C2", 12, 3, 1)
            .unwrap()
            .fully_connected("FC", 10)
            .unwrap()
            .build(7)
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            arrays: 2,
            workers: 2,
            policy: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(20),
            },
            queue_capacity: 16,
            hw: AcceleratorConfig {
                grid: GridDims::new(6, 8),
                rf_bytes_per_pe: 512.0,
                buffer_bytes: 32.0 * 1024.0,
            },
            telemetry: None,
            slos: Vec::new(),
            flight_capacity: 256,
            sched: None,
            faults: None,
            abft: false,
            recovery: RecoveryPolicy::new(),
        }
    }

    #[test]
    fn serves_requests_bit_exactly_with_breakdown() {
        let net = tiny_net();
        let golden_net = net.clone();
        let server = Server::start(net, small_cfg());
        let shape = golden_net.stages()[0].shape;
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let input = synth::ifmap(&shape, 1, 100 + i);
                (i, server.submit(input).unwrap())
            })
            .collect();
        for (i, handle) in handles {
            let input = synth::ifmap(&shape, 1, 100 + i);
            let golden = golden_net.forward(1, &input);
            let response = handle.wait().unwrap();
            assert_eq!(response.output, golden, "request {i} diverged");
            assert!(response.batch_size >= 1);
            assert!(response.latency.total() >= response.latency.execute);
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 6);
        assert!(stats.p99() >= stats.p50());
        // Every weighted stage went through the plan cache (batch sizes
        // may differ between batches, so only misses are deterministic).
        assert!(stats.cache.misses > 0);
        assert!(stats.records.iter().all(|r| r.sim_cycles > 0));
    }

    #[test]
    fn snapshot_is_live_and_consistent_with_final_stats() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, small_cfg());
        assert_eq!(server.snapshot().completed, 0);
        let handles: Vec<_> = (0..6)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let snap = server.snapshot();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.queue_depth, 0, "queue drained");
        assert_eq!(snap.total_ns.count(), 6);
        assert!(snap.p99() >= snap.p50());
        assert!(snap.throughput_rps() > 0.0);
        assert!(snap.mean_batch() >= 1.0);
        // A fault-free run reports a fully healthy pool.
        assert_eq!((snap.workers, snap.live_workers), (2, 2));
        assert_eq!((snap.worker_restarts, snap.retries, snap.failed), (0, 0, 0));
        assert_eq!(snap.quarantined_arrays, 0);
        assert_eq!((snap.faults_injected, snap.faults_detected), (0, 0));
        // The cluster and chip record spans into the server's instance.
        let tele = server.telemetry().snapshot();
        assert!(tele.spans.iter().any(|s| s.name == "serve.batch"));
        assert!(tele.spans.iter().any(|s| s.name == "cluster.array"));
        assert!(tele.spans.iter().any(|s| s.name == "sim.pass"));
        let trace = tele.chrome_trace();
        assert!(trace.contains("\"name\":\"cluster.array\""));

        let stats = server.shutdown();
        assert_eq!(stats.completed(), 6);
        // Streaming p50/p99 agree with the exact nearest-rank stats to
        // within the documented bucket error.
        let summary = stats.latency_summary();
        for (stream, exact) in [(snap.p50(), summary.p50), (snap.p99(), summary.p99)] {
            let bound = exact.as_nanos() as f64 * eyeriss_telemetry::RELATIVE_ERROR + 1.0;
            let delta = stream.as_nanos().abs_diff(exact.as_nanos()) as f64;
            assert!(delta <= bound, "stream {stream:?} vs exact {exact:?}");
        }
    }

    #[test]
    fn rejects_wrong_input_dims() {
        let server = Server::start(tiny_net(), small_cfg());
        let bad = Tensor4::<Fix16>::zeros([1, 3, 18, 18]);
        assert!(matches!(server.submit(bad), Err(ServeError::Input(_))));
        let batch_of_two = Tensor4::<Fix16>::zeros([2, 3, 19, 19]);
        assert!(matches!(
            server.try_submit(batch_of_two),
            Err(ServeError::Input(_))
        ));
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 0);
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, small_cfg());
        let handles: Vec<_> = (0..8)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        let stats = server.shutdown(); // must not drop queued work
        assert_eq!(stats.completed(), 8);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn prewarm_compiles_every_batch_size_and_survives_restart() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let cfg = small_cfg();
        let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
        let cache = Arc::clone(compiler.cache());

        let server = Server::start_with_compiler(net.clone(), cfg.clone(), compiler);
        let plans = server.prewarm().unwrap();
        assert_eq!(plans.len(), 4, "one compiled plan per batch size 1..=4");
        assert!(plans.iter().all(|p| p.analytic_delay() > 0.0));
        let warmed = server.cache_stats();
        // 3 weighted stages x 4 batch sizes, all distinct problems.
        assert_eq!(warmed.misses, 12);
        // A warmed server never searches at request time.
        let response = server.submit(synth::ifmap(&shape, 1, 5)).unwrap();
        response.wait().unwrap();
        assert_eq!(server.cache_stats().misses, warmed.misses);
        server.shutdown();

        // Restart sharing the same cache: prewarm is now free.
        let compiler = PlanCompiler::new(cfg.arrays, cfg.hw).with_cache(cache);
        let restarted = Server::start_with_compiler(net, cfg, compiler);
        let replans = restarted.prewarm().unwrap();
        assert!(replans.iter().all(|p| p.searched == 0), "all hits");
        assert_eq!(restarted.cache_stats().misses, warmed.misses);
        restarted.shutdown();
    }

    #[test]
    fn unbatched_policy_means_batch_size_one() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let mut cfg = small_cfg();
        cfg.policy = BatchPolicy::unbatched();
        cfg.workers = 1;
        let server = Server::start(net, cfg);
        let handles: Vec<_> = (0..3)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().batch_size, 1);
        }
        let stats = server.shutdown();
        assert_eq!(stats.max_batch(), 1);
        // With unbatched policy every request is size 1 and the workers
        // share one network plan per batch size: the layer cache is
        // consulted only by the first compile (3 weighted stages), and
        // no number of further requests adds lookups of either kind.
        assert_eq!(stats.cache.misses, 3);
        assert_eq!(stats.cache.hits, 0);
    }

    #[test]
    fn injected_worker_panic_restarts_worker_and_types_the_loss() {
        let net = tiny_net();
        let golden = net.clone();
        let shape = net.stages()[0].shape;
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.policy = BatchPolicy::unbatched();
        // The slot's first batch pickup panics; later pickups are clean.
        cfg.faults =
            Some(FaultPlan::new(11).spec(FaultSpec::once(FaultKind::WorkerPanic, 0).target(0)));
        let server = Server::start(net, cfg);
        let lost = server.submit(synth::ifmap(&shape, 1, 1)).unwrap().wait();
        assert!(matches!(lost, Err(ServeError::WorkerLost)), "{lost:?}");
        // The supervisor restarted the slot: follow-ups complete
        // bit-exactly on the same server.
        let input = synth::ifmap(&shape, 1, 2);
        let response = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(response.output, golden.forward(1, &input));
        let snap = server.snapshot();
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.live_workers, 1, "restart keeps the pool at size");
        assert_eq!(snap.faults_injected, 1);
        server.shutdown();
    }

    #[test]
    fn transient_corruption_retries_to_bit_exact_output() {
        let net = tiny_net();
        let golden = net.clone();
        let shape = net.stages()[0].shape;
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.policy = BatchPolicy::unbatched();
        cfg.abft = true;
        // One transient psum flip on global array 0's first execution:
        // ABFT detects it, the batch retries, the clean pass is exact.
        cfg.faults =
            Some(FaultPlan::new(5).spec(FaultSpec::once(FaultKind::PsumBitFlip, 0).target(0)));
        let server = Server::start(net, cfg);
        let input = synth::ifmap(&shape, 1, 7);
        let response = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(
            response.output,
            golden.forward(1, &input),
            "retried output must be bit-exact"
        );
        let snap = server.snapshot();
        assert_eq!(snap.retries, 1);
        assert_eq!((snap.faults_injected, snap.faults_detected), (1, 1));
        assert_eq!((snap.failed, snap.worker_restarts), (0, 0));
        assert_eq!(snap.quarantined_arrays, 0, "one strike, then a clean run");
        assert_eq!(snap.completed, 1);
        server.shutdown();
    }

    fn sched_cfg() -> ServeConfig {
        ServeConfig {
            sched: Some(SchedConfig::new()),
            ..small_cfg()
        }
    }

    #[test]
    fn sched_server_serves_bit_exactly_via_default_tenant() {
        let net = tiny_net();
        let golden_net = net.clone();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, sched_cfg());
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let input = synth::ifmap(&shape, 1, 100 + i);
                (i, server.submit(input).unwrap())
            })
            .collect();
        for (i, handle) in handles {
            let input = synth::ifmap(&shape, 1, 100 + i);
            let golden = golden_net.forward(1, &input);
            assert_eq!(
                handle.wait().unwrap().output,
                golden,
                "request {i} diverged"
            );
        }
        let snap = server.snapshot();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.queue_depth, 0, "ready queue drained");
        // Plain submits land on the always-present default tenant.
        assert_eq!(snap.tenants.len(), 1);
        let t = &snap.tenants[0];
        assert_eq!(t.name, "default");
        assert_eq!((t.submitted, t.admitted, t.completed), (6, 6, 6));
        assert_eq!((t.rejected, t.shed, t.expired), (0, 0, 0));
        assert_eq!(t.failed, 0);
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 6);
    }

    #[test]
    fn sched_server_routes_tenants_and_calibrates() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let cfg = ServeConfig {
            sched: Some(
                SchedConfig::new()
                    .tenant(TenantSpec::new("interactive").weight(3.0))
                    .tenant(TenantSpec::new("batch").priority(Priority::Low)),
            ),
            ..small_cfg()
        };
        let server = Server::start(net, cfg);
        server.prewarm().unwrap();
        let interactive = TenantId(1);
        let batch = TenantId(2);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let opts = SubmitOptions::tenant(if i % 2 == 0 { interactive } else { batch });
                server
                    .submit_with(synth::ifmap(&shape, 1, i as u64), opts)
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let tenants = server.tenants();
        assert_eq!(tenants.len(), 3);
        assert_eq!(tenants[interactive.index()].completed, 2);
        assert_eq!(tenants[batch.index()].completed, 2);
        // Workers fed the estimator, so completion estimates are live.
        let Front::Sched(shared) = &server.front else {
            panic!("sched config must build the sched front")
        };
        assert!(shared.admission.estimator().samples() > 0);
        assert!(shared.admission.estimator().ns_per_cycle().unwrap() > 0.0);
        // An unknown tenant is rejected with a typed error.
        let err = server
            .submit_with(
                synth::ifmap(&shape, 1, 9),
                SubmitOptions::tenant(TenantId(77)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Admission(AdmissionError::UnknownTenant(77))
        ));
        // Registering it live makes the same id usable.
        let late = server.register_tenant(TenantSpec::new("late")).unwrap();
        assert_eq!(late, TenantId(3));
        server
            .submit_with(synth::ifmap(&shape, 1, 9), SubmitOptions::tenant(late))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(server.tenants()[late.index()].completed, 1);
        server.shutdown();
    }

    #[test]
    fn sched_server_rejects_passed_deadlines_and_expires_queued_work() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, sched_cfg());
        // A zero deadline has always already passed at admission.
        let err = server
            .submit_with(
                synth::ifmap(&shape, 1, 1),
                SubmitOptions::default().deadline(Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Admission(AdmissionError::DeadlinePassed)
        ));
        let snap = server.snapshot();
        assert_eq!(snap.tenants[0].rejected, 1);
        assert_eq!(snap.completed, 0);
        // A generous deadline admits and completes.
        server
            .submit_with(
                synth::ifmap(&shape, 1, 2),
                SubmitOptions::default().deadline(Duration::from_secs(60)),
            )
            .unwrap()
            .wait()
            .unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 1);
    }

    #[test]
    fn sched_shutdown_drains_in_flight_requests() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, sched_cfg());
        let handles: Vec<_> = (0..8)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        let stats = server.shutdown(); // must not drop queued work
        assert_eq!(stats.completed(), 8);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }
}
