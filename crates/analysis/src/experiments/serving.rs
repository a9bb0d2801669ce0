//! Serving (beyond the paper): plan compilation on real networks and an
//! offered-load sweep on the `eyeriss-serve` runtime.
//!
//! Two views, mirroring [`super::cluster_scaling`]'s analytic/measured
//! split:
//!
//! * [`compile_alexnet`] / [`compile_vgg`] — the **plan-compilation
//!   report**: every CONV layer of the network is compiled through the
//!   content-keyed plan cache, showing which layers share plans (VGG's
//!   stacked 3×3 stages) and the per-layer `(partition, mapping)` each
//!   plan chose.
//! * [`sweep_synthetic`] — the **measured offered-load sweep**: an
//!   open-loop client drives a live [`eyeriss_serve::Server`] at
//!   multiples of its calibrated capacity and records achieved
//!   throughput plus p50/p99 latency at each point — the canonical
//!   latency/throughput serving curve.
//! * [`overload_comparison`] — **admission control vs the legacy
//!   FIFO** at the same ≥2× overload: the sched server sheds what
//!   cannot make its deadline and keeps completed-request p99 bounded,
//!   while the FIFO's p99 grows with the queue.
//! * [`fairness_drr`] — **DRR fairness**: two backlogged tenants with
//!   3:1 weights; completed-throughput shares converge to the weight
//!   ratio.

use crate::table::TextTable;
use eyeriss_arch::AcceleratorConfig;
use eyeriss_nn::network::{Network, NetworkBuilder};
use eyeriss_nn::shape::NamedLayer;
use eyeriss_nn::{alexnet, synth, vgg};
use eyeriss_serve::{
    percentile, AdmissionError, BatchPolicy, CacheStats, PlanCompiler, RecoveryPolicy, SchedConfig,
    ServeConfig, ServeError, Server, ServerSnapshot, ServerStats, SubmitOptions, TenantId,
    TenantSpec,
};
use std::time::{Duration, Instant};

/// One compiled layer of a [`CompileReport`].
#[derive(Debug, Clone)]
pub struct LayerPlanRow {
    /// Layer name.
    pub name: String,
    /// Chosen partition label.
    pub partition: String,
    /// Analytic cluster delay (MAC-time units).
    pub delay: f64,
    /// Analytic energy (normalized units).
    pub energy: f64,
    /// Whether the shared DRAM channel bounds this layer.
    pub bandwidth_bound: bool,
}

/// Plan compilation of one network's CONV layers through the plan cache.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Network name.
    pub network: String,
    /// Cluster width compiled for.
    pub arrays: usize,
    /// Batch size compiled for.
    pub batch: usize,
    /// One row per layer, in network order.
    pub layers: Vec<LayerPlanRow>,
    /// Cache counters after compiling the whole network.
    pub cache: CacheStats,
    /// Wall-clock compile time.
    pub compile_time: Duration,
}

impl CompileReport {
    /// Summed analytic delay — the capacity model's per-inference cost.
    pub fn analytic_delay(&self) -> f64 {
        self.layers.iter().map(|l| l.delay).sum()
    }
}

fn compile_layers(
    network: &str,
    layers: &[NamedLayer],
    arrays: usize,
    batch: usize,
) -> CompileReport {
    let compiler = PlanCompiler::new(arrays, AcceleratorConfig::eyeriss_chip());
    let start = Instant::now();
    let plans = compiler
        .compile_layers(layers, batch)
        .expect("paper networks plan on small clusters");
    let compile_time = start.elapsed();
    CompileReport {
        network: network.to_string(),
        arrays,
        batch,
        layers: plans
            .into_iter()
            .map(|(name, plan)| LayerPlanRow {
                name,
                partition: plan.partition.label(),
                delay: plan.delay,
                energy: plan.energy,
                bandwidth_bound: plan.bandwidth_bound(),
            })
            .collect(),
        cache: compiler.cache().stats(),
        compile_time,
    }
}

/// Compiles AlexNet's five CONV layers (batch 4, four arrays).
pub fn compile_alexnet() -> CompileReport {
    compile_layers("AlexNet", &alexnet::conv_layers(), 4, 4)
}

/// Compiles VGG-16's thirteen CONV layers (batch 1, two arrays): the
/// repeated-shape showcase — only nine distinct plans are searched.
pub fn compile_vgg() -> CompileReport {
    compile_layers("VGG-16", &vgg::conv_layers(), 2, 1)
}

/// Renders a compile report as a text table.
pub fn render_compile(report: &CompileReport) -> String {
    let mut t = TextTable::new(vec![
        "layer".into(),
        "partition".into(),
        "delay".into(),
        "energy".into(),
        "BW-bound".into(),
    ]);
    for l in &report.layers {
        t.row(vec![
            l.name.clone(),
            l.partition.clone(),
            format!("{:.3e}", l.delay),
            format!("{:.3e}", l.energy),
            if l.bandwidth_bound { "yes" } else { "" }.into(),
        ]);
    }
    format!(
        "Plan compilation — {} CONV layers, batch {}, {} arrays\n\
         {} searches, {} cache hits (hit rate {:.0}%), compiled in {:.0} ms\n{}",
        report.network,
        report.batch,
        report.arrays,
        report.cache.misses,
        report.cache.hits,
        report.cache.hit_rate() * 100.0,
        report.compile_time.as_secs_f64() * 1e3,
        t.render()
    )
}

/// One operating point of the offered-load sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered arrival rate, requests/second.
    pub offered_rps: f64,
    /// Requests completed (all of them — the client blocks, it does not
    /// shed).
    pub completed: usize,
    /// Achieved throughput: completions / (first submit → last
    /// completion).
    pub achieved_rps: f64,
    /// Median end-to-end latency.
    pub p50: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99: Duration,
    /// Mean time spent queued.
    pub mean_queue: Duration,
    /// Mean executed batch size at this load.
    pub mean_batch: f64,
    /// Streaming p99 estimate from the live [`ServerSnapshot`] taken
    /// just before shutdown — includes warmup requests, and is checked
    /// against the exact percentile to within the histogram error bound
    /// during the sweep.
    pub live_p99: Duration,
}

/// The measured latency/throughput curve of one server configuration.
#[derive(Debug, Clone)]
pub struct ServingSweep {
    /// Network name.
    pub network: String,
    /// Calibrated single-server capacity estimate, requests/second.
    pub capacity_rps: f64,
    /// One point per offered load, in increasing-load order.
    pub points: Vec<LoadPoint>,
}

impl ServingSweep {
    /// True when achieved throughput is non-decreasing (within
    /// `tolerance`, e.g. `0.15`) across the increasing-load points —
    /// i.e. the server scales up to saturation and then holds its
    /// saturated throughput instead of collapsing.
    pub fn throughput_is_monotone(&self, tolerance: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].achieved_rps >= w[0].achieved_rps * (1.0 - tolerance))
    }
}

/// The small synthetic network the measured sweep serves: big enough
/// that one inference costs measurable simulation time, small enough to
/// sweep in seconds.
pub fn synthetic_net() -> Network {
    NetworkBuilder::new(3, 31)
        .conv("C1", 12, 3, 2)
        .expect("valid synthetic stage")
        .pool("P1", 3, 2)
        .expect("valid synthetic stage")
        .conv("C2", 16, 3, 1)
        .expect("valid synthetic stage")
        .fully_connected("FC", 10)
        .expect("valid synthetic stage")
        .build(17)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        arrays: 2,
        workers: 2,
        policy: BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
        },
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

/// Runs `requests` open-loop requests at `offered_rps` against a fresh
/// server for `net` (sharing `compiler`'s plan cache, so only the first
/// point of a sweep pays any searches), returning the completed-run
/// statistics and the client-observed makespan.
fn drive(
    net: &Network,
    cfg: &ServeConfig,
    compiler: &PlanCompiler,
    offered_rps: f64,
    requests: usize,
) -> (ServerStats, Duration, ServerSnapshot) {
    let shape = net.stages()[0].shape;
    let server = Server::start_with_compiler(net.clone(), cfg.clone(), compiler.clone());
    // Compile plans for every batch size the batcher can form, then warm
    // the execution path, so the sweep measures steady-state serving —
    // no mid-measurement plan search at any load point (and, from the
    // second drive on, no searches at all: the cache is shared).
    server.prewarm().expect("synthetic network plans");
    for warm in 0..2 {
        let input = synth::ifmap(&shape, 1, 1000 + warm);
        server
            .submit(input)
            .expect("warmup submit")
            .wait()
            .expect("warmup inference");
    }
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(requests);
    for i in 0..requests {
        // Absolute pacing: sleep to the schedule, not between submits,
        // so submit latency does not skew the offered rate.
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let input = synth::ifmap(&shape, 1, i as u64);
        handles.push(server.submit(input).expect("open-loop submit"));
    }
    // Sample the live telemetry view mid-run — after roughly half the
    // requests have completed, while later ones may still be queued or
    // executing — then again after the last completion.
    let mut mid = None;
    let half = requests.div_ceil(2);
    for (i, handle) in handles.into_iter().enumerate() {
        handle.wait().expect("open-loop inference");
        if i + 1 == half {
            mid = Some(server.snapshot());
        }
    }
    let makespan = start.elapsed();
    let fin = server.snapshot();
    let stats = server.shutdown();
    check_live_consistency(mid.as_ref().expect("sampled"), &fin, &stats, cfg);
    // Drop the warmup records so percentiles reflect the measured load.
    let mut stats = stats;
    stats.records.retain(|r| r.id >= 2);
    (stats, makespan, fin)
}

/// Asserts the live [`Server::snapshot`] views are monotone-consistent
/// with each other and with the exact end-of-run [`ServerStats`]:
/// histograms only grow, the queue-depth gauge stays within the
/// configured bounds and drains to zero, and the streaming percentiles
/// agree with the exact nearest-rank ones to within the documented
/// bucket error.
fn check_live_consistency(
    mid: &ServerSnapshot,
    fin: &ServerSnapshot,
    stats: &ServerStats,
    cfg: &ServeConfig,
) {
    assert!(
        fin.total_ns.dominates(&mid.total_ns),
        "latency histogram must only grow over a run"
    );
    assert!(mid.completed <= fin.completed);
    assert!(
        mid.queue_depth >= 0 && mid.queue_depth <= cfg.queue_capacity as i64,
        "mid-run queue depth {} outside [0, {}]",
        mid.queue_depth,
        cfg.queue_capacity
    );
    assert_eq!(fin.queue_depth, 0, "queue drains by the last completion");
    assert_eq!(fin.inflight_batches, 0);
    assert_eq!(fin.completed as usize, stats.completed());
    // Telemetry is live on these servers, so every completed request
    // carries an attribution and lands one `serve.delay_residual`
    // sample (the |measured − analytic| plan-prediction error).
    assert_eq!(
        fin.delay_residual.count(),
        fin.completed,
        "one residual sample per completed request"
    );
    let exact = stats.latency_summary();
    for (stream, exact) in [(fin.p50(), exact.p50), (fin.p99(), exact.p99)] {
        let bound = exact.as_nanos() as f64 * eyeriss_telemetry::RELATIVE_ERROR + 1.0;
        let delta = stream.as_nanos().abs_diff(exact.as_nanos()) as f64;
        assert!(
            delta <= bound,
            "streaming {stream:?} vs exact {exact:?} exceeds the error bound"
        );
    }
}

/// Bursts a capacity calibration takes the fastest of: a burst shares
/// the host with whatever else runs on it, so one burst can read well
/// below the pool's capacity — and a load at "2× capacity" then fails
/// to overload it.
const CALIBRATION_BURSTS: usize = 5;

/// Calibrates a capacity estimate: the steady-state rate of one worker
/// pool fed as fast as it can drain. Each burst holds eight full
/// batches per worker; its rate counts the completions after the first
/// batch over the time from that batch to the last, so the fill
/// latency of an idle pool does not dilute it. The estimate is the
/// fastest of `CALIBRATION_BURSTS` bursts.
fn calibrate(net: &Network, cfg: &ServeConfig, compiler: &PlanCompiler) -> f64 {
    let burst = (cfg.workers * cfg.policy.max_batch * 8).max(32);
    (0..CALIBRATION_BURSTS)
        .map(|_| {
            // An absurdly high offered rate degenerates into a burst:
            // every request is submitted within microseconds, so its
            // latency is its completion time.
            let (stats, _, _) = drive(net, cfg, compiler, 1e6, burst);
            let mut done: Vec<(Duration, usize)> = stats
                .records
                .iter()
                .map(|r| (r.latency.total(), r.batch_size))
                .collect();
            done.sort_unstable();
            let (first, first_batch) = done[0];
            let last = done[done.len() - 1].0;
            (done.len() - first_batch) as f64 / (last - first).as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Sweeps offered load over `multiples` of the calibrated capacity with
/// `requests` open-loop requests per point. One plan cache is shared
/// across every point's server, so only calibration pays the searches.
pub fn sweep_network(
    net: &Network,
    name: &str,
    cfg: &ServeConfig,
    multiples: &[f64],
    requests: usize,
) -> ServingSweep {
    let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
    let capacity_rps = calibrate(net, cfg, &compiler);
    let points = multiples
        .iter()
        .map(|&mult| {
            let offered = (capacity_rps * mult).max(1.0);
            let (stats, makespan, live) = drive(net, cfg, &compiler, offered, requests);
            let summary = stats.latency_summary();
            LoadPoint {
                offered_rps: offered,
                completed: stats.completed(),
                achieved_rps: stats.completed() as f64 / makespan.as_secs_f64(),
                p50: summary.p50,
                p99: summary.p99,
                mean_queue: stats.mean_queue(),
                mean_batch: stats.mean_batch(),
                live_p99: live.p99(),
            }
        })
        .collect();
    ServingSweep {
        network: name.to_string(),
        capacity_rps,
        points,
    }
}

/// The default measured sweep: the synthetic network at 0.25/0.5/1/2/4×
/// calibrated capacity, 32 requests per point.
pub fn sweep_synthetic() -> ServingSweep {
    sweep_network(
        &synthetic_net(),
        "synthetic",
        &serve_config(),
        &[0.25, 0.5, 1.0, 2.0, 4.0],
        32,
    )
}

/// Renders a sweep as a text table.
pub fn render_sweep(sweep: &ServingSweep) -> String {
    let mut t = TextTable::new(vec![
        "offered rps".into(),
        "achieved rps".into(),
        "p50".into(),
        "p99".into(),
        "mean queue".into(),
        "mean batch".into(),
        "live p99".into(),
    ]);
    for p in &sweep.points {
        t.row(vec![
            format!("{:.0}", p.offered_rps),
            format!("{:.0}", p.achieved_rps),
            format!("{:.2} ms", p.p50.as_secs_f64() * 1e3),
            format!("{:.2} ms", p.p99.as_secs_f64() * 1e3),
            format!("{:.2} ms", p.mean_queue.as_secs_f64() * 1e3),
            format!("{:.2}", p.mean_batch),
            format!("{:.2} ms", p.live_p99.as_secs_f64() * 1e3),
        ]);
    }
    format!(
        "Offered-load sweep — {} network, capacity ≈ {:.0} rps\n{}",
        sweep.network,
        sweep.capacity_rps,
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Overload: admission control vs the legacy FIFO at the same 2× load
// ---------------------------------------------------------------------------

/// Warmup requests per overload server — enough worker-fed samples to
/// calibrate the sched server's admission estimator before measuring.
/// The estimator is an EWMA that moves 20% per sample, so after four
/// samples the first — the slow, cold one — still carried half the
/// weight and inflated the deadline derived from it; after sixteen it
/// carries under 4%.
const OVERLOAD_WARMUPS: usize = 16;

/// Per-request deadline, as a multiple of the calibrated no-backlog
/// completion estimate. Five estimates of queueing budget keeps the
/// bound `p99 ≤ 2 × deadline` safely clear of batch-formation and
/// dispatch-channel slack while still forcing heavy shedding at 2×
/// offered load.
const OVERLOAD_DEADLINE_MULT: f64 = 5.0;

/// One server's behaviour under the overload run.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Open-loop submit attempts (after warmup).
    pub submitted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests rejected at admission (sched server only).
    pub rejected: usize,
    /// Requests admitted but shed at dispatch — their deadline expired
    /// while queued (sched server only).
    pub expired: usize,
    /// p99 end-to-end latency over completed requests.
    pub p99: Duration,
    /// p99 over completions from the first half of the submission order.
    pub first_half_p99: Duration,
    /// p99 over completions from the second half of the submission
    /// order — on the FIFO this keeps growing with the queue.
    pub second_half_p99: Duration,
}

/// Admission ON vs the legacy FIFO at the same ≥2× overload, from
/// [`overload_comparison`].
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Network name.
    pub network: String,
    /// Calibrated capacity, requests/second.
    pub capacity_rps: f64,
    /// Offered arrival rate (2× capacity), requests/second.
    pub offered_rps: f64,
    /// The per-request deadline handed to the sched server, derived
    /// from the admission controller's calibrated no-backlog estimate
    /// (× `OVERLOAD_DEADLINE_MULT`).
    pub deadline: Duration,
    /// The sched server (admission ON).
    pub sched: OverloadPoint,
    /// The legacy FIFO server (admission OFF).
    pub fifo: OverloadPoint,
}

impl OverloadReport {
    /// The acceptance bound: admission keeps completed-request p99
    /// within 2× the per-request completion budget (itself a fixed
    /// multiple of the analytic completion estimate) — requests that
    /// would exceed it are rejected up front or shed at dispatch, so
    /// accepted-request latency cannot grow with the offered load.
    pub fn admission_bounds_p99(&self) -> bool {
        self.sched.p99 <= self.deadline * 2
    }

    /// True when the FIFO's second-half p99 exceeds its first-half p99
    /// by at least `factor` — the unbounded-queue growth signature.
    pub fn fifo_p99_grows(&self, factor: f64) -> bool {
        self.fifo.second_half_p99.as_secs_f64() >= self.fifo.first_half_p99.as_secs_f64() * factor
    }
}

/// Drives one overload server: prewarm + warmups (which calibrate the
/// sched estimator), then `requests` paced open-loop submits. With
/// `deadline_mult` each request carries a deadline derived from the
/// live completion estimate; `None` runs the plain FIFO path.
fn overload_run(
    net: &Network,
    cfg: &ServeConfig,
    compiler: &PlanCompiler,
    offered_rps: f64,
    requests: usize,
    deadline_mult: Option<f64>,
) -> (OverloadPoint, Option<Duration>) {
    let shape = net.stages()[0].shape;
    let server = Server::start_with_compiler(net.clone(), cfg.clone(), compiler.clone());
    server.prewarm().expect("synthetic network plans");
    for warm in 0..OVERLOAD_WARMUPS {
        server
            .submit(synth::ifmap(&shape, 1, 2000 + warm as u64))
            .expect("warmup submit")
            .wait()
            .expect("warmup inference");
    }
    let deadline = deadline_mult.map(|mult| {
        let est = server
            .estimated_completion()
            .expect("warmed sched server is calibrated");
        Duration::from_secs_f64(est.as_secs_f64() * mult)
    });
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(requests);
    let mut rejected = 0usize;
    for i in 0..requests {
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let input = synth::ifmap(&shape, 1, i as u64);
        let opts = deadline.map_or_else(SubmitOptions::default, |d| {
            SubmitOptions::default().deadline(d)
        });
        match server.submit_with(input, opts) {
            Ok(handle) => handles.push(handle),
            Err(ServeError::Admission(_)) => rejected += 1,
            Err(e) => panic!("overload submit failed: {e}"),
        }
    }
    let mut expired = 0usize;
    for handle in handles {
        match handle.wait() {
            Ok(_) => {}
            Err(ServeError::Admission(AdmissionError::DeadlinePassed)) => expired += 1,
            Err(e) => panic!("overload inference failed: {e}"),
        }
    }
    let stats = server.shutdown();
    // Ids are minted once per submit attempt (warmups first), so the
    // half split below follows submission order on both servers.
    let warm = OVERLOAD_WARMUPS as u64;
    let half = warm + requests as u64 / 2;
    let totals = |lo: u64, hi: u64| -> Vec<Duration> {
        stats
            .records
            .iter()
            .filter(|r| r.id >= lo && r.id < hi)
            .map(|r| r.latency.total())
            .collect()
    };
    let all = totals(warm, u64::MAX);
    let point = OverloadPoint {
        submitted: requests,
        completed: all.len(),
        rejected,
        expired,
        p99: percentile(&all, 0.99),
        first_half_p99: percentile(&totals(warm, half), 0.99),
        second_half_p99: percentile(&totals(half, u64::MAX), 0.99),
    };
    (point, deadline)
}

/// Runs the admission-vs-FIFO overload comparison: both servers face
/// the same open-loop load at 2× the calibrated capacity with a shared
/// plan cache; the FIFO's queue is sized to absorb every request (no
/// submit-side backpressure), so its latency growth is visible.
pub fn overload_comparison(requests: usize) -> OverloadReport {
    let net = synthetic_net();
    let mut cfg = serve_config();
    // Half-size batches keep one batch's service well inside the
    // deadline budget; the oversized queue lets the legacy path absorb
    // the whole overload instead of blocking the client.
    cfg.policy.max_batch = 2;
    cfg.queue_capacity = requests + 8;
    let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
    let capacity_rps = calibrate(&net, &cfg, &compiler);
    let offered_rps = capacity_rps * 2.0;
    let mut sched_cfg = cfg.clone();
    sched_cfg.sched = Some(SchedConfig::new());
    let (sched, deadline) = overload_run(
        &net,
        &sched_cfg,
        &compiler,
        offered_rps,
        requests,
        Some(OVERLOAD_DEADLINE_MULT),
    );
    let (fifo, _) = overload_run(&net, &cfg, &compiler, offered_rps, requests, None);
    OverloadReport {
        network: "synthetic".to_string(),
        capacity_rps,
        offered_rps,
        deadline: deadline.expect("sched run derives a deadline"),
        sched,
        fifo,
    }
}

/// Renders the overload comparison as a text table.
pub fn render_overload(report: &OverloadReport) -> String {
    let ms = |d: Duration| format!("{:.2} ms", d.as_secs_f64() * 1e3);
    let mut t = TextTable::new(vec![
        "server".into(),
        "submitted".into(),
        "completed".into(),
        "rejected".into(),
        "expired".into(),
        "p99".into(),
        "1st-half p99".into(),
        "2nd-half p99".into(),
    ]);
    for (name, p) in [("admission", &report.sched), ("fifo", &report.fifo)] {
        t.row(vec![
            name.into(),
            p.submitted.to_string(),
            p.completed.to_string(),
            p.rejected.to_string(),
            p.expired.to_string(),
            ms(p.p99),
            ms(p.first_half_p99),
            ms(p.second_half_p99),
        ]);
    }
    format!(
        "Overload — {} network, offered {:.0} rps (2× capacity {:.0}), deadline {}\n{}",
        report.network,
        report.offered_rps,
        report.capacity_rps,
        ms(report.deadline),
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Fairness: DRR completed-throughput shares under a two-tenant flood
// ---------------------------------------------------------------------------

/// Per-tenant completed counts at the sampling instant of a
/// [`fairness_drr`] run.
#[derive(Debug, Clone)]
pub struct FairnessReport {
    /// The two tenants' configured DRR weights, `[hog, guest]`.
    pub weights: [f64; 2],
    /// Completed requests per tenant when the threshold was crossed
    /// (both tenants still backlogged).
    pub completed: [u64; 2],
    /// Observed completed-throughput ratio `hog / guest`.
    pub observed_ratio: f64,
    /// The configured weight ratio.
    pub target_ratio: f64,
}

impl FairnessReport {
    /// True when the observed ratio is within `tolerance` (relative,
    /// e.g. `0.15`) of the weight ratio.
    pub fn within(&self, tolerance: f64) -> bool {
        (self.observed_ratio - self.target_ratio).abs() <= self.target_ratio * tolerance
    }
}

/// Floods one single-worker, unbatched sched server with `per_tenant`
/// requests from each of two tenants weighted 3:1, then samples the
/// per-tenant completed counters the moment `threshold` total requests
/// have finished — while both lanes are still backlogged, so the DRR
/// arbiter (not queue exhaustion) sets the shares. `threshold × 3/4`
/// must stay below `per_tenant` for that to hold.
pub fn fairness_drr(per_tenant: usize, threshold: u64) -> FairnessReport {
    assert!(
        threshold as usize * 3 <= per_tenant * 4,
        "threshold would drain the heavy tenant's lane"
    );
    let net = synthetic_net();
    let shape = net.stages()[0].shape;
    let mut cfg = serve_config();
    // One worker and batch size 1: every dispatch is one DRR decision,
    // so the shares are free of batch-quantization noise.
    cfg.workers = 1;
    cfg.policy = BatchPolicy::unbatched();
    cfg.queue_capacity = 2 * per_tenant + 8;
    let mut sched = SchedConfig::new()
        .tenant(TenantSpec::new("hog").weight(3.0))
        .tenant(TenantSpec::new("guest").weight(1.0));
    // Both tenants sit at the same tier; disabling aging keeps the
    // shares free of tier-promotion transients at interval boundaries.
    sched.aging = Duration::ZERO;
    cfg.sched = Some(sched);
    let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
    let server = Server::start_with_compiler(net, cfg, compiler);
    server.prewarm().expect("synthetic network plans");
    let (hog, guest) = (TenantId(1), TenantId(2));
    let mut handles = Vec::with_capacity(2 * per_tenant);
    for i in 0..per_tenant {
        for tenant in [hog, guest] {
            handles.push(
                server
                    .submit_with(
                        synth::ifmap(&shape, 1, i as u64),
                        SubmitOptions::tenant(tenant),
                    )
                    .expect("burst submit"),
            );
        }
    }
    // Poll the live counters; the crossing sample is the measurement.
    let completed = loop {
        let tenants = server.tenants();
        let (h, g) = (
            tenants[hog.index()].completed,
            tenants[guest.index()].completed,
        );
        if h + g >= threshold {
            break [h, g];
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    server.shutdown(); // drains the remaining backlog
    for handle in handles {
        handle.wait().expect("drained inference");
    }
    FairnessReport {
        weights: [3.0, 1.0],
        completed,
        observed_ratio: completed[0] as f64 / completed[1].max(1) as f64,
        target_ratio: 3.0,
    }
}

/// Renders the fairness run as a text table.
pub fn render_fairness(report: &FairnessReport) -> String {
    let mut t = TextTable::new(vec![
        "tenant".into(),
        "weight".into(),
        "completed".into(),
        "share".into(),
    ]);
    let total = (report.completed[0] + report.completed[1]).max(1) as f64;
    for (name, i) in [("hog", 0), ("guest", 1)] {
        t.row(vec![
            name.into(),
            format!("{:.0}", report.weights[i]),
            report.completed[i].to_string(),
            format!("{:.0}%", report.completed[i] as f64 / total * 100.0),
        ]);
    }
    format!(
        "DRR fairness — observed ratio {:.2} vs target {:.0} ({} within 15%)\n{}",
        report.observed_ratio,
        report.target_ratio,
        if report.within(0.15) { "is" } else { "NOT" },
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_compile_report_hits_the_cache() {
        let report = compile_vgg();
        assert_eq!(report.layers.len(), 13);
        assert_eq!(report.cache.misses, 9, "9 distinct VGG CONV shapes");
        assert_eq!(report.cache.hits, 4);
        assert!(report.cache.hit_rate() > 0.0);
        assert!(report.analytic_delay() > 0.0);
        assert!(render_compile(&report).contains("cache hits"));
    }

    #[test]
    fn alexnet_compile_report_covers_every_layer() {
        let report = compile_alexnet();
        assert_eq!(report.layers.len(), 5);
        // AlexNet's five CONV shapes are all distinct: no hits expected.
        assert_eq!(report.cache.misses, 5);
        assert!(report.layers.iter().all(|l| l.delay > 0.0));
    }

    #[test]
    fn small_sweep_records_latency_and_throughput() {
        // A reduced sweep keeps the measured test quick; the full-size
        // monotonicity claim is exercised by the root serving test.
        let sweep = sweep_network(
            &synthetic_net(),
            "synthetic",
            &serve_config(),
            &[0.5, 4.0],
            8,
        );
        assert!(sweep.capacity_rps > 0.0);
        assert_eq!(sweep.points.len(), 2);
        for p in &sweep.points {
            assert_eq!(p.completed, 8);
            assert!(p.achieved_rps > 0.0);
            assert!(p.p99 >= p.p50);
            assert!(p.live_p99 > Duration::ZERO, "live snapshot was sampled");
        }
        assert!(render_sweep(&sweep).contains("achieved rps"));
    }

    #[test]
    fn overload_breach_dumps_exactly_once() {
        use eyeriss_serve::SloSpec;
        let net = synthetic_net();
        let shape = net.stages()[0].shape;
        let mut cfg = serve_config();
        // A 1 ns p99 bound no real inference can meet: every request
        // violates, so the monitor must breach — and latch, producing
        // exactly one flight dump no matter how many more requests
        // violate afterwards.
        cfg.slos = vec![SloSpec::p99_latency("p99-1ns", Duration::from_nanos(1)).min_events(4)];
        let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
        let server = Server::start_with_compiler(net, cfg.clone(), compiler);
        server.prewarm().expect("synthetic network plans");
        let handles: Vec<_> = (0..12)
            .map(|i| {
                server
                    .submit(synth::ifmap(&shape, 1, i))
                    .expect("breach submit")
            })
            .collect();
        for h in handles {
            h.wait().expect("breach inference");
        }
        let dumps = server.slo_monitor().dumps();
        assert_eq!(dumps.len(), 1, "latched breach dumps exactly once");
        let dump = &dumps[0];
        assert_eq!(dump.slo, "p99-1ns");
        assert!(dump.short_burn >= 1.0 && dump.long_burn >= 1.0);
        assert!(!dump.records.is_empty(), "flight ring covers the breach");
        assert!(
            dump.records.iter().all(|r| r.end_ns <= dump.at_ns),
            "flight records precede the breach instant"
        );
        assert!(dump.records.iter().all(|r| r.latency_ns > 1));
        server.shutdown();
    }

    #[test]
    fn admission_bounds_p99_at_2x_overload_while_fifo_grows() {
        let report = overload_comparison(32);
        assert!(report.offered_rps >= report.capacity_rps * 2.0);
        assert!(report.sched.completed > 0, "some requests must be accepted");
        assert!(
            report.sched.rejected + report.sched.expired > 0,
            "2× overload must shed work on the sched server"
        );
        // Admission ON: accepted-request p99 stays within the bounded
        // completion budget no matter the offered load.
        assert!(
            report.admission_bounds_p99(),
            "sched p99 {:?} exceeds 2× deadline {:?}",
            report.sched.p99,
            report.deadline
        );
        // Admission OFF: the FIFO completes everything, and its p99
        // keeps growing with the queue across the run.
        assert_eq!(report.fifo.completed, report.fifo.submitted);
        assert_eq!(report.fifo.rejected + report.fifo.expired, 0);
        assert!(
            report.fifo_p99_grows(1.3),
            "fifo halves {:?} → {:?} did not grow",
            report.fifo.first_half_p99,
            report.fifo.second_half_p99
        );
        let table = render_overload(&report);
        assert!(table.contains("admission") && table.contains("fifo"));
    }

    #[test]
    fn drr_shares_converge_to_weights() {
        let report = fairness_drr(60, 60);
        assert!(report.completed[0] + report.completed[1] >= 60);
        assert!(
            report.within(0.15),
            "observed ratio {:.2} outside 15% of {:.0} ({:?})",
            report.observed_ratio,
            report.target_ratio,
            report.completed
        );
        assert!(render_fairness(&report).contains("within 15%"));
    }
}
