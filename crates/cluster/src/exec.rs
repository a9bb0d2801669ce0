//! The parallel cluster executor.
//!
//! Runs one partitioned layer across `M` independent
//! [`eyeriss_sim::Accelerator`]s — one OS thread per array via
//! `eyeriss-par`, the calling thread being one of them — then reassembles the per-tile psums into the full
//! ofmap **bit-exactly** and aggregates per-array statistics under the
//! shared-DRAM contention model.

use crate::contention::SharedDram;
use crate::error::ClusterError;
use crate::health::ClusterHealth;
use crate::partition::{split, Partition, Tile};
use crate::plan::ClusterPlan;
use crate::stats::{merge_stats, ClusterStats};
use eyeriss_arch::AcceleratorConfig;
use eyeriss_nn::{abft, reference, Fix16, LayerProblem, LayerShape, Tensor4};
use eyeriss_sim::fault::{ArrayInjection, FaultInjector, FaultKind};
use eyeriss_sim::passes::RsMapping;
use eyeriss_sim::{Accelerator, SimStats};
use eyeriss_telemetry::{Counter, Gauge, Histogram, Telemetry};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The result of one cluster-level layer execution.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// The partition that was executed.
    pub partition: Partition,
    /// Full-precision psums `[N][M][E][E]`, bit-exact against a
    /// single-array [`Accelerator::run_conv`] of the same layer.
    pub psums: Tensor4<i32>,
    /// Per-array measurements plus contention accounting.
    pub stats: ClusterStats,
}

impl ClusterRun {
    /// The quantized, ReLU-activated ofmap (what the cluster writes back).
    pub fn ofmap(&self) -> Tensor4<Fix16> {
        reference::quantize(&self.psums, true)
    }
}

/// A cluster of identical Eyeriss arrays behind one shared DRAM channel.
///
/// # Example
///
/// ```
/// use eyeriss_cluster::{Cluster, Partition};
/// use eyeriss_arch::AcceleratorConfig;
/// use eyeriss_nn::{reference, synth, LayerProblem, LayerShape};
/// use eyeriss_sim::Accelerator;
///
/// let shape = LayerShape::conv(8, 3, 13, 3, 2)?;
/// let problem = LayerProblem::new(shape, 4);
/// let input = synth::ifmap(&shape, 4, 1);
/// let weights = synth::filters(&shape, 2);
/// let bias = synth::biases(&shape, 3);
///
/// let cluster = Cluster::new(4, AcceleratorConfig::eyeriss_chip());
/// let run = cluster.execute_partition(Partition::Batch, &problem, &input, &weights, &bias)?;
/// assert_eq!(run.psums, reference::conv_accumulate(&shape, 4, &input, &weights, &bias));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    arrays: usize,
    config: AcceleratorConfig,
    shared_dram: SharedDram,
    zero_gating: bool,
    rlc: bool,
    /// Pooled per-worker execution contexts: one warmed [`Accelerator`]
    /// (scratch arena + mapping memo) per worker thread, checked out for
    /// the duration of one layer execution and returned afterwards, so
    /// back-to-back layers reuse buffers instead of reallocating them.
    /// Shared across clones (a cloned handle serves the same pool).
    ctx_pool: Arc<Mutex<Vec<Accelerator>>>,
    /// Where spans and cluster metrics are recorded (defaults to the
    /// disabled [`Telemetry::global`] instance).
    tele: Telemetry,
    /// Pre-resolved handles so the execution hot path never takes the
    /// registry lock.
    contention_stalls: Counter,
    reassemble_ns: Histogram,
    /// Shared array health: strikes and quarantine. Execution runs on
    /// the healthy subset only; an `Arc` lets a serving supervisor keep
    /// quarantine decisions across worker restarts.
    health: Arc<ClusterHealth>,
    /// Seeded fault injector (chaos testing); `None` ⇒ zero-cost.
    faults: Option<FaultInjector>,
    /// Offset added to local array indices when polling the injector,
    /// so fault specs can target one fleet-global array across a pool
    /// of per-worker clusters.
    array_base: usize,
    /// ABFT checksum verification of every tile's psums (off by
    /// default; costs one reference accumulator per filter group, see
    /// [`abft::checksum_macs`]).
    abft: bool,
    faults_detected: Counter,
    quarantined_gauge: Gauge,
}

impl Cluster {
    /// Creates a cluster of `arrays` identical arrays.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is zero.
    pub fn new(arrays: usize, config: AcceleratorConfig) -> Self {
        assert!(arrays > 0, "cluster needs at least one array");
        let tele = Telemetry::global().clone();
        let contention_stalls = tele.counter("cluster.contention_stalls");
        let reassemble_ns = tele.histogram("cluster.reassemble_ns");
        let faults_detected = tele.counter("sim.faults_detected");
        let quarantined_gauge = tele.gauge("cluster.quarantined_arrays");
        Cluster {
            arrays,
            config,
            shared_dram: SharedDram::eyeriss_chip(),
            zero_gating: false,
            rlc: false,
            ctx_pool: Arc::new(Mutex::new(Vec::new())),
            tele,
            contention_stalls,
            reassemble_ns,
            health: Arc::new(ClusterHealth::new(arrays)),
            faults: None,
            array_base: 0,
            abft: false,
            faults_detected,
            quarantined_gauge,
        }
    }

    /// Routes this cluster's spans (`cluster.execute`, per-array
    /// `cluster.array`, `cluster.reassemble` — idle time is the gap
    /// between consecutive array spans) and metrics
    /// (`cluster.contention_stalls`, `cluster.reassemble_ns`) to `tele`
    /// instead of the global instance. Pooled execution contexts are
    /// rebuilt so per-array `sim.*` spans land in the same instance.
    pub fn with_telemetry(mut self, tele: Telemetry) -> Self {
        self.contention_stalls = tele.counter("cluster.contention_stalls");
        self.reassemble_ns = tele.histogram("cluster.reassemble_ns");
        self.faults_detected = tele.counter("sim.faults_detected");
        self.quarantined_gauge = tele.gauge("cluster.quarantined_arrays");
        self.tele = tele;
        self.ctx_pool = Arc::new(Mutex::new(Vec::new()));
        self
    }

    /// Attaches a seeded fault injector (chaos testing). `None` — the
    /// default — keeps execution fault-free at zero cost.
    pub fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Offsets local array indices by `base` when polling the fault
    /// injector, making injector scopes fleet-global across a pool of
    /// per-worker clusters (worker `w` with `A` arrays uses `w · A`).
    pub fn array_base(mut self, base: usize) -> Self {
        self.array_base = base;
        self
    }

    /// Enables ABFT checksum verification of every executed tile's
    /// psums. A mismatch fails the run with [`ClusterError::Corrupted`]
    /// and strikes the offending array.
    pub fn abft(mut self, on: bool) -> Self {
        self.abft = on;
        self
    }

    /// Shares an existing health record (strikes + quarantine), e.g.
    /// one that must survive a supervisor's worker restart.
    ///
    /// # Panics
    ///
    /// Panics if the record tracks a different array count.
    pub fn with_health(mut self, health: Arc<ClusterHealth>) -> Self {
        assert_eq!(
            health.arrays(),
            self.arrays,
            "health record array count mismatch"
        );
        self.health = health;
        self
    }

    /// The shared health record.
    pub fn health(&self) -> &Arc<ClusterHealth> {
        &self.health
    }

    /// Number of healthy (non-quarantined) arrays execution runs on.
    pub fn healthy_arrays(&self) -> usize {
        self.health.healthy_count()
    }

    /// Quarantines `array` (cluster-local index); returns `true` when
    /// newly quarantined. Updates the `cluster.quarantined_arrays`
    /// gauge. Execution thereafter runs on the surviving subset — plans
    /// must be recompiled for the new width.
    pub fn quarantine(&self, array: usize) -> bool {
        let newly = self.health.quarantine(array);
        if newly {
            self.quarantined_gauge.inc();
        }
        newly
    }

    /// Builds one array's execution context with this cluster's feature
    /// flags.
    fn new_ctx(&self) -> Accelerator {
        Accelerator::new(self.config)
            .zero_gating(self.zero_gating)
            .rlc(self.rlc)
            .telemetry(self.tele.clone())
    }

    /// Checks a pooled context out (or builds one on first use). The
    /// pool holds plain reusable arenas, so a panicking worker cannot
    /// leave it in an invalid state — recover from poisoning rather
    /// than cascading the panic across the pool.
    fn checkout_ctx(&self) -> Accelerator {
        self.ctx_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| self.new_ctx())
    }

    /// Overrides the shared DRAM channel model.
    pub fn shared_dram(mut self, dram: SharedDram) -> Self {
        self.shared_dram = dram;
        self
    }

    /// Enables zero-gating on every array.
    pub fn zero_gating(mut self, on: bool) -> Self {
        self.zero_gating = on;
        // Pooled contexts bake the feature flags in; start a fresh pool.
        self.ctx_pool = Arc::new(Mutex::new(Vec::new()));
        self
    }

    /// Enables run-length compression on every array's DRAM traffic.
    pub fn rlc(mut self, on: bool) -> Self {
        self.rlc = on;
        self.ctx_pool = Arc::new(Mutex::new(Vec::new()));
        self
    }

    /// Number of arrays.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// The per-array accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Runs one CONV or FC layer problem partitioned over the cluster
    /// with an explicitly chosen partition.
    ///
    /// Each array executes its tiles sequentially on a private
    /// [`Accelerator`]; arrays run concurrently. The reassembled psums
    /// are bit-exact against the single-array simulator because every
    /// partition is output-disjoint (see [`crate::partition`]).
    ///
    /// # Errors
    ///
    /// Fails if the partition cannot split this layer over the cluster,
    /// or any array's simulation fails.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with the problem.
    pub fn execute_partition(
        &self,
        partition: Partition,
        problem: &LayerProblem,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<ClusterRun, ClusterError> {
        let (shape, n_batch) = (&problem.shape, problem.batch);
        assert_eq!(
            input.dims(),
            [n_batch, shape.in_channels(), shape.h, shape.h],
            "ifmap dims mismatch"
        );
        assert_eq!(
            weights.dims(),
            [shape.m, shape.c, shape.r, shape.r],
            "filter dims mismatch"
        );
        assert_eq!(bias.len(), shape.m, "bias length mismatch");

        let healthy = self.health.healthy_indices();
        let subs = split(partition, shape, n_batch, healthy.len())?;
        let work: Vec<Vec<(&Tile, Option<RsMapping>)>> = subs
            .iter()
            .map(|s| s.tiles.iter().map(|t| (t, None)).collect())
            .collect();
        self.execute_work(
            partition, shape, n_batch, &work, &healthy, input, weights, bias,
        )
    }

    /// Executes one layer problem from a precompiled [`ClusterPlan`] —
    /// the serving path: partitioning and mapping search already happened
    /// at plan-compile time (possibly in a *previous process*, with the
    /// plan reloaded from disk), so this only validates that the plan
    /// matches `problem` and this cluster's width, then runs the tiles.
    ///
    /// # Errors
    ///
    /// Fails with [`ClusterError::Infeasible`] if the plan was compiled
    /// for a different layer shape, batch size or array count, or if any
    /// array's simulation fails.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with the problem.
    pub fn execute(
        &self,
        plan: &ClusterPlan,
        problem: &LayerProblem,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<ClusterRun, ClusterError> {
        let healthy = self.health.healthy_indices();
        if plan.arrays != healthy.len() {
            return Err(ClusterError::infeasible(format!(
                "plan compiled for {} arrays, cluster has {} healthy",
                plan.arrays,
                healthy.len()
            )));
        }
        validate_coverage(
            plan.per_array
                .iter()
                .flat_map(|a| &a.tiles)
                .map(|t| &t.tile),
            &problem.shape,
            problem.batch,
        )?;
        // The plan's winning per-tile mappings execute directly — no
        // repeat mapping search at request time. Mappings from another
        // dataflow's space, or compiled against a physically larger grid
        // (pre-filtered here) or larger scratchpad/buffer capacities
        // (caught at execution), fall back to this cluster's own
        // row-stationary search.
        let work: Vec<Vec<(&Tile, Option<RsMapping>)>> = plan
            .per_array
            .iter()
            .map(|a| {
                a.tiles
                    .iter()
                    .map(|t| {
                        let mapping = RsMapping::from_params(&t.mapping.params)
                            .filter(|m| self.mapping_fits(m, &t.tile.shape));
                        (&t.tile, mapping)
                    })
                    .collect()
            })
            .collect();
        self.execute_work(
            plan.partition,
            &problem.shape,
            problem.batch,
            &work,
            &healthy,
            input,
            weights,
            bias,
        )
    }

    /// True when a planned mapping fits this cluster's per-array
    /// resources ([`RsMapping::fits`] — the enumerator's own grid and
    /// RF feasibility constraints). Guards against executing a plan
    /// compiled for a physically larger array — the psum interleaving
    /// in particular is not re-checked at execution, so it must be
    /// screened here.
    fn mapping_fits(&self, m: &RsMapping, shape: &LayerShape) -> bool {
        m.fits(shape, &self.config)
    }

    /// Runs prepared per-array tile lists — worker threads with pooled
    /// execution contexts — and reassembles psums and statistics. Shared
    /// tail of [`Cluster::execute_partition`] and [`Cluster::execute`].
    ///
    /// `healthy` maps work-list positions to physical array indices:
    /// the `i`-th tile list runs as array `healthy[i]`, so fault
    /// injection, strikes and quarantine stay attached to physical
    /// arrays while work is laid out over the surviving subset.
    #[allow(clippy::too_many_arguments)]
    fn execute_work(
        &self,
        partition: Partition,
        shape: &LayerShape,
        n_batch: usize,
        work: &[Vec<(&Tile, Option<RsMapping>)>],
        healthy: &[usize],
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<ClusterRun, ClusterError> {
        type TileOut<'t> = (&'t Tile, Tensor4<i32>);
        type ArrayWork<'w, 't> = (usize, &'w [(&'t Tile, Option<RsMapping>)]);
        debug_assert_eq!(work.len(), healthy.len());
        let _exec_span = self
            .tele
            .span_with("cluster.execute", "cluster", work.len() as u64);
        // All but one array's work runs on spawned threads, which do
        // not inherit this thread's ambient trace context — capture it
        // here and install it in each worker so `cluster.array` (and
        // the `sim.*` spans beneath it) parent under `cluster.execute`.
        let ctx = self.tele.current_context();
        let indexed: Vec<ArrayWork<'_, '_>> = work
            .iter()
            .zip(healthy)
            .map(|(w, &phys)| (phys, w.as_slice()))
            .collect();
        let per_array: Vec<Result<(Vec<TileOut<'_>>, SimStats), ClusterError>> =
            eyeriss_par::par_map_slice_with(
                &indexed,
                || PooledCtx::checkout(self),
                |pooled, &(array_index, tiles)| {
                    let _ctx_guard = self.tele.in_context(ctx);
                    let _busy_span =
                        self.tele
                            .span_with("cluster.array", "cluster", array_index as u64);
                    // One injector run per array per layer execution;
                    // `None` when injection is disabled (the fault-free
                    // hot path pays this single branch).
                    let inject: Option<ArrayInjection> = match &self.faults {
                        Some(f) if !tiles.is_empty() => {
                            Some(f.poll_array(self.array_base + array_index))
                        }
                        _ => None,
                    };
                    let mut stats = SimStats::default();
                    if let Some(inj) = &inject {
                        if inj.crash {
                            self.health.note_strike(array_index);
                            return Err(ClusterError::Crashed { array: array_index });
                        }
                        if inj.stall {
                            // A straggler, not an error: real wall-clock
                            // delay plus visible stall cycles.
                            std::thread::sleep(Duration::from_micros(500));
                            stats.stall_cycles += STALL_PENALTY_CYCLES;
                        }
                    }
                    let acc = pooled.get();
                    let mut outs = Vec::with_capacity(tiles.len());
                    for (tile_index, &(tile, mapping)) in tiles.iter().enumerate() {
                        let mut t_input = tile_input(input, shape, tile);
                        let mut t_weights = tile_weights(weights, shape, tile);
                        let t_bias = &bias[tile.m0..tile.m0 + tile.shape.m];
                        // ABFT checksum over the *pristine* operands —
                        // formed before any injected corruption, so
                        // corrupted weights/ifmaps are caught through
                        // the psums they produce.
                        let expected = self.abft.then(|| {
                            abft::expected_sum(&tile.shape, tile.n, &t_input, &t_weights, t_bias)
                        });
                        if tile_index == 0 {
                            if let Some(inj) = &inject {
                                for c in &inj.corruptions {
                                    match c.kind {
                                        FaultKind::WeightBitFlip => {
                                            flip_word(t_weights.to_mut().as_mut_slice(), c.salt)
                                        }
                                        FaultKind::DramCorrupt => {
                                            flip_word(t_input.to_mut().as_mut_slice(), c.salt)
                                        }
                                        _ => {}
                                    }
                                }
                            }
                        }
                        // A planned mapping that proves infeasible on
                        // *this* cluster's capacities (e.g. a plan
                        // compiled against a larger RF or buffer) falls
                        // back to the local search, matching the
                        // pre-planned-execution behavior for foreign
                        // plans instead of failing the request.
                        let planned = mapping.and_then(|m| {
                            acc.run_conv_planned(
                                m,
                                &tile.shape,
                                tile.n,
                                &t_input,
                                &t_weights,
                                t_bias,
                            )
                            .ok()
                        });
                        let mut run = match planned {
                            Some(run) => run,
                            None => {
                                acc.run_conv(&tile.shape, tile.n, &t_input, &t_weights, t_bias)?
                            }
                        };
                        if tile_index == 0 {
                            if let Some(inj) = &inject {
                                for c in &inj.corruptions {
                                    if c.kind == FaultKind::PsumBitFlip {
                                        flip_psum(run.psums.as_mut_slice(), c.salt);
                                    }
                                }
                            }
                        }
                        if let Some(expected) = expected {
                            if expected != abft::actual_sum(&run.psums) {
                                self.faults_detected.inc();
                                self.health.note_strike(array_index);
                                return Err(ClusterError::Corrupted { array: array_index });
                            }
                        }
                        merge_stats(&mut stats, &run.stats);
                        outs.push((tile, run.psums));
                    }
                    // A clean completion wipes transient strikes: only
                    // *consecutive* failures reach the quarantine
                    // threshold.
                    self.health.clear_strikes(array_index);
                    Ok((outs, stats))
                },
            );

        let mut psums = Tensor4::zeros([n_batch, shape.m, shape.e, shape.e]);
        let mut stats = ClusterStats::default();
        let reassemble_started = self.tele.enabled().then(Instant::now);
        let reassemble_span = self.tele.span("cluster.reassemble", "cluster");
        for result in per_array {
            let (outs, array_stats) = result?;
            stats.per_array.push(array_stats);
            for (tile, tile_psums) in outs {
                // Row-contiguous reassembly: one bounds check per kept
                // row instead of four index multiplications per element.
                for z in 0..tile.n {
                    for f in 0..tile.shape.m {
                        for y in 0..tile.keep_y {
                            let dst = psums.row_mut(tile.img0 + z, tile.m0 + f, tile.y0 + y);
                            dst[tile.x0..tile.x0 + tile.keep_x]
                                .copy_from_slice(&tile_psums.row(z, f, y)[..tile.keep_x]);
                        }
                    }
                }
            }
        }

        drop(reassemble_span);
        if let Some(t0) = reassemble_started {
            self.reassemble_ns.record_duration(t0.elapsed());
        }

        // Shared-channel contention on top of the critical-path array.
        stats.contention_stalls = self
            .shared_dram
            .contention_stall(stats.dram_words(), stats.critical_cycles());
        self.contention_stalls.add(stats.contention_stalls);

        Ok(ClusterRun {
            partition,
            psums,
            stats,
        })
    }
}

/// Stall cycles charged to an array when a [`FaultKind::Stall`] fires —
/// a fixed straggler penalty, visible in the run's statistics.
const STALL_PENALTY_CYCLES: u64 = 100_000;

/// Flips one seed-chosen bit of one seed-chosen Q8.8 word in `words`.
fn flip_word(words: &mut [Fix16], salt: u64) {
    if words.is_empty() {
        return;
    }
    let idx = (salt % words.len() as u64) as usize;
    let bit = ((salt >> 48) % 16) as u32;
    words[idx] = Fix16::from_raw(words[idx].raw() ^ (1i16 << bit));
}

/// Flips one seed-chosen bit of one seed-chosen psum accumulator.
fn flip_psum(psums: &mut [i32], salt: u64) {
    if psums.is_empty() {
        return;
    }
    let idx = (salt % psums.len() as u64) as usize;
    let bit = ((salt >> 48) % 32) as u32;
    psums[idx] ^= 1i32 << bit;
}

/// A pooled execution context checked out of a [`Cluster`]'s pool for
/// the duration of one worker's run; returned on drop so the next layer
/// reuses its scratch arena and mapping memo.
struct PooledCtx<'a> {
    pool: &'a Mutex<Vec<Accelerator>>,
    acc: Option<Accelerator>,
}

impl<'a> PooledCtx<'a> {
    fn checkout(cluster: &'a Cluster) -> Self {
        PooledCtx {
            pool: &cluster.ctx_pool,
            acc: Some(cluster.checkout_ctx()),
        }
    }

    fn get(&mut self) -> &mut Accelerator {
        self.acc.as_mut().expect("context present until drop")
    }
}

impl Drop for PooledCtx<'_> {
    fn drop(&mut self) {
        if let (Some(acc), Ok(mut pool)) = (self.acc.take(), self.pool.lock()) {
            pool.push(acc);
        }
    }
}

/// Extracts the ifmap slice a tile needs: its image range and — for
/// spatial tiles — the halo-exact window starting at ofmap row/column
/// `(y0, x0)`, zero-padded where a square-padded edge tile reads past the
/// plane (those outputs are cropped on reassembly). A tile covering the
/// whole input borrows it (no copy at all).
fn tile_input<'a>(
    input: &'a Tensor4<Fix16>,
    orig: &LayerShape,
    tile: &Tile,
) -> Cow<'a, Tensor4<Fix16>> {
    let s = &tile.shape;
    if tile.y0 == 0 && tile.x0 == 0 && s.h == orig.h && tile.img0 == 0 && tile.n == input.dims()[0]
    {
        return Cow::Borrowed(input);
    }
    let (row0, col0) = (tile.y0 * orig.u, tile.x0 * orig.u);
    // Row-contiguous extraction: copy the in-bounds span of each ifmap
    // row; rows and columns past a square-padded edge stay zero.
    let mut t = Tensor4::zeros([tile.n, s.in_channels(), s.h, s.h]);
    let cols = s.h.min(orig.h.saturating_sub(col0));
    if cols == 0 {
        return Cow::Owned(t);
    }
    for z in 0..tile.n {
        for c in 0..s.in_channels() {
            for i in 0..s.h.min(orig.h.saturating_sub(row0)) {
                let src = input.row(tile.img0 + z, c, row0 + i);
                t.row_mut(z, c, i)[..cols].copy_from_slice(&src[col0..col0 + cols]);
            }
        }
    }
    Cow::Owned(t)
}

/// Checks that `tiles` describe exactly the output volume of
/// `(shape, n)`: every tile stays in bounds, shares the layer's kernel
/// geometry, and the kept outputs sum to the full `n·M·E²` volume.
/// Disjointness holds by construction for plans built from
/// [`crate::partition::split`]; the volume check catches a plan compiled
/// for a different layer or batch.
fn validate_coverage<'t>(
    tiles: impl Iterator<Item = &'t Tile>,
    shape: &LayerShape,
    n: usize,
) -> Result<(), ClusterError> {
    let mut kept: u64 = 0;
    for tile in tiles {
        let in_bounds = tile.img0 + tile.n <= n
            && tile.m0 + tile.shape.m <= shape.m
            && tile.y0 + tile.keep_y <= shape.e
            && tile.x0 + tile.keep_x <= shape.e
            && tile.keep_y <= tile.shape.e
            && tile.keep_x <= tile.shape.e;
        let same_kernel = tile.shape.c == shape.c
            && tile.shape.r == shape.r
            && tile.shape.u == shape.u
            && tile.shape.groups == shape.groups;
        if !in_bounds || !same_kernel {
            return Err(ClusterError::infeasible(
                "plan does not match this layer shape/batch",
            ));
        }
        kept += (tile.n * tile.shape.m * tile.keep_y * tile.keep_x) as u64;
    }
    let want = n as u64 * shape.m as u64 * (shape.e * shape.e) as u64;
    if kept != want {
        return Err(ClusterError::infeasible(format!(
            "plan covers {kept} outputs, layer has {want}"
        )));
    }
    Ok(())
}

/// Extracts the filter-bank slice `m0..m0 + shape.m` a tile needs; a
/// tile keeping the full bank borrows it.
fn tile_weights<'a>(
    weights: &'a Tensor4<Fix16>,
    orig: &LayerShape,
    tile: &Tile,
) -> Cow<'a, Tensor4<Fix16>> {
    if tile.m0 == 0 && tile.shape.m == orig.m {
        return Cow::Borrowed(weights);
    }
    let s = &tile.shape;
    // Filter banks slice along the outermost dimension only: each
    // filter's `[C][R][R]` volume is one contiguous copy.
    let mut t = Tensor4::zeros([s.m, s.c, s.r, s.r]);
    for f in 0..s.m {
        t.image_mut(f).copy_from_slice(weights.image(tile.m0 + f));
    }
    Cow::Owned(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use eyeriss_nn::synth;

    fn small_config() -> AcceleratorConfig {
        AcceleratorConfig {
            grid: eyeriss_arch::GridDims::new(6, 8),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 32.0 * 1024.0,
        }
    }

    fn check_bit_exact(shape: &LayerShape, n: usize, arrays: usize, p: Partition) -> ClusterRun {
        let input = synth::ifmap(shape, n, 31);
        let weights = synth::filters(shape, 32);
        let bias = synth::biases(shape, 33);
        let cluster = Cluster::new(arrays, small_config());
        let run = cluster
            .execute_partition(p, &LayerProblem::new(*shape, n), &input, &weights, &bias)
            .unwrap();
        let golden = reference::conv_accumulate(shape, n, &input, &weights, &bias);
        assert_eq!(run.psums, golden, "{p} diverged on {arrays} arrays");
        run
    }

    #[test]
    fn batch_partition_is_bit_exact() {
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let run = check_bit_exact(&shape, 5, 2, Partition::Batch);
        assert_eq!(run.stats.per_array.len(), 2);
        assert_eq!(run.stats.macs(), shape.macs(5));
    }

    #[test]
    fn channel_partition_is_bit_exact() {
        let shape = LayerShape::conv(10, 4, 11, 3, 2).unwrap();
        check_bit_exact(&shape, 2, 4, Partition::OfmapChannel);
    }

    #[test]
    fn grouped_layers_batch_split_and_reject_channel_splits() {
        let shape = LayerShape::depthwise(4, 11, 3, 1).unwrap();
        let run = check_bit_exact(&shape, 4, 2, Partition::Batch);
        assert_eq!(run.stats.macs(), shape.macs(4));
        let err = partition::split(Partition::OfmapChannel, &shape, 4, 2);
        assert!(err.is_err(), "channel splits must reject grouped layers");
    }

    #[test]
    fn fmap_partition_is_bit_exact() {
        let shape = LayerShape::conv(4, 3, 15, 3, 1).unwrap(); // E = 13
        let run = check_bit_exact(&shape, 2, 4, Partition::FmapTile);
        // Padded edge tiles compute extra (cropped) outputs.
        assert!(run.stats.macs() >= shape.macs(2));
    }

    #[test]
    fn hybrid_partition_is_bit_exact() {
        let shape = LayerShape::conv(9, 2, 9, 3, 2).unwrap();
        check_bit_exact(
            &shape,
            4,
            4,
            Partition::Hybrid {
                batch_ways: 2,
                channel_ways: 2,
            },
        );
    }

    #[test]
    fn fc_channel_partition_is_bit_exact() {
        let shape = LayerShape::fully_connected(12, 6, 4).unwrap();
        check_bit_exact(&shape, 3, 3, Partition::OfmapChannel);
    }

    #[test]
    fn every_enumerated_partition_is_bit_exact() {
        let shape = LayerShape::conv(8, 3, 11, 3, 2).unwrap();
        for arrays in [2usize, 4] {
            for p in partition::enumerate(&shape, 4, arrays) {
                check_bit_exact(&shape, 4, arrays, p);
            }
        }
    }

    #[test]
    fn sparsity_features_survive_partitioning() {
        let shape = LayerShape::conv(6, 3, 12, 3, 1).unwrap();
        let input = synth::sparse_ifmap(&shape, 4, 7, 0.6);
        let weights = synth::filters(&shape, 8);
        let bias = synth::biases(&shape, 9);
        let cluster = Cluster::new(2, small_config()).zero_gating(true).rlc(true);
        let run = cluster
            .execute_partition(
                Partition::Batch,
                &LayerProblem::new(shape, 4),
                &input,
                &weights,
                &bias,
            )
            .unwrap();
        let golden = reference::conv_accumulate(&shape, 4, &input, &weights, &bias);
        assert_eq!(run.psums, golden);
        let skipped: u64 = run.stats.per_array.iter().map(|s| s.skipped_macs).sum();
        assert!(skipped > 0, "zero-gating inactive");
    }

    #[test]
    fn contention_stalls_appear_under_scarce_bandwidth() {
        let shape = LayerShape::conv(8, 4, 13, 3, 1).unwrap();
        let input = synth::ifmap(&shape, 4, 3);
        let weights = synth::filters(&shape, 4);
        let bias = synth::biases(&shape, 5);
        let starved = Cluster::new(4, small_config())
            .shared_dram(SharedDram::new(0.05))
            .execute_partition(
                Partition::Batch,
                &LayerProblem::new(shape, 4),
                &input,
                &weights,
                &bias,
            )
            .unwrap();
        let ample = Cluster::new(4, small_config())
            .shared_dram(SharedDram::scaled(4))
            .execute_partition(
                Partition::Batch,
                &LayerProblem::new(shape, 4),
                &input,
                &weights,
                &bias,
            )
            .unwrap();
        assert!(starved.stats.contention_stalls > 0);
        assert!(starved.stats.cluster_cycles() > ample.stats.cluster_cycles());
    }

    #[test]
    fn single_array_cluster_matches_accelerator_stats() {
        let shape = LayerShape::conv(5, 3, 11, 3, 2).unwrap();
        let input = synth::ifmap(&shape, 2, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let cluster = Cluster::new(1, small_config());
        let crun = cluster
            .execute_partition(
                Partition::Batch,
                &LayerProblem::new(shape, 2),
                &input,
                &weights,
                &bias,
            )
            .unwrap();
        let mut acc = Accelerator::new(small_config());
        let arun = acc.run_conv(&shape, 2, &input, &weights, &bias).unwrap();
        assert_eq!(crun.psums, arun.psums);
        assert_eq!(crun.stats.per_array[0].cycles, arun.stats.cycles);
        assert_eq!(crun.stats.macs(), arun.stats.macs);
    }

    #[test]
    fn ofmap_applies_relu_quantization() {
        let shape = LayerShape::conv(4, 2, 9, 3, 2).unwrap();
        let run = check_bit_exact(&shape, 2, 2, Partition::Batch);
        let quantized = run.ofmap();
        assert!(quantized.iter().all(|v| v.raw() >= 0), "ReLU not applied");
    }

    #[test]
    fn planned_execution_is_bit_exact_and_reusable() {
        use crate::plan::plan_layer;
        use eyeriss_arch::cost::TableIv;
        use eyeriss_dataflow::registry::builtin;
        use eyeriss_dataflow::search::Objective;
        use eyeriss_dataflow::DataflowKind;

        let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let hw = small_config();
        let plan = plan_layer(
            builtin(DataflowKind::RowStationary),
            &problem,
            2,
            &hw,
            &TableIv,
            &SharedDram::scaled(2),
            Objective::EnergyDelayProduct,
        )
        .unwrap();
        let cluster = Cluster::new(2, hw);
        // The same compiled plan serves several requests.
        for seed in [5u64, 6, 7] {
            let input = synth::ifmap(&shape, 4, seed);
            let weights = synth::filters(&shape, seed + 100);
            let bias = synth::biases(&shape, seed + 200);
            let run = cluster
                .execute(&plan, &problem, &input, &weights, &bias)
                .unwrap();
            let golden = reference::conv_accumulate(&shape, 4, &input, &weights, &bias);
            assert_eq!(run.psums, golden, "planned run diverged (seed {seed})");
            assert_eq!(run.partition, plan.partition);
        }
    }

    #[test]
    fn plan_from_larger_capacity_config_falls_back_to_local_search() {
        use crate::plan::plan_layer;
        use eyeriss_arch::cost::TableIv;
        use eyeriss_dataflow::registry::builtin;
        use eyeriss_dataflow::search::Objective;
        use eyeriss_dataflow::DataflowKind;

        let shape = LayerShape::conv(8, 4, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let mut plan = plan_layer(
            builtin(DataflowKind::RowStationary),
            &problem,
            2,
            &small_config(),
            &TableIv,
            &SharedDram::scaled(2),
            Objective::Energy,
        )
        .unwrap();
        // Model a plan compiled against a chip with far larger
        // scratchpads: overwrite one tile's winning mapping with an RF
        // interleaving this cluster cannot hold (p·q·R + q·n·R + p·n
        // far beyond the 256-word RF). Execution must screen it and
        // fall back to the local search instead of failing the request
        // or silently running an infeasible mapping.
        let tampered = &mut plan.per_array[0].tiles[0];
        tampered.mapping.params = eyeriss_dataflow::candidate::MappingParams::RowStationary {
            n: tampered.tile.n,
            p: 64,
            q: tampered.tile.shape.c,
            e: 1,
            r: 1,
            t: 1,
            filter_resident: true,
        };
        let cluster = Cluster::new(2, small_config());
        // Self-validating precondition: the tampered mapping really is
        // screened on this chip.
        let screened = plan
            .per_array
            .iter()
            .flat_map(|a| &a.tiles)
            .filter(|t| {
                RsMapping::from_params(&t.mapping.params)
                    .is_some_and(|m| !cluster.mapping_fits(&m, &t.tile.shape))
            })
            .count();
        assert_eq!(screened, 1, "fixture must exceed the small RF");

        let input = synth::ifmap(&shape, 4, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let run = cluster
            .execute(&plan, &problem, &input, &weights, &bias)
            .unwrap();
        let golden = reference::conv_accumulate(&shape, 4, &input, &weights, &bias);
        assert_eq!(run.psums, golden, "fallback execution diverged");
        // The fallback is observable: screened mappings re-search with
        // the local configuration, which is exactly what the unplanned
        // path does for the same partition — the per-array measurements
        // must therefore coincide (they would not under the big-RF
        // mappings, which interleave more work per PE).
        let unplanned = cluster
            .execute_partition(plan.partition, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(
            run.stats.per_array, unplanned.stats.per_array,
            "fallback did not take the local-search path"
        );
    }

    #[test]
    fn planned_execution_rejects_mismatched_plan() {
        use crate::plan::plan_layer;
        use eyeriss_arch::cost::TableIv;
        use eyeriss_dataflow::registry::builtin;
        use eyeriss_dataflow::search::Objective;
        use eyeriss_dataflow::DataflowKind;

        let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let hw = small_config();
        let plan = plan_layer(
            builtin(DataflowKind::RowStationary),
            &problem,
            2,
            &hw,
            &TableIv,
            &SharedDram::scaled(2),
            Objective::Energy,
        )
        .unwrap();
        // Wrong cluster width.
        let wide = Cluster::new(4, hw);
        let input = synth::ifmap(&shape, 4, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let err = wide
            .execute(&plan, &problem, &input, &weights, &bias)
            .unwrap_err();
        assert!(matches!(err, ClusterError::Infeasible(_)));
        // Wrong batch for the plan (tensors sized for the claimed batch).
        let cluster = Cluster::new(2, hw);
        let input2 = synth::ifmap(&shape, 2, 1);
        let err = cluster
            .execute(
                &plan,
                &LayerProblem::new(shape, 2),
                &input2,
                &weights,
                &bias,
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::Infeasible(_)));
    }

    #[test]
    fn injected_crash_fails_with_array_identity() {
        use eyeriss_sim::fault::{FaultPlan, FaultSpec};
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let input = synth::ifmap(&shape, 4, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let plan = FaultPlan::new(9).spec(FaultSpec::once(FaultKind::Crash, 0).target(1));
        let cluster = Cluster::new(2, small_config()).with_faults(Some(FaultInjector::new(plan)));
        let err = cluster
            .execute_partition(Partition::Batch, &problem, &input, &weights, &bias)
            .unwrap_err();
        assert!(matches!(err, ClusterError::Crashed { array: 1 }), "{err}");
        assert_eq!(cluster.health().strikes(1), 1);
        // The crash was transient (Once): the next run is clean and
        // clears the strike.
        let run = cluster
            .execute_partition(Partition::Batch, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(
            run.psums,
            reference::conv_accumulate(&shape, 4, &input, &weights, &bias)
        );
        assert_eq!(cluster.health().strikes(1), 0);
    }

    #[test]
    fn abft_detects_every_injected_corruption_kind() {
        use eyeriss_sim::fault::{FaultPlan, FaultSpec};
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let input = synth::ifmap(&shape, 4, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        for kind in [
            FaultKind::PsumBitFlip,
            FaultKind::WeightBitFlip,
            FaultKind::DramCorrupt,
        ] {
            // Several seeds so the flip lands on different words/bits.
            for seed in 0..5u64 {
                let plan = FaultPlan::new(seed).spec(FaultSpec::once(kind, 0).target(0));
                let injector = FaultInjector::new(plan);
                let cluster = Cluster::new(2, small_config())
                    .abft(true)
                    .with_faults(Some(injector.clone()));
                let err = cluster
                    .execute_partition(Partition::Batch, &problem, &input, &weights, &bias)
                    .unwrap_err();
                assert!(
                    matches!(err, ClusterError::Corrupted { array: 0 }),
                    "{kind:?} seed {seed} not detected: {err}"
                );
                assert_eq!(injector.injected(), 1);
            }
        }
    }

    #[test]
    fn abft_passes_clean_runs_bit_exactly() {
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let input = synth::ifmap(&shape, 4, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let cluster = Cluster::new(2, small_config()).abft(true);
        let run = cluster
            .execute_partition(Partition::Batch, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(
            run.psums,
            reference::conv_accumulate(&shape, 4, &input, &weights, &bias)
        );
    }

    #[test]
    fn quarantine_replans_onto_healthy_subset() {
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let input = synth::ifmap(&shape, 4, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let cluster = Cluster::new(4, small_config());
        assert!(cluster.quarantine(2));
        assert!(!cluster.quarantine(2), "idempotent");
        assert_eq!(cluster.healthy_arrays(), 3);
        // Unplanned execution splits over the three survivors.
        let run = cluster
            .execute_partition(Partition::Batch, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(run.stats.per_array.len(), 3);
        assert_eq!(
            run.psums,
            reference::conv_accumulate(&shape, 4, &input, &weights, &bias)
        );
        // Planned execution must match the degraded width, not the
        // configured one.
        use crate::plan::plan_layer;
        use eyeriss_arch::cost::TableIv;
        use eyeriss_dataflow::registry::builtin;
        use eyeriss_dataflow::search::Objective;
        use eyeriss_dataflow::DataflowKind;
        let stale = plan_layer(
            builtin(DataflowKind::RowStationary),
            &problem,
            4,
            &small_config(),
            &TableIv,
            &SharedDram::scaled(4),
            Objective::Energy,
        )
        .unwrap();
        let err = cluster
            .execute(&stale, &problem, &input, &weights, &bias)
            .unwrap_err();
        assert!(matches!(err, ClusterError::Infeasible(_)));
        let resized = plan_layer(
            builtin(DataflowKind::RowStationary),
            &problem,
            3,
            &small_config(),
            &TableIv,
            &SharedDram::scaled(3),
            Objective::Energy,
        )
        .unwrap();
        let run = cluster
            .execute(&resized, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(
            run.psums,
            reference::conv_accumulate(&shape, 4, &input, &weights, &bias)
        );
    }

    #[test]
    fn stall_injection_slows_but_stays_bit_exact() {
        use eyeriss_sim::fault::{FaultPlan, FaultSpec};
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let problem = LayerProblem::new(shape, 4);
        let input = synth::ifmap(&shape, 4, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let plan = FaultPlan::new(3).spec(FaultSpec::once(FaultKind::Stall, 0).target(0));
        let cluster = Cluster::new(2, small_config()).with_faults(Some(FaultInjector::new(plan)));
        let run = cluster
            .execute_partition(Partition::Batch, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(
            run.psums,
            reference::conv_accumulate(&shape, 4, &input, &weights, &bias)
        );
        let stalls: u64 = run.stats.per_array.iter().map(|s| s.stall_cycles).sum();
        assert!(stalls >= STALL_PENALTY_CYCLES, "stall penalty missing");
    }

    #[test]
    fn infeasible_partition_reports_error() {
        let shape = LayerShape::conv(4, 2, 9, 3, 2).unwrap();
        let input = synth::ifmap(&shape, 1, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let cluster = Cluster::new(4, small_config());
        let err = cluster
            .execute_partition(
                Partition::Batch,
                &LayerProblem::new(shape, 1),
                &input,
                &weights,
                &bias,
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::Infeasible(_)));
    }
}
