//! Layer-by-layer replays through the public entry points of each crate
//! layer, timed from outside: `cluster` (`Cluster::execute` with the
//! served plan), `sim` (`Accelerator::run_conv_planned` / `run_pool` on
//! one warmed chip) and `nn` (the reference forward pass). Each replay
//! chains stage outputs into the next stage and checks the final output
//! against `Network::forward`.

use crate::stats;
use eyeriss_arch::cost::TableIv;
use eyeriss_arch::AcceleratorConfig;
use eyeriss_cluster::Cluster;
use eyeriss_nn::network::Network;
use eyeriss_nn::{reference, synth, Fix16, LayerKind, LayerProblem, Tensor4};
use eyeriss_serve::{CompiledPlan, StagePlan};
use eyeriss_sim::Accelerator;
use eyeriss_telemetry::{SpanRecord, Telemetry, TelemetrySnapshot};
use std::time::Instant;

/// A fixed replay batch: independent of `--seed`, so the simulated
/// counts compare exactly across runs and commits.
pub fn replay_input(net: &Network, batch: usize) -> Tensor4<Fix16> {
    synth::ifmap(&net.stages()[0].shape, batch, 0xE7E5)
}

/// One stage of the single-chip replay.
#[derive(Debug, Clone)]
pub struct SimStage {
    /// Median host time of one call, milliseconds.
    pub ms: f64,
    pub cycles: u64,
    pub macs: u64,
    pub dram_words: u64,
    pub pe_util: f64,
    /// Table IV energy, in units of one MAC.
    pub energy: f64,
}

/// One stage of the cluster replay.
#[derive(Debug, Clone)]
pub struct ClusterStage {
    pub name: String,
    /// Median host time of one call, milliseconds.
    pub ms: f64,
    /// Critical-path over mean per-array cycles (1.0 for POOL stages,
    /// which run on one chip).
    pub imbalance: f64,
    /// Median `cluster.execute` time not covered by its `cluster.array`
    /// spans, milliseconds (traced replays of weighted stages only).
    pub self_ms: f64,
}

/// Times `reps` calls of `f` and returns the median in milliseconds
/// with the last result.
fn timed<T>(
    reps: usize,
    tele: &Telemetry,
    name: &'static str,
    arg: u64,
    mut f: impl FnMut() -> T,
) -> (f64, T, Vec<u64>) {
    let mut times = Vec::with_capacity(reps);
    let mut ids = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let span = tele.span_with(name, "bench", arg);
        ids.push(span.id());
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(span);
        last = Some(out);
    }
    let ms = stats::median(&times).expect("at least one rep");
    (ms, last.expect("at least one rep"), ids)
}

/// Replays every stage on one warmed chip. Returns the stages, the
/// final output, and whether every repeat reproduced the first run's
/// simulated counts.
pub fn sim_replay(
    net: &Network,
    input: &Tensor4<Fix16>,
    reps: usize,
    tele: &Telemetry,
) -> (Vec<SimStage>, Tensor4<Fix16>, bool) {
    let hw = AcceleratorConfig::eyeriss_chip();
    let mut chip = Accelerator::new(hw).telemetry(tele.clone());
    let batch = input.dims()[0];
    let mut act = input.clone();
    let mut stages = Vec::new();
    let mut repeatable = true;
    for (i, stage) in net.stages().iter().enumerate() {
        let shape = &stage.shape;
        let (ms, (out, runs)) = match shape.kind {
            LayerKind::Pool => {
                let mut runs = Vec::new();
                let (ms, out, _) = timed(reps, tele, "bench.sim", i as u64, || {
                    let (out, stats) = chip.run_pool(shape, batch, &act);
                    runs.push(stats);
                    out
                });
                (ms, (out, runs))
            }
            LayerKind::Conv | LayerKind::FullyConnected => {
                let w = stage.weights.as_ref().expect("weighted stage");
                let b = stage.bias.as_ref().expect("weighted stage");
                // Warm-up: searches the mapping once and sizes the scratch.
                let mapping = chip
                    .run_conv(shape, batch, &act, w, b)
                    .expect("replayed stage maps on one chip")
                    .mapping;
                let mut runs = Vec::new();
                let (ms, psums, _) = timed(reps, tele, "bench.sim", i as u64, || {
                    let run = chip
                        .run_conv_planned(mapping, shape, batch, &act, w, b)
                        .expect("warmed mapping replays");
                    runs.push(run.stats);
                    run.psums
                });
                (ms, (reference::quantize(&psums, stage.relu), runs))
            }
        };
        let first = &runs[0];
        let energy = first.energy(&TableIv);
        repeatable &= runs.iter().all(|r| {
            (
                r.total_cycles(),
                r.macs,
                r.dram_raw_words,
                r.energy(&TableIv).to_bits(),
            ) == (
                first.total_cycles(),
                first.macs,
                first.dram_raw_words,
                energy.to_bits(),
            )
        });
        stages.push(SimStage {
            ms,
            cycles: first.total_cycles(),
            macs: first.macs,
            dram_words: first.dram_raw_words,
            pe_util: first.utilization(hw.num_pes()),
            energy,
        });
        act = out;
    }
    (stages, act, repeatable)
}

/// Replays every stage through the served plan at `plan.batch`, on a
/// cluster built like a serving worker's. With `tele` enabled, each
/// weighted stage's `cluster.execute` self time is read back from the
/// exported spans.
pub fn cluster_replay(
    net: &Network,
    plan: &CompiledPlan,
    input: &Tensor4<Fix16>,
    reps: usize,
    tele: &Telemetry,
) -> (Vec<ClusterStage>, Tensor4<Fix16>) {
    let hw = AcceleratorConfig::eyeriss_chip();
    let cluster = Cluster::new(plan.arrays, hw).with_telemetry(tele.clone());
    let mut pool_chip = Accelerator::new(hw).telemetry(tele.clone());
    let batch = plan.batch;
    let mut act = input.clone();
    let mut stages = Vec::new();
    let mut span_ids = Vec::new();
    for (i, (stage, splan)) in net.stages().iter().zip(&plan.stages).enumerate() {
        let (ms, out, imbalance, ids) = match splan {
            StagePlan::Pool { shape, .. } => {
                let (ms, out, _) = timed(reps, tele, "bench.cluster", i as u64, || {
                    pool_chip.run_pool(shape, batch, &act).0
                });
                (ms, out, 1.0, Vec::new())
            }
            StagePlan::Layer {
                shape, relu, plan, ..
            } => {
                let w = stage.weights.as_ref().expect("weighted stage");
                let b = stage.bias.as_ref().expect("weighted stage");
                let problem = LayerProblem::new(*shape, batch);
                let (ms, run, ids) = timed(reps, tele, "bench.cluster", i as u64, || {
                    cluster
                        .execute(plan, &problem, &act, w, b)
                        .expect("served plan replays")
                });
                let imbalance = run.stats.imbalance();
                (ms, reference::quantize(&run.psums, *relu), imbalance, ids)
            }
        };
        stages.push(ClusterStage {
            name: stage.name.clone(),
            ms,
            imbalance,
            self_ms: 0.0,
        });
        span_ids.push(ids);
        act = out;
    }
    if tele.enabled() {
        let snap = tele.snapshot();
        for (stage, ids) in stages.iter_mut().zip(&span_ids) {
            let selfs: Vec<f64> = ids
                .iter()
                .filter_map(|&id| execute_self_ms(&snap, id))
                .collect();
            stage.self_ms = stats::median(&selfs).unwrap_or(0.0);
        }
    }
    (stages, act)
}

/// Self time of the `cluster.execute` span under the benchmark span
/// `parent`: its duration minus the union of its `cluster.array`
/// children. `None` when the span ring no longer holds it.
fn execute_self_ms(snap: &TelemetrySnapshot, parent: u64) -> Option<f64> {
    let exec = snap
        .spans
        .iter()
        .find(|s| s.parent == parent && s.name == "cluster.execute")?;
    let mut children: Vec<&SpanRecord> = snap
        .spans
        .iter()
        .filter(|s| s.parent == exec.id && s.name == "cluster.array")
        .collect();
    children.sort_by_key(|s| s.start_ns);
    let (mut covered, mut reach) = (0u64, exec.start_ns);
    for c in children {
        let (lo, hi) = (c.start_ns.max(reach), c.start_ns + c.dur_ns);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    Some(exec.dur_ns.saturating_sub(covered) as f64 / 1e6)
}

/// Times the reference forward pass stage by stage; returns per-stage
/// median milliseconds and the final output.
pub fn nn_replay(
    net: &Network,
    input: &Tensor4<Fix16>,
    reps: usize,
    tele: &Telemetry,
) -> (Vec<(String, f64)>, Tensor4<Fix16>) {
    let batch = input.dims()[0];
    let mut act = input.clone();
    let mut stages = Vec::new();
    for (i, stage) in net.stages().iter().enumerate() {
        let (ms, out, _) = timed(reps, tele, "bench.nn", i as u64, || {
            match stage.shape.kind {
                LayerKind::Pool => reference::max_pool(&stage.shape, batch, &act),
                LayerKind::Conv | LayerKind::FullyConnected => {
                    let w = stage.weights.as_ref().expect("weighted stage");
                    let b = stage.bias.as_ref().expect("weighted stage");
                    let psums = reference::conv_accumulate(&stage.shape, batch, &act, w, b);
                    reference::quantize(&psums, stage.relu)
                }
            }
        });
        stages.push((stage.name.clone(), ms));
        act = out;
    }
    (stages, act)
}
