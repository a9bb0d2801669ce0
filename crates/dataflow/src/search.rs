//! The mapping optimizer of Section VI-C, generic over [`Dataflow`].
//!
//! "For each dataflow, there exists a set of parameters ... that describes
//! the optimal mapping in terms of energy efficiency under a given CNN
//! layer shape. It is obtained through an optimization process with
//! objective functions defined in Eq. (3) and (4), constrained by the
//! hardware resources." Here the optimization is an exhaustive scan of the
//! (divisor-pruned) candidate space each [`Dataflow`] enumerates — the
//! optimizer never learns *which* dataflow it is searching, so spaces
//! registered through [`crate::DataflowRegistry`] beyond the paper's six
//! are searched identically.
//!
//! # Streaming, sharded scan
//!
//! The space is never collected. [`optimize`] asks the dataflow for its
//! [shards](Dataflow::shards) and scans them across cores with
//! `eyeriss_par`; each shard [streams](Dataflow::visit) its candidates
//! into a band keeper that scores them as they arrive and keeps only the
//! running minimum and the candidates within the utilization tie band of
//! it, pruning whenever the minimum drops. The bands are merged in shard
//! order — the space's enumeration order — and the tie-break fold runs
//! over that short list, so the winner is bit-identical to scoring the
//! whole [`enumerate`](Dataflow::enumerate)d list. Memory scales with
//! the near-optimal band, not with the space.

use crate::candidate::MappingCandidate;
use crate::dataflow::Dataflow;
use crate::id::DataflowId;
use eyeriss_arch::access::DataType;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_arch::cost::{CostModel, CostReport};
use eyeriss_arch::energy::Level;
use eyeriss_nn::LayerProblem;
use eyeriss_telemetry::{Counter, Histogram, Telemetry};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Handles into [`Telemetry::global`] resolved once per process.
///
/// [`optimize`] keeps its signature (it is called from every layer of
/// the workspace), so its instrumentation reports to the *global*
/// instance only: enable it via `Telemetry::global().set_enabled(true)`
/// or `Engine::builder().telemetry_enabled(true)`. While the global
/// instance is disabled the cost per search is two relaxed loads.
struct SearchTele {
    searches: Counter,
    candidates: Counter,
    wall_ns: Histogram,
    memo_hits: Counter,
    memo_misses: Counter,
}

fn search_tele() -> &'static SearchTele {
    static TELE: OnceLock<SearchTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let t = Telemetry::global();
        SearchTele {
            searches: t.counter("search.searches"),
            candidates: t.counter("search.candidates_scored"),
            wall_ns: t.histogram("search.wall_ns"),
            memo_hits: t.counter("search.memo_hits"),
            memo_misses: t.counter("search.memo_misses"),
        }
    })
}

/// The optimization objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize total normalized energy (the paper's default).
    Energy,
    /// Minimize energy x delay (used for the EDP discussion).
    EnergyDelayProduct,
}

impl Objective {
    /// Stable wire label ("energy" / "edp").
    pub fn label(self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::EnergyDelayProduct => "edp",
        }
    }

    /// The objective carrying `label`, if any (inverse of
    /// [`Objective::label`]).
    pub fn from_label(label: &str) -> Option<Objective> {
        match label {
            "energy" => Some(Objective::Energy),
            "edp" => Some(Objective::EnergyDelayProduct),
            _ => None,
        }
    }

    /// Folds an `(energy, delay)` pair into this objective's scalar score
    /// (lower is better). The single place the objective taxonomy is
    /// matched — search, cluster planning and serving all score through
    /// here, generic over whatever [`CostModel`] produced the inputs.
    pub fn score(self, energy: f64, delay: f64) -> f64 {
        match self {
            Objective::Energy => energy,
            Objective::EnergyDelayProduct => energy * delay,
        }
    }

    /// [`Objective::score`] over a priced [`CostReport`].
    pub fn score_report(self, report: &CostReport) -> f64 {
        self.score(report.total_energy, report.delay)
    }
}

/// Finds the best mapping of `problem` in `df`'s space on `hw` under
/// `objective`, priced by `cost` — any registered [`CostModel`], searched
/// exactly like the canonical Table IV model.
/// Returns `None` when the dataflow cannot operate (e.g. WS
/// at batch 64 on 256 PEs, Fig. 11a).
///
/// # Example
///
/// ```
/// use eyeriss_dataflow::{registry, search, DataflowKind};
/// use eyeriss_dataflow::search::Objective;
/// use eyeriss_arch::TableIv;
/// use eyeriss_nn::{LayerProblem, LayerShape};
///
/// let nlr = registry::builtin(DataflowKind::NoLocalReuse);
/// let problem = LayerProblem::new(LayerShape::conv(384, 256, 15, 3, 1)?, 16); // CONV3
/// let best = search::optimize(nlr, &problem, &nlr.comparison_hardware(256),
///                             &TableIv, Objective::Energy);
/// assert!(best.is_some());
/// # Ok::<(), eyeriss_nn::ShapeError>(())
/// ```
pub fn optimize(
    df: &dyn Dataflow,
    problem: &LayerProblem,
    hw: &AcceleratorConfig,
    cost: &dyn CostModel,
    objective: Objective,
) -> Option<MappingCandidate> {
    let tele = search_tele();
    let start = Telemetry::global().enabled().then(Instant::now);
    let found = optimize_impl(df, problem, hw, cost, objective, tele);
    if let Some(t0) = start {
        tele.searches.inc();
        tele.wall_ns.record_duration(t0.elapsed());
    }
    found
}

fn optimize_impl(
    df: &dyn Dataflow,
    problem: &LayerProblem,
    hw: &AcceleratorConfig,
    cost: &dyn CostModel,
    objective: Objective,
    tele: &SearchTele,
) -> Option<MappingCandidate> {
    // The exhaustive scan is hot: snapshot the model's ten numbers once
    // so scoring a candidate never re-enters the trait object. The local
    // arithmetic replicates `CostModel::energy_of`/`delay_of` operation
    // for operation, so scores stay bit-identical to the provided
    // methods.
    let costs: Vec<f64> = Level::ALL.iter().map(|&l| cost.energy_cost(l)).collect();
    let bandwidths: Vec<f64> = Level::ALL.iter().map(|&l| cost.bandwidth(l)).collect();
    let alu_cost = costs[Level::ALL.len() - 1];
    let needs_delay = objective == Objective::EnergyDelayProduct;
    let score = |c: &MappingCandidate| -> f64 {
        let data: f64 = DataType::ALL
            .iter()
            .map(|&t| {
                Level::ALL
                    .iter()
                    .zip(&costs)
                    .map(|(&l, &ec)| c.profile.of(t).at_level(l) * ec)
                    .sum::<f64>()
            })
            .sum();
        let energy = data + c.profile.alu_ops * alu_cost;
        let delay = if needs_delay {
            let mut d = c.profile.alu_ops / c.active_pes as f64;
            for (&l, &bw) in Level::ALL.iter().zip(&bandwidths) {
                if l == Level::Alu {
                    continue;
                }
                let words: f64 = DataType::ALL
                    .iter()
                    .map(|&t| c.profile.of(t).at_level(l))
                    .sum();
                d = d.max(words / bw);
            }
            d
        } else {
            0.0
        };
        objective.score(energy, delay)
    };
    let screen = |c: &MappingCandidate| -> f64 {
        if !c.profile.is_valid() {
            return f64::NAN;
        }
        score(c)
    };
    // The exhaustive scan is the hot path of every sweep experiment:
    // each shard of the space streams through its own band keeper on
    // its own core, so the space is never materialized and only the
    // near-optimal band outlives the scan.
    let shards: Vec<usize> = (0..df.shards(problem, hw)).collect();
    let bands = eyeriss_par::par_map_slice(&shards, |&shard| {
        let mut band = Band::new();
        df.visit(problem, hw, shard, &mut |c| band.offer(screen(&c), c));
        band
    });
    tele.candidates
        .add(bands.iter().map(|b| b.streamed).sum::<u64>());
    let best = bands.iter().map(|b| b.best).fold(f64::INFINITY, f64::min);
    if !best.is_finite() {
        return None;
    }
    // Near-ties in the objective are broken toward PE utilization: the
    // paper notes RS's "mapping of 1D convolution primitives efficiently
    // utilizes available PEs", and its Fig. 13 delays presume mappings
    // that fill the array when doing so costs (almost) nothing. Among
    // equally utilized near-ties the later candidate wins (the `max_by`
    // convention this fold replaces). The bands, merged in shard order,
    // hold every candidate within the cut in enumeration order.
    let cut = best * UTILIZATION_TIE_BAND;
    let mut winner: Option<(f64, MappingCandidate)> = None;
    for (s, c) in bands.into_iter().flat_map(|b| b.kept) {
        // `partial_cmp` excludes the NaN invalid-candidate markers.
        if !matches!(
            s.partial_cmp(&cut),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        ) {
            continue;
        }
        let keep_current = winner.as_ref().is_some_and(|(ws, w)| {
            c.active_pes
                .cmp(&w.active_pes)
                .then_with(|| ws.partial_cmp(&s).expect("finite scores"))
                == std::cmp::Ordering::Less
        });
        if !keep_current {
            winner = Some((s, c));
        }
    }
    winner.map(|(_, c)| c)
}

/// One shard's streaming scan state: the running minimum score and every
/// candidate within [`UTILIZATION_TIE_BAND`] of it, in arrival order.
///
/// The band is exact for the final selection. A candidate within the cut
/// of the *global* minimum is within the cut of this shard's running
/// minimum at every moment (that minimum never falls below the global
/// one), so it is never pruned; candidates outside the band of a running
/// minimum can never re-enter it, because minima only fall.
struct Band {
    best: f64,
    kept: Vec<(f64, MappingCandidate)>,
    streamed: u64,
}

impl Band {
    fn new() -> Self {
        Band {
            best: f64::INFINITY,
            kept: Vec::new(),
            streamed: 0,
        }
    }

    /// Scores one streamed candidate (`NAN` marks an invalid profile).
    fn offer(&mut self, score: f64, cand: MappingCandidate) {
        self.streamed += 1;
        if score < self.best {
            self.best = score;
            let cut = score * UTILIZATION_TIE_BAND;
            self.kept.retain(|&(s, _)| s <= cut);
        }
        if score <= self.best * UTILIZATION_TIE_BAND {
            self.kept.push((score, cand));
        }
    }
}

/// Optimizes a whole list of problems in `df`'s space, deduplicating
/// identical entries so each distinct problem is searched exactly once.
/// Result `i` corresponds to `problems[i]`.
pub fn optimize_all(
    df: &dyn Dataflow,
    problems: &[LayerProblem],
    hw: &AcceleratorConfig,
    cost: &dyn CostModel,
    objective: Objective,
) -> Vec<Option<MappingCandidate>> {
    let mut memo = MappingMemo::new(hw, cost, objective);
    problems.iter().map(|p| memo.best(df, p)).collect()
}

/// A memoizing front-end over [`optimize`] for workloads that search many
/// layers against one fixed `(hardware, cost model, objective)` operating
/// point — the in-crate counterpart of a serving plan cache.
///
/// Networks repeat layer shapes heavily (VGG-16's thirteen CONV layers
/// collapse to nine distinct shapes; cluster partitions produce at most
/// two distinct tile sizes per dimension), so keying on
/// `(dataflow id, problem)` lets every repeat share one exhaustive scan.
///
/// # Example
///
/// ```
/// use eyeriss_dataflow::{registry, DataflowKind};
/// use eyeriss_dataflow::search::{MappingMemo, Objective};
/// use eyeriss_arch::{AcceleratorConfig, TableIv};
/// use eyeriss_nn::{LayerProblem, LayerShape};
///
/// let rs = registry::builtin(DataflowKind::RowStationary);
/// let hw = AcceleratorConfig::eyeriss_chip();
/// let mut memo = MappingMemo::new(&hw, &TableIv, Objective::Energy);
/// let p = LayerProblem::new(LayerShape::conv(64, 32, 16, 3, 1)?, 4);
/// let a = memo.best(rs, &p);
/// let b = memo.best(rs, &p); // cached
/// assert_eq!(a, b);
/// assert_eq!((memo.searches(), memo.hits()), (1, 1));
/// # Ok::<(), eyeriss_nn::ShapeError>(())
/// ```
pub struct MappingMemo<'a> {
    hw: &'a AcceleratorConfig,
    cost: &'a dyn CostModel,
    objective: Objective,
    cache: HashMap<(DataflowId, LayerProblem), Option<MappingCandidate>>,
    hits: usize,
}

impl std::fmt::Debug for MappingMemo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingMemo")
            .field("hw", &self.hw)
            .field("cost", &self.cost.id())
            .field("objective", &self.objective)
            .field("searches", &self.cache.len())
            .field("hits", &self.hits)
            .finish()
    }
}

impl<'a> MappingMemo<'a> {
    /// Creates an empty memo pinned to one operating point.
    pub fn new(hw: &'a AcceleratorConfig, cost: &'a dyn CostModel, objective: Objective) -> Self {
        MappingMemo {
            hw,
            cost,
            objective,
            cache: HashMap::new(),
            hits: 0,
        }
    }

    /// The best mapping of `problem` in `df`'s space, searching at most
    /// once per distinct `(dataflow, problem)` key.
    pub fn best(&mut self, df: &dyn Dataflow, problem: &LayerProblem) -> Option<MappingCandidate> {
        let key = (df.id(), *problem);
        if let Some(cached) = self.cache.get(&key) {
            self.hits += 1;
            search_tele().memo_hits.inc();
            return cached.clone();
        }
        search_tele().memo_misses.inc();
        let found = optimize(df, problem, self.hw, self.cost, self.objective);
        self.cache.insert(key, found.clone());
        found
    }

    /// Distinct searches actually performed.
    pub fn searches(&self) -> usize {
        self.cache.len()
    }

    /// Lookups answered from the memo without a search.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// Candidates within this factor of the optimal objective are considered
/// tied and resolved by active-PE count.
const UTILIZATION_TIE_BAND: f64 = 1.10;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DataflowKind;
    use crate::registry::builtin;
    use eyeriss_arch::cost::{StaticCostModel, TableIv};
    use eyeriss_arch::energy::{EnergyModel, Level};
    use eyeriss_nn::{alexnet, LayerShape};

    fn problem(shape: &LayerShape, n: usize) -> LayerProblem {
        LayerProblem::new(*shape, n)
    }

    #[test]
    fn rs_beats_others_on_conv_aggregate() {
        // The headline claim, at one operating point: RS total CONV energy
        // at 256 PEs / batch 16 is lower than every other dataflow's.
        let em = EnergyModel::table_iv();
        let conv = alexnet::conv_layers();
        let total = |kind: DataflowKind| -> Option<f64> {
            let df = builtin(kind);
            let hw = df.comparison_hardware(256);
            let mut sum = 0.0;
            for layer in &conv {
                sum += optimize(
                    df,
                    &problem(&layer.shape, 16),
                    &hw,
                    &TableIv,
                    Objective::Energy,
                )?
                .profile
                .total_energy(&em);
            }
            Some(sum)
        };
        let rs = total(DataflowKind::RowStationary).expect("RS feasible");
        for kind in DataflowKind::ALL.into_iter().skip(1) {
            if let Some(e) = total(kind) {
                assert!(rs < e, "{kind}: RS {rs:.3e} not below {e:.3e}");
            }
        }
    }

    #[test]
    fn edp_objective_never_picks_lower_utilization_for_worse_energy_delay() {
        let em = EnergyModel::table_iv();
        let conv5 = &alexnet::conv_layers()[4].shape;
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let p = problem(conv5, 16);
        let by_energy = optimize(rs, &p, &hw, &TableIv, Objective::Energy).unwrap();
        let by_edp = optimize(rs, &p, &hw, &TableIv, Objective::EnergyDelayProduct).unwrap();
        let edp = |c: &MappingCandidate| c.profile.total_energy(&em) * c.delay();
        assert!(edp(&by_edp) <= edp(&by_energy) + 1e-6);
    }

    #[test]
    fn batch_entry_point_dedups_repeated_shapes() {
        // VGG-16 repeats shapes (CONV3_2 == CONV3_3 etc.); the batch entry
        // point must search each distinct shape once and still return one
        // result per input, positionally.
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let conv = alexnet::conv_layers();
        let problems: Vec<LayerProblem> = vec![
            problem(&conv[2].shape, 4),
            problem(&conv[4].shape, 4),
            problem(&conv[2].shape, 4), // duplicate of [0]
            problem(&conv[2].shape, 1), // same shape, different batch: distinct
        ];
        let results = optimize_all(rs, &problems, &hw, &TableIv, Objective::Energy);
        assert_eq!(results.len(), 4);
        assert_eq!(
            results[0], results[2],
            "duplicate shapes must share a result"
        );
        assert_ne!(results[0], results[3], "different batches stay distinct");
        for (r, p) in results.iter().zip(&problems) {
            let direct = optimize(rs, p, &hw, &TableIv, Objective::Energy);
            assert_eq!(r, &direct, "memoized result differs from direct search");
        }
    }

    #[test]
    fn memo_counts_hits_and_searches() {
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let conv5 = problem(&alexnet::conv_layers()[4].shape, 16);
        let mut memo = MappingMemo::new(&hw, &TableIv, Objective::Energy);
        for _ in 0..3 {
            memo.best(rs, &conv5);
        }
        // Infeasible results are memoized too.
        let ws = builtin(DataflowKind::WeightStationary);
        let ws_hw = ws.comparison_hardware(256);
        let mut ws_memo = MappingMemo::new(&ws_hw, &TableIv, Objective::Energy);
        let conv1 = problem(&alexnet::conv_layers()[0].shape, 64);
        assert!(ws_memo.best(ws, &conv1).is_none());
        assert!(ws_memo.best(ws, &conv1).is_none());
        assert_eq!((memo.searches(), memo.hits()), (1, 2));
        assert_eq!((ws_memo.searches(), ws_memo.hits()), (1, 1));
        assert!(format!("{memo:?}").contains("table-iv"));
    }

    #[test]
    fn infeasible_returns_none() {
        let conv1 = &alexnet::conv_layers()[0].shape;
        let ws = builtin(DataflowKind::WeightStationary);
        let hw = ws.comparison_hardware(256);
        assert!(optimize(ws, &problem(conv1, 64), &hw, &TableIv, Objective::Energy).is_none());
    }

    #[test]
    fn objective_labels_roundtrip() {
        for o in [Objective::Energy, Objective::EnergyDelayProduct] {
            assert_eq!(Objective::from_label(o.label()), Some(o));
        }
        assert_eq!(Objective::from_label("latency"), None);
        assert_eq!(Objective::Energy.score(7.0, 3.0), 7.0);
        assert_eq!(Objective::EnergyDelayProduct.score(7.0, 3.0), 21.0);
    }

    #[test]
    fn custom_cost_models_steer_the_search() {
        // A DRAM-free pricing makes buffer traffic the dominant term; the
        // optimizer must honor whatever model it is handed, and the
        // canonical model must agree bit-exactly with the old
        // EnergyModel-priced path.
        let conv3 = &alexnet::conv_layers()[2].shape;
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let p = problem(conv3, 16);
        let table = optimize(rs, &p, &hw, &TableIv, Objective::Energy).unwrap();
        let flat = StaticCostModel::new(
            "flat-onchip",
            EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0).unwrap(),
        );
        let under_flat = optimize(rs, &p, &hw, &flat, Objective::Energy).unwrap();
        use eyeriss_arch::cost::CostModel;
        assert!(
            flat.energy_of(&under_flat.profile) <= flat.energy_of(&table.profile),
            "search under the flat model must be at least as good under it"
        );
        // A bandwidth-starved DRAM channel turns the EDP search
        // latency-aware: the chosen mapping's analytic delay under the
        // custom model bounds the Table IV winner's.
        let starved = StaticCostModel::new("starved", EnergyModel::table_iv())
            .with_bandwidth(Level::Dram, 0.25)
            .unwrap();
        let under_starved = optimize(rs, &p, &hw, &starved, Objective::EnergyDelayProduct).unwrap();
        let edp = |c: &MappingCandidate| {
            starved.energy_of(&c.profile) * starved.delay_of(&c.profile, c.active_pes)
        };
        let table_edp = optimize(rs, &p, &hw, &TableIv, Objective::EnergyDelayProduct).unwrap();
        assert!(edp(&under_starved) <= edp(&table_edp) * (1.0 + 1e-9));
    }
}
