//! The streaming, sharded mapping search picks exactly the winner the
//! collect-score-fold scan picked.
//!
//! `search::optimize` streams each shard of a dataflow's space through a
//! band keeper and folds the merged bands. The reference below is the
//! scan it replaced, kept here only: collect the whole space with
//! `Dataflow::enumerate`, score every candidate, fold with the
//! active-PE / score / later-wins tie-break. Both must agree on the
//! winner's params, active PEs and profile, bit for bit, for every
//! builtin dataflow, flex-rs and a third-party toy, across the paper's
//! networks, batches 1–4, both objectives and two cost models.
//!
//! The AlexNet, VGG-16 and MobileNet-v1 matrices take minutes in a debug
//! build, so they run in release builds only; CI runs this file with
//! `cargo test -q --release -p eyeriss --test search_stream`.

mod support;

use eyeriss::analysis::experiments::serving::synthetic_net;
use eyeriss::arch::LayerAccessProfile;
use eyeriss::dataflow::flex::{mesh_routing_factor, FlexRsModel, FLEX_RS};
use eyeriss::dataflow::MappingParams;
use eyeriss::nn::vgg;
use eyeriss::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};
use support::{ChannelCyclic, TOY};

/// Same factor as `search::UTILIZATION_TIE_BAND`.
const TIE_BAND: f64 = 1.10;

/// Every test here searches; the counter test reads the process-global
/// `search.candidates_scored`, so searches run one test at a time.
static SEARCHES: Mutex<()> = Mutex::new(());

fn serialize_searches() -> MutexGuard<'static, ()> {
    SEARCHES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The collect-score-fold scan over `enumerate()`, arithmetic for
/// arithmetic.
fn reference(
    cands: &[MappingCandidate],
    cost: &dyn CostModel,
    objective: Objective,
) -> Option<MappingCandidate> {
    let costs: Vec<f64> = Level::ALL.iter().map(|&l| cost.energy_cost(l)).collect();
    let bandwidths: Vec<f64> = Level::ALL.iter().map(|&l| cost.bandwidth(l)).collect();
    let alu_cost = costs[Level::ALL.len() - 1];
    let score = |c: &MappingCandidate| -> f64 {
        if !c.profile.is_valid() {
            return f64::NAN;
        }
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
        let delay = if objective == Objective::EnergyDelayProduct {
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
    let scores: Vec<f64> = cands.iter().map(score).collect();
    let best = scores.iter().copied().fold(f64::INFINITY, f64::min);
    if !best.is_finite() {
        return None;
    }
    let cut = best * TIE_BAND;
    let mut winner: Option<usize> = None;
    for (i, &s) in scores.iter().enumerate() {
        if !matches!(
            s.partial_cmp(&cut),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        ) {
            continue;
        }
        winner = match winner {
            None => Some(i),
            Some(w) => {
                let ord = cands[i]
                    .active_pes
                    .cmp(&cands[w].active_pes)
                    .then_with(|| scores[w].partial_cmp(&s).expect("finite scores"));
                if ord == std::cmp::Ordering::Less {
                    Some(w)
                } else {
                    Some(i)
                }
            }
        };
    }
    winner.map(|w| cands[w].clone())
}

fn profile_bits(p: &LayerAccessProfile) -> Vec<u64> {
    let mut bits = vec![p.alu_ops.to_bits()];
    for c in [&p.ifmap, &p.filter, &p.psum] {
        bits.extend(
            [
                c.dram_reads,
                c.dram_writes,
                c.buffer_reads,
                c.buffer_writes,
                c.array_hops,
                c.rf_reads,
                c.rf_writes,
            ]
            .map(f64::to_bits),
        );
    }
    bits
}

/// Asserts two search results carry the same winner, bit for bit.
fn assert_same_winner(
    streamed: &Option<MappingCandidate>,
    expected: &Option<MappingCandidate>,
    what: &str,
) {
    match (streamed, expected) {
        (None, None) => {}
        (Some(s), Some(e)) => {
            assert_eq!(s.params, e.params, "{what}: params");
            assert_eq!(s.active_pes, e.active_pes, "{what}: active PEs");
            assert_eq!(
                profile_bits(&s.profile),
                profile_bits(&e.profile),
                "{what}: profile bits"
            );
        }
        _ => panic!(
            "{what}: streamed {:?} vs reference {:?}",
            streamed.as_ref().map(|c| c.params),
            expected.as_ref().map(|c| c.params)
        ),
    }
}

/// The flex-rs space enumerated the way it was before shards and gang
/// geometry reuse: one dense RS enumeration per `(cr, cc, rep)` knob
/// triple, in that loop order.
fn flex_reference_space(problem: &LayerProblem, hw: &AcceleratorConfig) -> Vec<MappingCandidate> {
    let divisors = |n: usize| (1..=n).filter(|&k| n.is_multiple_of(k)).collect::<Vec<_>>();
    let g = problem.shape.groups.max(1);
    let per_group = LayerProblem::new(problem.shape.per_group(), problem.batch);
    let (rows, cols) = (hw.grid.rows, hw.grid.cols);
    let mut out = Vec::new();
    for cr in divisors(rows) {
        for cc in divisors(cols) {
            let n_clusters = (rows / cr) * (cols / cc);
            for rep in divisors(n_clusters) {
                if !g.is_multiple_of(rep) {
                    continue;
                }
                let cpg = n_clusters / rep;
                let gang_hw = AcceleratorConfig {
                    grid: GridDims::new(cr, cc * cpg),
                    rf_bytes_per_pe: hw.rf_bytes_per_pe,
                    buffer_bytes: hw.buffer_bytes / rep as f64,
                };
                let mesh = mesh_routing_factor(cr, cc, cpg);
                let rs = registry::builtin(DataflowKind::RowStationary);
                for (idx, mut c) in rs.enumerate(&per_group, &gang_hw).into_iter().enumerate() {
                    c.profile.scale(g as f64);
                    c.profile.ifmap.array_hops *= mesh;
                    c.profile.filter.array_hops *= mesh;
                    c.profile.psum.array_hops *= mesh;
                    c.active_pes *= rep;
                    c.params = MappingParams::Custom {
                        id: FLEX_RS,
                        knobs: [cr, cc, rep, idx],
                    };
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Asserts two candidate lists are equal, bit for bit, in order.
fn assert_same_space(a: &[MappingCandidate], b: &[MappingCandidate], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.params == y.params
                && x.active_pes == y.active_pes
                && profile_bits(&x.profile) == profile_bits(&y.profile),
            "{what}: candidate {i} differs"
        );
    }
}

/// Asserts that the shards, streamed in order, are `enumerate()`.
fn assert_shards_concatenate(
    df: &dyn Dataflow,
    problem: &LayerProblem,
    hw: &AcceleratorConfig,
    all: &[MappingCandidate],
    what: &str,
) {
    let mut concat = Vec::with_capacity(all.len());
    for shard in 0..df.shards(problem, hw) {
        df.visit(problem, hw, shard, &mut |c| concat.push(c));
    }
    assert_same_space(&concat, all, &format!("{what}: shards vs enumerate()"));
}

/// The searched spaces: the six builtins and the toy on 256-PE
/// fixed-area hardware, flex-rs on the fabricated 12x14 chip.
fn spaces() -> Vec<(Arc<dyn Dataflow>, AcceleratorConfig)> {
    let mut out: Vec<(Arc<dyn Dataflow>, AcceleratorConfig)> = DataflowRegistry::builtin()
        .iter()
        .map(|df| (df.clone(), df.comparison_hardware(256)))
        .collect();
    let toy: Arc<dyn Dataflow> = Arc::new(ChannelCyclic);
    assert_eq!(toy.id(), TOY);
    out.push((toy.clone(), toy.comparison_hardware(256)));
    out.push((Arc::new(FlexRsModel), AcceleratorConfig::eyeriss_chip()));
    out
}

/// `synthetic_net` is the `small_open` benchmark network.
fn weighted_shapes(net: &eyeriss::nn::network::Network) -> Vec<LayerShape> {
    net.stages()
        .iter()
        .filter(|s| s.weights.is_some())
        .map(|s| s.shape)
        .collect()
}

fn distinct(shapes: impl IntoIterator<Item = LayerShape>) -> Vec<LayerShape> {
    let mut out: Vec<LayerShape> = Vec::new();
    for s in shapes {
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

fn cost_models() -> Vec<Box<dyn CostModel>> {
    vec![
        Box::new(TableIv),
        Box::new(
            StaticCostModel::new("starved", EnergyModel::table_iv())
                .with_bandwidth(Level::Dram, 0.25)
                .unwrap(),
        ),
    ]
}

/// Checks one `(dataflow, problem, hardware)` point under every cost
/// model and objective, including the scored-candidates counter.
fn check_point(df: &dyn Dataflow, problem: &LayerProblem, hw: &AcceleratorConfig, what: &str) {
    let all = df.enumerate(problem, hw);
    assert_shards_concatenate(df, problem, hw, &all, what);
    if df.id() == FLEX_RS {
        let reference = flex_reference_space(problem, hw);
        assert_same_space(&all, &reference, &format!("{what}: flex-rs knob order"));
    }
    let scored = Telemetry::global().counter("search.candidates_scored");
    for cost in cost_models() {
        for objective in [Objective::Energy, Objective::EnergyDelayProduct] {
            let before = scored.get();
            let streamed = optimize(df, problem, hw, cost.as_ref(), objective);
            assert_eq!(
                scored.get() - before,
                all.len() as u64,
                "{what}: scored-candidates counter"
            );
            let expected = reference(&all, cost.as_ref(), objective);
            let what = format!("{what} {} {}", cost.id(), objective.label());
            assert_same_winner(&streamed, &expected, &what);
        }
    }
}

fn check_network(name: &str, shapes: Vec<LayerShape>) {
    let _serial = serialize_searches();
    Telemetry::global().set_enabled(true);
    for (df, hw) in spaces() {
        for (i, shape) in distinct(shapes.iter().copied()).iter().enumerate() {
            for batch in 1..=4 {
                let problem = LayerProblem::new(*shape, batch);
                let what = format!("{name} layer {i} batch {batch} {}", df.id());
                check_point(df.as_ref(), &problem, &hw, &what);
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn streaming_search_matches_reference_on_alexnet() {
    let shapes = alexnet::all_layers()
        .into_iter()
        .chain(alexnet::grouped_conv_layers())
        .map(|l| l.shape);
    check_network("alexnet", shapes.collect());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn streaming_search_matches_reference_on_vgg16() {
    check_network(
        "vgg16",
        vgg::all_layers().into_iter().map(|l| l.shape).collect(),
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn streaming_search_matches_reference_on_mobilenet_v1() {
    check_network(
        "mobilenet-v1",
        mobilenet::mobilenet_v1()
            .into_iter()
            .map(|l| l.shape)
            .collect(),
    );
}

#[test]
fn streaming_search_matches_reference_on_mobilenet_tiny() {
    check_network(
        "mobilenet-tiny",
        weighted_shapes(&mobilenet::mobilenet_tiny(1)),
    );
}

#[test]
fn streaming_search_matches_reference_on_synthetic_net() {
    check_network("synthetic", weighted_shapes(&synthetic_net()));
}

#[test]
fn model_streams_to_the_matching_candidate() {
    // `Dataflow::model` finds every candidate of a sharded space, first
    // and last shard included, and keeps its typed errors.
    let _serial = serialize_searches();
    let flex = FlexRsModel;
    let hw = AcceleratorConfig::eyeriss_chip();
    let problem = LayerProblem::new(LayerShape::depthwise(16, 10, 3, 1).unwrap(), 2);
    let all = flex.enumerate(&problem, &hw);
    let (first, last) = (all.first().unwrap(), all.last().unwrap());
    for c in [first, &all[all.len() / 2], last] {
        assert_eq!(&flex.model(&c.params, &problem, &hw).unwrap(), c);
    }
    let rs = registry::builtin(DataflowKind::RowStationary);
    assert!(matches!(
        flex.model(&rs.enumerate(&problem, &hw)[0].params, &problem, &hw),
        Err(eyeriss::dataflow::DataflowError::Mismatch(_))
    ));
    let absent = MappingParams::Custom {
        id: FLEX_RS,
        knobs: [12, 14, 1, all.len()],
    };
    assert!(matches!(
        flex.model(&absent, &problem, &hw),
        Err(eyeriss::dataflow::DataflowError::NoSuchMapping { .. })
    ));
}

fn arb_shape() -> impl Strategy<Value = LayerShape> {
    (
        1usize..9,
        1usize..9,
        0usize..8,
        1usize..4,
        1usize..3,
        0usize..3,
    )
        .prop_map(|(m, c, extra, r, u, grouping)| {
            let h = r + extra * u;
            match grouping {
                // Depthwise: one group per channel.
                1 => LayerShape::depthwise(c, h, r, u).expect("constructed valid"),
                // Two groups of `m` filters over `c` channels each.
                2 => LayerShape::conv_grouped(2 * m, c, h, r, u, 2).expect("constructed valid"),
                _ => LayerShape::conv(m, c, h, r, u).expect("constructed valid"),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_streaming_search_matches_reference_on_small_shapes(
        shape in arb_shape(),
        batch in 1usize..5,
    ) {
        let _serial = serialize_searches();
        Telemetry::global().set_enabled(true);
        for (df, hw) in spaces() {
            let problem = LayerProblem::new(shape, batch);
            let what = format!("{shape:?} batch {batch} {}", df.id());
            check_point(df.as_ref(), &problem, &hw, &what);
        }
    }
}
