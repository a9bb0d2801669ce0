//! The row-stationary (RS) dataflow (Section V) — the paper's contribution.
//!
//! # Mapping model
//!
//! RS breaks the high-dimensional convolution into 1-D row primitives. A
//! *logical PE set* of `R x E` PEs computes one 2-D convolution (Fig. 6):
//! filter rows are multicast horizontally, ifmap rows diagonally, and psum
//! rows accumulate vertically. The physical mapping folds `N·M·C` sets onto
//! the array in two phases (Section V-B):
//!
//! * **Spatial**: `r` sets stacked vertically (different channel groups, so
//!   their psums accumulate across set boundaries) and `t` sets side by
//!   side (different filter groups, sharing the same ifmap rows). Sets
//!   wider than the array are strip-mined to `e <= E` ofmap rows.
//! * **Temporal (RF interleaving)**: each physical PE runs the primitives of
//!   `p` filters, `q` channels and `n` images in an interleaved fashion,
//!   bounded by the RF capacity `p·q·R + q·n·R + p·n <= RF words`
//!   (filter rows + ifmap sliding window + psum accumulators — the
//!   fabricated chip's `p = 16, q = 1, R = 11` fits its 224+12+24-word
//!   scratchpads).
//!
//! A *processing pass* covers `(n, p·t, q·r, e)` of `(N, M, C, E)`; the
//! second folding phase runs `ceil(N/n)·ceil(M/pt)·ceil(C/qr)·ceil(E/e)`
//! passes sequentially, with the global buffer carrying either the ifmap
//! strip (reused across filter groups) or the filter group (reused across
//! batch and strips) — the `filter_resident` knob; the optimizer picks
//! whichever is cheaper per layer, exactly the optimization the paper's
//! framework performs.
//!
//! # Reuse splits
//!
//! | data   | a (DRAM)            | b (buffer)      | c (array)  | d (RF)  |
//! |--------|---------------------|-----------------|------------|---------|
//! | filter | 1 or per-pass       | strips·batches  | `e`        | `n·E`   |
//! | ifmap  | halo-exact strips   | per-pass slice  | diag + `t` | `p·R/U` |
//! | psum   | 1 (pinned)          | `ceil(C/qr)`    | `R·r`      | `R·q`   |

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::Dataflow;
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use crate::model::{ceil_div, factor_candidates};
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{LayerProblem, LayerShape};

/// RF words one PE needs to interleave `p` filters, `q` channels and
/// `n` images of `shape` (the first-phase folding bound of Section V-B:
/// stationary filter rows + the ifmap sliding window + psum
/// accumulators; FC rows are single-use, so images stream through one
/// row-buffer). The single source of truth for row-stationary RF
/// feasibility — the enumerator prunes with it and executors screen
/// foreign mappings with it.
pub fn rf_words_needed(shape: &LayerShape, n: usize, p: usize, q: usize) -> usize {
    let ifmap_window = if shape.is_fc_shaped() {
        q * shape.r
    } else {
        q * n * shape.r
    };
    p * q * shape.r + ifmap_window + p * n
}

/// The row-stationary mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowStationaryModel;

impl Dataflow for RowStationaryModel {
    fn id(&self) -> DataflowId {
        DataflowKind::RowStationary.id()
    }

    fn rf_bytes(&self) -> f64 {
        DataflowKind::RowStationary.rf_bytes()
    }

    /// One shard per strip width `e`, the outer loop of the space.
    fn shards(&self, problem: &LayerProblem, hw: &AcceleratorConfig) -> usize {
        strip_widths(&crate::grouped::enumerated_shape(problem), hw).len()
    }

    fn visit(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        shard: usize,
        sink: &mut dyn FnMut(MappingCandidate),
    ) {
        crate::grouped::lower(problem, sink, |shape, n, sink| {
            let e = strip_widths(shape, hw)[shard];
            visit_strip(shape, n, hw, e, sink);
        });
    }
}

/// The strip widths `e` (ofmap rows per set) the space of `shape` on
/// `hw` ranges over, in enumeration order; empty when a set's filter
/// rows do not fit one array column (the paper's configurations always
/// fit: R <= 11, arrays >= 12 rows).
fn strip_widths(shape: &LayerShape, hw: &AcceleratorConfig) -> Vec<usize> {
    if shape.r > hw.grid.rows {
        return Vec::new();
    }
    factor_candidates(shape.e, hw.grid.cols)
}

/// Streams every feasible mapping of `shape` at batch `n_batch` on `hw`
/// to `sink`, in enumeration order (all strip widths in turn).
pub(crate) fn visit_all(
    shape: &LayerShape,
    n_batch: usize,
    hw: &AcceleratorConfig,
    sink: &mut dyn FnMut(MappingCandidate),
) {
    for e in strip_widths(shape, hw) {
        visit_strip(shape, n_batch, hw, e, sink);
    }
}

/// Streams the feasible mappings of `shape` at batch `n_batch` on `hw`
/// whose sets are strip-mined to `e` ofmap rows.
fn visit_strip(
    shape: &LayerShape,
    n_batch: usize,
    hw: &AcceleratorConfig,
    e: usize,
    sink: &mut dyn FnMut(MappingCandidate),
) {
    let (ah, aw) = (hw.grid.rows, hw.grid.cols);
    let rf_words = hw.rf_words_per_pe();
    let buf_words = hw.buffer_words();
    let (m_dim, c_dim, e_dim, r_filt) = (shape.m, shape.c, shape.e, shape.r);
    let r_list = factor_candidates(c_dim, ah / r_filt);
    let p_list = factor_candidates(m_dim, 64);
    let q_list = factor_candidates(c_dim, c_dim);
    let n_list = factor_candidates(n_batch, n_batch);
    let strips = ceil_div(e_dim, e);
    let rows_strip = shape.ifmap_rows_for_strip(e.min(e_dim));
    for &r in &r_list {
        for &t in &factor_candidates(m_dim, aw / e) {
            for &p in &p_list {
                if p * t > m_dim && t > 1 {
                    continue;
                }
                for &q in &q_list {
                    if q * r > c_dim && r > 1 {
                        continue;
                    }
                    for &n in &n_list {
                        // First-phase folding bounded by the RF (see
                        // [`rf_words_needed`]).
                        if rf_words_needed(shape, n, p, q) > rf_words {
                            continue;
                        }
                        for filter_resident in [false, true] {
                            let knobs = Knobs {
                                n,
                                p,
                                q,
                                e,
                                r,
                                t,
                                strips,
                                rows_strip,
                                filter_resident,
                            };
                            if let Some(cand) = evaluate(shape, n_batch, knobs, buf_words) {
                                sink(cand);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The resolved mapping knobs for one candidate.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    n: usize,
    p: usize,
    q: usize,
    e: usize,
    r: usize,
    t: usize,
    strips: usize,
    rows_strip: usize,
    filter_resident: bool,
}

fn evaluate(
    shape: &LayerShape,
    n_batch: usize,
    k: Knobs,
    buf_words: usize,
) -> Option<MappingCandidate> {
    let (m_dim, c_dim, h, r_filt, e_dim) = (shape.m, shape.c, shape.h, shape.r, shape.e);
    let m_groups = ceil_div(m_dim, k.p * k.t);
    let c_groups = ceil_div(c_dim, k.q * k.r);
    let n_groups = ceil_div(n_batch, k.n);
    let passes = (m_groups * c_groups * n_groups * k.strips) as f64;

    // ---- global buffer capacity (second-phase folding, Section V-B) -----
    // FC layers (E = 1) keep their folded psums in the PE registers across
    // channel-group rounds — only p·n accumulators per PE, already counted
    // in the RF budget — so the buffer carries no psum tile for them.
    let fc_psum_in_rf = shape.is_fc_shaped();
    let ifmap_tile = k.n * k.q * k.r * k.rows_strip * h;
    let psum_tile = if fc_psum_in_rf {
        0
    } else if k.filter_resident {
        // Loop order m -> n -> strip -> c: psums of the current filter
        // group complete before the strip advances.
        k.n * k.p * k.t * k.e * e_dim
    } else {
        // Loop order n -> strip -> c -> m: psums of *all* filters of the
        // strip stay live across channel groups.
        k.n * m_dim * k.e * e_dim
    };
    let filter_tile = if k.filter_resident {
        // The filter group stays resident across batch/strip/channel loops.
        k.p * k.t * c_dim * r_filt * r_filt
    } else {
        // Filters stream through per pass; only the pass working set lives.
        k.p * k.t * k.q * k.r * r_filt * r_filt
    };
    if ifmap_tile + psum_tile + filter_tile > buf_words {
        return None;
    }

    let macs = shape.macs(n_batch) as f64;
    let ofmap_words = shape.ofmap_words(n_batch) as f64;
    let active_pes = r_filt * k.r * k.e * k.t;
    let pass_ifmap_words = (k.n * k.q * k.r * k.rows_strip * h) as f64;

    let mut profile = LayerAccessProfile::new();
    profile.alu_ops = macs;

    // ---- filters ---------------------------------------------------------
    // Every MAC reads its weight from the RF (stationary row, Fig. 5).
    profile.filter.rf_reads = macs;
    let filter_words = shape.filter_words() as f64;
    // Each distinct weight is delivered once per (batch group, strip),
    // multicast across the e columns of its set (Fig. 6a). Using the exact
    // filter volume avoids charging the final partial filter/channel group
    // for phantom weights.
    let filter_fetch_rounds = (n_groups * k.strips) as f64;
    profile.filter.array_hops = filter_words * filter_fetch_rounds * k.e as f64;
    if k.filter_resident {
        profile.filter.dram_reads = filter_words;
        profile.filter.buffer_reads = filter_words * filter_fetch_rounds;
    } else {
        // Streamed from DRAM each pass, bypassing the buffer (footnote 1).
        profile.filter.dram_reads = filter_words * filter_fetch_rounds;
    }

    // ---- ifmaps ----------------------------------------------------------
    profile.ifmap.rf_reads = macs;
    // Each active PE receives the q·n ifmap rows of its primitives once per
    // pass; diagonal multicast (Fig. 6b) plus sharing across the t filter
    // sets means the buffer is read only once per distinct word.
    profile.ifmap.array_hops = passes * active_pes as f64 * (k.q * k.n * h) as f64;
    profile.ifmap.buffer_reads = passes * pass_ifmap_words;
    let halo = shape.strip_refetch_factor(k.e.min(e_dim));
    let ifmap_once = shape.ifmap_words(n_batch) as f64 * halo;
    profile.ifmap.dram_reads = if k.filter_resident {
        // Ifmap strips refetched for every filter group.
        ifmap_once * m_groups as f64
    } else {
        ifmap_once
    };

    // ---- psums -----------------------------------------------------------
    // Each ofmap value accumulates exactly C·R² psums: R·q inside a PE
    // (taps x interleaved channels), across a vertical chain of R·r PEs
    // (Fig. 6c), folded over ceil(C/qr) channel-group rounds through the
    // buffer; a = 1 is pinned (only final ofmaps reach DRAM).
    profile.psum = crate::split::psum_counts_exact(
        ofmap_words,
        shape.accumulations_per_ofmap() as f64,
        c_groups as f64,
        (r_filt * k.r) as f64,
    );
    if fc_psum_in_rf {
        // Between-round partials are retained in the chain-top RF instead
        // of spilling to the buffer.
        profile.psum.rf_reads += profile.psum.buffer_reads;
        profile.psum.rf_writes += profile.psum.buffer_writes;
        profile.psum.buffer_reads = 0.0;
        profile.psum.buffer_writes = 0.0;
    }

    debug_assert!(profile.is_valid());
    Some(MappingCandidate {
        profile,
        active_pes,
        params: MappingParams::RowStationary {
            n: k.n,
            p: k.p,
            q: k.q,
            e: k.e,
            r: k.r,
            t: k.t,
            filter_resident: k.filter_resident,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::energy::EnergyModel;
    use eyeriss_nn::alexnet;

    fn hw256() -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(256, DataflowKind::RowStationary.rf_bytes())
    }

    fn best(shape: &LayerShape, n: usize, hw: &AcceleratorConfig) -> MappingCandidate {
        let model = RowStationaryModel;
        let em = EnergyModel::table_iv();
        model
            .enumerate(&LayerProblem::new(*shape, n), hw)
            .into_iter()
            .min_by(|a, b| {
                a.profile
                    .total_energy(&em)
                    .partial_cmp(&b.profile.total_energy(&em))
                    .unwrap()
            })
            .expect("RS must be feasible on every AlexNet layer")
    }

    #[test]
    fn feasible_on_every_alexnet_layer() {
        let hw = hw256();
        for layer in alexnet::all_layers() {
            let b = best(&layer.shape, 16, &hw);
            assert!(b.active_pes > 0 && b.active_pes <= 256, "{}", layer.name);
        }
    }

    #[test]
    fn rf_reads_equal_macs() {
        // Every MAC reads both operands from the RF under RS.
        let layer = &alexnet::conv_layers()[1]; // CONV2
        let b = best(&layer.shape, 16, &hw256());
        let macs = layer.shape.macs(16) as f64;
        assert_eq!(b.profile.filter.rf_reads, macs);
        assert_eq!(b.profile.ifmap.rf_reads, macs);
    }

    #[test]
    fn conv_energy_dominated_by_rf() {
        // Fig. 10: "the energy consumption of CONV layers is dominated by
        // RF accesses", with RF : (buffer + array) roughly 4:1.
        use eyeriss_arch::energy::Level;
        let em = EnergyModel::table_iv();
        let mut rf = 0.0;
        let mut rest = 0.0;
        for layer in alexnet::conv_layers() {
            let b = best(&layer.shape, 16, &hw256());
            rf += b.profile.energy_at_level(&em, Level::Rf);
            rest += b.profile.energy_at_level(&em, Level::Buffer)
                + b.profile.energy_at_level(&em, Level::Array);
        }
        let ratio = rf / rest;
        assert!(
            (2.0..=8.0).contains(&ratio),
            "RF:on-chip-rest ratio {ratio:.2} far from the chip's ~4:1"
        );
    }

    #[test]
    fn fc_energy_dominated_by_dram() {
        // Fig. 10: "DRAM accesses dominate the energy consumption of FC
        // layers due to the lack of convolutional data reuse."
        use eyeriss_arch::energy::Level;
        let em = EnergyModel::table_iv();
        let layer = &alexnet::fc_layers()[1]; // FC2
        let b = best(&layer.shape, 16, &hw256());
        let dram = b.profile.energy_at_level(&em, Level::Dram);
        assert!(dram > 0.5 * b.profile.total_energy(&em));
    }

    #[test]
    fn psum_accumulations_cover_chain() {
        // b*c*d of the psum split must cover C*R^2 accumulations.
        let layer = &alexnet::conv_layers()[2]; // CONV3
        let b = best(&layer.shape, 1, &hw256());
        let macs = layer.shape.macs(1) as f64;
        // RF psum accesses ~ 2*MACs when d dominates; never above 2*MACs
        // plus the array/buffer corrections.
        let rf_acc = b.profile.psum.rf_reads + b.profile.psum.rf_writes;
        assert!(rf_acc <= 2.0 * macs + 1.0);
        assert!(rf_acc > 0.5 * macs);
    }

    #[test]
    fn bigger_batch_does_not_hurt_energy_per_op() {
        let em = EnergyModel::table_iv();
        let layer = &alexnet::conv_layers()[1];
        let hw = hw256();
        let e1 = best(&layer.shape, 1, &hw).profile.total_energy(&em) / layer.shape.macs(1) as f64;
        let e16 =
            best(&layer.shape, 16, &hw).profile.total_energy(&em) / layer.shape.macs(16) as f64;
        assert!(e16 <= e1 * 1.02, "N=16 {e16} vs N=1 {e1}");
    }

    #[test]
    fn dram_per_op_small_for_conv() {
        // Fig. 11a: RS CONV DRAM accesses/op ~ a few 1e-3 at batch 16.
        let hw = hw256();
        let mut acc = 0.0;
        let mut ops = 0.0;
        for layer in alexnet::conv_layers() {
            let b = best(&layer.shape, 16, &hw);
            acc += b.profile.dram_accesses();
            ops += layer.shape.macs(16) as f64;
        }
        let per_op = acc / ops;
        assert!(
            (0.0005..0.01).contains(&per_op),
            "RS CONV DRAM/op {per_op:.5}"
        );
    }

    #[test]
    fn infeasible_when_filter_taller_than_array() {
        let shape = LayerShape::conv(8, 8, 33, 17, 1).unwrap();
        let hw = AcceleratorConfig {
            grid: eyeriss_arch::GridDims::new(16, 16),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 131072.0,
        };
        assert!(RowStationaryModel
            .enumerate(&LayerProblem::new(shape, 1), &hw)
            .is_empty());
    }

    #[test]
    fn chip_configuration_runs_alexnet() {
        // The fabricated chip (12x14 PEs, 108 kB buffer) must map AlexNet.
        let hw = AcceleratorConfig::eyeriss_chip();
        for layer in alexnet::conv_layers() {
            let b = best(&layer.shape, 4, &hw);
            assert!(b.active_pes <= 168, "{}", layer.name);
        }
    }
}
