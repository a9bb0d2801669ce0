//! Grouped-convolution lowering shared by the six dense mapping spaces.
//!
//! The paper's dataflows predate grouped/depthwise convolution, so none of
//! their mapping spaces know about groups. The honest lowering — and what
//! the paper itself does for AlexNet's two-tower layers (Table II lists
//! per-tower shapes) — is to map *one group* and run the `G` groups
//! sequentially: the per-group shape is enumerated as usual and every
//! access count scales by `G`, while the mapping parameters and active-PE
//! count stay per-group. A candidate's [`delay`](crate::MappingCandidate::delay)
//! then reflects the serialized groups automatically
//! (`G·alu_per_group / active_pes`), which is exactly why compact
//! depthwise layers starve these dataflows and motivate `flex-rs`.

use crate::candidate::MappingCandidate;
use eyeriss_nn::{LayerProblem, LayerShape};

/// The shape a dense mapping space enumerates for `problem`: the layer
/// itself when dense, one group of it when grouped.
pub(crate) fn enumerated_shape(problem: &LayerProblem) -> LayerShape {
    if problem.shape.groups <= 1 {
        problem.shape
    } else {
        problem.shape.per_group()
    }
}

/// Lowers `problem` through `per_group`, a dense mapping visitor over
/// `(shape, batch, sink)`: identity for dense layers; for grouped layers
/// the per-group shape is visited and each candidate's profile scaled by
/// `G` (sequential group execution) on its way to `sink`.
pub(crate) fn lower(
    problem: &LayerProblem,
    sink: &mut dyn FnMut(MappingCandidate),
    per_group: impl FnOnce(&LayerShape, usize, &mut dyn FnMut(MappingCandidate)),
) {
    let g = problem.shape.groups;
    let shape = enumerated_shape(problem);
    if g <= 1 {
        return per_group(&shape, problem.batch, sink);
    }
    per_group(&shape, problem.batch, &mut |mut c| {
        c.profile.scale(g as f64);
        sink(c);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DataflowKind;
    use crate::registry;

    #[test]
    fn grouped_profile_is_g_times_the_per_group_profile() {
        for kind in DataflowKind::ALL {
            let df = registry::builtin(kind);
            let hw = df.comparison_hardware(256);
            let grouped =
                LayerProblem::new(LayerShape::conv_grouped(8, 4, 13, 3, 2, 2).unwrap(), 2);
            let per = grouped.per_group();
            let gc = df.enumerate(&grouped, &hw);
            let pc = df.enumerate(&per, &hw);
            assert_eq!(gc.len(), pc.len(), "{kind}");
            for (g, p) in gc.iter().zip(&pc) {
                assert_eq!(g.params, p.params, "{kind}");
                assert_eq!(g.active_pes, p.active_pes, "{kind}");
                assert_eq!(g.profile.alu_ops, p.profile.alu_ops * 2.0, "{kind}");
                assert_eq!(
                    g.profile.ifmap.rf_reads,
                    p.profile.ifmap.rf_reads * 2.0,
                    "{kind}"
                );
                // Serialized groups: double the work on the same PEs.
                assert_eq!(g.delay(), p.delay() * 2.0, "{kind}");
            }
        }
    }

    #[test]
    fn grouped_alu_ops_match_layer_macs() {
        let df = registry::builtin(DataflowKind::RowStationary);
        let hw = df.comparison_hardware(256);
        let dw = LayerProblem::new(LayerShape::depthwise(16, 13, 3, 1).unwrap(), 2);
        let cands = df.enumerate(&dw, &hw);
        assert!(!cands.is_empty());
        for c in cands {
            assert_eq!(c.profile.alu_ops, dw.macs() as f64);
        }
    }
}
