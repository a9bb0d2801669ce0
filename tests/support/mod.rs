//! Fixtures shared by the integration tests that include this module.

use eyeriss::prelude::*;

/// A toy seventh dataflow: `k` ofmap channels mapped to `k` PEs, the
/// whole ifmap refetched once per channel group. Not a good dataflow —
/// the point is that nothing in `search`/`cluster`/`serve` knows it
/// exists, yet everything works through the trait.
pub struct ChannelCyclic;

pub const TOY: DataflowId = DataflowId::new("TOY-CC");

impl Dataflow for ChannelCyclic {
    fn id(&self) -> DataflowId {
        TOY
    }

    fn rf_bytes(&self) -> f64 {
        16.0
    }

    fn visit(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        _shard: usize,
        sink: &mut dyn FnMut(MappingCandidate),
    ) {
        let shape = &problem.shape;
        let n = problem.batch;
        let macs = shape.macs(n) as f64;
        let mut k = 1usize;
        while k <= shape.m.min(hw.num_pes()) {
            let groups = shape.m.div_ceil(k) as f64;
            let mut profile = eyeriss::arch::LayerAccessProfile::new();
            profile.alu_ops = macs;
            // Each channel group re-streams the full ifmap from DRAM.
            profile.ifmap.dram_reads = shape.ifmap_words(n) as f64 * groups;
            profile.ifmap.buffer_writes = profile.ifmap.dram_reads;
            profile.ifmap.buffer_reads = macs / k as f64;
            profile.ifmap.rf_reads = macs;
            profile.filter.dram_reads = shape.filter_words() as f64;
            profile.filter.buffer_writes = profile.filter.dram_reads;
            profile.filter.buffer_reads = shape.filter_words() as f64;
            profile.filter.rf_reads = macs;
            profile.psum.rf_reads = macs;
            profile.psum.rf_writes = macs;
            profile.psum.dram_writes = shape.ofmap_words(n) as f64;
            sink(MappingCandidate {
                profile,
                active_pes: k,
                params: eyeriss::dataflow::MappingParams::Custom {
                    id: TOY,
                    knobs: [k, 0, 0, 0],
                },
            });
            k *= 2;
        }
    }
}
