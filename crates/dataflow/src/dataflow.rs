//! The open `Dataflow` trait: one interface over every mapping space.
//!
//! The paper frames each dataflow as "a set of parameters ... that
//! describes the optimal mapping in terms of energy efficiency", all
//! searched by one optimizer (Section VI-C). This trait is that framing
//! made literal: a dataflow *is* anything that can stream its candidate
//! mappings, re-derive the model for given parameters, and validate a
//! candidate against hardware. The optimizer ([`crate::search`]), the
//! cluster planner and the serving plan compiler are generic over
//! `&dyn Dataflow`, so new spaces (Eyeriss v2's flexible RS, a
//! serial-accumulation OS variant) plug in through the
//! [`crate::DataflowRegistry`] without touching any of them.
//!
//! # Streaming and shards
//!
//! A space is never required to exist as a list. The one required
//! enumeration method, [`visit`](Dataflow::visit), hands candidates to a
//! sink as they are derived, so the optimizer scores a space of any size
//! in memory proportional to its near-optimal band. The space is split
//! into an ordered list of independent [`shards`](Dataflow::shards)
//! (one by default); the optimizer scans shards on different cores, and
//! concatenating the shards in order is the space's canonical
//! enumeration order, the order [`enumerate`](Dataflow::enumerate)
//! returns and tie-breaking follows.

use crate::candidate::MappingCandidate;
use crate::error::DataflowError;
use crate::id::DataflowId;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::LayerProblem;

/// A parameterized dataflow mapping space (Section VI-A, opened up).
///
/// Three operations mirror the optimizer's contract:
///
/// * [`visit`](Dataflow::visit) (required) — stream the candidate
///   mappings of one shard of a problem's space on given hardware; a
///   dataflow that cannot operate streams nothing;
/// * [`model`](Dataflow::model) — re-derive the full candidate (access
///   profile, active PEs) for *known* parameters, used to check
///   deserialized plans against the live model;
/// * [`validate`](Dataflow::validate) — feasibility screening of one
///   candidate, the typed replacement for `panic!` on params mismatch.
///
/// [`shards`](Dataflow::shards) splits the space for parallel scanning
/// and [`enumerate`](Dataflow::enumerate) collects it; both have
/// defaults.
///
/// # Example
///
/// ```
/// use eyeriss_dataflow::{Dataflow, DataflowId, MappingCandidate, MappingParams};
/// use eyeriss_arch::{AcceleratorConfig, LayerAccessProfile};
/// use eyeriss_nn::{LayerProblem, LayerShape};
///
/// /// One candidate per power-of-two PE count, one shard per candidate.
/// struct Pow2;
/// const POW2: DataflowId = DataflowId::new("POW2");
///
/// impl Dataflow for Pow2 {
///     fn id(&self) -> DataflowId { POW2 }
///     fn rf_bytes(&self) -> f64 { 8.0 }
///     fn shards(&self, _: &LayerProblem, hw: &AcceleratorConfig) -> usize {
///         hw.num_pes().ilog2() as usize + 1
///     }
///     fn visit(
///         &self,
///         problem: &LayerProblem,
///         _: &AcceleratorConfig,
///         shard: usize,
///         sink: &mut dyn FnMut(MappingCandidate),
///     ) {
///         let mut profile = LayerAccessProfile::new();
///         profile.alu_ops = problem.macs() as f64;
///         let pes = 1 << shard;
///         sink(MappingCandidate {
///             profile,
///             active_pes: pes,
///             params: MappingParams::Custom { id: POW2, knobs: [pes, 0, 0, 0] },
///         });
///     }
/// }
///
/// let hw = AcceleratorConfig::eyeriss_chip(); // 168 PEs
/// let p = LayerProblem::new(LayerShape::conv(8, 4, 13, 3, 1)?, 1);
/// let all = Pow2.enumerate(&p, &hw); // shards 0..8, in order
/// assert_eq!(all.iter().map(|c| c.active_pes).collect::<Vec<_>>(),
///            [1, 2, 4, 8, 16, 32, 64, 128]);
/// assert_eq!(Pow2.model(&all[3].params, &p, &hw)?, all[3]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait Dataflow: Send + Sync {
    /// Stable identity; the registry, memo and plan caches key on this.
    fn id(&self) -> DataflowId;

    /// Per-PE register file requirement in bytes (drives the Fig. 7b
    /// fixed-area storage split).
    fn rf_bytes(&self) -> f64;

    /// How many independent shards [`visit`](Dataflow::visit) splits the
    /// space of `problem` on `hw` into. The default is one shard holding
    /// the whole space; spaces with a natural outer loop return one shard
    /// per outer value so the optimizer can scan them on several cores.
    fn shards(&self, _problem: &LayerProblem, _hw: &AcceleratorConfig) -> usize {
        1
    }

    /// Streams every feasible mapping of shard `shard` of `problem` on
    /// `hw` to `sink`, each with exact aggregate access counts, in the
    /// shard's enumeration order. Streaming nothing means the dataflow
    /// cannot operate here (WS at batch 64 on 256 PEs, Fig. 11a).
    ///
    /// Shards must be independent (each is visited on its own, possibly
    /// on another thread) and `shard` ranges over
    /// `0..self.shards(problem, hw)`.
    fn visit(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        shard: usize,
        sink: &mut dyn FnMut(MappingCandidate),
    );

    /// Collects the whole space: every shard's stream, concatenated in
    /// shard order. Tests and analyses use it; the optimizer never
    /// materializes the space.
    fn enumerate(&self, problem: &LayerProblem, hw: &AcceleratorConfig) -> Vec<MappingCandidate> {
        let mut out = Vec::new();
        for shard in 0..self.shards(problem, hw) {
            self.visit(problem, hw, shard, &mut |c| out.push(c));
        }
        out
    }

    /// Re-derives the candidate for known `params`.
    ///
    /// The default streams the shards in order and returns the first
    /// exact parameter match, stopping after the shard that holds it;
    /// no more than one candidate is kept. Spaces with a closed-form
    /// model can override.
    ///
    /// # Errors
    ///
    /// [`DataflowError::Mismatch`] when `params` belong to another
    /// dataflow, [`DataflowError::NoSuchMapping`] when they are not in
    /// this space for `problem`.
    fn model(
        &self,
        params: &crate::candidate::MappingParams,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
    ) -> Result<MappingCandidate, DataflowError> {
        params.expect_dataflow(self.id())?;
        let mut found = None;
        for shard in 0..self.shards(problem, hw) {
            self.visit(problem, hw, shard, &mut |c| {
                if found.is_none() && c.params == *params {
                    found = Some(c);
                }
            });
            if found.is_some() {
                break;
            }
        }
        found.ok_or_else(|| DataflowError::NoSuchMapping {
            dataflow: self.id(),
            detail: format!(
                "{params} for {}x{}x{} (batch {})",
                problem.shape.m, problem.shape.c, problem.shape.h, problem.batch
            ),
        })
    }

    /// Screens one candidate for feasibility on `hw`.
    ///
    /// # Errors
    ///
    /// [`DataflowError::Mismatch`] for foreign parameters,
    /// [`DataflowError::InvalidCandidate`] for degenerate PE counts or
    /// non-finite access counts.
    fn validate(
        &self,
        candidate: &MappingCandidate,
        hw: &AcceleratorConfig,
    ) -> Result<(), DataflowError> {
        candidate.params.expect_dataflow(self.id())?;
        if candidate.active_pes == 0 || candidate.active_pes > hw.num_pes() {
            return Err(DataflowError::InvalidCandidate {
                dataflow: self.id(),
                detail: format!(
                    "{} active PEs outside 1..={}",
                    candidate.active_pes,
                    hw.num_pes()
                ),
            });
        }
        if !candidate.profile.is_valid() {
            return Err(DataflowError::InvalidCandidate {
                dataflow: self.id(),
                detail: "non-finite or negative access counts".into(),
            });
        }
        Ok(())
    }

    /// The hardware this dataflow gets under the fixed-area comparison of
    /// Section VI-B: its own RF requirement, the rest of the Eq. (2)
    /// baseline storage area as buffer.
    fn comparison_hardware(&self, num_pes: usize) -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(num_pes, self.rf_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::MappingParams;
    use crate::kind::DataflowKind;
    use crate::registry;
    use eyeriss_nn::LayerShape;

    fn problem() -> LayerProblem {
        LayerProblem::new(LayerShape::conv(8, 4, 13, 3, 2).unwrap(), 2)
    }

    #[test]
    fn model_rederives_enumerated_candidates() {
        let df = registry::builtin(DataflowKind::RowStationary);
        let hw = df.comparison_hardware(256);
        let p = problem();
        let cands = df.enumerate(&p, &hw);
        assert!(!cands.is_empty());
        for c in cands.iter().take(4) {
            let again = df.model(&c.params, &p, &hw).unwrap();
            assert_eq!(&again, c, "model() must reproduce enumerate()'s candidate");
        }
    }

    #[test]
    fn model_rejects_foreign_params() {
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let ws_params = MappingParams::WeightStationary { g_m: 1, g_c: 1 };
        let err = rs.model(&ws_params, &problem(), &hw).unwrap_err();
        assert!(matches!(err, DataflowError::Mismatch(_)));
    }

    #[test]
    fn model_rejects_out_of_space_params() {
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        // Absurd knobs no enumeration would produce.
        let params = MappingParams::RowStationary {
            n: 999,
            p: 999,
            q: 999,
            e: 999,
            r: 999,
            t: 999,
            filter_resident: true,
        };
        let err = rs.model(&params, &problem(), &hw).unwrap_err();
        assert!(matches!(err, DataflowError::NoSuchMapping { .. }));
    }

    #[test]
    fn validate_screens_pe_counts_and_profiles() {
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let p = problem();
        let good = rs.enumerate(&p, &hw).into_iter().next().unwrap();
        assert!(rs.validate(&good, &hw).is_ok());

        let mut too_many = good.clone();
        too_many.active_pes = hw.num_pes() + 1;
        assert!(matches!(
            rs.validate(&too_many, &hw),
            Err(DataflowError::InvalidCandidate { .. })
        ));

        let mut bad_profile = good.clone();
        bad_profile.profile.alu_ops = f64::NAN;
        assert!(matches!(
            rs.validate(&bad_profile, &hw),
            Err(DataflowError::InvalidCandidate { .. })
        ));

        let mut foreign = good;
        foreign.params = MappingParams::WeightStationary { g_m: 1, g_c: 1 };
        assert!(matches!(
            rs.validate(&foreign, &hw),
            Err(DataflowError::Mismatch(_))
        ));
    }

    #[test]
    fn comparison_hardware_matches_fixed_area_split() {
        for kind in DataflowKind::ALL {
            let df = registry::builtin(kind);
            let hw = df.comparison_hardware(256);
            let direct = AcceleratorConfig::under_baseline_area(256, kind.rf_bytes());
            assert_eq!(hw, direct, "{kind}");
        }
    }
}
