//! Multi-array partitioning and parallel scheduling for the Eyeriss
//! reproduction.
//!
//! The paper's accelerator is a single 168-PE array; serving production
//! traffic means scaling *beyond* one array. This crate schedules a CNN
//! layer across `M` independent Eyeriss arrays, following the
//! partitioning taxonomy of TETRIS/nn-dataflow and the multi-cluster
//! direction of Eyeriss v2:
//!
//! * [`partition`] — the [`Partition`] schemes (batch / ofmap-channel /
//!   fmap-tile / hybrid) that split a layer into per-array sub-problems,
//!   each itself a complete `LayerShape` a single array can run.
//! * [`plan`] — `(partition, mapping)` co-optimization: every feasible
//!   partition is scored by composing the per-array mapping optimizer of
//!   `eyeriss_dataflow::search` with a cluster cost model (additive
//!   energy, critical-path delay, shared-DRAM transfer floor).
//! * [`exec`] — the parallel executor: one thread per array (the caller's
//!   own thread among them), each running
//!   its tiles on a private [`eyeriss_sim::Accelerator`], with the ofmap
//!   reassembled **bit-exactly** against the single-array simulator.
//! * [`contention`] — the shared-DRAM bandwidth model.
//! * [`stats`] — per-array and cluster-level aggregate statistics.
//!
//! # Example
//!
//! Partition AlexNet CONV1 over four arrays and verify bit-exactness:
//!
//! ```
//! use eyeriss_cluster::{Cluster, Partition};
//! use eyeriss_arch::AcceleratorConfig;
//! use eyeriss_nn::{reference, synth, LayerProblem, LayerShape};
//!
//! let conv1 = LayerShape::conv(4, 3, 227, 11, 4)?; // CONV1 geometry slice
//! let problem = LayerProblem::new(conv1, 4);
//! let input = synth::ifmap(&conv1, 4, 1);
//! let weights = synth::filters(&conv1, 2);
//! let bias = synth::biases(&conv1, 3);
//!
//! let cluster = Cluster::new(4, AcceleratorConfig::eyeriss_chip());
//! let run = cluster.execute_partition(Partition::FmapTile, &problem, &input, &weights, &bias)?;
//! assert_eq!(run.psums, reference::conv_accumulate(&conv1, 4, &input, &weights, &bias));
//! println!("{} arrays, {} cycles", run.stats.per_array.len(), run.stats.cluster_cycles());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod contention;
pub mod error;
pub mod exec;
pub mod health;
pub mod partition;
pub mod plan;
pub mod stats;
pub mod wire;

pub use contention::SharedDram;
pub use error::ClusterError;
pub use exec::{Cluster, ClusterRun};
pub use health::ClusterHealth;
pub use partition::{Partition, SubProblem, Tile};
pub use plan::{plan_layer, plan_partition, ArrayPlan, ClusterPlan, SubProblemView, TilePlan};
pub use stats::ClusterStats;
