//! `eyeriss-serve` — an inference-serving runtime over the Eyeriss
//! reproduction.
//!
//! The paper optimizes per-layer dataflow mappings offline and runs them
//! on one fixed 168-PE array; sustained serving throughput instead comes
//! from *amortizing* configuration cost and keeping every array busy
//! across requests (the direction Eyeriss v2 and the ROADMAP north star
//! point at). This crate turns the workspace's mapping search
//! (`eyeriss-dataflow`), bit-exact simulator (`eyeriss-sim`) and
//! multi-array partitioning (`eyeriss-cluster`) into a service:
//!
//! * [`plan`] — the **plan compiler**: runs the `(partition, mapping)`
//!   co-optimization once per distinct layer problem and stores the
//!   immutable [`ClusterPlan`](eyeriss_cluster::ClusterPlan) in a
//!   content-keyed [`PlanCache`], so repeated shapes (VGG's stacked 3×3
//!   layers) and repeated requests never re-search.
//! * [`batch`] — the **dynamic batcher**: coalesces queued requests
//!   into one cluster execution, sealing a batch when it is full or
//!   when a worker is free to run it, so batches fill under load and an
//!   idle worker never waits for company.
//! * [`runtime`] — the **scheduler**: an MPSC submission queue with
//!   backpressure feeding a pool of workers, each executing batches on a
//!   private multi-array [`Cluster`](eyeriss_cluster::Cluster) from
//!   cached plans via `Cluster::execute`, with per-request
//!   queue/compile/execute latency accounting.
//! * [`persist`] — **plan-cache persistence**: compiled plans saved to
//!   disk under a versioned schema and reloaded bit-exactly by a cold
//!   process, so serving resumes with zero mapping searches.
//! * [`metrics`] — latency breakdowns, p50/p99 percentiles and
//!   server-lifetime statistics.
//! * [`attrib`] — per-request **energy/delay attribution**: each traced
//!   request carries the executed plan's
//!   [`CostReport`](eyeriss_arch::cost::CostReport) plus the residual
//!   between simulated and predicted cycles, feeding the
//!   `serve.delay_residual` histogram and the
//!   [`SloMonitor`] flight ring.
//! * [`sched`] — **SLO-aware multi-tenant scheduling**: a tenant
//!   registry (weights, priorities, rate limits), an admission
//!   controller that rejects infeasible deadlines up front and sheds
//!   lowest-tier work while the SLO monitor burns, and a
//!   deadline/priority ready queue arbitrated by deficit round robin.
//!   Opt in with [`SchedConfig`] on [`ServeConfig::sched`]; without it
//!   the legacy FIFO path is untouched.
//! * [`recover`] — **fault tolerance**: workers run batches under
//!   `catch_unwind` with a supervisor restarting the dead; ABFT
//!   checksum mismatches and injected crashes retry with bounded
//!   backoff ([`RecoveryPolicy`]) through a re-queue-capable
//!   [`BatchQueue`]; persistently faulty arrays are quarantined and the
//!   worker re-plans onto the healthy subset. Deterministic fault
//!   injection opts in via [`ServeConfig::faults`] with a
//!   [`FaultPlan`]; ABFT verification via [`ServeConfig::abft`]. Both
//!   default off and cost nothing when disabled.
//!
//! # Example
//!
//! ```
//! use eyeriss_serve::{BatchPolicy, ServeConfig, Server};
//! use eyeriss_nn::network::NetworkBuilder;
//! use eyeriss_nn::synth;
//! use std::time::Duration;
//!
//! let net = NetworkBuilder::new(3, 19)
//!     .conv("C1", 8, 3, 2)?
//!     .fully_connected("FC", 10)?
//!     .build(7);
//! let shape = net.stages()[0].shape;
//! let golden = net.clone();
//!
//! // The default policy never holds a request back while a worker is
//! // idle (`max_wait` is zero); under load, batches fill up to
//! // `max_batch` on their own.
//! let server = Server::start(net.clone(), ServeConfig::new());
//! let input = synth::ifmap(&shape, 1, 42);
//! let response = server.submit(input.clone())?.wait()?;
//! assert_eq!(response.output, golden.forward(1, &input)); // bit-exact
//! assert_eq!(server.shutdown().completed(), 1);
//!
//! // A coalescing wait trades latency for the batch energy
//! // amortization of Section VII-B at low load: two requests submitted
//! // together share one execution.
//! let mut cfg = ServeConfig::new();
//! cfg.policy = BatchPolicy { max_batch: 2, max_wait: Duration::from_secs(5) };
//! let server = Server::start(net, cfg);
//! let handles = [server.submit(input.clone())?, server.submit(input)?];
//! for handle in handles {
//!     assert_eq!(handle.wait()?.batch_size, 2);
//! }
//! assert_eq!(server.shutdown().completed(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod attrib;
pub mod batch;
pub mod error;
pub mod metrics;
pub mod persist;
pub mod plan;
pub mod recover;
pub mod runtime;
pub mod sched;

pub use attrib::Attribution;
pub use batch::BatchPolicy;
pub use error::ServeError;
pub use eyeriss_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultWindow};
pub use eyeriss_telemetry::{FlightDump, FlightRecord, SloMonitor, SloSignal, SloSpec};
pub use metrics::{
    percentile, LatencyBreakdown, LatencySummary, RequestRecord, ServerSnapshot, ServerStats,
};
pub use plan::{CacheStats, CompiledPlan, Footprint, PlanCache, PlanCompiler, PlanKey, StagePlan};
pub use recover::{BatchQueue, RecoveryPolicy};
pub use runtime::{RequestHandle, Response, ServeConfig, Server, SubmitOptions};
pub use sched::{
    AdmissionError, Priority, RateLimit, SchedConfig, TenantId, TenantSnapshot, TenantSpec,
};
