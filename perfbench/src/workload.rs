//! The three workloads: their networks, server configurations, load
//! shapes and fixed limits.

use crate::load::{Inputs, Rng};
use eyeriss_arch::AcceleratorConfig;
use eyeriss_dataflow::flex::FlexRsModel;
use eyeriss_nn::network::{Network, NetworkBuilder};
use eyeriss_nn::{mobilenet, synth};
use eyeriss_serve::{PlanCompiler, ServeConfig, Server};
use eyeriss_telemetry::Telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The small synthetic net under open-loop Poisson load.
    SmallOpen,
    /// A reduced-width AlexNet-shaped stack, closed loop, full batches.
    AlexnetBatch,
    /// MobileNet-tiny under flex-rs on one array: open loop at the
    /// lowest ladder rate, then a closed-loop slice.
    MobilenetFlex,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SmallOpen, Kind::AlexnetBatch, Kind::MobilenetFlex];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SmallOpen => "small_open",
            Kind::AlexnetBatch => "alexnet_batch",
            Kind::MobilenetFlex => "mobilenet_flex",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The served network. Weights are fixed per workload; only the
    /// request inputs come from the seed.
    pub fn network(self) -> Network {
        match self {
            Kind::SmallOpen => eyeriss_analysis::experiments::serving::synthetic_net(),
            Kind::AlexnetBatch => alexnet_reduced(),
            Kind::MobilenetFlex => mobilenet::mobilenet_tiny(19),
        }
    }

    /// Simulated arrays per worker cluster.
    pub fn arrays(self) -> usize {
        match self {
            Kind::MobilenetFlex => 1,
            Kind::SmallOpen | Kind::AlexnetBatch => 2,
        }
    }

    /// A fresh plan compiler, so every set-up starts from an empty plan
    /// cache.
    pub fn compiler(self) -> PlanCompiler {
        let compiler = PlanCompiler::new(self.arrays(), AcceleratorConfig::eyeriss_chip());
        match self {
            Kind::MobilenetFlex => compiler.with_dataflow(Arc::new(FlexRsModel)),
            Kind::SmallOpen | Kind::AlexnetBatch => compiler,
        }
    }

    /// The server configuration: library defaults (2 workers, FIFO front
    /// end, 2 ms batching wait) apart from the cluster width,
    /// `max_batch`, the queue depth and the telemetry instance.
    pub fn config(self, tele: Telemetry) -> ServeConfig {
        let mut cfg = ServeConfig::new();
        cfg.arrays = self.arrays();
        cfg.policy.max_batch = MAX_BATCH;
        cfg.queue_capacity = QUEUE_CAPACITY;
        cfg.telemetry = Some(tele);
        cfg
    }

    /// Closed-loop requests kept in flight: three full batches per
    /// worker (one executing, one in the dispatch queue, one forming),
    /// so every batch fills to `MAX_BATCH`.
    pub fn outstanding(self) -> usize {
        3 * ServeConfig::new().workers * MAX_BATCH
    }

    /// The open-loop rates a round steps through before its closed loop:
    /// `small_open`'s whole ladder, only its lowest rate for
    /// `mobilenet_flex`, none for `alexnet_batch`. The lowest rate's
    /// latency is the reported `latency_p50_ms`.
    pub fn ladder(self) -> &'static [f64] {
        match self {
            Kind::SmallOpen => &LADDER_RPS,
            Kind::MobilenetFlex => &LADDER_RPS[..1],
            Kind::AlexnetBatch => &[],
        }
    }

    /// Length of a round's closed loop: the whole measurement for
    /// `alexnet_batch`, the saturation slice after the open-loop steps
    /// otherwise. A run reports its best round, so a burst of noise
    /// from other work on the host spoils a round rather than the run.
    /// Each closed loop is long enough for its p99 to have ten samples
    /// beyond it.
    pub fn round(self) -> Duration {
        match self {
            Kind::SmallOpen | Kind::MobilenetFlex => Duration::from_millis(1200),
            Kind::AlexnetBatch => Duration::from_secs(6),
        }
    }
}

/// Largest batch the server forms.
pub const MAX_BATCH: usize = 4;

/// Submission-queue depth: deep enough that a few milliseconds of CPU
/// stolen from the host do not turn into refusals, and that the
/// overloaded top rungs of the ladder show as a growing backlog rather
/// than as refusals.
pub const QUEUE_CAPACITY: usize = 4096;

/// `small_open`'s fixed ladder of offered rates, requests per second:
/// the lowest rate for `latency_p50_ms`, then rungs about 12% apart
/// across the knees the seed's sweeps found on this 2-core host (README),
/// up to a top rung far above the best rate the seed sustained, so that
/// it overloads every round.
pub const LADDER_RPS: [f64; 14] = [
    600.0, 2000.0, 2250.0, 2500.0, 2800.0, 3150.0, 3550.0, 4000.0, 4500.0, 5000.0, 5600.0, 6300.0,
    7100.0, 8000.0,
];
/// Length of `small_open`'s step at the lowest rate, long enough for a
/// steady p50.
pub const LOW_STEP: Duration = Duration::from_secs(1);
/// Length of each higher rung: about a thousand requests near capacity,
/// enough for a p99 with ten samples beyond it.
pub const RUNG_STEP: Duration = Duration::from_millis(300);
/// The ladder rate whose p99 is reported as `loaded_p99_ms`: near the
/// seed's open-loop capacity.
pub const LOADED_RPS: f64 = 4000.0;
/// `small_open`'s p99 limit for `max_rps_under_slo`, milliseconds: above
/// the 5–22 ms the seed's p99 reaches below the knee from host noise
/// alone, below the 100+ ms it reaches once the backlog grows.
pub const SMALL_OPEN_SLO_MS: f64 = 50.0;

/// An AlexNet-shaped stack at reduced width: 3x99x99 input, 11x11/s4,
/// 5x5, 3x3/s2 pool, two 3x3 layers and a classifier (about 7.1M MACs
/// per image).
pub fn alexnet_reduced() -> Network {
    NetworkBuilder::new(3, 99)
        .conv("C1", 16, 11, 4)
        .expect("valid stage")
        .conv("C2", 24, 5, 1)
        .expect("valid stage")
        .pool("P1", 3, 2)
        .expect("valid stage")
        .conv("C3", 32, 3, 1)
        .expect("valid stage")
        .conv("C4", 32, 3, 1)
        .expect("valid stage")
        .fully_connected("FC", 10)
        .expect("valid stage")
        .build(23)
}

/// Distinct request images in a run's pool.
const POOL: usize = 32;

/// Generates the request pool from `rng` and its golden outputs with
/// the reference forward pass.
pub fn inputs(net: &Network, rng: &mut Rng) -> Inputs {
    let shape = net.stages()[0].shape;
    let images: Vec<_> = (0..POOL)
        .map(|_| synth::ifmap(&shape, 1, rng.next_u64()))
        .collect();
    let golden = images.iter().map(|img| net.forward(1, img)).collect();
    Inputs { images, golden }
}

/// Starts a server on a fresh plan cache and compiles every batch size
/// it can form; returns it with the time until it was ready.
pub fn start(kind: Kind, net: Network, tele: Telemetry) -> (Server, Duration) {
    let t0 = Instant::now();
    let server = Server::start_with_compiler(net, kind.config(tele), kind.compiler());
    server
        .prewarm()
        .expect("every workload stage has a feasible plan");
    (server, t0.elapsed())
}
