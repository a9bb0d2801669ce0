//! Load generation: a seeded generator, an open-loop Poisson step at a
//! fixed rate, and a closed loop with a fixed number of outstanding
//! requests. Every response is compared bit for bit with its golden
//! output, computed before timing starts.

use crate::stats;
use eyeriss_nn::{Fix16, Tensor4};
use eyeriss_serve::{LatencyBreakdown, RequestHandle, ServeError, Server};
use eyeriss_telemetry::Telemetry;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// SplitMix64: a small seeded generator, so the same `--seed` gives the
/// same inputs, arrival times and input choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE9C_0FFE_E000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// An index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An exponential inter-arrival gap for a Poisson process at `rate`
    /// events per second.
    pub fn gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-self.unit().ln() / rate)
    }
}

/// The generated request pool and its golden outputs.
pub struct Inputs {
    pub images: Vec<Tensor4<Fix16>>,
    pub golden: Vec<Tensor4<Fix16>>,
}

/// What one load phase saw.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Requests the client tried to send (refusals included).
    pub sent: u64,
    /// Responses that arrived and matched their golden output.
    pub ok: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Requests `try_submit` refused on a full queue.
    pub refused: u64,
    /// Responses whose output differed from the golden output.
    pub mismatched: u64,
    /// Client-side latency of every successful request, milliseconds.
    /// Open loop: from the due time; closed loop: from the submit call.
    pub latency_ms: Vec<f64>,
    /// Open loop only: how late each submit ran behind its due time.
    pub gen_lag_ms: Vec<f64>,
    /// Open loop only: outstanding requests at evenly spaced points.
    pub backlog: Vec<u64>,
    /// Open loop only: the step ended early on an overloaded backlog.
    pub gave_up: bool,
    /// Traced phases only: server-side breakdown, batch size and client
    /// latency (ms) of every successful request.
    pub served: Vec<(LatencyBreakdown, usize, f64)>,
    /// Requests completed inside the measured window.
    pub completed_in_window: u64,
    /// The measured window; for a closed loop, from its start to the
    /// last completion inside it, so throughput is not quantized to
    /// whole requests per window.
    pub window: Duration,
}

impl Outcome {
    /// Requests that failed, were refused or mismatched.
    pub fn errors(&self) -> u64 {
        self.failed + self.refused + self.mismatched
    }

    /// Completed requests per second inside the window.
    pub fn throughput_rps(&self) -> f64 {
        self.completed_in_window as f64 / self.window.as_secs_f64()
    }

    /// Nearest-rank latency percentile, or `None` before any success.
    /// A refused or failed request misses every limit, so it counts as
    /// an infinitely slow sample.
    pub fn latency_q(&self, q: f64) -> Option<f64> {
        let mut all = self.latency_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.errors() as usize));
        stats::nearest_rank(&stats::sorted(&all), q)
    }
}

/// One in-flight request on the client side.
struct InFlight {
    handle: RequestHandle,
    /// When the latency clock started (due time or submit time).
    since: Instant,
    input: usize,
}

/// Receives one response and files it into `out`.
fn settle(
    flight: InFlight,
    inputs: &Inputs,
    tele: Option<&Telemetry>,
    out: &mut Outcome,
) -> Instant {
    let result = {
        let _span = tele.map(|t| t.span("bench.wait", "bench"));
        flight.handle.wait()
    };
    let done = Instant::now();
    match result {
        Ok(resp) if resp.output == inputs.golden[flight.input] => {
            let ms = done.duration_since(flight.since).as_secs_f64() * 1e3;
            out.ok += 1;
            out.latency_ms.push(ms);
            if tele.is_some() {
                out.served.push((resp.latency, resp.batch_size, ms));
            }
        }
        Ok(_) => out.mismatched += 1,
        Err(_) => out.failed += 1,
    }
    done
}

fn submit(
    server: &Server,
    inputs: &Inputs,
    idx: usize,
    blocking: bool,
    tele: Option<&Telemetry>,
) -> Result<RequestHandle, ServeError> {
    let _span = tele.map(|t| t.span("bench.submit", "bench"));
    let input = inputs.images[idx].clone();
    if blocking {
        server.submit(input)
    } else {
        server.try_submit(input)
    }
}

/// Threads that receive responses. Each takes the next in-flight
/// request in submission order and blocks on it alone, so a request
/// that finishes before an earlier one (two workers run batches side by
/// side) is stamped when it finishes, not when the earlier one does.
/// One thread per request the workers can hold in executing batches
/// covers every such overtaking.
fn waiter_count() -> usize {
    eyeriss_serve::ServeConfig::new().workers * crate::workload::MAX_BATCH
}

/// The client side of a load phase: the calling thread submits and
/// hands each accepted request to the waiter threads, which report
/// every completion time back on `done`.
struct Client {
    flights: mpsc::Sender<InFlight>,
    done: mpsc::Receiver<Instant>,
}

/// Runs `body` as the submitting thread with the waiter threads behind
/// it; returns `body`'s result and everything the waiters received.
/// Requests completed by `end` count as inside the window.
fn with_waiters<T>(
    inputs: &Inputs,
    tele: Option<&Telemetry>,
    end: Instant,
    body: impl FnOnce(&Client) -> T,
) -> (T, Outcome) {
    let (flights, queue) = mpsc::channel::<InFlight>();
    let (done_tx, done) = mpsc::channel::<Instant>();
    let queue = Mutex::new(queue);
    std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..waiter_count())
            .map(|_| {
                let (queue, done_tx) = (&queue, done_tx.clone());
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    loop {
                        let next = queue.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        let Ok(flight) = next else { break };
                        let at = settle(flight, inputs, tele, &mut out);
                        if at <= end {
                            out.completed_in_window += 1;
                        }
                        // The submitting thread may have stopped listening.
                        let _ = done_tx.send(at);
                    }
                    out
                })
            })
            .collect();
        drop(done_tx);
        let client = Client { flights, done };
        let result = body(&client);
        drop(client);
        let mut received = Outcome::default();
        for w in waiters {
            received.absorb(w.join().expect("waiter thread panicked"));
        }
        (result, received)
    })
}

impl Outcome {
    /// Adds another waiter's share of the responses.
    fn absorb(&mut self, other: Outcome) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.completed_in_window += other.completed_in_window;
        self.latency_ms.extend(other.latency_ms);
        self.served.extend(other.served);
    }
}

/// Closed loop: keeps `outstanding` requests in flight for `window`,
/// replacing each as it completes, then drains. Latency runs from the
/// submit call.
pub fn closed_loop(
    server: &Server,
    inputs: &Inputs,
    rng: &mut Rng,
    outstanding: usize,
    window: Duration,
    tele: Option<&Telemetry>,
) -> Outcome {
    let start = Instant::now();
    let end = start + window;
    let ((sent, failed, last), received) = with_waiters(inputs, tele, end, |client| {
        let (mut sent, mut failed, mut in_flight) = (0u64, 0u64, 0usize);
        let mut send = || {
            let idx = rng.below(inputs.images.len());
            sent += 1;
            let since = Instant::now();
            match submit(server, inputs, idx, true, tele) {
                Ok(handle) => {
                    let flight = InFlight {
                        handle,
                        since,
                        input: idx,
                    };
                    client
                        .flights
                        .send(flight)
                        .expect("waiters outlive the client");
                    1
                }
                Err(_) => {
                    failed += 1;
                    0
                }
            }
        };
        for _ in 0..outstanding {
            in_flight += send();
        }
        let mut last = start;
        while in_flight > 0 {
            let at = client
                .done
                .recv()
                .expect("a waiter holds every in-flight request");
            in_flight -= 1;
            if at <= end {
                last = last.max(at);
                in_flight += send();
            }
        }
        (sent, failed, last)
    });
    Outcome {
        sent,
        failed: failed + received.failed,
        window: if last > start { last - start } else { window },
        ..received
    }
}

/// Open loop: Poisson arrivals at `rate` per second for `window`, sent
/// with `try_submit` from this thread whether or not earlier requests
/// have finished; the waiter threads receive the responses. Latency
/// runs from each request's due time. The step ends early, marked
/// `gave_up`, once more than `give_up` requests are outstanding.
pub fn open_step(
    server: &Server,
    inputs: &Inputs,
    rng: &mut Rng,
    rate: f64,
    window: Duration,
    give_up: u64,
    tele: Option<&Telemetry>,
) -> Outcome {
    const BACKLOG_SAMPLES: usize = 10;
    let start = Instant::now();
    let end = start + window;
    let (sender, received) = with_waiters(inputs, tele, end, |client| {
        let mut sender = Outcome::default();
        let (mut accepted, mut settled) = (0u64, 0u64);
        let mut backlog = |accepted: u64| {
            settled += client.done.try_iter().count() as u64;
            accepted - settled
        };
        let mut due = start + rng.gap(rate);
        let mut next_sample = 1;
        while due < end {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let idx = rng.below(inputs.images.len());
            let lag = Instant::now().saturating_duration_since(due);
            sender.gen_lag_ms.push(lag.as_secs_f64() * 1e3);
            sender.sent += 1;
            match submit(server, inputs, idx, false, tele) {
                Ok(handle) => {
                    accepted += 1;
                    let flight = InFlight {
                        handle,
                        since: due,
                        input: idx,
                    };
                    client
                        .flights
                        .send(flight)
                        .expect("waiters outlive the client");
                }
                Err(ServeError::Saturated) => sender.refused += 1,
                Err(_) => sender.failed += 1,
            }
            let sample_at = |k: usize| start + window.mul_f64(k as f64 / BACKLOG_SAMPLES as f64);
            while next_sample <= BACKLOG_SAMPLES && due >= sample_at(next_sample) {
                sender.backlog.push(backlog(accepted));
                next_sample += 1;
            }
            if backlog(accepted) > give_up {
                sender.gave_up = true;
                break;
            }
            due += rng.gap(rate);
        }
        while sender.backlog.len() < BACKLOG_SAMPLES {
            sender.backlog.push(backlog(accepted));
        }
        sender
    });
    Outcome {
        sent: sender.sent,
        refused: sender.refused,
        failed: sender.failed + received.failed,
        gen_lag_ms: sender.gen_lag_ms,
        backlog: sender.backlog,
        gave_up: sender.gave_up,
        window,
        ..received
    }
}
