//! The benchmark's workloads: what each one generates, how its session is
//! configured, and the offered rate of its open-loop phase.
//!
//! Every workload targets Γ = 0.95 under the paper's default disorder
//! configuration (P = 60 s, L = 1 s, b = g = 10 ms, NonEqSel) and isolates
//! a different layer of the system; `perfbench/README.md` records why each
//! exists and which layer dominates it.

use mswj_core::{
    BufferPolicy, DisorderConfig, ExecutionBackend, Pipeline, SessionBuilder, Telemetry,
};
use mswj_datasets::{SoccerConfig, SoccerDataset, SyntheticConfig, SyntheticDataset};
use mswj_join::JoinQuery;
use mswj_metrics::{ground_truth_counts, CountSeries};
use mswj_types::ArrivalEvent;

/// The recall requirement Γ of every workload.
pub const GAMMA: f64 = 0.95;

/// Which generator a workload draws its arrivals from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// D×3syn: 3-way common-key equi-join, 5 s windows; `tick_ms` per tuple
    /// and stream.
    Dx3 {
        /// Generation tick per stream (ms).
        tick_ms: u64,
    },
    /// D×2real(sim): 2-way distance join of two soccer teams, 5 s windows.
    Dx2 {
        /// Sensor sampling interval per team stream (ms).
        sample_ms: u64,
    },
}

/// How big a generated input is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// Just past one quality period, so every check still has γ(P)
    /// samples to look at; for tests.
    Smoke,
}

/// Simulated seconds of a smoke-size input: one 60 s quality period plus
/// enough checkpoints after it to yield γ(P) samples.
const SMOKE_SECS: u64 = 75;

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Arrival generator.
    pub source: Source,
    /// Simulated duration at full scale (s).
    pub secs: u64,
    /// Join-stage backend.
    pub backend: ExecutionBackend,
    /// Arrivals per `push_batch_into` call in the closed-loop phase (and
    /// the most the open-loop generator sends in one call).
    pub batch: usize,
    /// Whether every join result is materialized into the sink.
    pub materialize: bool,
    /// Whether a `Telemetry` handle is attached to the session.
    pub telemetry: bool,
    /// Offered rate of the open-loop phase (arrivals/s).  Set where
    /// checkpoint stalls delay well under half of the arrivals, so the
    /// median measures the push path rather than flipping between it and
    /// the stalls; see `perfbench/README.md`.
    pub offered_rate: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "dx3-paper",
            source: Source::Dx3 { tick_ms: 10 },
            secs: 600,
            backend: ExecutionBackend::Sequential,
            batch: 256,
            materialize: false,
            telemetry: false,
            offered_rate: 15_000.0,
        },
        Workload {
            name: "dx2-remote-x5",
            source: Source::Dx2 { sample_ms: 6 },
            secs: 200,
            backend: ExecutionBackend::remote_inproc(1),
            batch: 64,
            materialize: true,
            telemetry: true,
            offered_rate: 4_000.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// A generated input: the query, the arrival-ordered events and the
/// ground-truth result counts per timestamp.
#[derive(Debug)]
pub struct Input {
    /// The join query the arrivals are generated for.
    pub query: JoinQuery,
    /// Every arrival, in arrival order.
    pub events: Vec<ArrivalEvent>,
    /// True result counts from a timestamp-ordered replay.
    pub truth: CountSeries,
}

impl Workload {
    /// Simulated duration at `scale` (s).
    pub fn secs_at(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => self.secs,
            Scale::Smoke => SMOKE_SECS.min(self.secs),
        }
    }

    /// The open-loop offered rate (arrivals/s) for an input of `arrivals`
    /// at `scale`: a smoke-size pass is offered everything within half a
    /// second, so it exercises the backlog path and stays short.
    pub fn open_rate(&self, scale: Scale, arrivals: usize) -> f64 {
        match scale {
            Scale::Full => self.offered_rate,
            Scale::Smoke => self.offered_rate.max(arrivals as f64 * 2.0),
        }
    }

    /// Generates the input for `seed` and computes its ground truth.
    pub fn generate(&self, seed: u64, scale: Scale) -> Input {
        let secs = self.secs_at(scale);
        let (query, log) = match self.source {
            Source::Dx3 { tick_ms } => {
                let cfg = SyntheticConfig::three_way()
                    .duration_secs(secs)
                    .tick(tick_ms);
                let d = SyntheticDataset::generate(&cfg, seed);
                (d.query, d.log)
            }
            Source::Dx2 { sample_ms } => {
                let cfg = SoccerConfig::default()
                    .duration_secs(secs)
                    .sample_interval(sample_ms);
                let d = SoccerDataset::generate(&cfg, seed);
                (d.query, d.log)
            }
        };
        let truth = ground_truth_counts(&query, &log);
        Input {
            query,
            events: log.events().to_vec(),
            truth,
        }
    }

    /// The paper's default configuration at Γ = [`GAMMA`].
    pub fn disorder_config(&self) -> DisorderConfig {
        DisorderConfig::with_gamma(GAMMA)
    }

    /// The session builder for `query`, configured as this workload runs.
    pub fn session(&self, query: &JoinQuery) -> SessionBuilder {
        let mut b = Pipeline::builder()
            .name(self.name)
            .query(query.clone())
            .policy(BufferPolicy::QualityDriven(self.disorder_config()))
            .parallelism(self.backend.clone());
        if self.materialize {
            b = b.materialize_results();
        }
        if self.telemetry {
            b = b.telemetry(Telemetry::new());
        }
        b
    }

    /// The metadata line fields describing this workload's parameters.
    pub fn describe(&self, scale: Scale) -> Vec<(&'static str, String)> {
        let (dataset, streams, interval_ms) = match self.source {
            Source::Dx3 { tick_ms } => ("Dx3syn", 3, tick_ms),
            Source::Dx2 { sample_ms } => ("Dx2real(sim)", 2, sample_ms),
        };
        let rate = streams as f64 * 1000.0 / interval_ms as f64;
        vec![
            ("dataset", dataset.to_owned()),
            ("simulated_s", self.secs_at(scale).to_string()),
            ("event_rate_per_sim_s", rate.to_string()),
            ("backend", self.backend.to_string()),
            ("batch", self.batch.to_string()),
            ("materialize", self.materialize.to_string()),
            ("telemetry", self.telemetry.to_string()),
            ("offered_rate_eps", format!("{}", self.offered_rate)),
            ("gamma", format!("{GAMMA}")),
        ]
    }
}
