//! The traced replica: the same arrivals replayed through the public layer
//! types in the order `Pipeline` calls them, with a span around every call.
//!
//! Spans are aggregated per layer in memory (call count and nanoseconds);
//! a span whose callbacks enter other layers — the engine's flush and sync
//! deliver every outcome to the profiler, the result-size monitor and the
//! sink — is reported as self time, its children subtracted.  The replica
//! covers the quality-driven policy, the only one the workloads run.  It is
//! valid only if its fingerprint equals that of an untraced `Pipeline` pass
//! on the same backend; the caller checks that.

use crate::run::{BenchSink, Fingerprint};
use crate::workload::{Input, Workload};
use mswj_core::{
    BufferSizeManager, Checkpoint, EngineEvent, EventKind, JoinEngine, KSlack, OutputEvent,
    ProductivityProfiler, ResultSizeMonitor, ShardStats, Sink, StatisticsManager, Synchronizer,
    Telemetry, TelemetryEvent,
};
use mswj_join::ProbeStrategy;
use mswj_types::{ArrivalEvent, Duration, StreamIndex, Timestamp, Tuple};
use std::collections::VecDeque;
use std::time::Instant;

/// Calls into one layer and the wall time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Number of calls.
    pub calls: u64,
    /// Total nanoseconds.
    pub nanos: u64,
}

impl Span {
    fn close(&mut self, started: Instant) -> u64 {
        let ns = started.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.nanos += ns;
        ns
    }

    /// Total time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// What the traced replica measured, layer by layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// `StatisticsManager::observe`.
    pub observe: Span,
    /// `KSlack::push_into`, `set_k`, `emit_ready_into` and `flush_into`.
    pub kslack: Span,
    /// `Synchronizer::push_into` and `flush_into`.
    pub synchronizer: Span,
    /// `ProductivityProfiler::record_*`, `roll_interval` and
    /// `n_true_estimate`.
    pub profiler: Span,
    /// Every `ResultSizeMonitor` call.
    pub monitor: Span,
    /// `BufferSizeManager::adapt`.
    pub adaptation: Span,
    /// `JoinEngine::stage`.
    pub stage: Span,
    /// `JoinEngine::flush`, self time.
    pub flush: Span,
    /// `JoinEngine::sync`, self time: the front-end's wait at barriers.
    pub sync: Span,
    /// Every `Sink::event`.
    pub sink: Span,
    /// Wall time of each adaptation call (ns), in call order.
    pub adapt_call_nanos: Vec<u64>,
    /// K-search iterations across all adaptation calls.
    pub adapt_steps: u64,
    /// Sum of the program's own `adaptation_nanos`.
    pub adapt_program_nanos: u64,
    /// Most tuples buffered across all K-slack components at once.
    pub kslack_buffered_max: usize,
    /// Most tuples buffered in the synchronizer at once.
    pub synchronizer_buffered_max: usize,
    /// Buffer-size changes applied.
    pub k_changes: u64,
    /// Largest window footprint sampled at a checkpoint (bytes).
    pub window_bytes_max: u64,
    /// Most window segments sampled at a checkpoint.
    pub window_segments_max: u64,
}

/// One finished traced pass.
#[derive(Debug)]
pub struct TracedPass {
    /// Comparable against an untraced pass.
    pub fingerprint: Fingerprint,
    /// Per-layer spans and counters.
    pub layers: Layers,
    /// The engine's per-shard counters at the end.
    pub shard_stats: Vec<ShardStats>,
    /// The sink the replica delivered into.
    pub sink: BenchSink,
    /// Wall time from the first push to the end of the finish.
    pub wall: std::time::Duration,
}

/// Replays `input` through the replica in `workload.batch`-sized calls.
pub fn traced_pass(w: &Workload, input: &Input) -> Result<TracedPass, String> {
    crate::run::guarded(|| {
        let mut replica = Replica::new(w, input)?;
        let events = input.events.clone();
        let mut sink = BenchSink::default();
        let mut it = events.into_iter();
        let started = Instant::now();
        while it.len() > 0 {
            replica.push_batch(it.by_ref().take(w.batch), &mut sink);
        }
        let (fingerprint, layers, shard_stats) = replica.finish(&mut sink);
        let wall = started.elapsed();
        Ok(TracedPass {
            fingerprint,
            layers,
            shard_stats,
            sink,
            wall,
        })
    })
}

/// The front-end state `Pipeline` keeps, rebuilt from public types.
struct Replica {
    kslacks: Vec<KSlack>,
    synchronizer: Synchronizer,
    engine: JoinEngine,
    stats: StatisticsManager,
    profiler: ProductivityProfiler,
    monitor: ResultSizeMonitor,
    manager: BufferSizeManager,
    interval_l: Duration,
    next_checkpoint: Option<Timestamp>,
    first_arrival: Option<Timestamp>,
    last_arrival: Timestamp,
    current_k: Duration,
    k_weighted_sum: f64,
    k_since: Timestamp,
    produced: Vec<(Timestamp, u64)>,
    checkpoints: Vec<Checkpoint>,
    last_progress: Option<Timestamp>,
    scratch_released: Vec<Tuple>,
    scratch_synced: Vec<Tuple>,
    pending_meta: VecDeque<(Duration, Timestamp)>,
    telemetry: Option<Telemetry>,
    layers: Layers,
}

impl Replica {
    fn new(w: &Workload, input: &Input) -> Result<Self, String> {
        let config = w.disorder_config();
        let query = &input.query;
        let m = query.arity();
        let mut engine = JoinEngine::try_with_policies(
            query.clone(),
            ProbeStrategy::default(),
            w.materialize,
            w.backend.clone(),
            None,
            None,
        )
        .map_err(|e| format!("engine build failed: {e}"))?;
        let telemetry = w.telemetry.then(Telemetry::new);
        if let Some(t) = &telemetry {
            engine.attach_telemetry(t.clone());
        }
        Ok(Replica {
            kslacks: (0..m).map(|_| KSlack::new(0)).collect(),
            synchronizer: Synchronizer::new(m),
            engine,
            stats: StatisticsManager::new(m, config.granularity_g),
            profiler: ProductivityProfiler::new(config.granularity_g),
            monitor: ResultSizeMonitor::new(
                config.period_p.saturating_sub(config.interval_l).max(1),
            ),
            manager: BufferSizeManager::new(config, query.windows()),
            interval_l: config.interval_l,
            next_checkpoint: None,
            first_arrival: None,
            last_arrival: Timestamp::ZERO,
            current_k: 0,
            k_weighted_sum: 0.0,
            k_since: Timestamp::ZERO,
            produced: Vec::new(),
            checkpoints: Vec::new(),
            last_progress: None,
            scratch_released: Vec::new(),
            scratch_synced: Vec::new(),
            pending_meta: VecDeque::new(),
            telemetry,
            layers: Layers::default(),
        })
    }

    fn push_batch<S: Sink>(&mut self, events: impl Iterator<Item = ArrivalEvent>, sink: &mut S) {
        for event in events {
            self.ingest(event, sink);
        }
        self.drive_engine(sink, false);
    }

    fn ingest<S: Sink>(&mut self, event: ArrivalEvent, sink: &mut S) {
        let arrival = event.arrival;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(arrival);
            self.k_since = arrival;
            self.next_checkpoint = Some(arrival.saturating_add_duration(self.interval_l));
        }
        self.last_arrival = arrival;
        while let Some(next) = self.next_checkpoint {
            if arrival < next {
                break;
            }
            self.drive_engine(sink, true);
            self.take_checkpoint(next, sink);
            self.next_checkpoint = Some(next.saturating_add_duration(self.interval_l));
        }

        let stream = event.stream();
        let tuple = event.tuple;
        let t = Instant::now();
        let delay = self.stats.observe(stream, tuple.ts);
        self.layers.observe.close(t);
        if let Some(tel) = &self.telemetry {
            let s = tel.session();
            s.events_ingested.inc();
            s.kslack_delay_ms.record(delay);
        }

        let mut released = std::mem::take(&mut self.scratch_released);
        let t = Instant::now();
        self.kslacks[stream.as_usize()].push_into(tuple, &mut released);
        self.layers.kslack.close(t);
        let buffered = self.kslacks.iter().map(KSlack::buffered).sum();
        self.layers.kslack_buffered_max = self.layers.kslack_buffered_max.max(buffered);
        self.route_downstream(&mut released);
        self.scratch_released = released;
    }

    fn route_downstream(&mut self, released: &mut Vec<Tuple>) {
        let mut synced = std::mem::take(&mut self.scratch_synced);
        for tuple in released.drain(..) {
            let t = Instant::now();
            self.synchronizer.push_into(tuple, &mut synced);
            self.layers.synchronizer.close(t);
        }
        self.layers.synchronizer_buffered_max = self
            .layers
            .synchronizer_buffered_max
            .max(self.synchronizer.buffered());
        for tuple in synced.drain(..) {
            self.stage_one(tuple);
        }
        self.scratch_synced = synced;
    }

    fn stage_one(&mut self, tuple: Tuple) {
        self.pending_meta
            .push_back((tuple.delay_or_zero(), tuple.ts));
        let t = Instant::now();
        self.engine.stage(tuple);
        self.layers.stage.close(t);
    }

    /// `JoinEngine::flush` (or `sync` at a barrier) with the outcome
    /// bookkeeping `Pipeline` does in its callback, each callee timed.
    fn drive_engine<S: Sink>(&mut self, sink: &mut S, barrier: bool) {
        if !barrier && !self.engine.has_pending() && !self.engine.has_outstanding() {
            return;
        }
        let Replica {
            engine,
            profiler,
            monitor,
            produced,
            last_progress,
            pending_meta,
            telemetry,
            layers,
            ..
        } = self;
        let session = telemetry.as_ref().map(Telemetry::session);
        let mut children = 0u64;
        let mut handler = |ev: EngineEvent<'_>| match ev {
            EngineEvent::Result(r) => {
                let t = Instant::now();
                sink.event(OutputEvent::Result(r));
                children += layers.sink.close(t);
            }
            EngineEvent::Done(outcome) => {
                let (delay, ts) = pending_meta
                    .pop_front()
                    .expect("one Done event per staged tuple");
                if outcome.in_order {
                    let t = Instant::now();
                    profiler.record_processed(delay, outcome.n_cross, outcome.n_join);
                    children += layers.profiler.close(t);
                    if let Some(s) = session {
                        s.results_emitted.add(outcome.n_join);
                    }
                    if outcome.n_join > 0 {
                        let t = Instant::now();
                        monitor.record_produced(ts, outcome.n_join);
                        children += layers.monitor.close(t);
                        produced.push((ts, outcome.n_join));
                    }
                    if *last_progress != Some(ts) {
                        *last_progress = Some(ts);
                        let t = Instant::now();
                        sink.event(OutputEvent::Progress(ts));
                        children += layers.sink.close(t);
                    }
                } else {
                    let t = Instant::now();
                    profiler.record_unprocessed(delay);
                    children += layers.profiler.close(t);
                    if let Some(s) = session {
                        s.tuples_dropped.inc();
                    }
                }
            }
        };
        let started = Instant::now();
        if barrier {
            engine.sync(&mut handler);
        } else {
            engine.flush(&mut handler);
        }
        let total = started.elapsed().as_nanos() as u64;
        if let Some(s) = session {
            s.ingest_emit_latency_nanos.record(total);
        }
        let span = if barrier {
            &mut layers.sync
        } else {
            &mut layers.flush
        };
        span.calls += 1;
        span.nanos += total.saturating_sub(children);
    }

    fn take_checkpoint<S: Sink>(&mut self, at: Timestamp, sink: &mut S) {
        let measure_ts = self.engine.on_t();

        let t = Instant::now();
        self.profiler.roll_interval();
        let n_true_last = self.profiler.n_true_estimate();
        self.layers.profiler.close(t);

        let t = Instant::now();
        self.monitor.record_true_estimate(measure_ts, n_true_last);
        self.layers.monitor.close(t);

        let t = Instant::now();
        let outcome =
            self.manager
                .adapt(&self.stats, &self.profiler, &mut self.monitor, measure_ts);
        let ns = self.layers.adaptation.close(t);
        self.layers.adapt_call_nanos.push(ns);
        self.layers.adapt_steps += u64::from(outcome.steps);
        self.layers.adapt_program_nanos += outcome.elapsed_nanos;

        self.apply_k(outcome.k, at, sink);
        self.drive_engine(sink, true);

        let footprint = self.engine.shard_stats();
        let bytes = footprint.iter().map(|s| s.runtime.window_bytes).sum();
        let segments = footprint.iter().map(|s| s.runtime.window_segments).sum();
        self.layers.window_bytes_max = self.layers.window_bytes_max.max(bytes);
        self.layers.window_segments_max = self.layers.window_segments_max.max(segments);

        self.checkpoints.push(Checkpoint {
            at,
            measure_ts,
            k: outcome.k,
            gamma_prime: outcome.gamma_prime,
            estimated_recall: outcome.estimated_recall,
            adaptation_nanos: outcome.elapsed_nanos,
            steps: outcome.steps,
        });
        let latest = self.checkpoints.last().expect("pushed just above");
        let t = Instant::now();
        sink.event(OutputEvent::Checkpoint(latest));
        self.layers.sink.close(t);

        if self.telemetry.is_some() {
            self.publish_checkpoint_telemetry(at, measure_ts, outcome.k, &outcome);
        }
    }

    fn publish_checkpoint_telemetry(
        &mut self,
        at: Timestamp,
        measure_ts: Timestamp,
        k: Duration,
        outcome: &mswj_core::AdaptationOutcome,
    ) {
        let t = Instant::now();
        let produced = self.monitor.produced_within(measure_ts);
        let truth = self.monitor.true_within(measure_ts);
        self.layers.monitor.close(t);
        let observed = if truth == 0 {
            f64::NAN
        } else {
            (produced as f64 / truth as f64).min(1.0)
        };
        let stats = self.engine.stats();
        let arrived = stats.in_order + stats.out_of_order;
        let drop_rate = if arrived == 0 {
            0.0
        } else {
            stats.out_of_order as f64 / arrived as f64
        };
        let tel = self.telemetry.as_ref().expect("checked by caller");
        let s = tel.session();
        s.k_ms.set(k as f64);
        s.gamma_prime.set(outcome.gamma_prime);
        s.recall_estimated.set(outcome.estimated_recall);
        s.recall_observed.set(observed);
        s.drop_rate.set(drop_rate);
        s.checkpoints.inc();
        tel.emit(TelemetryEvent {
            at_ms: at.as_millis(),
            kind: EventKind::Checkpoint,
            message: format!(
                "checkpoint at {} ms: K = {k} ms, recall est {:.4} / obs {observed:.4}",
                at.as_millis(),
                outcome.estimated_recall
            ),
        });
        self.engine.publish_telemetry();
    }

    fn apply_k<S: Sink>(&mut self, k: Duration, at: Timestamp, sink: &mut S) {
        if k == self.current_k {
            return;
        }
        self.layers.k_changes += 1;
        let old = self.current_k;
        self.k_weighted_sum += self.current_k as f64 * (at - self.k_since) as f64;
        self.k_since = at;
        self.current_k = k;
        let mut released = std::mem::take(&mut self.scratch_released);
        for (i, ks) in self.kslacks.iter_mut().enumerate() {
            let t = Instant::now();
            ks.set_k(k);
            self.layers.kslack.close(t);
            let t = Instant::now();
            sink.event(OutputEvent::KChanged {
                stream: StreamIndex(i),
                old,
                new: k,
            });
            self.layers.sink.close(t);
            let t = Instant::now();
            ks.emit_ready_into(&mut released);
            self.layers.kslack.close(t);
        }
        if !released.is_empty() {
            released.sort_by_key(|t| t.ts);
            self.route_downstream(&mut released);
        }
        self.scratch_released = released;
    }

    /// End of stream, as `Pipeline::finish_into` does it.  Consumes the
    /// replica so the engine's threads are joined inside the timed region,
    /// as they are when a `Pipeline` is finished.
    fn finish(mut self, sink: &mut BenchSink) -> (Fingerprint, Layers, Vec<ShardStats>) {
        let mut tail = std::mem::take(&mut self.scratch_released);
        for ks in &mut self.kslacks {
            let t = Instant::now();
            ks.flush_into(&mut tail);
            self.layers.kslack.close(t);
        }
        tail.sort_by_key(|t| t.ts);
        self.route_downstream(&mut tail);
        let mut synced = std::mem::take(&mut self.scratch_synced);
        let t = Instant::now();
        self.synchronizer.flush_into(&mut synced);
        self.layers.synchronizer.close(t);
        for tuple in synced.drain(..) {
            self.stage_one(tuple);
        }
        self.drive_engine(sink, true);

        let end = self.last_arrival;
        self.k_weighted_sum += self.current_k as f64 * (end - self.k_since) as f64;
        let start = self.first_arrival.unwrap_or(Timestamp::ZERO);
        let duration = end.saturating_duration_since(start);
        let avg_k = if duration > 0 {
            self.k_weighted_sum / duration as f64
        } else {
            self.current_k as f64
        };
        let fingerprint = Fingerprint::from_parts(
            &self.checkpoints,
            self.produced,
            self.engine.stats(),
            avg_k,
            sink,
        );
        (fingerprint, self.layers, self.engine.shard_stats())
    }
}
