//! The untraced passes — closed loop and open loop — through the public
//! session API, the sink they deliver into, and the checks every pass must
//! pass before its numbers count.

use crate::workload::{Input, Workload, GAMMA};
use mswj_core::{Checkpoint, OutputEvent, Pipeline, RunReport, Sink};
use mswj_join::{JoinResult, OperatorStats};
use mswj_metrics::{evaluate_recall, CountSeries, RecallEvaluation};
use mswj_types::{Timestamp, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Bytes of encoded results the materializing sink buffers before it
/// "writes them out" (clears the buffer).
const SINK_FLUSH_BYTES: usize = 64 * 1024;

/// Where a session delivers its output.  Counting workloads only tally
/// events; a materializing workload encodes every result the way a writer
/// would and folds it into an order-independent checksum, so passes can be
/// compared result by result.
#[derive(Debug, Default)]
pub struct BenchSink {
    /// Output events of every kind received.
    pub events: u64,
    /// `OutputEvent::Result` events received.
    pub results: u64,
    /// Wrapping sum of a hash of every encoded result.
    pub checksum: u64,
    buf: Vec<u8>,
}

impl Sink for BenchSink {
    fn event(&mut self, ev: OutputEvent<'_>) {
        self.events += 1;
        if let OutputEvent::Result(r) = ev {
            self.write_result(r);
        }
    }
}

impl BenchSink {
    fn write_result(&mut self, r: &JoinResult) {
        if self.buf.len() > SINK_FLUSH_BYTES {
            self.buf.clear();
        }
        let start = self.buf.len();
        self.buf.extend_from_slice(&r.ts.as_millis().to_le_bytes());
        for t in &r.components {
            self.buf
                .extend_from_slice(&(t.stream.as_usize() as u32).to_le_bytes());
            self.buf.extend_from_slice(&t.seq.to_le_bytes());
            self.buf.extend_from_slice(&t.ts.as_millis().to_le_bytes());
            for v in t.values() {
                match v {
                    Value::Int(x) => self.buf.extend_from_slice(&x.to_le_bytes()),
                    Value::Float(x) => self.buf.extend_from_slice(&x.to_bits().to_le_bytes()),
                    Value::Str(s) => self.buf.extend_from_slice(s.as_bytes()),
                    Value::Bool(b) => self.buf.push(u8::from(*b)),
                    Value::Null => self.buf.push(0xff),
                }
            }
        }
        self.results += 1;
        self.checksum = self.checksum.wrapping_add(fnv1a(&self.buf[start..]));
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything a pass produced that another pass over the same input must
/// reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `RunReport::total_produced`.
    pub total_produced: u64,
    /// Result events the sink saw, and their checksum.
    pub sink_results: (u64, u64),
    /// Every checkpoint minus its wall-clock adaptation time.
    pub checkpoints: Vec<TimelessCheckpoint>,
    /// `RunReport::produced`, in emission order.
    pub produced: Vec<(Timestamp, u64)>,
    /// The join stage's aggregate counters.
    pub operator: OperatorStats,
    /// Time-weighted mean K, bit for bit.
    pub avg_k_bits: u64,
}

/// A checkpoint without its wall-clock field; floats compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelessCheckpoint {
    /// Arrival-axis instant.
    pub at: Timestamp,
    /// The join stage's onT when it was taken.
    pub measure_ts: Timestamp,
    /// K applied from here on (ms).
    pub k: u64,
    /// Alg. 3 search steps.
    pub steps: u32,
    /// Γ' bits.
    pub gamma_prime: u64,
    /// Estimated-recall bits.
    pub estimated: u64,
}

impl From<&Checkpoint> for TimelessCheckpoint {
    fn from(c: &Checkpoint) -> Self {
        TimelessCheckpoint {
            at: c.at,
            measure_ts: c.measure_ts,
            k: c.k,
            steps: c.steps,
            gamma_prime: c.gamma_prime.to_bits(),
            estimated: c.estimated_recall.to_bits(),
        }
    }
}

impl Fingerprint {
    /// The fingerprint of a finished pass.
    pub fn of(report: &RunReport, sink: &BenchSink) -> Self {
        Self::from_parts(
            &report.checkpoints,
            report.produced.clone(),
            report.operator_stats,
            report.avg_k_ms,
            sink,
        )
    }

    /// The fingerprint of a pass's parts; the result count is the
    /// operator's, as in `RunReport::total_produced`.
    pub fn from_parts(
        checkpoints: &[Checkpoint],
        produced: Vec<(Timestamp, u64)>,
        operator: OperatorStats,
        avg_k_ms: f64,
        sink: &BenchSink,
    ) -> Self {
        Fingerprint {
            total_produced: operator.results,
            sink_results: (sink.results, sink.checksum),
            checkpoints: checkpoints.iter().map(Into::into).collect(),
            produced,
            operator,
            avg_k_bits: avg_k_ms.to_bits(),
        }
    }

    /// The first field on which `self` and `other` differ, if any.
    pub fn first_difference(&self, other: &Fingerprint) -> Option<&'static str> {
        if self.total_produced != other.total_produced {
            Some("result count")
        } else if self.sink_results != other.sink_results {
            Some("sink results")
        } else if self
            .checkpoints
            .iter()
            .map(|c| c.k)
            .ne(other.checkpoints.iter().map(|c| c.k))
        {
            Some("K sequence")
        } else if self.checkpoints != other.checkpoints {
            Some("checkpoints")
        } else if self.produced != other.produced {
            Some("produced series")
        } else if self.operator != other.operator {
            Some("operator counters")
        } else if self.avg_k_bits != other.avg_k_bits {
            Some("average K")
        } else {
            None
        }
    }
}

/// One finished pass.
#[derive(Debug)]
pub struct Pass {
    /// The session's report.
    pub report: RunReport,
    /// The sink the session delivered into.
    pub sink: BenchSink,
    /// Wall time from the first push to the return of `finish_into`.
    pub wall: Duration,
    /// Open loop only: per-arrival time from due to the return of the push
    /// call that took it (ns), in arrival order.
    pub ingest_nanos: Vec<u64>,
    /// Open loop only: per call, how late the generator sent (ns).
    pub lag_nanos: Vec<u64>,
    /// Share of the CPU time this machine's CPUs wanted during the pass
    /// that the hypervisor ran something else instead (steal), from
    /// `/proc/stat`; 0 where that is unavailable.
    pub steal_share: f64,
}

impl Pass {
    /// Wall time with the stolen share taken out: the time the pass would
    /// have taken on CPUs the hypervisor never took away.
    pub fn unstolen_secs(&self) -> f64 {
        self.wall.as_secs_f64() * (1.0 - self.steal_share)
    }
}

/// `(busy, steal)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let get = |i: usize| fields.get(i).copied().unwrap_or(0);
    // Fields: user nice system idle iowait irq softirq steal.
    (get(0) + get(1) + get(2) + get(5) + get(6), get(7))
}

fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0);
    let steal = after.1.saturating_sub(before.1);
    if busy + steal == 0 {
        0.0
    } else {
        steal as f64 / (busy + steal) as f64
    }
}

/// Replays every arrival back-to-back in `workload.batch`-sized calls.
pub fn closed_loop(w: &Workload, input: &Input) -> Result<Pass, String> {
    guarded(|| {
        let mut session = build(w, input)?;
        let events = input.events.clone();
        let mut sink = BenchSink::default();
        let mut it = events.into_iter();
        let cpu = cpu_jiffies();
        let started = Instant::now();
        while it.len() > 0 {
            session.push_batch_into(it.by_ref().take(w.batch), &mut sink);
        }
        let report = session.finish_into(&mut sink);
        let wall = started.elapsed();
        Ok(Pass {
            report,
            sink,
            wall,
            ingest_nanos: Vec::new(),
            lag_nanos: Vec::new(),
            steal_share: steal_share(cpu, cpu_jiffies()),
        })
    })
}

/// Offers the arrivals at `rate` per second on a fixed schedule:
/// arrival `i` is due `i / rate` seconds after the start, and each call
/// takes whatever is due, up to the batch size.  The schedule never waits
/// for the session, so a stall delays every arrival due during it.
pub fn open_loop(w: &Workload, input: &Input, rate: f64) -> Result<Pass, String> {
    guarded(|| {
        let mut session = build(w, input)?;
        let events = input.events.clone();
        let n = events.len();
        let mut sink = BenchSink::default();
        let mut ingest_nanos = Vec::with_capacity(n);
        let mut lag_nanos = Vec::new();
        let period_ns = 1e9 / rate;
        let due = |i: usize| (i as f64 * period_ns) as u64;
        let mut it = events.into_iter();
        let mut sent = 0usize;
        let mut last_return = 0u64;
        let cpu = cpu_jiffies();
        let started = Instant::now();
        while sent < n {
            let now = started.elapsed().as_nanos() as u64;
            let next_due = due(sent);
            if now < next_due {
                let wait = next_due - now;
                if wait > 200_000 {
                    std::thread::sleep(Duration::from_nanos(wait - 100_000));
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            let due_count = ((now as f64 / period_ns) as usize + 1).min(n);
            let take = (due_count - sent).clamp(1, w.batch);
            lag_nanos.push(now - next_due.max(last_return).min(now));
            session.push_batch_into(it.by_ref().take(take), &mut sink);
            let returned = started.elapsed().as_nanos() as u64;
            ingest_nanos.extend((sent..sent + take).map(|i| returned - due(i)));
            last_return = returned;
            sent += take;
        }
        let report = session.finish_into(&mut sink);
        Ok(Pass {
            report,
            sink,
            wall: started.elapsed(),
            ingest_nanos,
            lag_nanos,
            steal_share: steal_share(cpu, cpu_jiffies()),
        })
    })
}

fn build(w: &Workload, input: &Input) -> Result<Pipeline, String> {
    w.session(&input.query)
        .build()
        .map_err(|e| format!("session build failed: {e}"))
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// Wall time of each of `reps` calls of `SessionBuilder::build()` (s), each
/// session dropped (its threads joined) outside the timed region.
pub fn setup_seconds(w: &Workload, input: &Input, reps: usize) -> Result<Vec<f64>, String> {
    guarded(|| {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let builder = w.session(&input.query);
            let started = Instant::now();
            let session = builder
                .build()
                .map_err(|e| format!("session build failed: {e}"))?;
            samples.push(started.elapsed().as_secs_f64());
            drop(session);
        }
        Ok(samples)
    })
}

/// The paper's quality figures of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Time-weighted mean K (ms).
    pub avg_k_ms: f64,
    /// Produced ÷ true results over the whole run.
    pub recall: f64,
    /// Φ(Γ): share of γ(P) samples meeting Γ (%).
    pub phi_gamma_pct: f64,
    /// Number of γ(P) samples.
    pub samples: usize,
}

/// Checks one pass against the ground truth and the workload's invariants;
/// returns its quality figures or every problem found.
pub fn check(w: &Workload, input: &Input, pass: &Pass) -> Result<Quality, Vec<String>> {
    let mut problems = Vec::new();
    let report = &pass.report;
    let eval: RecallEvaluation =
        evaluate_recall(report, &input.truth, w.disorder_config().period_p);
    if eval.samples.is_empty() {
        problems.push("no γ(P) samples: Φ(Γ) is undefined".to_owned());
    }
    if let Some(s) = eval.samples.iter().find(|s| s.produced > s.true_results) {
        problems.push(format!(
            "period ending {} ms produced {} > {} true results",
            s.at.as_millis(),
            s.produced,
            s.true_results
        ));
    }
    if let Some((ts, n)) = excess_over_truth(&report.produced, &input.truth) {
        problems.push(format!(
            "timestamp {} ms produced {n} results, more than the ground truth",
            ts.as_millis()
        ));
    }
    let stats = report.operator_stats;
    if stats.in_order + stats.out_of_order != input.events.len() as u64 {
        problems.push(format!(
            "join saw {} in-order + {} out-of-order tuples for {} arrivals",
            stats.in_order,
            stats.out_of_order,
            input.events.len()
        ));
    }
    if w.materialize && pass.sink.results != report.total_produced {
        problems.push(format!(
            "sink materialized {} results, report counts {}",
            pass.sink.results, report.total_produced
        ));
    }
    if problems.is_empty() {
        Ok(Quality {
            avg_k_ms: report.avg_k_ms,
            recall: eval.overall_recall,
            phi_gamma_pct: eval.fulfilment_pct(GAMMA),
            samples: eval.samples.len(),
        })
    } else {
        Err(problems)
    }
}

/// The first result timestamp at which `produced` exceeds the ground truth.
fn excess_over_truth(
    produced: &[(Timestamp, u64)],
    truth: &CountSeries,
) -> Option<(Timestamp, u64)> {
    let mut by_ts = produced.to_vec();
    by_ts.sort_unstable_by_key(|&(ts, _)| ts);
    let mut i = 0;
    while i < by_ts.len() {
        let ts = by_ts[i].0;
        let mut n = 0;
        while i < by_ts.len() && by_ts[i].0 == ts {
            n += by_ts[i].1;
            i += 1;
        }
        let true_at = if ts == Timestamp::ZERO {
            truth.total() - truth.count_in(Timestamp::ZERO, Timestamp::MAX)
        } else {
            truth.count_in(ts.saturating_sub_duration(1), ts)
        };
        if n > true_at {
            return Some((ts, n));
        }
    }
    None
}
