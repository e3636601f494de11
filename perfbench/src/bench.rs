//! One benchmark run: parse the arguments, generate the input, run the
//! passes the mode calls for within the time budget, check every pass, and
//! assemble the output lines.

use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::run::{self, Fingerprint, Pass, Quality};
use crate::stats::{self, Summary};
use crate::trace::{self, TracedPass};
use crate::workload::{self, Input, Scale, Workload};
use std::time::{Duration, Instant};

/// `SessionBuilder::build()` calls timed before each closed-loop pass for
/// `setup_s`.  Spreading them over the run makes their median follow the
/// host's state over the whole run rather than over its first milliseconds.
const SETUP_REPS_PER_PASS: usize = 61;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload::by_name(&workload).is_none() {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}`; one of {}",
            names.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One metric as reported: the value on the result line plus the detail
/// behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value on the result line.
    pub value: f64,
    /// Median, quartiles and count of the samples the value came from.
    pub summary: Option<Summary>,
    /// For a latency percentile: the highest percentile with at least ten
    /// samples beyond it, and its value.
    pub tail: Option<(String, f64)>,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every pass passed every check.
    pub correct: bool,
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that errored, panicked or failed a check.
    pub failed: u64,
    /// The mode's metrics, in catalogue order.
    pub metrics: Vec<Reported>,
    /// Run metadata.
    pub meta: Vec<(&'static str, String)>,
    /// Quality detail and problems found.
    pub notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The detail line printed before the result line: metadata, every
    /// metric's summary, quality figures and any problems.
    pub fn detail_line(&self) -> String {
        let meta = Json::obj(self.meta.iter().map(|(k, v)| (*k, Json::Str(v.clone()))));
        let detail = Json::obj(self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("unit", Json::Str(m.unit.into())),
                ("value", Json::Num(m.value)),
            ];
            if let Some(s) = m.summary {
                fields.extend([
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]);
            }
            if let Some((label, v)) = &m.tail {
                fields.push(("highest_supported", Json::Str(label.clone())));
                fields.push(("highest_supported_value", Json::Num(*v)));
            }
            (m.name, Json::obj(fields))
        }));
        let mut pairs = vec![("meta", meta), ("detail", detail)];
        pairs.extend(self.notes.iter().cloned());
        Json::obj(pairs).render()
    }
}

/// Counts passes, collects what went wrong and how much CPU the host
/// stole from each untraced pass.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    steal: Vec<f64>,
}

impl Tally {
    fn fail(&mut self, what: &str, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(format!("{what}: {}", problem.into()));
    }

    /// Counts one pass; keeps its value if it succeeded.
    fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(what, e)).ok()
    }

    /// Checks a finished untraced pass; the first good pass becomes the
    /// reference every later pass must reproduce.
    fn check_pass(
        &mut self,
        what: &str,
        w: &Workload,
        input: &Input,
        pass: &Pass,
        reference: &mut Option<(Fingerprint, Quality)>,
    ) -> bool {
        self.steal.push(pass.steal_share);
        match run::check(w, input, pass) {
            Err(problems) => {
                self.fail(what, problems.join("; "));
                false
            }
            Ok(quality) => {
                let fp = Fingerprint::of(&pass.report, &pass.sink);
                match reference {
                    None => {
                        *reference = Some((fp, quality));
                        true
                    }
                    Some((want, _)) => match want.first_difference(&fp) {
                        None => true,
                        Some(field) => {
                            self.fail(what, format!("{field} differs from the first pass"));
                            false
                        }
                    },
                }
            }
        }
    }
}

/// Runs the benchmark described by `args` at `scale`.
pub fn execute(args: &Args, scale: Scale) -> Outcome {
    let w = workload::by_name(&args.workload).expect("parse_args checked the name");
    let input = w.generate(args.seed, scale);
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut reference = None;
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let rate = w.open_rate(scale, input.events.len());
        traced_run(&w, &input, rate, budget, &mut tally, &mut reference)
    } else {
        end_to_end_run(&w, &input, budget, &mut tally, &mut reference)
    };
    if let Some((_, q)) = &reference {
        notes.push((
            "quality",
            Json::obj([
                ("avg_k_ms", Json::Num(q.avg_k_ms)),
                ("recall", Json::Num(q.recall)),
                ("phi_gamma_pct", Json::Num(q.phi_gamma_pct)),
                ("gamma_p_samples", Json::Num(q.samples as f64)),
            ]),
        ));
    }
    notes.push(("peak_rss_mb", Json::Num(peak_rss_mb())));
    if let Some(steal) = Summary::of(&tally.steal) {
        notes.push((
            "host_steal_share",
            Json::obj([
                ("median", Json::Num(steal.median)),
                ("q3", Json::Num(steal.q3)),
                ("passes", Json::Num(steal.n as f64)),
            ]),
        ));
    }
    notes.push((
        "error_share",
        Json::Num(tally.failed as f64 / tally.attempted as f64),
    ));
    notes.push((
        "problems",
        Json::Arr(tally.problems.iter().cloned().map(Json::Str).collect()),
    ));
    let mut meta = run_metadata(args, scale, &input);
    meta.extend(w.describe(scale));
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        meta,
        notes,
    }
}

/// Closed-loop passes for throughput until the budget is spent, each
/// preceded by a round of timed `build()` calls for set-up time.
fn end_to_end_run(
    w: &Workload,
    input: &Input,
    budget: Duration,
    tally: &mut Tally,
    reference: &mut Option<(Fingerprint, Quality)>,
) -> Vec<Reported> {
    let started = Instant::now();
    let arrivals = input.events.len() as f64;
    let mut setup = Vec::new();
    let mut throughput = Vec::new();
    let mut per_pass = Duration::ZERO;
    while throughput.is_empty() || started.elapsed() + per_pass <= budget {
        let Some(samples) =
            tally.attempt("setup", run::setup_seconds(w, input, SETUP_REPS_PER_PASS))
        else {
            break;
        };
        setup.extend(samples);
        let what = "closed-loop pass";
        let Some(pass) = tally.attempt(what, run::closed_loop(w, input)) else {
            break;
        };
        if !tally.check_pass(what, w, input, &pass, reference) {
            break;
        }
        throughput.push(arrivals / pass.unstolen_secs());
        per_pass = per_pass.max(pass.wall);
    }
    let quality = reference.as_ref().map(|(_, q)| *q);
    END_TO_END
        .iter()
        .map(|d| {
            let (value, summary, tail) = match d.name {
                // Every pass replays the same input through a deterministic
                // program, so the passes differ only by interference from
                // the host, which can only slow a pass down: the fastest
                // pass is the steadiest estimate of the program's speed.
                // Steal is taken out of each pass first (see `Pass`).
                "throughput_eps" => {
                    let best = throughput.iter().copied().fold(0.0, f64::max);
                    (best, Summary::of(&throughput), None)
                }
                "recall" => (quality.map_or(0.0, |q| q.recall), None, None),
                "setup_s" => from_samples(&setup),
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            Reported {
                name: d.name,
                unit: d.unit,
                value,
                summary,
                tail,
            }
        })
        .collect()
}

type Measured = (f64, Option<Summary>, Option<(String, f64)>);

fn from_samples(samples: &[f64]) -> Measured {
    let summary = Summary::of(samples);
    (summary.map_or(0.0, |s| s.median), summary, None)
}

/// Percentile `p` of sorted nanosecond latencies in ms, with the highest
/// percentile the sample supports.
fn latency(sorted_ns: &[u64], p: f64) -> Measured {
    if sorted_ns.is_empty() {
        return (0.0, None, None);
    }
    let ms = |p: f64| stats::percentile_sorted(sorted_ns, p) as f64 / 1e6;
    let tail =
        stats::highest_supported(sorted_ns.len()).map(|h| (stats::percentile_label(h), ms(h)));
    let value = ms(p);
    let summary = Summary {
        n: sorted_ns.len(),
        median: ms(0.5),
        q1: ms(0.25),
        q3: ms(0.75),
    };
    (value, Some(summary), tail)
}

/// Pairs of an untraced reference pass and a traced replica pass, plus the
/// open-loop pass: ingest latency and the generator's own lag.
fn traced_run(
    w: &Workload,
    input: &Input,
    rate: f64,
    budget: Duration,
    tally: &mut Tally,
    reference: &mut Option<(Fingerprint, Quality)>,
) -> Vec<Reported> {
    let started = Instant::now();
    let arrivals = input.events.len() as u64;
    let mut untraced_walls = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut pair = |tally: &mut Tally, reference: &mut Option<_>| -> Option<Duration> {
        let what = "untraced reference pass";
        let pass = tally.attempt(what, run::closed_loop(w, input))?;
        let ok = tally.check_pass(what, w, input, &pass, reference);
        let what = "traced pass";
        let replica = tally.attempt(what, trace::traced_pass(w, input))?;
        if ok {
            untraced_walls.push(pass.wall.as_secs_f64());
            let (want, _) = reference
                .as_ref()
                .expect("a passing check set the reference");
            match want.first_difference(&replica.fingerprint) {
                None => {
                    let wall = replica.wall;
                    traced.push(replica);
                    return Some(pass.wall + wall);
                }
                Some(field) => tally.fail(what, format!("{field} differs from the untraced pass")),
            }
        }
        None
    };
    let first = pair(tally, reference);

    let (mut lag, mut ingest) = (Vec::new(), Vec::new());
    let what = "open-loop pass";
    if let Some(pass) = tally.attempt(what, run::open_loop(w, input, rate)) {
        if tally.check_pass(what, w, input, &pass, reference) {
            (lag, ingest) = (pass.lag_nanos, pass.ingest_nanos);
        }
    }
    lag.sort_unstable();
    ingest.sort_unstable();

    if let Some(per_pair) = first {
        while started.elapsed() + per_pair <= budget {
            if pair(tally, reference).is_none() {
                break;
            }
        }
    }

    let quality = reference.as_ref().map(|(_, q)| *q);
    let mut samples: Vec<(&'static str, Vec<f64>)> =
        PER_LAYER.iter().map(|d| (d.name, Vec::new())).collect();
    let mut push = |name: &str, v: f64| {
        samples
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not catalogued"))
            .1
            .push(v)
    };
    if let Some(q) = &quality {
        for t in &traced {
            for (name, v) in metrics::layer_values(t, q, arrivals) {
                push(name, v);
            }
        }
    }
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall.as_secs_f64()).collect();
    if let (Some(t), Some(u)) = (Summary::of(&traced_walls), Summary::of(&untraced_walls)) {
        push("trace.overhead_share", t.median / u.median);
    }
    if !lag.is_empty() {
        push(
            "loadgen.lag_p99_ms",
            stats::percentile_sorted(&lag, 0.99) as f64 / 1e6,
        );
    }
    PER_LAYER
        .iter()
        .zip(samples)
        .map(|(d, (_, values))| {
            let (value, summary, tail) = match d.name {
                "loadgen.ingest_p50_ms" => latency(&ingest, 0.5),
                "loadgen.ingest_p99_ms" => latency(&ingest, 0.99),
                "loadgen.ingest_p999_ms" => latency(&ingest, 0.999),
                _ => from_samples(&values),
            };
            Reported {
                name: d.name,
                unit: d.unit,
                value,
                summary,
                tail,
            }
        })
        .collect()
}

/// Peak resident memory of this process (MB), from `/proc/self/status`;
/// 0 where that is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_metadata(args: &Args, scale: Scale, input: &Input) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("scale", format!("{scale:?}").to_lowercase()),
        (
            "git_revision",
            git_revision().unwrap_or_else(|| "unknown".into()),
        ),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("arrivals", input.events.len().to_string()),
        ("true_results", input.truth.total().to_string()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (which would search parent directories).
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "dx3-paper",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "dx3-paper".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "dx3-paper",
            "--seed",
            "x",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "dx3-paper",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "dx3-paper", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1", "--seconds", "1"])).is_err());
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Reported {
                name: "setup_s",
                unit: "s",
                value: 0.000_012_345_678_9,
                summary: Summary::of(&[1.0, 2.0]),
                tail: None,
            }],
            meta: vec![("seed", "1".into())],
            notes: vec![],
        };
        let parsed = Json::parse(&outcome.result_line()).unwrap();
        let Json::Obj(pairs) = &parsed else {
            panic!("an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.000_012_345_678_9));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        let detail = Json::parse(&outcome.detail_line()).unwrap();
        let d = detail.get("detail").unwrap().get("setup_s").unwrap();
        assert_eq!(d.get("n").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            detail.get("meta").unwrap().get("seed").unwrap().as_str(),
            Some("1")
        );
    }

    #[test]
    fn latency_reports_the_highest_supported_percentile() {
        let ns: Vec<u64> = (1..=1_000).map(|i| i * 1_000_000).collect();
        let (p50, summary, tail) = latency(&ns, 0.5);
        assert_eq!(p50, 500.0);
        assert_eq!(summary.unwrap().n, 1_000);
        assert_eq!(tail, Some(("p99".into(), 990.0)));
    }
}
