//! The analytical recall model `γ(L, K)` (Sec. IV-A, Eqs. 1–5).
//!
//! At each adaptation step the Buffer-Size Manager needs to predict, for a
//! candidate buffer size `K`, the recall of the join results that would be
//! produced during the next adaptation interval.  The paper derives:
//!
//! * the delay distribution seen by the join operator after K-slack and the
//!   Synchronizer, `f_{D_i^K}`, by shifting the raw delay histogram by
//!   `K + K_sync_i` (Eq. 2);
//! * the expected degree of completeness of each window via *basic windows*
//!   of `b` ms (Eq. 3): a recent window segment misses more late tuples than
//!   an old one;
//! * the produced and true result sizes (Eqs. 1 and 4), whose ratio — after
//!   the common factor `(Π r_i)·L` cancels — yields Eq. 5:
//!
//! ```text
//!              sel(K)    Σ_i f_{D_i^K}(0) · Π_{j≠i} effW_j(K)
//!   γ(L, K) =  ────── ·  ─────────────────────────────────────
//!               sel            Σ_i Π_{j≠i} W_j
//! ```
//!
//! where `effW_j(K) = Σ_l (segment length)·F_j^K((l-1)·b/g)` is the
//! effective (expected-complete) portion of window `W_j`.
//!
//! # Cost
//!
//! Alg. 3 evaluates `γ(L, K)` for every candidate `K` in steps of `g`, so
//! the model is built for cheap candidates. [`RecallModel::new`] turns each
//! histogram into integer cumulative counts `N[x] = T·F(x)` (`T` = number of
//! observations) plus strided prefix sums of `N`, in one pass over the
//! buckets. With `N[x] = T` past the last bucket,
//!
//! ```text
//!   effW_j(K)·T = Σ_l seg_l · N[s + ⌊(l-1)·b/g⌋],    s = ⌊(K + K_sync_j)/g⌋
//! ```
//!
//! is exact in integers. The offsets `⌊(l-1)·b/g⌋` repeat with period
//! `g′ = g/gcd(b, g)` and stride `b′ = b/gcd(b, g)`, so the sum splits into
//! `g′` arithmetic progressions, each an O(1) read from the prefix sums
//! along stride `b′`. One candidate therefore costs O(g′) per stream —
//! O(1) at the paper default `b = g` — instead of O(⌈W/b⌉), and the result
//! is rounded once, by the final division by `T`.

use crate::statistics::DelayHistogram;
use mswj_types::Duration;

/// Immutable per-adaptation-step inputs of the recall model.
#[derive(Debug, Clone)]
pub struct ModelInputs<'a> {
    /// Window sizes `W_i` (ms), one per stream.
    pub windows: Vec<Duration>,
    /// Raw per-stream delay histograms `f_{D_i}` (granularity `g`),
    /// borrowed from the Statistics Manager.
    pub histograms: Vec<&'a DelayHistogram>,
    /// Estimated implicit synchronizer buffers `K_sync_i` (ms).
    pub k_sync: Vec<Duration>,
    /// Basic-window size `b` (ms).
    pub basic_window: Duration,
    /// K-search granularity `g` (ms); also the histogram granularity.
    pub granularity: Duration,
}

impl ModelInputs<'_> {
    /// Number of streams.
    pub fn arity(&self) -> usize {
        self.windows.len()
    }

    /// Validates that all vectors agree on the number of streams.
    pub fn is_consistent(&self) -> bool {
        let m = self.windows.len();
        m >= 2 && self.histograms.len() == m && self.k_sync.len() == m
    }
}

/// One stream's delay distribution in integer form, with the geometry of
/// its window split into basic windows.
#[derive(Debug, Clone)]
struct StreamTable {
    /// Estimated implicit synchronizer buffer `K_sync` (ms).
    k_sync: Duration,
    /// Number of observations `T`; 0 means "assume ordered input".
    total: u64,
    /// `N[x]`: observations in buckets `0..=x`, up to the last non-empty
    /// bucket (`N[x] = T` beyond).
    cum: Vec<u64>,
    /// `P[x] = N[x] + P[x - b′]`: prefix sums of `N` along stride `b′`.
    strided: Vec<u64>,
    /// Window size `W` (ms).
    window: u64,
    /// Basic-window size `b`, clamped into `[1, W]`.
    basic: u64,
    /// Number of basic windows `n = ⌈W/b⌉`.
    segments: u64,
    /// Length of the oldest (last) basic window, in `(0, b]`.
    last_segment: u64,
    /// `b′ = b/gcd(b, g)`.
    stride: u64,
    /// `g′ = g/gcd(b, g)`.
    period: u64,
}

impl StreamTable {
    fn new(
        h: &DelayHistogram,
        k_sync: Duration,
        window: Duration,
        basic_window: Duration,
        g: Duration,
    ) -> Self {
        let basic = basic_window.max(1).min(window.max(1));
        let segments = window.div_ceil(basic);
        let gcd = gcd(basic, g);
        let stride = basic / gcd;
        let len = h.max_bucket() + 1;
        let mut cum = Vec::with_capacity(len);
        let mut strided = Vec::with_capacity(len);
        let mut acc = 0;
        for x in 0..len {
            acc += h.count(x);
            cum.push(acc);
            let below = x.checked_sub(stride as usize).map_or(0, |y| strided[y]);
            strided.push(acc + below);
        }
        StreamTable {
            k_sync,
            total: h.total(),
            cum,
            strided,
            window,
            basic,
            segments,
            last_segment: window.saturating_sub(segments.saturating_sub(1) * basic),
            stride,
            period: g / gcd,
        }
    }

    /// `N[x]`.
    fn cumulative(&self, x: usize) -> u64 {
        self.cum.get(x).copied().unwrap_or(self.total)
    }

    /// `Σ_{q < count} N[start + q·b′]`, in O(1).
    fn strided_sum(&self, start: usize, count: u64) -> u64 {
        let len = self.cum.len();
        if start >= len {
            return count * self.total;
        }
        let stride = self.stride as usize;
        let inside = (((len - 1 - start) / stride) as u64 + 1).min(count);
        let last = start + (inside as usize - 1) * stride;
        let below = start.checked_sub(stride).map_or(0, |y| self.strided[y]);
        self.strided[last] - below + (count - inside) * self.total
    }

    /// `effW·T = Σ_l seg_l · N[shift + ⌊(l-1)·b/g⌋]`, exactly.
    fn weighted_coverage(&self, shift: usize) -> u128 {
        // Index i = l - 1 = q·g′ + r has offset q·b′ + ⌊r·b′/g′⌋: one
        // arithmetic progression of stride b′ per residue r.
        let mut sum: u64 = 0;
        for r in 0..self.period.min(self.segments) {
            let start = shift + (r * self.stride / self.period) as usize;
            let count = (self.segments - 1 - r) / self.period + 1;
            sum += self.strided_sum(start, count);
        }
        // Every basic window was weighted b; the oldest one is only
        // `last_segment` long.
        let last = (self.segments - 1) * self.stride / self.period;
        let oldest = self.cumulative(shift + last as usize);
        self.basic as u128 * sum as u128 - (self.basic - self.last_segment) as u128 * oldest as u128
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Evaluator of `γ(L, K)` for a fixed set of [`ModelInputs`].
///
/// The model copies what it needs out of the inputs, so it does not borrow
/// the histograms past [`RecallModel::new`].
#[derive(Debug, Clone)]
pub struct RecallModel {
    /// K-search granularity `g` (ms).
    granularity: Duration,
    /// Per-stream integer tables, precomputed once so that Alg. 3 can probe
    /// thousands of candidate K values cheaply.
    tables: Vec<StreamTable>,
}

impl RecallModel {
    /// Creates a model evaluator; panics if the inputs are inconsistent.
    pub fn new(inputs: ModelInputs<'_>) -> Self {
        assert!(inputs.is_consistent(), "inconsistent model inputs");
        let g = inputs.granularity.max(1);
        let tables = (0..inputs.arity())
            .map(|i| {
                StreamTable::new(
                    inputs.histograms[i],
                    inputs.k_sync[i],
                    inputs.windows[i],
                    inputs.basic_window,
                    g,
                )
            })
            .collect();
        RecallModel {
            granularity: g,
            tables,
        }
    }

    /// Number of streams.
    pub fn arity(&self) -> usize {
        self.tables.len()
    }

    /// `Pr[D_i <= bucket]`.
    fn raw_cumulative(&self, stream: usize, bucket: usize) -> f64 {
        let table = &self.tables[stream];
        if table.total == 0 {
            return 1.0;
        }
        table.cumulative(bucket) as f64 / table.total as f64
    }

    /// `f_{D_i^K}(0)`: probability that a tuple of stream `i` reaches the
    /// join operator in order under buffer size `K` (Eq. 2, case `d = 0`).
    pub fn in_order_probability(&self, stream: usize, k: Duration) -> f64 {
        let shift = self.shift_buckets(stream, k);
        self.raw_cumulative(stream, shift)
    }

    /// `f_{D_i^K}(d)` for any coarse bucket `d` (Eq. 2).
    pub fn shifted_probability(&self, stream: usize, k: Duration, d: usize) -> f64 {
        let shift = self.shift_buckets(stream, k);
        let table = &self.tables[stream];
        if d == 0 {
            self.raw_cumulative(stream, shift)
        } else if table.total == 0 {
            0.0
        } else {
            let x = d + shift;
            let count = table.cumulative(x) - table.cumulative(x - 1);
            count as f64 / table.total as f64
        }
    }

    /// Number of histogram buckets covered by `K + K_sync_i`.
    fn shift_buckets(&self, stream: usize, k: Duration) -> usize {
        ((k + self.tables[stream].k_sync) / self.granularity) as usize
    }

    /// The expected effective coverage of window `W_j` under buffer size `K`
    /// (Eq. 3 with the per-stream rate factored out), in milliseconds.
    ///
    /// The most recent basic window only counts tuples that arrive with
    /// residual delay 0, the second one also those within `b`, and so on;
    /// the result is always in `[0, W_j]`. Costs O(g′) (see the module
    /// docs).
    pub fn effective_window(&self, stream: usize, k: Duration) -> f64 {
        let table = &self.tables[stream];
        let w = table.window as f64;
        if table.total == 0 || table.window == 0 {
            return w;
        }
        let covered = table.weighted_coverage(self.shift_buckets(stream, k));
        (covered as f64 / table.total as f64).min(w)
    }

    /// The O(⌈W/b⌉) evaluation of Eq. 3, one basic window at a time: the
    /// reference [`effective_window`](Self::effective_window) is tested
    /// against.
    #[cfg(test)]
    fn effective_window_reference(&self, stream: usize, k: Duration) -> f64 {
        let w = self.tables[stream].window;
        if w == 0 {
            return 0.0;
        }
        let b = self.tables[stream].basic;
        let g = self.granularity;
        let n = w.div_ceil(b) as usize;
        let shift = self.shift_buckets(stream, k);
        let mut eff = 0.0;
        for l in 1..=n {
            let segment = if l < n {
                b as f64
            } else {
                (w - (n as u64 - 1) * b) as f64
            };
            let buckets = ((l as u64 - 1) * b / g) as usize;
            eff += segment * self.raw_cumulative(stream, buckets + shift);
        }
        eff.min(w as f64)
    }

    /// Evaluates the structural (selectivity-free) part of Eq. 5:
    /// `Σ_i f_{D_i^K}(0)·Π_{j≠i} effW_j / Σ_i Π_{j≠i} W_j`.
    pub fn structural_recall(&self, k: Duration) -> f64 {
        let eff: Vec<f64> = (0..self.arity())
            .map(|j| self.effective_window(j, k))
            .collect();
        self.combine(k, &eff)
    }

    /// [`structural_recall`](Self::structural_recall) over the O(⌈W/b⌉)
    /// reference effective windows.
    #[cfg(test)]
    fn structural_recall_reference(&self, k: Duration) -> f64 {
        let eff: Vec<f64> = (0..self.arity())
            .map(|j| self.effective_window_reference(j, k))
            .collect();
        self.combine(k, &eff)
    }

    /// Eq. 5's structural ratio from the per-stream effective windows.
    fn combine(&self, k: Duration, eff: &[f64]) -> f64 {
        let m = self.arity();
        let mut numerator = 0.0;
        let mut denominator = 0.0;
        for i in 0..m {
            let mut prod_eff = 1.0;
            let mut prod_w = 1.0;
            for (j, eff_j) in eff.iter().enumerate() {
                if j == i {
                    continue;
                }
                prod_eff *= eff_j;
                prod_w *= self.tables[j].window as f64;
            }
            numerator += self.in_order_probability(i, k) * prod_eff;
            denominator += prod_w;
        }
        if denominator <= 0.0 {
            return 0.0;
        }
        (numerator / denominator).clamp(0.0, 1.0)
    }

    /// Full Eq. 5: structural recall multiplied by the selectivity ratio
    /// `sel(K)/sel` supplied by the caller (1.0 under the EqSel strategy).
    pub fn estimate_recall(&self, k: Duration, selectivity_ratio: f64) -> f64 {
        (self.structural_recall(k) * selectivity_ratio).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model(
        windows: Vec<Duration>,
        delays: Vec<Vec<Duration>>,
        k_sync: Vec<Duration>,
        b: Duration,
        g: Duration,
    ) -> RecallModel {
        let histograms: Vec<DelayHistogram> = delays
            .into_iter()
            .map(|d| DelayHistogram::from_delays(g, d))
            .collect();
        RecallModel::new(ModelInputs {
            windows,
            histograms: histograms.iter().collect(),
            k_sync,
            basic_window: b,
            granularity: g,
        })
    }

    #[test]
    fn ordered_streams_give_recall_one_at_k_zero() {
        let m = model(
            vec![5_000, 5_000],
            vec![vec![0; 100], vec![0; 100]],
            vec![0, 0],
            10,
            10,
        );
        assert!((m.structural_recall(0) - 1.0).abs() < 1e-9);
        assert!((m.estimate_recall(0, 1.0) - 1.0).abs() < 1e-9);
        assert_eq!(m.in_order_probability(0, 0), 1.0);
        assert!((m.effective_window(0, 0) - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn recall_is_monotone_in_k_for_fixed_selectivity() {
        // Half of the tuples of each stream are delayed by up to 1 s.
        let delays: Vec<Duration> = (0..1_000)
            .map(|i| if i % 2 == 0 { 0 } else { (i % 100) * 10 })
            .collect();
        let m = model(
            vec![5_000, 5_000, 5_000],
            vec![delays.clone(), delays.clone(), delays],
            vec![0, 0, 0],
            10,
            10,
        );
        let mut last = -1.0;
        for k in (0..=1_200).step_by(100) {
            let r = m.structural_recall(k);
            assert!(
                r >= last - 1e-12,
                "recall not monotone at K={k}: {r} < {last}"
            );
            assert!((0.0..=1.0).contains(&r));
            last = r;
        }
        // A buffer covering the maximum delay yields (near-)perfect recall.
        assert!(m.structural_recall(1_000) > 0.999);
        // No buffer yields clearly imperfect recall.
        assert!(m.structural_recall(0) < 0.9);
    }

    #[test]
    fn k_sync_substitutes_for_explicit_buffering() {
        // A stream whose delays are fully covered by its K_sync needs no
        // K-slack buffer at all: the synchronizer already sorts it.
        let delays: Vec<Duration> = (0..500).map(|i| (i % 50) * 10).collect();
        let without_sync = model(
            vec![5_000, 5_000],
            vec![delays.clone(), vec![0; 500]],
            vec![0, 0],
            10,
            10,
        );
        let with_sync = model(
            vec![5_000, 5_000],
            vec![delays, vec![0; 500]],
            vec![500, 0],
            10,
            10,
        );
        assert!(with_sync.structural_recall(0) > without_sync.structural_recall(0));
        assert!(with_sync.structural_recall(0) > 0.999);
    }

    #[test]
    fn bigger_basic_window_is_more_conservative() {
        let delays: Vec<Duration> = (0..1_000)
            .map(|i| if i % 4 == 0 { 200 } else { 0 })
            .collect();
        let fine = model(
            vec![5_000, 5_000],
            vec![delays.clone(), delays.clone()],
            vec![0, 0],
            10,
            10,
        );
        let coarse = model(
            vec![5_000, 5_000],
            vec![delays.clone(), delays],
            vec![0, 0],
            5_000, // one basic window == whole window: only in-order tuples count
            10,
        );
        assert!(coarse.structural_recall(0) <= fine.structural_recall(0) + 1e-12);
    }

    #[test]
    fn selectivity_ratio_scales_and_clamps() {
        let m = model(
            vec![1_000, 1_000],
            vec![vec![0, 0, 100, 100], vec![0; 4]],
            vec![0, 0],
            10,
            10,
        );
        let base = m.structural_recall(0);
        assert!(base > 0.0 && base < 1.0);
        assert!((m.estimate_recall(0, 0.5) - base * 0.5).abs() < 1e-12);
        assert_eq!(m.estimate_recall(0, 100.0), 1.0, "clamped at 1");
        assert_eq!(m.estimate_recall(0, 0.0), 0.0);
    }

    #[test]
    fn shifted_probability_matches_eq2() {
        // Raw histogram with g = 10: bucket 0 -> 0.5, bucket 1 -> 0.25,
        // bucket 2 -> 0.25.
        let m = model(
            vec![1_000, 1_000],
            vec![vec![0, 0, 10, 20], vec![0; 4]],
            vec![0, 0],
            10,
            10,
        );
        // K = 10 shifts by one bucket: f^K(0) = F(1) = 0.75, f^K(1) = f(2) = 0.25.
        assert!((m.shifted_probability(0, 10, 0) - 0.75).abs() < 1e-12);
        assert!((m.shifted_probability(0, 10, 1) - 0.25).abs() < 1e-12);
        assert!((m.shifted_probability(0, 10, 2) - 0.0).abs() < 1e-12);
        assert!((m.in_order_probability(0, 20) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inconsistent model inputs")]
    fn inconsistent_inputs_are_rejected() {
        let empty = DelayHistogram::empty(10);
        let bad = ModelInputs {
            windows: vec![1_000, 1_000],
            histograms: vec![&empty],
            k_sync: vec![0, 0],
            basic_window: 10,
            granularity: 10,
        };
        let _ = RecallModel::new(bad);
    }

    #[test]
    fn heterogeneous_windows_are_supported() {
        let m = model(
            vec![5_000, 2_000, 7_000],
            vec![vec![0; 10], vec![0; 10], vec![0; 10]],
            vec![0, 0, 0],
            10,
            10,
        );
        assert!((m.structural_recall(0) - 1.0).abs() < 1e-9);
        assert!((m.effective_window(1, 0) - 2_000.0).abs() < 1e-6);
        assert_eq!(m.arity(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The prefix-sum evaluation agrees with the basic-window-at-a-time
        /// reference for any `b`, `g`, windows (including `W < b`, `W = 0`),
        /// empty histograms and `K_sync`.
        #[test]
        fn prefix_sums_match_the_reference(
            streams in proptest::collection::vec(
                (0u64..5_000, proptest::collection::vec(0u64..3_000, 0..200), 0u64..500),
                2..5,
            ),
            b in 1u64..60,
            g in 1u64..60,
        ) {
            let histograms: Vec<DelayHistogram> = streams
                .iter()
                .map(|(_, delays, _)| DelayHistogram::from_delays(g, delays.iter().copied()))
                .collect();
            let m = RecallModel::new(ModelInputs {
                windows: streams.iter().map(|s| s.0).collect(),
                histograms: histograms.iter().collect(),
                k_sync: streams.iter().map(|s| s.2).collect(),
                basic_window: b,
                granularity: g,
            });
            for k in (0..3_600).step_by(37) {
                for (j, (w, _, _)) in streams.iter().enumerate() {
                    let fast = m.effective_window(j, k);
                    let reference = m.effective_window_reference(j, k);
                    prop_assert!(
                        (fast - reference).abs() <= 1e-9 * *w as f64,
                        "stream {j} K={k} b={b} g={g}: {fast} vs {reference}"
                    );
                }
                let fast = m.structural_recall(k);
                let reference = m.structural_recall_reference(k);
                prop_assert!((fast - reference).abs() <= 1e-9, "K={k}: {fast} vs {reference}");
            }
        }
    }
}
