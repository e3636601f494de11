//! Where the shard operators live: the one place that knows.
//!
//! [`ShardSet`] holds the engine's shards in exactly one of three forms —
//! owned inline on the calling thread (`Sequential`), behind the resident
//! worker pool (`Pool`), or behind transport links to shard servers
//! (`Remote`) — and offers every operation the engine performs on them:
//! inspection, execution (inline or through the depth-1 epoch pipeline),
//! barrier statistics and the window-state surgery of skew splitting and
//! re-planning.  The engine routes, merges and decides; it never asks
//! which backend it runs on.
//!
//! The state operations on a local operator are the free functions of
//! [`state`], shared with the shard server's frame handlers so the
//! filter, evict, retain and revise logic exists once.

use super::exec;
use super::pool::{CollectedEpoch, Epoch, ShardPool};
use super::replan::StreamTally;
use super::transport::RemoteShards;
use super::{
    Decision, EngineEvent, ExecutionBackend, Item, JoinEngine, ShardRuntimeStats, SubOutcome,
};
use mswj_join::{JoinQuery, JoinResult, MswjOperator, OperatorStats, ProbeStrategy};
use mswj_types::{Error, StreamIndex, Tuple};
use mswj_wire::Frame;
use std::collections::VecDeque;

/// State operations on one local shard operator, shared by the engine's
/// local backends and the shard server.  Callers validate stream indices
/// first: every function indexes the operator's windows directly.
pub(in crate::engine) mod state {
    use mswj_join::{join_key_hash, MswjOperator};
    use mswj_types::{StreamIndex, Tuple};

    /// The live tuples of `stream` whose join key (in `column`) hashes to
    /// `key_hash`, in window (timestamp) order.
    pub(in crate::engine) fn fetch_class(
        op: &MswjOperator,
        stream: StreamIndex,
        column: usize,
        key_hash: u64,
    ) -> Vec<Tuple> {
        op.window(stream)
            .iter()
            .filter(|t| join_key_hash(t.value(column)) == key_hash)
            .cloned()
            .collect()
    }

    /// Every live tuple of `stream`, in window order.
    pub(in crate::engine) fn fetch_window(op: &MswjOperator, stream: StreamIndex) -> Vec<Tuple> {
        op.window(stream).iter().cloned().collect()
    }

    /// Adopts each tuple into its own stream's window.
    pub(in crate::engine) fn adopt(op: &mut MswjOperator, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            op.adopt(t);
        }
    }

    /// Evicts the key class `key_hash` from `stream`'s window.
    pub(in crate::engine) fn purge_class(
        op: &mut MswjOperator,
        stream: StreamIndex,
        column: usize,
        key_hash: u64,
    ) {
        op.evict_where(stream, |t| join_key_hash(t.value(column)) != key_hash);
    }

    /// Keeps only the tuples of `stream` whose join key (in `column`) homes
    /// on shard `keep` of `shards`.
    pub(in crate::engine) fn retain(
        op: &mut MswjOperator,
        stream: StreamIndex,
        column: usize,
        shards: u64,
        keep: u64,
    ) {
        op.evict_where(stream, |t| join_key_hash(t.value(column)) % shards == keep);
    }

    /// Applies a probe reorder (skipped when `order` is empty) and/or an
    /// index demotion.
    pub(in crate::engine) fn revise(op: &mut MswjOperator, order: &[usize], demote: bool) {
        if !order.is_empty() {
            op.set_probe_order(order.to_vec());
        }
        if demote {
            op.demote_index();
        }
    }
}

/// The engine's shard operators, in the one form its backend keeps them.
pub(super) enum ShardSet {
    /// Engine-owned operators run on the calling thread (`Sequential`).
    Inline(Vec<MswjOperator>),
    /// Operators owned by resident worker threads (`Pool`).
    Pool(ShardPool),
    /// Operators living in shard servers behind transport links (`Remote`).
    Remote(RemoteShards),
}

impl ShardSet {
    /// Instantiates `n` shards for `backend`.  The `Remote` backend
    /// validates its endpoint list, requires a wire-expressible join
    /// condition, and connects + handshakes with every shard server here —
    /// each failure comes back as [`Error::InvalidConfig`].  The local
    /// backends never fail.
    pub(super) fn new(
        query: &JoinQuery,
        strategy: ProbeStrategy,
        enumerate: bool,
        backend: &ExecutionBackend,
        n: usize,
    ) -> Result<Self, Error> {
        let operators = || {
            (0..n)
                .map(|_| MswjOperator::with_probe(query.clone(), strategy, enumerate))
                .collect()
        };
        Ok(match backend {
            ExecutionBackend::Sequential => ShardSet::Inline(operators()),
            ExecutionBackend::Pool { .. } => ShardSet::Pool(ShardPool::new(operators())),
            ExecutionBackend::Remote { endpoints } => {
                if endpoints.is_empty() {
                    return Err(Error::InvalidConfig(
                        "the remote backend needs at least one endpoint".into(),
                    ));
                }
                let descriptor = query.condition().descriptor().ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "join condition `{}` cannot cross a process boundary \
                         (closure predicates have no wire form); use a declarative \
                         condition or a local backend",
                        query.condition().describe()
                    ))
                })?;
                // Unpartitionable plans collapse to one shard; connect only
                // to the endpoints that will actually carry work.
                ShardSet::Remote(RemoteShards::connect(
                    &endpoints[..n.min(endpoints.len())],
                    query,
                    &descriptor,
                    strategy,
                    enumerate,
                )?)
            }
        })
    }

    /// Read access to shard `s`; on the pool this waits for the shard's
    /// submitted epochs to finish.  Remote operators cannot be borrowed.
    pub(super) fn guard(&self, s: usize) -> ShardGuard<'_> {
        match self {
            ShardSet::Inline(ops) => ShardGuard(GuardInner::Direct(&ops[s])),
            ShardSet::Pool(pool) => ShardGuard(GuardInner::Locked(pool.lock_shard(s))),
            ShardSet::Remote(_) => panic!(
                "shard operators live in another process on the remote backend; \
                 use shard_stats() for their counters"
            ),
        }
    }

    /// Whether a batch of `items` routed items takes the epoch pipeline
    /// rather than running inline: never for `Inline`, at or above
    /// [`JoinEngine::SMALL_BATCH_THRESHOLD`] for the pool, and always for
    /// remote shards, which have no operators on this side.
    pub(super) fn pipelines(&self, items: usize) -> bool {
        match self {
            ShardSet::Inline(_) => false,
            ShardSet::Pool(_) => items >= JoinEngine::SMALL_BATCH_THRESHOLD,
            ShardSet::Remote(_) => true,
        }
    }

    /// Executes a routed batch on the calling thread, streaming its events
    /// into `f`.  The pool's shards are idle here (no epoch in flight).
    pub(super) fn run_inline(
        &mut self,
        queues: &mut [VecDeque<Item>],
        decisions: &[Decision],
        stats: &mut OperatorStats,
        tally: &mut [StreamTally],
        f: &mut dyn FnMut(EngineEvent<'_>),
    ) {
        match self {
            ShardSet::Inline(ops) => {
                exec::run_inline(ops.as_mut_slice(), queues, decisions, stats, tally, f)
            }
            ShardSet::Pool(pool) => {
                exec::run_inline(pool.shards_mut(), queues, decisions, stats, tally, f)
            }
            ShardSet::Remote(_) => unreachable!("remote shards always pipeline"),
        }
    }

    /// Ships shard `s`'s routed queue as its task of `epoch`: the pool
    /// takes the queue and the output buffers along, a remote link drains
    /// the queue in place by encoding it.
    pub(super) fn submit(
        &mut self,
        s: usize,
        epoch: Epoch,
        routing_epoch: u64,
        queue: &mut VecDeque<Item>,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) {
        match self {
            ShardSet::Inline(_) => unreachable!("inline shards never pipeline"),
            ShardSet::Pool(pool) => pool.submit(s, epoch, routing_epoch, queue, sub, mat),
            ShardSet::Remote(remote) => remote.submit(s, epoch.0, routing_epoch, queue),
        }
    }

    /// Collects shard `s`'s output of `epoch` into `sub` / `mat`,
    /// re-raising a shard failure on this thread.
    pub(super) fn collect(
        &mut self,
        s: usize,
        epoch: Epoch,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) -> CollectedEpoch {
        match self {
            ShardSet::Inline(_) => unreachable!("inline shards never pipeline"),
            ShardSet::Pool(pool) => pool.collect(s, epoch, sub, mat),
            ShardSet::Remote(remote) => remote.collect(s, epoch.0, sub, mat),
        }
    }

    /// Shard `s`'s operator counters plus its live window footprint
    /// (estimated bytes, columnar segments).  Remote window state lives in
    /// the server process; a barrier round-trip carries it back.
    pub(super) fn barrier_stats(&self, s: usize) -> (OperatorStats, u64, u64) {
        match self {
            ShardSet::Remote(remote) => remote.barrier_stats(s),
            _ => {
                let shard = self.guard(s);
                (shard.stats(), shard.window_bytes(), shard.window_segments())
            }
        }
    }

    /// Folds shard `s`'s transport counters into `rt` (remote shards only;
    /// local shards have none).
    pub(super) fn fold_runtime(&self, s: usize, rt: &mut ShardRuntimeStats) {
        if let ShardSet::Remote(remote) = self {
            remote.fold_runtime(s, rt);
        }
    }

    /// Runs `f` on local shard `s`.  The pool's worker is idle at every call
    /// site: state surgery only happens at barriers.
    fn with_local<R>(&mut self, s: usize, f: impl FnOnce(&mut MswjOperator) -> R) -> R {
        match self {
            ShardSet::Inline(ops) => f(&mut ops[s]),
            ShardSet::Pool(pool) => f(&mut pool.lock_shard(s)),
            ShardSet::Remote(_) => unreachable!("remote shards take the wire path"),
        }
    }

    /// The key class `key_hash` of `stream`'s window on shard `s`.
    pub(super) fn fetch_class(
        &mut self,
        s: usize,
        i: usize,
        col: usize,
        key_hash: u64,
    ) -> Vec<Tuple> {
        let (stream, column) = (i as u64, col as u64);
        match self {
            ShardSet::Remote(remote) => remote.fetch(
                s,
                &Frame::FetchClass {
                    stream,
                    column,
                    key_hash,
                },
            ),
            _ => self.with_local(s, |op| {
                state::fetch_class(op, StreamIndex(i), col, key_hash)
            }),
        }
    }

    /// The full live window of stream `i` on shard `s`.
    pub(super) fn fetch_window(&mut self, s: usize, i: usize) -> Vec<Tuple> {
        match self {
            ShardSet::Remote(remote) => remote.fetch(s, &Frame::FetchWindow { stream: i as u64 }),
            _ => self.with_local(s, |op| state::fetch_window(op, StreamIndex(i))),
        }
    }

    /// Adopts `tuples` into shard `s`'s windows.
    pub(super) fn adopt(&mut self, s: usize, tuples: &[Tuple]) {
        match self {
            ShardSet::Remote(remote) => remote.ack(
                s,
                &Frame::Adopt {
                    tuples: tuples.to_vec(),
                },
            ),
            _ => self.with_local(s, |op| state::adopt(op, tuples.iter().cloned())),
        }
    }

    /// Evicts the key class `key_hash` from stream `i`'s window on shard `s`.
    pub(super) fn purge_class(&mut self, s: usize, i: usize, col: usize, key_hash: u64) {
        let (stream, column) = (i as u64, col as u64);
        match self {
            ShardSet::Remote(remote) => remote.ack(
                s,
                &Frame::PurgeClass {
                    stream,
                    column,
                    key_hash,
                },
            ),
            _ => self.with_local(s, |op| {
                state::purge_class(op, StreamIndex(i), col, key_hash)
            }),
        }
    }

    /// Drops every tuple of stream `i` on shard `s` whose join key (in
    /// `col`) does not home there under `n`-way hashing.
    pub(super) fn retain(&mut self, s: usize, i: usize, col: usize, n: usize) {
        let (stream, column, shards, keep) = (i as u64, col as u64, n as u64, s as u64);
        match self {
            ShardSet::Remote(remote) => remote.ack(
                s,
                &Frame::Retain {
                    stream,
                    column,
                    shards,
                    keep,
                },
            ),
            _ => self.with_local(s, |op| state::retain(op, StreamIndex(i), col, shards, keep)),
        }
    }

    /// Applies a probe reorder (none when `order` is empty) and/or an index
    /// demotion to shard `s`.
    pub(super) fn revise(&mut self, s: usize, order: &[usize], demote: bool) {
        match self {
            ShardSet::Remote(remote) => remote.ack(
                s,
                &Frame::Revise {
                    order: order.to_vec(),
                    demote,
                },
            ),
            _ => self.with_local(s, |op| state::revise(op, order, demote)),
        }
    }
}

/// Read access to one shard operator, independent of where the backend
/// keeps it: borrowed directly from the engine (`Sequential`) or locked out
/// of a resident pool worker's cell (`Pool`, waiting for the shard's
/// submitted epochs to finish first).
pub struct ShardGuard<'a>(GuardInner<'a>);

enum GuardInner<'a> {
    Direct(&'a MswjOperator),
    Locked(std::sync::MutexGuard<'a, MswjOperator>),
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = MswjOperator;

    fn deref(&self) -> &MswjOperator {
        match &self.0 {
            GuardInner::Direct(op) => op,
            GuardInner::Locked(guard) => guard,
        }
    }
}

impl std::fmt::Debug for ShardGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}
