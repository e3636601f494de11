//! The shard-server side of the wire protocol: one shard operator per
//! connection, driven entirely by frames.
//!
//! A connection's lifecycle is `Hello → Setup → (Task | Barrier | class
//! frames)* → Shutdown`.  The server is passive — it never initiates — and
//! every request gets exactly one reply, so the client can keep at most
//! one epoch in flight per connection and collect deterministically.  An
//! operator panic while draining a task is caught and shipped back as an
//! error frame (the connection then closes: after a panic the shard state
//! is unreliable, exactly like a retired pool worker).
//!
//! [`serve_stream`] serves one connection over any byte stream — the
//! in-process transport drives it over memory pipes, the `mswj-shardd`
//! binary and benches drive it over sockets via [`serve_uds`] /
//! [`serve_tcp`], one thread per accepted connection.

use super::Framed;
use crate::engine::shards::state;
use crate::engine::{exec, Item};
use mswj_join::{JoinQuery, MswjOperator};
use mswj_obs::{ShardInstruments, Telemetry};
use mswj_types::{Schema, StreamIndex, StreamSet, StreamSpec};
use mswj_wire::{Frame, WireError, WireOutput, WireQuery, WireSub};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-connection telemetry accumulated between barriers and published at
/// every [`Frame::Barrier`] — the server-side mirror of the engine's
/// barrier-time gauge publication.  Strictly observe-only.
struct ConnScope {
    scope: Arc<ShardInstruments>,
    /// Epochs drained since the connection opened.
    epochs: u64,
    /// Items routed into this connection since it opened.
    routed: u64,
    /// Largest single-epoch queue observed since the last barrier.
    queue_high: u64,
    /// Busy nanoseconds accumulated since the last barrier.
    busy_nanos: u64,
    /// Wall-clock anchor of the last barrier (busy-share denominator).
    since: Instant,
}

impl ConnScope {
    fn new(scope: Arc<ShardInstruments>) -> Self {
        ConnScope {
            scope,
            epochs: 0,
            routed: 0,
            queue_high: 0,
            busy_nanos: 0,
            since: Instant::now(),
        }
    }

    fn record_epoch(&mut self, queued: u64, busy_nanos: u64) {
        self.epochs += 1;
        self.routed += queued;
        self.queue_high = self.queue_high.max(queued);
        self.busy_nanos += busy_nanos;
    }

    fn publish(&mut self, window_bytes: u64, window_segments: u64) {
        let wall = self.since.elapsed().as_nanos() as u64;
        let busy_share = if wall == 0 {
            0.0
        } else {
            (self.busy_nanos as f64 / wall as f64).min(1.0)
        };
        self.scope.window_bytes.set(window_bytes as f64);
        self.scope.window_segments.set(window_segments as f64);
        self.scope.epochs_executed.set(self.epochs as f64);
        self.scope.routed.set(self.routed as f64);
        self.scope.queue_depth.set(self.queue_high as f64);
        self.scope.busy_share.set(busy_share);
        self.queue_high = 0;
        self.busy_nanos = 0;
        self.since = Instant::now();
    }
}

/// Renders a caught panic payload the way `std::thread` would print it.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard operator panicked (non-string payload)".to_string()
    }
}

/// Instantiates the shard operator a [`Frame::Setup`] describes.
fn build_operator(q: &WireQuery) -> Result<MswjOperator, String> {
    let specs: Vec<StreamSpec> = q
        .streams
        .iter()
        .map(|s| StreamSpec::new(s.name.clone(), Schema::new(s.fields.clone()), s.window))
        .collect();
    let streams = StreamSet::new(specs).map_err(|e| e.to_string())?;
    let condition = q.condition.instantiate();
    let query = JoinQuery::new(q.name.clone(), streams, condition).map_err(|e| e.to_string())?;
    Ok(MswjOperator::with_probe(query, q.strategy, q.enumerate))
}

/// Decodes a peer's stream index, rejecting any at or past the query's
/// arity before it can reach the operator's windows.
fn stream_index(op: &MswjOperator, stream: u64) -> Result<StreamIndex, String> {
    let m = op.query().arity();
    match usize::try_from(stream) {
        Ok(s) if s < m => Ok(StreamIndex(s)),
        _ => Err(format!(
            "stream index {stream} out of range for a {m}-stream query"
        )),
    }
}

fn stream_and_column(
    op: &MswjOperator,
    stream: u64,
    column: u64,
) -> Result<(StreamIndex, usize), String> {
    let c = usize::try_from(column).map_err(|_| format!("column index {column} overflows"))?;
    Ok((stream_index(op, stream)?, c))
}

/// Answers one window-state frame (class or window fetch, adoption,
/// purge, retain, plan revision) through the shared [`state`] operations,
/// after checking every index the peer sent.  An `Err` is reported to the
/// peer as an error frame and closes the connection.
fn answer_state_frame(op: Option<&mut MswjOperator>, frame: Frame) -> Result<Frame, String> {
    let op = op.ok_or_else(|| format!("frame type {:#04x} before setup", frame.frame_type()))?;
    Ok(match frame {
        Frame::FetchClass {
            stream,
            column,
            key_hash,
        } => {
            let (s, c) = stream_and_column(op, stream, column)?;
            Frame::ClassData {
                tuples: state::fetch_class(op, s, c, key_hash),
            }
        }
        Frame::FetchWindow { stream } => Frame::ClassData {
            tuples: state::fetch_window(op, stream_index(op, stream)?),
        },
        Frame::Adopt { tuples } => {
            for t in &tuples {
                stream_index(op, t.stream.as_usize() as u64)?;
            }
            state::adopt(op, tuples);
            Frame::Ack
        }
        Frame::PurgeClass {
            stream,
            column,
            key_hash,
        } => {
            let (s, c) = stream_and_column(op, stream, column)?;
            state::purge_class(op, s, c, key_hash);
            Frame::Ack
        }
        Frame::Retain {
            stream,
            column,
            shards,
            keep,
        } => {
            if shards == 0 {
                return Err("retain with zero shards".into());
            }
            let (s, c) = stream_and_column(op, stream, column)?;
            state::retain(op, s, c, shards, keep);
            Frame::Ack
        }
        Frame::Revise { order, demote } => {
            if !order.is_empty() && !op.is_probe_order(&order) {
                return Err(format!("probe order {order:?} is not a permutation"));
            }
            state::revise(op, &order, demote);
            Frame::Ack
        }
        other => unreachable!("not a state frame: {:#04x}", other.frame_type()),
    })
}

/// Serves one client connection until a shutdown handshake, EOF, or a
/// terminal protocol error.  Returns `Ok(())` on every orderly close
/// (including after reporting a client error or an operator panic as an
/// error frame); `Err` only for transport-level failures mid-reply.
pub fn serve_stream<S: Read + Write>(stream: S) -> Result<(), WireError> {
    serve_stream_with(stream, None)
}

/// [`serve_stream`] with an optional telemetry scope: when present, the
/// connection publishes its operator's window footprint and its runtime
/// counters (epochs, routed items, queue high-water, busy share) into the
/// scope's gauges at every barrier frame.  Pure observation — the framing
/// and replies are identical with and without it.
pub fn serve_stream_with<S: Read + Write>(
    stream: S,
    scope: Option<Arc<ShardInstruments>>,
) -> Result<(), WireError> {
    let mut conn_scope = scope.map(ConnScope::new);
    let mut framed = Framed::new(stream);
    let mut op: Option<MswjOperator> = None;
    // Recycled epoch buffers, mirroring the pool worker's steady state.
    let mut items: VecDeque<Item> = VecDeque::new();
    let mut sub = Vec::new();
    let mut mat = Vec::new();
    loop {
        let frame = match framed.recv() {
            Ok(frame) => frame,
            Err(e) if e.is_disconnect() => return Ok(()),
            Err(WireError::VersionMismatch { ours, theirs }) => {
                // Our reply frame carries *our* version, which the foreign
                // peer will reject in turn — but the message text gets
                // through to same-version clients talking to a stale file
                // and is invaluable in logs.
                let _ = framed.send(&Frame::Error {
                    message: format!(
                        "protocol version mismatch: server speaks {ours}, client sent {theirs}"
                    ),
                });
                return Err(WireError::VersionMismatch { ours, theirs });
            }
            Err(e) => {
                let _ = framed.send(&Frame::Error {
                    message: format!("undecodable frame: {e}"),
                });
                return Err(e);
            }
        };
        match frame {
            Frame::Hello => framed.send(&Frame::HelloAck)?,
            Frame::Setup(q) => match build_operator(&q) {
                Ok(built) => {
                    op = Some(built);
                    framed.send(&Frame::SetupAck)?;
                }
                Err(message) => {
                    framed.send(&Frame::Error { message })?;
                    return Ok(());
                }
            },
            Frame::Task(task) => {
                let Some(op) = op.as_mut() else {
                    framed.send(&Frame::Error {
                        message: "task before setup".into(),
                    })?;
                    return Ok(());
                };
                items.clear();
                items.extend(task.items.into_iter().map(|w| Item {
                    seq: w.seq,
                    probe: w.probe,
                    tuple: w.tuple,
                }));
                sub.clear();
                mat.clear();
                let queued = items.len() as u64;
                let started = Instant::now();
                let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    exec::drain_queue(op, &mut items, &mut sub, &mut mat);
                }))
                .err();
                let busy_nanos = started.elapsed().as_nanos() as u64;
                if let Some(scope) = &mut conn_scope {
                    scope.record_epoch(queued, busy_nanos);
                }
                match panicked {
                    Some(payload) => {
                        framed.send(&Frame::Error {
                            message: panic_text(payload.as_ref()),
                        })?;
                        return Ok(());
                    }
                    None => framed.send(&Frame::Output(WireOutput {
                        epoch: task.epoch,
                        routing_epoch: task.routing_epoch,
                        busy_nanos,
                        sub: sub
                            .iter()
                            .map(|o| WireSub {
                                seq: o.seq,
                                n_join: o.n_join,
                                indexed: o.indexed,
                            })
                            .collect(),
                        mat: std::mem::take(&mut mat),
                    }))?,
                }
            }
            Frame::Barrier { token } => {
                let stats = op.as_ref().map(MswjOperator::stats).unwrap_or_default();
                let window_bytes = op.as_ref().map(MswjOperator::window_bytes).unwrap_or(0);
                let window_segments = op.as_ref().map(MswjOperator::window_segments).unwrap_or(0);
                if let Some(scope) = &mut conn_scope {
                    scope.publish(window_bytes, window_segments);
                }
                framed.send(&Frame::BarrierAck {
                    token,
                    stats,
                    window_bytes,
                    window_segments,
                })?;
            }
            frame @ (Frame::FetchClass { .. }
            | Frame::FetchWindow { .. }
            | Frame::Adopt { .. }
            | Frame::PurgeClass { .. }
            | Frame::Retain { .. }
            | Frame::Revise { .. }) => match answer_state_frame(op.as_mut(), frame) {
                Ok(reply) => framed.send(&reply)?,
                Err(message) => {
                    framed.send(&Frame::Error { message })?;
                    return Ok(());
                }
            },
            Frame::Shutdown => {
                framed.send(&Frame::ShutdownAck)?;
                return Ok(());
            }
            other => {
                framed.send(&Frame::Error {
                    message: format!(
                        "unexpected frame type {:#04x} on the server side",
                        other.frame_type()
                    ),
                })?;
                return Ok(());
            }
        }
    }
}

fn spawn_connection<S>(index: usize, stream: S, scope: Option<Arc<ShardInstruments>>)
where
    S: Read + Write + Send + 'static,
{
    let _ = std::thread::Builder::new()
        .name(format!("mswj-shardd-conn-{index}"))
        .spawn(move || {
            if let Err(e) = serve_stream_with(stream, scope) {
                eprintln!("mswj-shardd: connection {index} failed: {e}");
            }
        });
}

/// Binds a Unix-domain socket (replacing any stale socket file) and serves
/// every incoming connection on its own thread.  Never returns except on a
/// bind/accept error — this is the `mswj-shardd --uds` main loop.
pub fn serve_uds(path: &Path) -> Result<(), WireError> {
    serve_uds_with(path, None)
}

/// [`serve_uds`] with optional daemon telemetry: connection `i` publishes
/// into `telemetry.shard(i)`, so an exporter scraping the handle sees one
/// gauge set per accepted connection.
pub fn serve_uds_with(path: &Path, telemetry: Option<Telemetry>) -> Result<(), WireError> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    eprintln!("mswj-shardd: listening on uds {}", path.display());
    for (index, conn) in listener.incoming().enumerate() {
        let scope = telemetry.as_ref().map(|t| t.shard(index));
        spawn_connection(index, conn?, scope);
    }
    Ok(())
}

/// Binds a TCP listener and serves every incoming connection on its own
/// thread.  Never returns except on a bind/accept error — this is the
/// `mswj-shardd --tcp` main loop.
pub fn serve_tcp(addr: &str) -> Result<(), WireError> {
    serve_tcp_with(addr, None)
}

/// [`serve_tcp`] with optional daemon telemetry — see [`serve_uds_with`].
pub fn serve_tcp_with(addr: &str, telemetry: Option<Telemetry>) -> Result<(), WireError> {
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!(
        "mswj-shardd: listening on tcp {}",
        listener.local_addr().map_err(WireError::Io)?
    );
    for (index, conn) in listener.incoming().enumerate() {
        let scope = telemetry.as_ref().map(|t| t.shard(index));
        spawn_connection(index, conn?, scope);
    }
    Ok(())
}
