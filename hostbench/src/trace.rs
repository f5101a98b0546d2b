//! Span recording for the traced run, from the benchmark's own files.
//!
//! The wrappers here sit around the public traits a mediator is
//! assembled from — [`MessageCodec`], [`Transport`]/[`Listener`]/
//! [`Connection`] and [`TelemetrySink`] — and forward every call to the
//! same inner method, timing it. Each client connection is a *chain*:
//! the client's connection, the mediator's accepted end of it, the
//! mediator's connection to the service and the service's accepted end.
//! Ends are paired by connect order (a connect and its queue entry are
//! made under one lock, and listeners hand connections out in that
//! order); the mediator's codec, γ and service-connect calls join the
//! chain its session thread last received on.
//!
//! Each client op is one span; every wrapped call on its chain is a
//! child span, named by connection role. Spans stay in memory and are
//! attributed when the segment ends: an op's latency splits into client,
//! send, delivery (hop), mediator and service time, which add up to the
//! whole because each part is measured between the timestamps of the
//! calls either side of it.

use crate::alloc;
use starlink_mdl::{MdlError, MessageCodec};
use starlink_message::AbstractMessage;
use starlink_net::{Connection, Endpoint, Listener, Transport};
use starlink_telemetry::{ProbeOutcome, Recorder, Snapshot, TelemetrySink, TraceEvent, TraceMeta};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// `t` in nanoseconds since the first timestamp taken in this process.
fn ts_of(t: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

fn ts() -> u64 {
    ts_of(Instant::now())
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while recording spans")
}

/// Which end of a chain a connection is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The client's connection to the mediator.
    Client,
    /// The mediator's accepted end of a client connection.
    MediatorIn,
    /// The mediator's connection to the service.
    MediatorOut,
    /// The service's accepted end of the mediator's connection.
    Service,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::MediatorIn => "mediator-in",
            Role::MediatorOut => "mediator-out",
            Role::Service => "service",
        }
    }

    /// Index of the direction a frame sent from this end travels in.
    fn send_dir(self) -> usize {
        self as usize
    }

    /// Index of the direction a frame received at this end came from.
    fn recv_dir(self) -> usize {
        match self {
            Role::Client => Role::MediatorIn as usize,
            Role::MediatorIn => Role::Client as usize,
            Role::MediatorOut => Role::Service as usize,
            Role::Service => Role::MediatorOut as usize,
        }
    }
}

/// Which party's network engine a transport wrapper is registered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Client,
    Mediator,
    Service,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Send(Role),
    Recv(Role),
    Connect(Role),
    Accept,
    Parse,
    Compose,
    Gamma,
}

impl Kind {
    fn name(self) -> String {
        match self {
            Kind::Send(r) => format!("{}.send", r.name()),
            Kind::Recv(r) => format!("{}.recv", r.name()),
            Kind::Connect(r) => format!("{}.connect", r.name()),
            Kind::Accept => "mediator.accept".to_owned(),
            Kind::Parse => "mdl.parse".to_owned(),
            Kind::Compose => "mdl.compose".to_owned(),
            Kind::Gamma => "mtl.gamma".to_owned(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    kind: Kind,
    start: u64,
    end: u64,
    /// Allocations (codec calls) or bytes (sends).
    extra: u64,
}

impl Ev {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The instant that places the call in an op: a receive or accept
    /// belongs to the op in which it returned, anything else to the op
    /// in which it began.
    fn anchor(&self) -> u64 {
        match self.kind {
            Kind::Recv(_) | Kind::Accept => self.end,
            _ => self.start,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpSpan {
    name: &'static str,
    start: u64,
    end: u64,
    measured: bool,
}

#[derive(Default)]
struct ChainState {
    events: Vec<Ev>,
    ops: Vec<OpSpan>,
    connected_at: u64,
}

/// One client connection's calls, across all four of its ends.
struct Chain {
    state: Mutex<ChainState>,
}

impl Chain {
    fn push(&self, kind: Kind, start: u64, end: u64, extra: u64) {
        lock(&self.state).events.push(Ev {
            kind,
            start,
            end,
            extra,
        });
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Chain>>> = const { RefCell::new(None) };
}

fn set_current(chain: &Arc<Chain>) {
    CURRENT.with(|c| {
        let mut c = c.borrow_mut();
        if !matches!(&*c, Some(cur) if Arc::ptr_eq(cur, chain)) {
            *c = Some(chain.clone());
        }
    });
}

fn current() -> Option<Arc<Chain>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Per-op sums over the measured ops, in nanoseconds unless noted.
#[derive(Debug, Default, Clone)]
pub struct Sums {
    pub ops: u64,
    pub op_ns: u64,
    pub client_ns: u64,
    pub send_ns: u64,
    pub connect_ns: u64,
    pub hop_ns: i64,
    pub mediator_ns: u64,
    pub service_ns: u64,
    pub parse_ns: u64,
    pub parse_calls: u64,
    pub parse_allocs: u64,
    pub compose_ns: u64,
    pub compose_calls: u64,
    pub compose_allocs: u64,
    pub gamma_ns: u64,
    pub gamma_calls: u64,
    pub service_connect_ns: u64,
    pub accept_wait_ns: u64,
    pub frames: u64,
    pub bytes: u64,
}

impl Sums {
    /// Op latency not covered by any measured part (may be slightly
    /// negative where two parts overlap by a few instructions).
    pub fn unattributed_ns(&self) -> i64 {
        self.op_ns as i64
            - (self.client_ns + self.send_ns + self.connect_ns + self.mediator_ns + self.service_ns)
                as i64
            - self.hop_ns
    }
}

/// Counters taken only while the tracer is measuring.
#[derive(Debug, Default)]
pub struct Counters {
    pub try_receive_calls: AtomicU64,
    pub try_receive_hits: AtomicU64,
    pub try_accept_calls: AtomicU64,
    pub accepts: AtomicU64,
    pub telemetry_events: AtomicU64,
    pub probe_hits: AtomicU64,
    pub probe_fallbacks: AtomicU64,
}

/// How many measured ops keep their full span tree for the spans file.
const KEPT_OPS: usize = 300;

/// The traced run's span store and counters.
#[derive(Default)]
pub struct Tracer {
    chains: Mutex<Vec<Arc<Chain>>>,
    /// Client connections not yet handed out by the mediator's listener.
    to_mediator: Mutex<VecDeque<Arc<Chain>>>,
    /// Mediator connections not yet handed out by the service's listener.
    to_service: Mutex<VecDeque<Arc<Chain>>>,
    measuring: AtomicBool,
    pub counters: Counters,
    kept: Mutex<String>,
    kept_ops: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// Ops begun while measuring are attributed; counters only count
    /// while measuring.
    pub fn set_measuring(&self, on: bool) {
        self.measuring.store(on, Ordering::SeqCst);
    }

    pub fn measuring(&self) -> bool {
        self.measuring.load(Ordering::Relaxed)
    }

    fn count(&self, counter: &AtomicU64) {
        if self.measuring() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn new_chain(&self) -> Arc<Chain> {
        let chain = Arc::new(Chain {
            state: Mutex::new(ChainState::default()),
        });
        lock(&self.chains).push(chain.clone());
        chain
    }

    /// Records one client op on the calling client thread's chain.
    pub fn op_done(&self, name: &'static str, start: Instant, end: Instant, measured: bool) {
        let Some(chain) = current() else { return };
        lock(&chain.state).ops.push(OpSpan {
            name,
            start: ts_of(start),
            end: ts_of(end),
            measured,
        });
    }

    /// Attributes every op. Call once every party has stopped, so that
    /// each call an op caused has been recorded; doing it here keeps the
    /// work off the measured threads.
    pub fn finish(&self) -> Sums {
        let mut sums = Sums::default();
        for chain in lock(&self.chains).iter() {
            let mut state = lock(&chain.state);
            let ChainState { events, ops, .. } = &mut *state;
            events.sort_by_key(Ev::anchor);
            let mut rest = &events[..];
            for (i, op) in ops.iter().enumerate() {
                // An op owns the calls placed between its start and the
                // next op's start.
                let until = ops.get(i + 1).map_or(u64::MAX, |next| next.start);
                let skip = rest.partition_point(|e| e.anchor() < op.start);
                let take = rest[skip..].partition_point(|e| e.anchor() < until);
                let mine = &rest[skip..skip + take];
                rest = &rest[skip + take..];
                if op.measured {
                    self.keep(op, mine);
                    add(&mut sums, &split_op(op, mine));
                }
            }
        }
        sums
    }

    /// The kept span trees as tab-separated rows:
    /// `op  parent  name  start_ns  end_ns  extra`.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("op\tparent\tname\tstart_ns\tend_ns\textra\n");
        out.push_str(&lock(&self.kept));
        out
    }

    fn keep(&self, op: &OpSpan, events: &[Ev]) {
        let id = self.kept_ops.fetch_add(1, Ordering::Relaxed) + 1;
        if id > KEPT_OPS as u64 {
            return;
        }
        let mut kept = lock(&self.kept);
        let _ = writeln!(kept, "{id}\t0\t{}\t{}\t{}\t0", op.name, op.start, op.end);
        for e in events {
            let _ = writeln!(
                kept,
                "{id}\t{id}\t{}\t{}\t{}\t{}",
                e.kind.name(),
                e.start,
                e.end,
                e.extra
            );
        }
    }

    /// A connect from the client (a new chain) or from the mediator (the
    /// chain its session thread is serving), queued for the listener at
    /// the far end in the order the connects complete.
    fn connect(
        &self,
        inner: &dyn Transport,
        endpoint: &Endpoint,
        role: Role,
    ) -> starlink_net::Result<(Box<dyn Connection>, Arc<Chain>)> {
        let queue = if role == Role::Client {
            &self.to_mediator
        } else {
            &self.to_service
        };
        let mut queue = lock(queue);
        let t0 = ts();
        let conn = inner.connect(endpoint)?;
        let t1 = ts();
        let chain = match role {
            Role::Client => self.new_chain(),
            _ => current().unwrap_or_else(|| self.new_chain()),
        };
        {
            let mut state = lock(&chain.state);
            if role == Role::Client {
                state.connected_at = t1;
            }
            state.events.push(Ev {
                kind: Kind::Connect(role),
                start: t0,
                end: t1,
                extra: 0,
            });
        }
        queue.push_back(chain.clone());
        Ok((conn, chain))
    }
}

fn add(sums: &mut Sums, p: &Sums) {
    sums.ops += 1;
    sums.op_ns += p.op_ns;
    sums.client_ns += p.client_ns;
    sums.send_ns += p.send_ns;
    sums.connect_ns += p.connect_ns;
    sums.hop_ns += p.hop_ns;
    sums.mediator_ns += p.mediator_ns;
    sums.service_ns += p.service_ns;
    sums.parse_ns += p.parse_ns;
    sums.parse_calls += p.parse_calls;
    sums.parse_allocs += p.parse_allocs;
    sums.compose_ns += p.compose_ns;
    sums.compose_calls += p.compose_calls;
    sums.compose_allocs += p.compose_allocs;
    sums.gamma_ns += p.gamma_ns;
    sums.gamma_calls += p.gamma_calls;
    sums.service_connect_ns += p.service_connect_ns;
    sums.accept_wait_ns += p.accept_wait_ns;
    sums.frames += p.frames;
    sums.bytes += p.bytes;
}

/// Time between each send and the receive that last preceded it on the
/// same party: that party's busy time for the op.
fn busy(mut marks: Vec<(u64, bool)>) -> u64 {
    // Receives (true) sort before sends (false) at equal instants.
    marks.sort_by_key(|&(t, is_recv)| (t, !is_recv));
    let mut last_recv = None;
    let mut total = 0;
    for (t, is_recv) in marks {
        if is_recv {
            last_recv = Some(t);
        } else if let Some(r) = last_recv.take() {
            total += t.saturating_sub(r);
        }
    }
    total
}

/// Splits one op into its parts.
fn split_op(op: &OpSpan, events: &[Ev]) -> Sums {
    let mut p = Sums {
        op_ns: op.end - op.start,
        ..Sums::default()
    };
    let mut client_io = 0;
    let mut mediator_marks = Vec::new();
    let mut service_marks = Vec::new();
    // Per direction: send ends and receive returns, in order; frames on
    // one direction of a connection arrive in the order they were sent.
    let mut sent: [Vec<u64>; 4] = Default::default();
    let mut received: [Vec<u64>; 4] = Default::default();
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| e.start);
    for e in &sorted {
        match e.kind {
            Kind::Send(role) => {
                p.send_ns += e.dur();
                p.frames += 1;
                p.bytes += e.extra;
                sent[role.send_dir()].push(e.end);
                match role {
                    Role::Client => client_io += e.dur(),
                    Role::MediatorIn | Role::MediatorOut => mediator_marks.push((e.start, false)),
                    Role::Service => service_marks.push((e.start, false)),
                }
            }
            Kind::Recv(role) => {
                received[role.recv_dir()].push(e.end);
                match role {
                    Role::Client => client_io += e.dur(),
                    Role::MediatorIn | Role::MediatorOut => mediator_marks.push((e.end, true)),
                    Role::Service => service_marks.push((e.end, true)),
                }
            }
            Kind::Connect(Role::Client) => {
                p.connect_ns += e.dur();
                client_io += e.dur();
            }
            Kind::Connect(_) => p.service_connect_ns += e.dur(),
            Kind::Accept => p.accept_wait_ns += e.dur(),
            Kind::Parse => {
                p.parse_ns += e.dur();
                p.parse_calls += 1;
                p.parse_allocs += e.extra;
            }
            Kind::Compose => {
                p.compose_ns += e.dur();
                p.compose_calls += 1;
                p.compose_allocs += e.extra;
            }
            Kind::Gamma => {
                p.gamma_ns += e.dur();
                p.gamma_calls += 1;
            }
        }
    }
    p.client_ns = p.op_ns.saturating_sub(client_io);
    p.mediator_ns = busy(mediator_marks);
    p.service_ns = busy(service_marks);
    p.hop_ns = sent
        .iter()
        .zip(&received)
        .flat_map(|(s, r)| s.iter().zip(r))
        .map(|(&s, &r)| r as i64 - s as i64)
        .sum();
    p
}

/// Counts dispatch-probe outcomes reported by codec parses.
impl TelemetrySink for Tracer {
    fn record(&self, event: &TraceEvent<'_>) {
        match event {
            TraceEvent::DispatchProbe {
                outcome: ProbeOutcome::Hit,
            } => self.count(&self.counters.probe_hits),
            TraceEvent::DispatchProbe {
                outcome: ProbeOutcome::Fallback,
            } => self.count(&self.counters.probe_fallbacks),
            _ => {}
        }
    }
}

/// A mediator codec that times every call into its inner codec.
pub struct TracedCodec {
    inner: Arc<dyn MessageCodec>,
    tracer: Arc<Tracer>,
}

impl TracedCodec {
    pub fn wrap(inner: Arc<dyn MessageCodec>, tracer: &Arc<Tracer>) -> Arc<dyn MessageCodec> {
        Arc::new(TracedCodec {
            inner,
            tracer: tracer.clone(),
        })
    }

    fn timed<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::thread_count();
        let t0 = ts();
        let out = f();
        let t1 = ts();
        let allocs = alloc::thread_count() - a0;
        if let Some(chain) = current() {
            chain.push(kind, t0, t1, allocs);
        }
        out
    }
}

impl MessageCodec for TracedCodec {
    /// Parses through the inner codec's sink-taking entry point so
    /// dispatch-probe outcomes reach the tracer (codecs that take no
    /// sink fall back to their plain parse).
    fn parse(&self, data: &[u8]) -> Result<AbstractMessage, MdlError> {
        self.timed(Kind::Parse, || {
            self.inner.parse_with_sink(data, self.tracer.as_ref())
        })
    }

    fn parse_with_sink(
        &self,
        data: &[u8],
        sink: &dyn TelemetrySink,
    ) -> Result<AbstractMessage, MdlError> {
        self.timed(Kind::Parse, || self.inner.parse_with_sink(data, sink))
    }

    fn compose(&self, msg: &AbstractMessage) -> Result<Vec<u8>, MdlError> {
        self.timed(Kind::Compose, || self.inner.compose(msg))
    }

    fn compose_into(&self, msg: &AbstractMessage, out: &mut Vec<u8>) -> Result<(), MdlError> {
        self.timed(Kind::Compose, || self.inner.compose_into(msg, out))
    }

    fn message_names(&self) -> &[String] {
        self.inner.message_names()
    }
}

/// The mediator's telemetry sink: a [`Recorder`] (what the host would
/// install itself) that also counts events and records γ spans.
pub struct CountingSink {
    inner: Arc<Recorder>,
    tracer: Arc<Tracer>,
}

impl CountingSink {
    pub fn shared(tracer: &Arc<Tracer>) -> Arc<dyn TelemetrySink> {
        Arc::new(CountingSink {
            inner: Arc::new(Recorder::new()),
            tracer: tracer.clone(),
        })
    }

    fn observe(&self, event: &TraceEvent<'_>) {
        self.tracer.count(&self.tracer.counters.telemetry_events);
        if let TraceEvent::GammaExecuted { nanos, .. } = event {
            if let Some(chain) = current() {
                let end = ts();
                chain.push(Kind::Gamma, end.saturating_sub(*nanos), end, 0);
            }
        }
    }
}

impl TelemetrySink for CountingSink {
    fn enabled(&self) -> bool {
        TelemetrySink::enabled(self.inner.as_ref())
    }

    fn record(&self, event: &TraceEvent<'_>) {
        self.observe(event);
        TelemetrySink::record(self.inner.as_ref(), event);
    }

    fn snapshot(&self) -> Option<Snapshot> {
        TelemetrySink::snapshot(self.inner.as_ref())
    }

    fn record_traced(&self, meta: &TraceMeta, event: &TraceEvent<'_>) {
        self.observe(event);
        TelemetrySink::record_traced(self.inner.as_ref(), meta, event);
    }

    fn wants_spans(&self) -> bool {
        TelemetrySink::wants_spans(self.inner.as_ref())
    }

    fn wants_messages(&self) -> bool {
        TelemetrySink::wants_messages(self.inner.as_ref())
    }
}

/// A transport as seen from one party's network engine.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    side: Side,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    pub fn wrap(inner: Arc<dyn Transport>, side: Side, tracer: &Arc<Tracer>) -> Arc<dyn Transport> {
        Arc::new(TracedTransport {
            inner,
            side,
            tracer: tracer.clone(),
        })
    }
}

impl Transport for TracedTransport {
    fn scheme(&self) -> &str {
        self.inner.scheme()
    }

    fn listen(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Listener>> {
        Ok(Box::new(TracedListener {
            inner: self.inner.listen(endpoint)?,
            side: self.side,
            tracer: self.tracer.clone(),
        }))
    }

    fn connect(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Connection>> {
        let role = match self.side {
            Side::Client => Role::Client,
            Side::Mediator => Role::MediatorOut,
            Side::Service => return self.inner.connect(endpoint),
        };
        let (inner, chain) = self.tracer.connect(self.inner.as_ref(), endpoint, role)?;
        if role == Role::Client {
            set_current(&chain);
        }
        Ok(Box::new(TracedConn {
            inner,
            role,
            chain,
            tracer: self.tracer.clone(),
        }))
    }
}

struct TracedListener {
    inner: Box<dyn Listener>,
    side: Side,
    tracer: Arc<Tracer>,
}

impl TracedListener {
    fn adopt(&self, conn: Box<dyn Connection>) -> Box<dyn Connection> {
        let t = ts();
        let tracer = &self.tracer;
        let (role, queue) = match self.side {
            Side::Mediator => (Role::MediatorIn, &tracer.to_mediator),
            Side::Client | Side::Service => (Role::Service, &tracer.to_service),
        };
        let chain = lock(queue)
            .pop_front()
            .unwrap_or_else(|| tracer.new_chain());
        if role == Role::MediatorIn {
            tracer.count(&tracer.counters.accepts);
            // The accept wait runs from the client's connect returning.
            let mut state = lock(&chain.state);
            let since = state.connected_at;
            state.events.push(Ev {
                kind: Kind::Accept,
                start: since,
                end: t,
                extra: 0,
            });
        }
        Box::new(TracedConn {
            inner: conn,
            role,
            chain,
            tracer: tracer.clone(),
        })
    }
}

impl Listener for TracedListener {
    fn accept(&self) -> starlink_net::Result<Box<dyn Connection>> {
        let conn = self.inner.accept()?;
        Ok(self.adopt(conn))
    }

    fn try_accept(&self) -> starlink_net::Result<Option<Box<dyn Connection>>> {
        if self.side == Side::Mediator {
            self.tracer.count(&self.tracer.counters.try_accept_calls);
        }
        Ok(self.inner.try_accept()?.map(|c| self.adopt(c)))
    }

    fn local_endpoint(&self) -> Endpoint {
        self.inner.local_endpoint()
    }
}

struct TracedConn {
    inner: Box<dyn Connection>,
    role: Role,
    chain: Arc<Chain>,
    tracer: Arc<Tracer>,
}

impl TracedConn {
    fn received(&self, t0: u64) {
        self.chain.push(Kind::Recv(self.role), t0, ts(), 0);
        if matches!(self.role, Role::MediatorIn | Role::MediatorOut) {
            set_current(&self.chain);
        }
    }
}

impl Connection for TracedConn {
    fn send(&mut self, data: &[u8]) -> starlink_net::Result<()> {
        let t0 = ts();
        self.inner.send(data)?;
        self.chain
            .push(Kind::Send(self.role), t0, ts(), data.len() as u64);
        Ok(())
    }

    fn receive(&mut self) -> starlink_net::Result<Vec<u8>> {
        let t0 = ts();
        let frame = self.inner.receive()?;
        self.received(t0);
        Ok(frame)
    }

    fn receive_timeout(&mut self, timeout: Duration) -> starlink_net::Result<Vec<u8>> {
        let t0 = ts();
        let frame = self.inner.receive_timeout(timeout)?;
        self.received(t0);
        Ok(frame)
    }

    fn try_receive(&mut self) -> starlink_net::Result<Option<Vec<u8>>> {
        self.tracer.count(&self.tracer.counters.try_receive_calls);
        let t0 = ts();
        let frame = self.inner.try_receive()?;
        if frame.is_some() {
            self.tracer.count(&self.tracer.counters.try_receive_hits);
            self.received(t0);
        }
        Ok(frame)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
