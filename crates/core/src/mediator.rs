//! Mediator construction and deployment.
//!
//! A [`Mediator`] packages a merged k-colored automaton with per-color
//! runtime configurations into a shared [`SessionSpec`]; a
//! [`MediatorHost`] deploys it "in the network" (paper §5.1): it listens
//! at the client-facing endpoint and runs one engine session per client
//! automaton traversal. Combined with a redirect proxy (see the apps
//! crate) this reproduces the paper's deployment, where unmodified
//! Flickr clients were pointed at the local Starlink mediator.
//!
//! Two deployment shapes share the same sans-I/O [`SessionCore`]:
//!
//! * [`MediatorHost::deploy`] — thread per client connection, blocking
//!   I/O (the original engine's shape). The threads are reused in a
//!   leader/followers pool: one thread blocks in `accept`, serves the
//!   connection it gets after handing `accept` to the next idle thread,
//!   and goes back to accepting when the connection ends. Shutdown wakes
//!   the blocked `accept` by dialing the host's own endpoint;
//! * [`MediatorHost::deploy_multiplexed`] — one coordinator polling
//!   connection readiness plus a bounded worker pool stepping session
//!   cores, so many idle clients cost no threads.

use crate::driver::{self, ConnectionState, SessionWatch};
use crate::engine::ColorRuntime;
use crate::error::CoreError;
use crate::ops::{OpsConfig, OpsRuntime, SessionEntry, StallPolicy};
use crate::session_core::{
    ColorConfig, SessionCore, SessionEvent, SessionIo, SessionOutcome, SessionPersist, SessionSpec,
};
use crate::Result;
use starlink_automata::{Action, Automaton};
use starlink_mtl::MtlProgram;
use starlink_net::channel::{self, Receiver, Sender};
use starlink_net::{Connection, Endpoint, Listener, NetError, NetworkEngine};
use starlink_telemetry::{
    chrome_events, evaluate_pair, render_chrome_json, FanoutSink, FlightRecorder, HealthInputs,
    HealthReport, Recorder, SessionTracer, Snapshot, TelemetrySink, TraceBuffer, TraceEvent,
    WindowAggregator, WindowCounts,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the coordinator and diagnostics loops sleep when nothing is
/// ready.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Idle session threads a [`MediatorHost::deploy`] host keeps: a thread
/// whose connection ends while this many are idle exits instead of
/// rejoining the pool.
const MAX_IDLE_SESSION_THREADS: usize = 4;

/// How long a host backs off after a transient accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long the diagnostics endpoint waits for an optional selector
/// frame before answering with the default selector (back-compat with
/// clients that connect and only read, as `starlink stats` always has).
const REQUEST_WAIT: Duration = Duration::from_millis(200);

/// A deployable mediator: merged automaton + per-color runtimes.
pub struct Mediator {
    spec: Arc<SessionSpec>,
    net: NetworkEngine,
    /// Per-exchange receive timeout.
    pub timeout: Duration,
    /// Installed by [`Mediator::enable_tracing`]; handed to the host at
    /// deployment so callers can read traces back.
    trace_buffer: Option<Arc<TraceBuffer>>,
    flight: Option<Arc<FlightRecorder>>,
    /// Installed by [`Mediator::enable_ops`]; handed to the host at
    /// deployment, which builds the watchdog/health runtime from it.
    ops: Option<OpsConfig>,
    window: Option<Arc<WindowAggregator>>,
}

impl Mediator {
    /// Builds a mediator, pre-parsing every γ-transition's MTL program
    /// and collecting the application message templates the binding
    /// rules need.
    ///
    /// # Errors
    ///
    /// Automaton validation failures (including mixed-kind states, which
    /// the engine cannot execute) and MTL syntax errors (reported at
    /// deployment time, not mid-session).
    pub fn new(
        automaton: Automaton,
        client_color: u8,
        runtimes: Vec<ColorRuntime>,
        net: NetworkEngine,
    ) -> Result<Mediator> {
        automaton.validate()?;
        let mut gammas = HashMap::new();
        let mut templates = HashMap::new();
        for t in automaton.transitions() {
            match &t.action {
                Action::Gamma { mtl } => {
                    let program = MtlProgram::parse(mtl)?;
                    gammas.insert((t.from.clone(), t.to.clone()), program);
                }
                Action::Send(m) | Action::Receive(m) => {
                    templates.insert(m.name().to_owned(), m.clone());
                }
            }
        }
        let colors = runtimes
            .into_iter()
            .map(|r| {
                (
                    r.color,
                    ColorConfig {
                        binding: r.binding,
                        codec: r.codec,
                        endpoint: r.endpoint.map(|e| e.to_string()),
                    },
                )
            })
            .collect();
        Ok(Mediator {
            spec: Arc::new(SessionSpec {
                automaton: Arc::new(automaton),
                client_color,
                colors,
                gammas,
                templates,
                telemetry: starlink_telemetry::noop_sink(),
            }),
            net,
            timeout: Duration::from_secs(10),
            trace_buffer: None,
            flight: None,
            ops: None,
            window: None,
        })
    }

    /// Switches on the operations plane: installs a sliding-window
    /// aggregator (labelled with the merged automaton's name) next to
    /// whatever sink is already injected, and records the watchdog
    /// policy and health thresholds for the host to pick up at
    /// deployment. Returns the window; after deployment the host serves
    /// its rates, the stall watchdog, the live session directory and the
    /// [`HealthReport`] through [`MediatorHost::expose_diagnostics`].
    /// Idempotent — calling twice returns the already-installed window
    /// (the first config wins).
    pub fn enable_ops(&mut self, config: OpsConfig) -> Arc<WindowAggregator> {
        if let Some(window) = &self.window {
            return window.clone();
        }
        let window = Arc::new(WindowAggregator::new(
            self.spec.automaton.name(),
            config.window,
        ));
        let existing = self.telemetry();
        let mut sinks: Vec<Arc<dyn TelemetrySink>> = Vec::with_capacity(2);
        if existing.enabled() {
            sinks.push(existing);
        }
        sinks.push(window.clone() as Arc<dyn TelemetrySink>);
        self.set_telemetry(Arc::new(FanoutSink::new(sinks)));
        self.ops = Some(config);
        self.window = Some(window.clone());
        window
    }

    /// Switches on per-session causal tracing: installs a
    /// [`TraceBuffer`] (span trees of the last N completed sessions) and
    /// a [`FlightRecorder`] (bounded per-session message captures pre-
    /// and post-γ), fanned out with whatever sink is already injected.
    /// Returns both stores; after deployment they are also reachable via
    /// [`MediatorHost::trace_buffer`] and
    /// [`MediatorHost::flight_recorder`]. Idempotent — calling twice
    /// returns the already-installed pair.
    pub fn enable_tracing(&mut self) -> (Arc<TraceBuffer>, Arc<FlightRecorder>) {
        if let (Some(buffer), Some(flight)) = (&self.trace_buffer, &self.flight) {
            return (buffer.clone(), flight.clone());
        }
        let buffer = Arc::new(TraceBuffer::new());
        let flight = Arc::new(FlightRecorder::new());
        let existing = self.telemetry();
        let mut sinks: Vec<Arc<dyn TelemetrySink>> = Vec::with_capacity(3);
        if existing.enabled() {
            sinks.push(existing);
        }
        sinks.push(buffer.clone() as Arc<dyn TelemetrySink>);
        sinks.push(flight.clone() as Arc<dyn TelemetrySink>);
        self.set_telemetry(Arc::new(FanoutSink::new(sinks)));
        self.trace_buffer = Some(buffer.clone());
        self.flight = Some(flight.clone());
        (buffer, flight)
    }

    /// The merged automaton this mediator executes.
    pub fn automaton(&self) -> &Automaton {
        &self.spec.automaton
    }

    /// The sink sessions report into (the no-op sink unless one was
    /// injected).
    pub fn telemetry(&self) -> Arc<dyn TelemetrySink> {
        self.spec.telemetry.clone()
    }

    /// Injects the telemetry sink every session driven from this mediator
    /// reports into. Rebuilds the shared [`SessionSpec`]; call before
    /// deploying (sessions already running keep the old sink).
    pub fn set_telemetry(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.spec = Arc::new(SessionSpec {
            automaton: self.spec.automaton.clone(),
            client_color: self.spec.client_color,
            colors: self.spec.colors.clone(),
            gammas: self.spec.gammas.clone(),
            templates: self.spec.templates.clone(),
            telemetry: sink,
        });
    }

    /// Builder-style [`Mediator::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Mediator {
        self.set_telemetry(sink);
        self
    }

    /// The shared session specification, for driving [`SessionCore`]
    /// directly (deterministic replay tests, custom drivers).
    pub fn session_spec(&self) -> Arc<SessionSpec> {
        self.spec.clone()
    }

    /// Runs one full automaton traversal against an already-accepted
    /// client connection (testing / embedded use).
    ///
    /// # Errors
    ///
    /// Any engine failure; the connection should be dropped afterwards.
    pub fn run_session(&self, client_conn: &mut dyn Connection) -> Result<SessionOutcome> {
        let mut state = ConnectionState::new();
        driver::run_blocking(
            &self.spec,
            &self.net,
            self.timeout,
            client_conn,
            &mut state,
            None,
            None,
        )
    }
}

/// A deployed mediator: listening at the client-facing endpoint, running
/// one engine session per client automaton traversal — either on a
/// thread per connection ([`MediatorHost::deploy`]) or multiplexed over
/// a bounded worker pool ([`MediatorHost::deploy_multiplexed`]).
pub struct MediatorHost {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    /// The sink sessions report into. Deployment guarantees it
    /// aggregates (a [`Recorder`] is installed when the injected sink
    /// does not snapshot), so [`MediatorHost::telemetry_snapshot`] and
    /// [`MediatorHost::completed_sessions`] always have data.
    telemetry: Arc<dyn TelemetrySink>,
    /// Present when [`Mediator::enable_tracing`] ran before deployment.
    trace_buffer: Option<Arc<TraceBuffer>>,
    flight: Option<Arc<FlightRecorder>>,
    /// Everything the diagnostics endpoint needs, cloneable into its
    /// serving thread.
    diag: DiagState,
    /// The session-thread pool of a [`MediatorHost::deploy`] host, taken
    /// by [`MediatorHost::shutdown`].
    pool: Mutex<Option<Arc<SessionPool>>>,
    /// Coordinator, workers and diagnostics endpoints.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Ensures the mediator's sink can snapshot: keeps an
/// already-aggregating sink as-is, otherwise installs a fresh
/// [`Recorder`] (fanned out with the caller's sink when one is present).
fn install_recorder(mediator: &mut Mediator) -> Arc<dyn TelemetrySink> {
    let existing = mediator.telemetry();
    if existing.snapshot().is_some() {
        return existing;
    }
    let recorder: Arc<dyn TelemetrySink> = Arc::new(Recorder::new());
    let sink: Arc<dyn TelemetrySink> = if existing.enabled() {
        Arc::new(FanoutSink::new(vec![existing, recorder]))
    } else {
        recorder
    };
    mediator.set_telemetry(sink.clone());
    sink
}

/// Builds the deployment's operations runtime from the mediator's
/// [`OpsConfig`], clamping the watchdog's stall deadline inside the
/// receive timeout so a stall is flagged before the timeout restarts the
/// traversal (which would reset the wait unobserved).
fn build_ops(mediator: &Mediator, telemetry: &Arc<dyn TelemetrySink>) -> Option<Arc<OpsRuntime>> {
    let config = mediator.ops?;
    let window = mediator.window.clone()?;
    let watchdog = config.watchdog.map(|mut wd| {
        if wd.stall_after >= mediator.timeout {
            wd.stall_after = (mediator.timeout / 2).max(Duration::from_millis(1));
        }
        wd
    });
    Some(Arc::new(OpsRuntime::new(
        window,
        config.thresholds,
        watchdog,
        telemetry.clone(),
    )))
}

/// The diagnostics endpoint's view of a deployed host: enough shared
/// state to answer every selector without touching the host itself (the
/// serving thread outlives borrows of [`MediatorHost`]).
#[derive(Clone)]
struct DiagState {
    telemetry: Arc<dyn TelemetrySink>,
    trace_buffer: Option<Arc<TraceBuffer>>,
    /// The merged-automaton pair this host serves, labelling health and
    /// window families.
    pair: String,
    /// Jobs handed to the worker pool and not yet handed back (always 0
    /// for the thread-per-connection host).
    queue_depth: Arc<AtomicUsize>,
    /// Bounded job-channel capacity (0 = no bounded queue: threaded host).
    queue_capacity: usize,
    ops: Option<Arc<OpsRuntime>>,
}

impl DiagState {
    /// Lifecycle counts feeding the health model: the sliding window
    /// when ops are enabled, else lifetime counters recast as a window
    /// of unspecified length (`window_secs` 0 — absolute thresholds
    /// still grade, rate-denominated ones see totals).
    fn window_counts(&self) -> WindowCounts {
        match &self.ops {
            Some(ops) => ops.window.counts(),
            None => {
                let snap = self.telemetry.snapshot().unwrap_or_default();
                WindowCounts {
                    window_secs: 0,
                    started: snap.counter("starlink_sessions_started_total"),
                    finished: snap.counter("starlink_sessions_finished_total"),
                    failed: snap.counter("starlink_sessions_failed_total"),
                    accepted: snap.counter("starlink_sessions_accepted_total"),
                    accept_errors: snap.counter("starlink_accept_errors_total"),
                    stalled: snap.counter("starlink_sessions_stalled_total"),
                    failures_by_stage: Vec::new(),
                }
            }
        }
    }

    fn health_report(&self) -> HealthReport {
        let thresholds = self.ops.as_ref().map(|o| o.thresholds).unwrap_or_default();
        let stalled_now = self
            .ops
            .as_ref()
            .map(|o| o.stalled_now() as u64)
            .unwrap_or(0);
        let inputs = HealthInputs {
            pair: self.pair.clone(),
            window: self.window_counts(),
            queue_depth: self.queue_depth.load(Ordering::SeqCst) as u64,
            queue_capacity: self.queue_capacity as u64,
            stalled_now,
        };
        HealthReport::single(evaluate_pair(&inputs, &thresholds))
    }

    /// The recorder's lifetime families plus windowed rates and health
    /// gauges — the `stats` selector's payload.
    fn diagnostics_snapshot(&self) -> Snapshot {
        let mut snap = self.telemetry.snapshot().unwrap_or_default();
        if let Some(ops) = &self.ops {
            snap.families.extend(ops.window.families());
        }
        snap.families.extend(self.health_report().families());
        snap
    }

    /// Answers one diagnostics request frame.
    fn respond(&self, selector: &str) -> Vec<u8> {
        match selector {
            "" | "stats" => self.diagnostics_snapshot().render_text().into_bytes(),
            "health" => self.health_report().render_text().into_bytes(),
            "sessions" => match &self.ops {
                Some(ops) => ops.directory.render_text().into_bytes(),
                None => {
                    b"error: session directory not enabled (call Mediator::enable_ops before deploying)\n"
                        .to_vec()
                }
            },
            "traces" => match &self.trace_buffer {
                Some(buffer) => {
                    let events: Vec<_> = buffer.traces().iter().flat_map(chrome_events).collect();
                    render_chrome_json(&events).into_bytes()
                }
                None => {
                    b"error: tracing not enabled (call Mediator::enable_tracing before deploying)\n"
                        .to_vec()
                }
            },
            other => format!(
                "error: unknown diagnostics selector `{other}` (expected stats, traces, health or sessions)\n"
            )
            .into_bytes(),
        }
    }
}

/// Waits briefly for the optional one-line request frame; clients that
/// connect and only read (the pre-diagnostics `starlink stats`/`trace`
/// protocol) get the endpoint's default selector.
fn read_selector(conn: &mut dyn Connection, default_selector: &str) -> String {
    let deadline = Instant::now() + REQUEST_WAIT;
    loop {
        match conn.try_receive() {
            Ok(Some(bytes)) => return String::from_utf8_lossy(&bytes).trim().to_owned(),
            Ok(None) => {
                if Instant::now() >= deadline {
                    return default_selector.to_owned();
                }
                std::thread::sleep(IDLE_POLL);
            }
            Err(_) => return default_selector.to_owned(),
        }
    }
}

impl MediatorHost {
    /// Deploys the mediator at `listen`, thread-per-connection.
    ///
    /// Connections are served by a leader/followers pool of session
    /// threads: the leader blocks in [`Listener::accept`], serves what it
    /// accepts on its own thread, and rejoins the pool when the
    /// connection ends; a follower is started whenever the leader was the
    /// last idle thread, and spare idle threads beyond a small fixed
    /// number exit. Transient accept errors back off briefly instead of
    /// killing the pool, which stops only on shutdown or when the
    /// listener itself closes.
    ///
    /// # Errors
    ///
    /// Bind failures; failure to start the first session thread.
    pub fn deploy(mut mediator: Mediator, listen: &Endpoint) -> Result<MediatorHost> {
        let listener = mediator.net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let telemetry = install_recorder(&mut mediator);
        let trace_buffer = mediator.trace_buffer.clone();
        let flight = mediator.flight.clone();
        let ops = build_ops(&mediator, &telemetry);
        let pair = mediator.spec.automaton.name().to_owned();
        let stop = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(SessionPool {
            listener: Mutex::new(listener),
            threads: Mutex::new(PoolThreads::default()),
            mediator: Arc::new(mediator),
            stop: stop.clone(),
            ops: ops.clone(),
            next_session_id: AtomicU64::new(0),
        });
        pool.spawn(&mut pool.lock_threads())
            .map_err(NetError::from)?;
        let diag = DiagState {
            telemetry: telemetry.clone(),
            trace_buffer: trace_buffer.clone(),
            pair,
            queue_depth: Arc::new(AtomicUsize::new(0)),
            queue_capacity: 0,
            ops,
        };
        Ok(MediatorHost {
            endpoint,
            stop,
            telemetry,
            trace_buffer,
            flight,
            diag,
            pool: Mutex::new(Some(pool)),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Deploys the mediator at `listen`, multiplexing all client
    /// connections over a pool of at most `max_workers` worker threads.
    ///
    /// A coordinator thread polls the listener and parked connections
    /// for readiness; sessions with input ready are handed to workers
    /// over a bounded channel (blocking the coordinator when all workers
    /// are busy — natural backpressure). Idle connections cost no
    /// threads, so the host serves far more concurrent clients than
    /// workers.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy_multiplexed(
        mut mediator: Mediator,
        listen: &Endpoint,
        max_workers: usize,
    ) -> Result<MediatorHost> {
        let listener = mediator.net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let telemetry = install_recorder(&mut mediator);
        let trace_buffer = mediator.trace_buffer.clone();
        let flight = mediator.flight.clone();
        let ops = build_ops(&mediator, &telemetry);
        let pair = mediator.spec.automaton.name().to_owned();
        let stop = Arc::new(AtomicBool::new(false));
        let max_workers = max_workers.max(1);
        // Bounded: when every worker is busy and the buffer is full, the
        // coordinator's send blocks until a slot frees up.
        let queue_capacity = max_workers * 2;
        let (jobs_tx, jobs_rx) = channel::bounded::<Job>(queue_capacity);
        let (done_tx, done_rx) = channel::unbounded::<MuxSession>();
        // Jobs handed to the pool and not yet handed back; shared so the
        // coordinator and workers keep the queue-depth gauge honest.
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let mediator = Arc::new(mediator);
        let mut threads = Vec::with_capacity(max_workers + 1);
        for _ in 0..max_workers {
            let jobs_rx = jobs_rx.clone();
            let done_tx = done_tx.clone();
            let mediator = mediator.clone();
            let stop = stop.clone();
            let queue_depth = queue_depth.clone();
            let ops = ops.clone();
            threads.push(std::thread::spawn(move || {
                worker_loop(&jobs_rx, &done_tx, &mediator, &stop, &queue_depth, &ops);
            }));
        }
        drop(jobs_rx);
        drop(done_tx);
        let coord_stop = stop.clone();
        let coord_mediator = mediator;
        let coord_queue_depth = queue_depth.clone();
        let coord_ops = ops.clone();
        threads.push(std::thread::spawn(move || {
            coordinator_loop(
                listener.as_ref(),
                &jobs_tx,
                &done_rx,
                &coord_mediator,
                &coord_stop,
                &coord_queue_depth,
                &coord_ops,
            );
        }));
        let diag = DiagState {
            telemetry: telemetry.clone(),
            trace_buffer: trace_buffer.clone(),
            pair,
            queue_depth,
            queue_capacity,
            ops,
        };
        Ok(MediatorHost {
            endpoint,
            stop,
            telemetry,
            trace_buffer,
            flight,
            diag,
            pool: Mutex::new(None),
            threads: Mutex::new(threads),
        })
    }

    /// The endpoint the mediator is reachable at.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Number of completed sessions (traversals) so far.
    ///
    /// Thin shim over the telemetry counter
    /// `starlink_sessions_finished_total`: the session core emits
    /// `SessionFinished` *before* the final reply reaches the wire, so —
    /// as before the counter moved into telemetry — a client that has
    /// observed its session complete can rely on this count already
    /// agreeing (see `docs/engine.md`).
    pub fn completed_sessions(&self) -> usize {
        self.telemetry
            .snapshot()
            .map(|s| s.counter("starlink_sessions_finished_total") as usize)
            .unwrap_or(0)
    }

    /// The sink this host's sessions report into (always able to
    /// snapshot; see [`MediatorHost::telemetry_snapshot`]).
    pub fn telemetry(&self) -> Arc<dyn TelemetrySink> {
        self.telemetry.clone()
    }

    /// Span trees of the last N completed sessions, when
    /// [`Mediator::enable_tracing`] ran before deployment.
    pub fn trace_buffer(&self) -> Option<Arc<TraceBuffer>> {
        self.trace_buffer.clone()
    }

    /// Per-session message captures (pre-/post-γ), when
    /// [`Mediator::enable_tracing`] ran before deployment.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.clone()
    }

    /// A point-in-time aggregate of everything the host's sessions have
    /// reported: session lifecycle counts, transition and γ-translation
    /// rates, parse/compose latency histograms, wire volume, pool reuse,
    /// and host-level accept/queue gauges. Render with
    /// [`Snapshot::render_text`] for the Prometheus-style exposition the
    /// `starlink stats` CLI command consumes.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.telemetry.snapshot().unwrap_or_default()
    }

    /// The host's health report: the sliding window's failure and
    /// accept-error rates, queue saturation and the stall watchdog's
    /// live count graded against the configured [`crate::OpsConfig`]
    /// thresholds (defaults when ops were not enabled), rolled up per
    /// merged-automaton pair. Also served by the `health` diagnostics
    /// selector and consumed by `starlink health`.
    pub fn health_report(&self) -> HealthReport {
        self.diag.health_report()
    }

    /// [`MediatorHost::telemetry_snapshot`] plus the operations plane's
    /// families: windowed rates (when ops are enabled) and health-status
    /// gauges. This is what the `stats` diagnostics selector serves.
    pub fn diagnostics_snapshot(&self) -> Snapshot {
        self.diag.diagnostics_snapshot()
    }

    /// Serves the unified diagnostics endpoint at `listen`: every
    /// accepted connection may send one request frame naming a selector
    /// — `stats` (diagnostics snapshot text), `traces` (Chrome
    /// `trace_event` JSON), `health` (the rendered [`HealthReport`]) or
    /// `sessions` (the live session directory) — and receives one reply
    /// frame. Clients that send nothing get `stats` after a short grace
    /// period, so the endpoint is a drop-in replacement for
    /// [`MediatorHost::expose_stats`]. Returns the bound endpoint; the
    /// serving thread is joined at [`MediatorHost::shutdown`].
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn expose_diagnostics(&self, net: &NetworkEngine, listen: &Endpoint) -> Result<Endpoint> {
        self.serve_one_shot(net, listen, "stats")
    }

    /// Serves [`MediatorHost::diagnostics_snapshot`] at `listen`: every
    /// accepted connection receives one frame containing the rendered
    /// text exposition and is then dropped. Poll with
    /// `starlink stats <endpoint>`. A thin wrapper over the diagnostics
    /// endpoint (defaulting to the `stats` selector), so the other
    /// selectors work here too. Returns the bound endpoint; the serving
    /// thread is joined at [`MediatorHost::shutdown`].
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn expose_stats(&self, net: &NetworkEngine, listen: &Endpoint) -> Result<Endpoint> {
        self.serve_one_shot(net, listen, "stats")
    }

    /// Serves the trace buffer at `listen` in Chrome `trace_event` JSON:
    /// every accepted connection receives one frame holding all
    /// completed session traces (one track per session) and is then
    /// dropped. Poll with `starlink trace <endpoint>` or load the saved
    /// frame in `chrome://tracing` / Perfetto. A thin wrapper over the
    /// diagnostics endpoint (defaulting to the `traces` selector).
    /// Returns the bound endpoint; the serving thread is joined at
    /// [`MediatorHost::shutdown`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Aborted`] when tracing was not enabled on the
    /// mediator before deployment; bind failures.
    pub fn expose_traces(&self, net: &NetworkEngine, listen: &Endpoint) -> Result<Endpoint> {
        if self.trace_buffer.is_none() {
            return Err(CoreError::Aborted {
                reason: "tracing not enabled: call Mediator::enable_tracing before deploying"
                    .to_owned(),
            });
        }
        self.serve_one_shot(net, listen, "traces")
    }

    /// The one-shot request/reply accept loop every exposure endpoint
    /// shares: accept, wait briefly for an optional selector frame
    /// (defaulting when none arrives), answer with one frame, drop the
    /// connection. Polls so shutdown takes effect promptly and tolerates
    /// transient accept errors.
    fn serve_one_shot(
        &self,
        net: &NetworkEngine,
        listen: &Endpoint,
        default_selector: &'static str,
    ) -> Result<Endpoint> {
        let listener = net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let stop = self.stop.clone();
        let diag = self.diag.clone();
        let handle = std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.try_accept() {
                    Ok(Some(mut conn)) => {
                        let selector = read_selector(conn.as_mut(), default_selector);
                        let reply = diag.respond(&selector);
                        let _ = conn.send(&reply);
                    }
                    Ok(None) => std::thread::sleep(IDLE_POLL),
                    Err(NetError::Closed) => break,
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            }
        });
        self.threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
        Ok(endpoint)
    }

    /// Shuts the host down and waits for its threads: no new sessions
    /// start, in-flight sessions are interrupted at their next receive
    /// slice, and the session/coordinator/worker threads are joined. The
    /// session thread blocked in `accept` is woken by dialing the host's
    /// own endpoint; that connection is dropped unrecorded.
    ///
    /// Robust against worker panics: a poisoned thread-list lock is
    /// recovered (the panicking thread only ever pushed complete
    /// handles), and each panic is recorded as a `WorkerPanic` telemetry
    /// event instead of propagating out of shutdown.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let pool = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(pool) = pool {
            pool.shutdown(&self.endpoint);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = match self.threads.lock() {
                Ok(guard) => guard,
                Err(poisoned) => {
                    self.telemetry.record(&TraceEvent::WorkerPanic);
                    poisoned.into_inner()
                }
            };
            guard.drain(..).collect()
        };
        for h in handles {
            if h.join().is_err() {
                self.telemetry.record(&TraceEvent::WorkerPanic);
            }
        }
    }
}

impl Drop for MediatorHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The session threads of a [`MediatorHost::deploy`] host, organised as
/// leader/followers: the thread holding `listener` is the leader and
/// blocks in `accept`; once a connection arrives it releases the lock
/// (promoting the next follower) and serves the connection itself, then
/// queues for the listener again. No thread is spawned per connection
/// and none sleeps waiting for one.
struct SessionPool {
    listener: Mutex<Box<dyn Listener>>,
    threads: Mutex<PoolThreads>,
    mediator: Arc<Mediator>,
    stop: Arc<AtomicBool>,
    ops: Option<Arc<OpsRuntime>>,
    /// Session-directory ids, in accept order.
    next_session_id: AtomicU64,
}

/// Every pool thread not yet joined. A thread is idle while it is
/// blocked in `accept` or queued for the listener.
#[derive(Default)]
struct PoolThreads {
    all: Vec<PoolThread>,
    next_id: u64,
}

struct PoolThread {
    id: u64,
    idle: bool,
    handle: JoinHandle<()>,
}

impl PoolThreads {
    fn idle(&self) -> usize {
        self.all.iter().filter(|t| t.idle).count()
    }

    fn mark(&mut self, id: u64, idle: bool) {
        if let Some(t) = self.all.iter_mut().find(|t| t.id == id) {
            t.idle = idle;
        }
    }
}

impl SessionPool {
    /// Every update to the thread list is complete before the lock is
    /// released, so a poisoned lock still guards consistent data.
    fn lock_threads(&self) -> std::sync::MutexGuard<'_, PoolThreads> {
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn join(&self, handle: JoinHandle<()>) {
        if handle.join().is_err() {
            self.mediator
                .spec
                .telemetry
                .record(&TraceEvent::WorkerPanic);
        }
    }

    /// Starts an idle thread. Spares that have exited are joined first,
    /// so the list holds live threads only, not one per connection.
    fn spawn(self: &Arc<Self>, threads: &mut PoolThreads) -> std::io::Result<()> {
        let (done, live) = std::mem::take(&mut threads.all)
            .into_iter()
            .partition(|t| t.handle.is_finished());
        threads.all = live;
        for t in done {
            self.join(t.handle);
        }
        let id = threads.next_id;
        threads.next_id += 1;
        let pool = self.clone();
        let handle = std::thread::Builder::new()
            .name("starlink-session".to_owned())
            .spawn(move || pool.run(id))?;
        threads.all.push(PoolThread {
            id,
            idle: true,
            handle,
        });
        Ok(())
    }

    fn run(self: &Arc<Self>, id: u64) {
        while let Some(conn) = self.lead(id) {
            self.serve(conn);
            if !self.rejoin(id) {
                return;
            }
        }
        self.lock_threads().mark(id, false);
    }

    /// Waits for the listener, then blocks in `accept`. `None` on
    /// shutdown or when the listener closes.
    fn lead(self: &Arc<Self>, id: u64) -> Option<Box<dyn Connection>> {
        loop {
            let listener = self.listener.lock().unwrap_or_else(PoisonError::into_inner);
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            match listener.accept() {
                // Accepted after shutdown — normally the host's own
                // wake-up dial: dropped, not counted as a session.
                Ok(_) if self.stop.load(Ordering::SeqCst) => return None,
                Ok(conn) => {
                    self.promote(id);
                    return Some(conn);
                }
                Err(NetError::Closed) => return None,
                Err(_) => {
                    // Transient (e.g. EMFILE, aborted handshake): keep
                    // serving.
                    drop(listener);
                    self.mediator
                        .spec
                        .telemetry
                        .record(&TraceEvent::AcceptError);
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }

    /// Marks the leader busy. If it was the last idle thread, a follower
    /// is started before the leader goes off to serve, so one thread is
    /// always waiting in `accept`. (If the spawn fails, the host accepts
    /// again once a connection ends.)
    fn promote(self: &Arc<Self>, id: u64) {
        let mut threads = self.lock_threads();
        threads.mark(id, false);
        if threads.idle() == 0 && !self.stop.load(Ordering::SeqCst) {
            let _ = self.spawn(&mut threads);
        }
    }

    /// A connection ended: back to accepting, unless the host is stopping
    /// or enough threads are idle already (then the thread exits).
    fn rejoin(&self, id: u64) -> bool {
        let mut threads = self.lock_threads();
        if self.stop.load(Ordering::SeqCst) || threads.idle() >= MAX_IDLE_SESSION_THREADS {
            return false;
        }
        threads.mark(id, true);
        true
    }

    /// Serves one client connection until it closes or fails, or the host
    /// stops: one engine session per automaton traversal.
    fn serve(&self, mut conn: Box<dyn Connection>) {
        let mediator = &self.mediator;
        let sink = mediator.spec.telemetry.as_ref();
        // The session trace id is minted at accept time, so the accept
        // event itself lands in the session's trace.
        let tracer = SessionTracer::for_sink(sink);
        match &tracer {
            Some(t) => t.record(sink, &TraceEvent::SessionAccepted),
            None => sink.record(&TraceEvent::SessionAccepted),
        }
        let watch = self.ops.as_ref().map(|ops| {
            let id = self.next_session_id.fetch_add(1, Ordering::SeqCst) + 1;
            ops.directory.upsert(SessionEntry {
                id,
                state: "accepted".to_owned(),
                awaiting: None,
                since: Instant::now(),
                stalled: false,
            });
            SessionWatch {
                ops: ops.clone(),
                id,
            }
        });
        // The translation cache persists across traversals on the same
        // connection (getInfo after search).
        let mut state = ConnectionState::new();
        state.tracer = tracer;
        while !self.stop.load(Ordering::SeqCst) {
            let run = driver::run_blocking(
                &mediator.spec,
                &mediator.net,
                mediator.timeout,
                conn.as_mut(),
                &mut state,
                Some(&self.stop),
                watch.as_ref(),
            );
            // Completions are counted by the session core itself
            // (`SessionFinished` fires before the final reply hits the
            // wire); failures by the driver.
            match run {
                Ok(_) => {}
                Err(CoreError::Net(NetError::Timeout)) => continue,
                Err(_) => break,
            }
        }
        if let Some(w) = &watch {
            w.ops.directory.remove(w.id);
        }
    }

    /// Called after `stop` is set: wakes the thread blocked in `accept`
    /// by dialing the host's own endpoint (with one empty frame, which a
    /// datagram listener needs to return), then joins every thread. Each
    /// thread that takes the listener from then on sees `stop` and exits.
    /// If the dial fails the idle threads cannot be woken: they are left
    /// detached and only the threads serving connections are joined.
    fn shutdown(&self, endpoint: &Endpoint) {
        let woken = self
            .mediator
            .net
            .connect(endpoint)
            .and_then(|mut conn| conn.send(&[]))
            .is_ok();
        let handles: Vec<JoinHandle<()>> = self
            .lock_threads()
            .all
            .drain(..)
            .filter(|t| woken || !t.idle)
            .map(|t| t.handle)
            .collect();
        for handle in handles {
            self.join(handle);
        }
    }
}

/// One client connection multiplexed over the worker pool: its session
/// core plus the sockets the core's instructions refer to.
struct MuxSession {
    core: SessionCore,
    client: Box<dyn Connection>,
    services: HashMap<u8, Box<dyn Connection>>,
    /// Color the session is parked waiting to receive on.
    awaiting: Option<u8>,
    /// When the parked receive times out (triggering [`SessionEvent::Tick`]).
    deadline: Instant,
    /// When the current receive wait began (the stall watchdog measures
    /// from here; unlike `deadline` it is not pushed out by config).
    awaiting_since: Instant,
    /// Stable directory id (accept order), distinct from the coordinator's
    /// per-park keys.
    ops_id: u64,
}

/// A unit of work for the pool: step this session with this event
/// (`None` = start the session's first traversal).
struct Job {
    session: MuxSession,
    event: Option<SessionEvent>,
}

fn worker_loop(
    jobs: &Receiver<Job>,
    done: &Sender<MuxSession>,
    mediator: &Arc<Mediator>,
    stop: &AtomicBool,
    queue_depth: &AtomicUsize,
    ops: &Option<Arc<OpsRuntime>>,
) {
    while let Ok(job) = jobs.recv() {
        let Job { mut session, event } = job;
        let stepped = match event {
            None => session.core.start(),
            Some(event) => session.core.step(event),
        };
        // On engine or I/O failure the session (and its connections) is
        // dropped, mirroring the thread-per-connection host; otherwise it
        // parked awaiting input — hand it back for polling.
        let parked = match stepped.and_then(|ios| pump(&mut session, ios, mediator, stop)) {
            Ok(()) => true,
            Err(err) => {
                session.core.record_failure(&err);
                if let Some(ops) = ops {
                    ops.directory.remove(session.ops_id);
                }
                false
            }
        };
        let depth = queue_depth.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        mediator
            .spec
            .telemetry
            .record(&TraceEvent::QueueDepth { depth });
        if parked && done.send(session).is_err() {
            return;
        }
    }
}

/// Executes a batch of core instructions with quick blocking I/O,
/// restarting the traversal whenever one finishes, until the session
/// parks on a receive.
fn pump(
    session: &mut MuxSession,
    mut ios: Vec<SessionIo>,
    mediator: &Arc<Mediator>,
    stop: &AtomicBool,
) -> Result<()> {
    loop {
        // Completions are counted by the core's `SessionFinished` event,
        // emitted during `advance()` — i.e. before this loop executes the
        // batch's sends, so once the final reply is on the wire the
        // counter already agrees.
        let finished = ios.iter().any(|io| matches!(io, SessionIo::Finished(_)));
        for io in ios {
            match io {
                SessionIo::Finished(_) => {}
                SessionIo::NeedRecv { color } => {
                    session.awaiting = Some(color);
                    let now = Instant::now();
                    session.deadline = now + mediator.timeout;
                    session.awaiting_since = now;
                }
                SessionIo::SendWire { color, bytes } => {
                    if color == mediator.spec.client_color {
                        session.client.send(&bytes)?;
                    } else {
                        let conn =
                            session
                                .services
                                .get_mut(&color)
                                .ok_or_else(|| CoreError::Aborted {
                                    reason: format!("send on color {color} with no connection"),
                                })?;
                        conn.send(&bytes)?;
                    }
                    session.core.recycle_wire_buf(bytes);
                }
                SessionIo::ConnectService { color, endpoint } => {
                    let endpoint: Endpoint = endpoint.parse()?;
                    let conn = mediator.net.connect(&endpoint)?;
                    session.services.insert(color, conn);
                }
            }
        }
        if !finished {
            // Advance stopped at a NeedRecv: park.
            return Ok(());
        }
        if stop.load(Ordering::SeqCst) {
            return Err(CoreError::HostStopped);
        }
        // Traversal done; begin the next one on the same connection
        // (persistent translation cache survives inside the core).
        ios = session.core.restart()?;
    }
}

/// What the coordinator decided to do with a parked session this poll.
enum Ready {
    /// Connection closed or failed: drop the session.
    Drop,
    /// The stall watchdog's abort policy fired after waiting this long.
    Abort(u64),
    /// Input (or a timeout tick) is ready: hand to the pool.
    Step(SessionEvent),
}

#[allow(clippy::too_many_arguments)]
fn coordinator_loop(
    listener: &dyn Listener,
    jobs: &Sender<Job>,
    done: &Receiver<MuxSession>,
    mediator: &Arc<Mediator>,
    stop: &AtomicBool,
    queue_depth: &AtomicUsize,
    ops: &Option<Arc<OpsRuntime>>,
) {
    let sink = mediator.spec.telemetry.clone();
    let mut parked: HashMap<u64, MuxSession> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut next_ops_id: u64 = 0;
    let mut last_active = usize::MAX;
    // Submitting a job before `jobs.send` keeps the gauge an upper bound
    // even while the send blocks on a full channel.
    let submit = |session: MuxSession, event: Option<SessionEvent>| {
        let depth = queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        sink.record(&TraceEvent::QueueDepth { depth });
        jobs.send(Job { session, event }).is_ok()
    };
    while !stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        // 1. Workers hand back sessions parked on a receive.
        while let Ok(session) = done.try_recv() {
            next_id += 1;
            if let Some(ops) = ops {
                ops.directory.upsert(SessionEntry {
                    id: session.ops_id,
                    state: session.core.current_state().to_owned(),
                    awaiting: session.awaiting,
                    since: Instant::now(),
                    stalled: false,
                });
            }
            parked.insert(next_id, session);
            progressed = true;
        }
        // 2. New client connections start fresh sessions.
        match listener.try_accept() {
            Ok(Some(client)) => {
                // Minting the tracer here attributes the accept event to
                // the session's own trace (as in the threaded host).
                let tracer = SessionTracer::for_sink(sink.as_ref());
                match &tracer {
                    Some(t) => t.record(sink.as_ref(), &TraceEvent::SessionAccepted),
                    None => sink.record(&TraceEvent::SessionAccepted),
                }
                let mut persist = SessionPersist::new();
                persist.tracer = tracer;
                if let Ok(core) = SessionCore::new(mediator.spec.clone(), persist) {
                    next_ops_id += 1;
                    if let Some(ops) = ops {
                        ops.directory.upsert(SessionEntry {
                            id: next_ops_id,
                            state: core.current_state().to_owned(),
                            awaiting: None,
                            since: Instant::now(),
                            stalled: false,
                        });
                    }
                    let session = MuxSession {
                        core,
                        client,
                        services: HashMap::new(),
                        awaiting: None,
                        deadline: Instant::now() + mediator.timeout,
                        awaiting_since: Instant::now(),
                        ops_id: next_ops_id,
                    };
                    if !submit(session, None) {
                        return;
                    }
                    progressed = true;
                }
            }
            Ok(None) => {}
            Err(NetError::Closed) => break,
            Err(_) => {
                sink.record(&TraceEvent::AcceptError);
                std::thread::sleep(ACCEPT_BACKOFF);
            }
        }
        // 3. Poll parked sessions for readiness (or timeout), running
        //    the stall watchdog over sessions still waiting.
        let now = Instant::now();
        let watchdog = ops.as_ref().and_then(|o| o.watchdog);
        let mut ready: Vec<(u64, Ready)> = Vec::new();
        for (&id, session) in parked.iter_mut() {
            let Some(color) = session.awaiting else {
                ready.push((id, Ready::Drop));
                continue;
            };
            let conn = if color == mediator.spec.client_color {
                Some(session.client.as_mut())
            } else {
                session.services.get_mut(&color).map(|c| c.as_mut())
            };
            let Some(conn) = conn else {
                ready.push((id, Ready::Drop));
                continue;
            };
            match conn.try_receive() {
                Ok(Some(bytes)) => {
                    ready.push((id, Ready::Step(SessionEvent::WireReceived { color, bytes })));
                }
                Ok(None) => {
                    if let (Some(ops), Some(wd)) = (ops, watchdog) {
                        let waited = now.saturating_duration_since(session.awaiting_since);
                        if waited >= wd.stall_after && !session.core.stall_flagged() {
                            let waited_ms = waited.as_millis() as u64;
                            if session.core.note_stalled(waited_ms) {
                                ops.directory.mark_stalled(session.ops_id);
                                ops.stall_raised();
                            }
                            if wd.policy == StallPolicy::Abort {
                                ready.push((id, Ready::Abort(waited_ms)));
                                continue;
                            }
                        }
                    }
                    if now >= session.deadline {
                        ready.push((id, Ready::Step(SessionEvent::Tick)));
                    }
                }
                // Closed or failed connection: drop the session.
                Err(_) => ready.push((id, Ready::Drop)),
            }
        }
        for (id, action) in ready {
            let mut session = parked.remove(&id).expect("session is parked");
            progressed = true;
            // However the session leaves the parked set, a flagged stall
            // episode is over: bytes arrived, the traversal timed out,
            // the connection died, or the abort below reclaims the slot.
            if session.core.stall_flagged() {
                if let Some(ops) = ops {
                    ops.stall_lowered();
                }
            }
            match action {
                Ready::Drop => {
                    // Connection closed or failed: the session is dropped
                    // here, so close its trace instead of leaking an
                    // open-ended span tree.
                    if let Some(ops) = ops {
                        ops.directory.remove(session.ops_id);
                    }
                    session.core.abandon();
                }
                Ready::Abort(waited_ms) => {
                    // Stall abort: count the failure under stage
                    // "stalled", close the root span, and drop the
                    // session so its connections and pool slot free up.
                    if let Some(ops) = ops {
                        ops.directory.remove(session.ops_id);
                    }
                    let err = CoreError::Stalled {
                        state: session.core.current_state().to_owned(),
                        waited_ms,
                    };
                    session.core.record_failure(&err);
                }
                Ready::Step(event) => {
                    session.awaiting = None;
                    if !submit(session, Some(event)) {
                        return;
                    }
                }
            }
        }
        // Sessions this host is responsible for right now: parked here
        // plus handed to the pool; sampled whenever it moves.
        let active = parked.len() + queue_depth.load(Ordering::SeqCst);
        if active != last_active {
            last_active = active;
            sink.record(&TraceEvent::ActiveSessions { count: active });
        }
        if !progressed {
            std::thread::sleep(IDLE_POLL);
        }
    }
    // Dropping `jobs` (by returning) lets workers drain and exit; the
    // host joins them after the coordinator.
}
