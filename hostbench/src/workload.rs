//! The three workloads: deployments built only through
//! `MediatorHost::deploy`, closed-loop clients, and the oracles every
//! reply is checked against.

use crate::env::Rng;
use crate::trace::{CountingSink, Side, TracedCodec, TracedTransport, Tracer};
use starlink_apps::calculator::{merged_add_plus, AddClient, PlusService};
use starlink_apps::flickr::{flickr_binding, flickr_codec, FlickrClient, FlickrFlavor};
use starlink_apps::models::merged_flickr_picasa;
use starlink_apps::picasa::PicasaService;
use starlink_apps::store::PhotoStore;
use starlink_automata::merge::into_service_loop;
use starlink_automata::{Action, Automaton};
use starlink_core::{ColorRuntime, Mediator, MediatorHost};
use starlink_mdl::MessageCodec;
use starlink_net::{Endpoint, MemoryTransport, NetworkEngine, TcpTransport, Transport};
use starlink_protocols::gdata::{rest_binding, rest_codec};
use starlink_protocols::giop::{giop_binding, giop_codec};
use starlink_protocols::soap::{soap_binding, soap_codec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Photos in the Picasa stand-in's store.
pub const PHOTOS: usize = 2000;
/// The tags `PhotoStore::with_random_photos` draws from.
const TAGS: [&str; 6] = ["tree", "oak", "beach", "city", "sky", "river"];
/// Results asked for per search, by workload.
const CHURN_PER_PAGE: usize = 10;
const BULK_PER_PAGE: usize = 50;
/// `get_info` calls per churn session.
const CHURN_INFOS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GIOP `Add` client → mediator → SOAP `Plus` stand-in, TCP loopback,
    /// one kept-alive connection.
    AddPlusTcp,
    /// Flickr XML-RPC clients → mediator → Picasa REST stand-in, in
    /// memory, two clients each opening a connection per session.
    FlickrChurnMem,
    /// The same deployment, one kept-alive client doing 50-entry searches.
    FlickrBulkMem,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AddPlusTcp,
        Workload::FlickrChurnMem,
        Workload::FlickrBulkMem,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AddPlusTcp => "addplus-tcp",
            Workload::FlickrChurnMem => "flickr-churn-mem",
            Workload::FlickrBulkMem => "flickr-bulk-mem",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::FlickrChurnMem => 2,
            _ => 1,
        }
    }

    fn is_add(self) -> bool {
        self == Workload::AddPlusTcp
    }
}

/// A deliberate fault, for the benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// The Add→Plus γ program copies `x` into `y`.
    SwapGamma,
    /// The Picasa stand-in's store is generated from another seed than
    /// the oracle's.
    StoreSeed(u64),
}

/// Wall-clock time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Merging the usage automata.
    pub merge: Duration,
    /// Compiling the mediator's two codecs.
    pub codec_build: Duration,
    /// Stand-in deploy, `Mediator::new`, `MediatorHost::deploy` and the
    /// first verified reply.
    pub deploy: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.merge + self.codec_build + self.deploy
    }
}

/// Expected search results per tag: `(title, url)` in store order.
pub struct Oracle {
    results: Vec<Vec<(String, String)>>,
}

impl Oracle {
    /// Built from its own copy of the store, never the stand-in's.
    pub fn new(seed: u64, per_page: usize) -> Oracle {
        let store = PhotoStore::with_random_photos(PHOTOS, seed);
        Oracle {
            results: TAGS
                .iter()
                .map(|tag| {
                    store
                        .search(tag, per_page)
                        .into_iter()
                        .map(|p| (p.title, p.url))
                        .collect()
                })
                .collect(),
        }
    }
}

/// The stand-in service; dropping it stops its listener.
enum Service {
    Plus(#[allow(dead_code)] PlusService),
    Picasa(#[allow(dead_code)] PicasaService, PhotoStore),
}

/// One deployed mediator with its stand-in service.
pub struct Deployment {
    pub workload: Workload,
    host: MediatorHost,
    client_net: NetworkEngine,
    service: Service,
    /// Whether the set-up's first reply passed its oracle.
    pub first_reply_ok: bool,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The Add⊕Plus automaton with its request γ rewritten to `m2.y = m1.x`.
fn swap_gamma(merged: &Automaton) -> Result<Automaton, String> {
    let mut out = Automaton::new(merged.name(), merged.color());
    for s in merged.states() {
        out.add_colored_state(s.id.clone(), s.colors.clone());
    }
    if let Some(initial) = merged.initial() {
        out.set_initial(initial).map_err(err)?;
    }
    for f in merged.finals() {
        out.add_final(f).map_err(err)?;
    }
    for color in [1, 2] {
        if let Some(n) = merged.network(color) {
            out.set_network(color, n.clone());
        }
    }
    let mut swapped = false;
    for t in merged.transitions() {
        let mut t = t.clone();
        if let Action::Gamma { mtl } = &mut t.action {
            if mtl.contains("m2.y = m1.y") {
                *mtl = mtl.replace("m2.y = m1.y", "m2.y = m1.x");
                swapped = true;
            }
        }
        out.add_transition(t).map_err(err)?;
    }
    if !swapped {
        return Err("no `m2.y = m1.y` statement to tamper with".to_owned());
    }
    Ok(out)
}

impl Deployment {
    /// Builds everything from scratch and waits for the first verified
    /// reply. With a tracer, every party's transport, the mediator's
    /// codecs and its telemetry sink are wrapped.
    pub fn new(
        workload: Workload,
        seed: u64,
        tamper: Tamper,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(Deployment, SetupTimes), String> {
        let base: Arc<dyn Transport> = if workload.is_add() {
            Arc::new(TcpTransport::new())
        } else {
            Arc::new(MemoryTransport::new())
        };
        let engine = |side| {
            let mut net = NetworkEngine::new();
            net.register(match tracer {
                Some(t) => TracedTransport::wrap(base.clone(), side, t),
                None => base.clone(),
            });
            net
        };
        let wrap = |codec: Arc<dyn MessageCodec>| match tracer {
            Some(t) => TracedCodec::wrap(codec, t),
            None => codec,
        };

        let t0 = Instant::now();
        let automaton = if workload.is_add() {
            let (merged, _) = merged_add_plus().map_err(err)?;
            if tamper == Tamper::SwapGamma {
                swap_gamma(&merged)?
            } else {
                merged
            }
        } else {
            let (merged, _) = merged_flickr_picasa().map_err(err)?;
            into_service_loop(&merged).map_err(err)?
        };
        let t1 = Instant::now();
        let (client_codec, service_codec): (Arc<dyn MessageCodec>, Arc<dyn MessageCodec>) =
            if workload.is_add() {
                (
                    Arc::new(giop_codec().map_err(err)?),
                    Arc::new(soap_codec("calc.example.org", "/calc").map_err(err)?),
                )
            } else {
                (
                    flickr_codec(FlickrFlavor::XmlRpc).map_err(err)?,
                    Arc::new(rest_codec("picasaweb.google.com").map_err(err)?),
                )
            };
        let t2 = Instant::now();
        let service_net = engine(Side::Service);
        let (service, service_endpoint, listen) = if workload.is_add() {
            let plus =
                PlusService::deploy(&service_net, &Endpoint::tcp("127.0.0.1", 0)).map_err(err)?;
            let ep = plus.endpoint().clone();
            (Service::Plus(plus), ep, Endpoint::tcp("127.0.0.1", 0))
        } else {
            let store_seed = match tamper {
                Tamper::StoreSeed(s) => s,
                _ => seed,
            };
            let store = PhotoStore::with_random_photos(PHOTOS, store_seed);
            let picasa =
                PicasaService::deploy(&service_net, &Endpoint::memory("picasa"), store.clone())
                    .map_err(err)?;
            let ep = picasa.endpoint().clone();
            (
                Service::Picasa(picasa, store),
                ep,
                Endpoint::memory("flickr-bridge"),
            )
        };
        let (client_binding, service_binding) = if workload.is_add() {
            (giop_binding(), soap_binding())
        } else {
            (flickr_binding(FlickrFlavor::XmlRpc), rest_binding())
        };
        let mut mediator = Mediator::new(
            automaton,
            1,
            vec![
                ColorRuntime {
                    color: 1,
                    binding: client_binding,
                    codec: wrap(client_codec),
                    endpoint: None,
                },
                ColorRuntime {
                    color: 2,
                    binding: service_binding,
                    codec: wrap(service_codec),
                    endpoint: Some(service_endpoint),
                },
            ],
            engine(Side::Mediator),
        )
        .map_err(err)?;
        if let Some(t) = tracer {
            mediator = mediator.with_telemetry(CountingSink::shared(t));
        }
        let host = MediatorHost::deploy(mediator, &listen).map_err(err)?;
        let mut deployment = Deployment {
            workload,
            host,
            client_net: engine(Side::Client),
            service,
            first_reply_ok: false,
        };
        deployment.first_reply_ok = deployment.first_reply(seed)?;
        let t3 = Instant::now();
        Ok((
            deployment,
            SetupTimes {
                merge: t1 - t0,
                codec_build: t2 - t1,
                deploy: t3 - t2,
            },
        ))
    }

    fn first_reply(&self, seed: u64) -> Result<bool, String> {
        let mut rng = Rng::new(!seed);
        if self.workload.is_add() {
            let mut client = self.add_client()?;
            let (x, y) = (rng.operand(), rng.operand());
            Ok(matches!(client.add(x, y), Ok(z) if z == x + y))
        } else {
            let oracle = Oracle::new(seed, CHURN_PER_PAGE);
            let mut client = self.flickr_client()?;
            let tag = rng.below(TAGS.len());
            Ok(matches!(client.search(TAGS[tag], CHURN_PER_PAGE as u32),
                Ok(ids) if ids.len() == oracle.results[tag].len()))
        }
    }

    fn add_client(&self) -> Result<AddClient, String> {
        AddClient::connect(&self.client_net, self.host.endpoint()).map_err(err)
    }

    fn flickr_client(&self) -> Result<FlickrClient, String> {
        FlickrClient::connect(&self.client_net, self.host.endpoint(), FlickrFlavor::XmlRpc)
            .map_err(err)
    }

    /// Stops the host, joining every thread it started.
    pub fn shutdown(&self) {
        self.host.shutdown();
    }

    /// Checks the conservation laws after [`Deployment::shutdown`]:
    /// `connections` client connections were opened in total (set-up
    /// included), `verified` ops passed their oracle and `comments` of
    /// them were comment writes.
    pub fn check_totals(&self, connections: u64, verified: u64, comments: u64) -> Vec<String> {
        let snap = self.host.telemetry_snapshot();
        let mut problems = Vec::new();
        let accepted = snap.counter("starlink_sessions_accepted_total");
        if accepted != connections {
            problems.push(format!(
                "starlink_sessions_accepted_total is {accepted}, but {connections} connections were opened"
            ));
        }
        let failed = snap.counter("starlink_sessions_failed_total");
        if failed != 0 {
            problems.push(format!("starlink_sessions_failed_total is {failed}, not 0"));
        }
        if self.workload.is_add() {
            let finished = snap.counter("starlink_sessions_finished_total");
            if finished != verified {
                problems.push(format!(
                    "starlink_sessions_finished_total is {finished}, but {verified} ops were verified"
                ));
            }
        }
        if let Service::Picasa(_, store) = &self.service {
            let stored: u64 = (1..=PHOTOS)
                .map(|i| store.comments(&format!("gphoto-{i}")).len() as u64)
                .sum();
            if stored != comments {
                problems.push(format!(
                    "the store holds {stored} comments, but {comments} add_comment calls were verified"
                ));
            }
        }
        problems
    }
}

/// The run's clock, shared by the main thread and the clients: warm-up,
/// then measured slices `0..n`, then stop.
#[derive(Debug, Default)]
pub struct Phase(AtomicUsize);

const WARMUP: usize = 0;
const STOP: usize = usize::MAX;

impl Phase {
    /// Starts measured slice `i`.
    pub fn start_slice(&self, i: usize) {
        self.0.store(i + 1, Ordering::SeqCst);
    }

    pub fn stop(&self) {
        self.0.store(STOP, Ordering::SeqCst);
    }

    /// The measured slice running now, if any.
    fn slice(&self) -> Option<usize> {
        match self.0.load(Ordering::SeqCst) {
            WARMUP | STOP => None,
            i => Some(i - 1),
        }
    }

    fn stopped(&self) -> bool {
        self.0.load(Ordering::SeqCst) == STOP
    }
}

/// What one client thread saw.
pub struct ClientLog {
    /// Each measured op's latency in nanoseconds and the slice it began
    /// in; pre-touched before the run so filling them does not grow the
    /// RSS being measured.
    pub latencies: Vec<u64>,
    pub slices: Vec<u32>,
    pub recorded: usize,
    /// Verified measured ops per slice.
    pub ok_per_slice: Vec<u64>,
    /// Measured ops attempted / failed (wrong, erroring or timed out).
    pub attempted: u64,
    pub failed: u64,
    /// Over every phase: ops verified, comment writes verified, and
    /// connections opened.
    pub verified: u64,
    pub comments: u64,
    pub connections: u64,
    pub problems: Vec<String>,
}

impl ClientLog {
    pub fn new(ops: usize, slices: usize) -> ClientLog {
        ClientLog {
            latencies: vec![1; ops.max(1)],
            slices: vec![1; ops.max(1)],
            recorded: 0,
            ok_per_slice: vec![0; slices],
            attempted: 0,
            failed: 0,
            verified: 0,
            comments: 0,
            connections: 0,
            problems: Vec::new(),
        }
    }

    pub fn full(&self) -> bool {
        self.recorded == self.latencies.len()
    }
}

/// Times one op and files its outcome: `check` returns `Err` with a
/// description when the reply is wrong.
struct OpRunner<'a> {
    log: &'a mut ClientLog,
    phase: &'a Phase,
    tracer: Option<&'a Tracer>,
}

impl OpRunner<'_> {
    fn stopped(&self) -> bool {
        self.phase.stopped() || self.log.full()
    }

    fn op<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce() -> Result<T, String>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        let slice = self
            .phase
            .slice()
            .filter(|&i| i < self.log.ok_per_slice.len());
        let measured = slice.is_some();
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        if let Some(t) = self.tracer {
            t.op_done(name, start, end, measured && t.measuring());
        }
        let outcome = result.and_then(|v| check(&v).map(|()| v));
        if let Some(i) = slice {
            self.log.attempted += 1;
            self.log.latencies[self.log.recorded] = (end - start).as_nanos() as u64;
            self.log.slices[self.log.recorded] = i as u32;
            self.log.recorded += 1;
        }
        match outcome {
            Ok(v) => {
                self.log.verified += 1;
                if let Some(i) = slice {
                    self.log.ok_per_slice[i] += 1;
                }
                Some(v)
            }
            Err(problem) => {
                if measured {
                    self.log.failed += 1;
                }
                if self.log.problems.len() < 5 {
                    self.log.problems.push(format!("{name}: {problem}"));
                }
                None
            }
        }
    }
}

/// Runs one closed-loop client until the phase stops.
pub fn run_client(
    d: &Deployment,
    oracle: Option<&Oracle>,
    rng: &mut Rng,
    phase: &Phase,
    tracer: Option<&Tracer>,
    log: &mut ClientLog,
) {
    let mut ops = OpRunner { log, phase, tracer };
    match d.workload {
        Workload::AddPlusTcp => add_client_loop(d, rng, &mut ops),
        Workload::FlickrBulkMem => {
            bulk_client_loop(d, oracle.expect("flickr oracle"), rng, &mut ops)
        }
        Workload::FlickrChurnMem => {
            churn_client_loop(d, oracle.expect("flickr oracle"), rng, &mut ops)
        }
    }
}

fn add_client_loop(d: &Deployment, rng: &mut Rng, ops: &mut OpRunner<'_>) {
    let mut client = None;
    while !ops.stopped() {
        if client.is_none() {
            ops.log.connections += 1;
            match d.add_client() {
                Ok(c) => client = Some(c),
                Err(e) => {
                    ops.log.problems.push(format!("connect: {e}"));
                    return;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let (x, y) = (rng.operand(), rng.operand());
        let reply = ops.op(
            "add",
            || c.add(x, y).map_err(err),
            |&z| {
                if z == x + y {
                    Ok(())
                } else {
                    Err(format!("Add({x}, {y}) returned {z}"))
                }
            },
        );
        if reply.is_none() {
            // The connection may be unusable after a failed exchange.
            client = None;
        }
    }
}

fn check_info(
    info: &starlink_apps::flickr::PhotoInfo,
    expected: &(String, String),
) -> Result<(), String> {
    if info.title == expected.0 && info.url == expected.1 {
        Ok(())
    } else {
        Err(format!(
            "get_info returned ({}, {}), expected ({}, {})",
            info.title, info.url, expected.0, expected.1
        ))
    }
}

fn check_search(ids: &[String], expected: &[(String, String)]) -> Result<(), String> {
    if ids.len() == expected.len() {
        Ok(())
    } else {
        Err(format!(
            "search returned {} ids, expected {}",
            ids.len(),
            expected.len()
        ))
    }
}

fn bulk_client_loop(d: &Deployment, oracle: &Oracle, rng: &mut Rng, ops: &mut OpRunner<'_>) {
    let mut client = None;
    while !ops.stopped() {
        if client.is_none() {
            ops.log.connections += 1;
            match d.flickr_client() {
                Ok(c) => client = Some(c),
                Err(e) => {
                    ops.log.problems.push(format!("connect: {e}"));
                    return;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let tag = rng.below(TAGS.len());
        let expected = &oracle.results[tag];
        let Some(ids) = ops.op(
            "search",
            || c.search(TAGS[tag], BULK_PER_PAGE as u32).map_err(err),
            |ids| check_search(ids, expected),
        ) else {
            client = None;
            continue;
        };
        if ids.is_empty() || ops.stopped() {
            continue;
        }
        let j = rng.below(ids.len());
        if ops
            .op(
                "get_info",
                || c.get_info(&ids[j]).map_err(err),
                |info| check_info(info, &expected[j]),
            )
            .is_none()
        {
            client = None;
        }
    }
}

fn churn_client_loop(d: &Deployment, oracle: &Oracle, rng: &mut Rng, ops: &mut OpRunner<'_>) {
    while !ops.stopped() {
        let tag = rng.below(TAGS.len());
        let expected = &oracle.results[tag];
        // The session's first op pays for the connect.
        let mut client = None;
        ops.log.connections += 1;
        let Some(ids) = ops.op(
            "connect+search",
            || {
                let mut c = d.flickr_client()?;
                let ids = c.search(TAGS[tag], CHURN_PER_PAGE as u32).map_err(err)?;
                client = Some(c);
                Ok(ids)
            },
            |ids| check_search(ids, expected),
        ) else {
            continue;
        };
        let Some(mut c) = client else { continue };
        if ids.is_empty() {
            continue;
        }
        let mut ok = true;
        for _ in 0..CHURN_INFOS {
            if !ok || ops.stopped() {
                break;
            }
            let j = rng.below(ids.len());
            ok = ops
                .op(
                    "get_info",
                    || c.get_info(&ids[j]).map_err(err),
                    |info| check_info(info, &expected[j]),
                )
                .is_some();
        }
        if !ok || ops.stopped() {
            continue;
        }
        if ops
            .op(
                "add_comment",
                || c.add_comment(&ids[0], "mediated comment").map_err(err),
                |id| {
                    if id.starts_with("comment-") {
                        Ok(())
                    } else {
                        Err(format!("add_comment returned `{id}`"))
                    }
                },
            )
            .is_some()
        {
            ops.log.comments += 1;
        }
        // Dropping the client disconnects.
    }
}

/// The oracle a workload's clients check against.
pub fn oracle_for(workload: Workload, seed: u64) -> Option<Oracle> {
    match workload {
        Workload::AddPlusTcp => None,
        Workload::FlickrChurnMem => Some(Oracle::new(seed, CHURN_PER_PAGE)),
        Workload::FlickrBulkMem => Some(Oracle::new(seed, BULK_PER_PAGE)),
    }
}
