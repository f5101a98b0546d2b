//! One benchmark run: repeated set-ups, then a timed segment on a fresh
//! deployment (untraced for the end-to-end metrics; an untraced and a
//! traced segment for the per-layer ones).

use crate::alloc;
use crate::env::{self, median, quantile, Reading, Rng};
use crate::trace::{Sums, Tracer};
use crate::workload::{
    oracle_for, run_client, ClientLog, Deployment, Phase, SetupTimes, Tamper, Workload,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Measured seconds per deployment: a run is several rounds, so one
/// deployment's thread placement does not decide its numbers.
const ROUND_SECS: f64 = 2.0;
/// Unmeasured ops at the start of each round: `--seconds`/20, at most this.
const MAX_WARMUP_SECS: f64 = 0.3;
/// Deployments timed per run for the set-up metrics.
const SETUP_REPS: usize = 25;
/// Latency buffer per client, in ops per measured second: ten times the
/// fastest workload today.
const MAX_OPS_PER_SEC: f64 = 100_000.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time; a traced run splits it between its two segments.
    pub seconds: f64,
    pub trace: bool,
    pub tamper: Tamper,
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every op matched its oracle and every end-of-run check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The gated metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Printed for the reader, not gated.
    pub info: Vec<Metric>,
    pub problems: Vec<String>,
    /// The traced segment's kept span trees.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// One measured slice of a round.
struct Slice {
    /// Latencies of the ops begun in it, sorted, in nanoseconds.
    latencies: Vec<u64>,
    /// Verified ops begun in it.
    ok: u64,
    /// Readings at its start and end.
    r0: Reading,
    r1: Reading,
}

/// Everything measured over a segment's rounds.
#[derive(Default)]
struct Segment {
    attempted: u64,
    failed: u64,
    slices: Vec<Slice>,
    /// Load average when the first round started.
    load1: f64,
    allocs: (u64, u64),
    /// RSS growth over the measured time, summed over rounds.
    rss_growth: f64,
    problems: Vec<String>,
    sums: Option<Sums>,
}

impl Segment {
    fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    fn throughput(&self) -> f64 {
        let secs: f64 = self
            .slices
            .iter()
            .map(|s| (s.r1.at - s.r0.at).as_secs_f64())
            .sum();
        self.ok_ops() as f64 / secs
    }

    fn per_op(&self, total: f64) -> f64 {
        total / self.ok_ops().max(1) as f64
    }

    /// Hypervisor steal over the measured slices, in percent.
    fn steal_pct(&self) -> f64 {
        let (steal, total) = self.slices.iter().fold((0, 0), |(st, tot), s| {
            (
                st + s.r1.steal.saturating_sub(s.r0.steal),
                tot + s.r1.total.saturating_sub(s.r0.total),
            )
        });
        steal as f64 * 100.0 / total.max(1) as f64
    }

    /// The median over slices of `f(slice)`: interference confined to a
    /// few slices, or one unlucky deployment, does not move it.
    fn slice_median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    fn latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .slices
            .iter()
            .flat_map(|s| s.latencies.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn setups(opts: &Options) -> Result<(Vec<SetupTimes>, usize), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut failures = 0;
    for _ in 0..SETUP_REPS {
        let (d, t) = Deployment::new(opts.workload, opts.seed, opts.tamper, None)?;
        failures += usize::from(!d.first_reply_ok);
        d.shutdown();
        times.push(t);
    }
    Ok((times, failures))
}

/// Runs `seconds` of measured ops as rounds of about [`ROUND_SECS`],
/// each on a fresh deployment. With a tracer, every untraced round is
/// followed by a traced one of the same length, so drift in the
/// machine's speed falls on both alike; the traced rounds are returned
/// second.
fn segments(
    opts: &Options,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Segment, Option<Segment>), String> {
    let rounds = ((seconds / ROUND_SECS) as usize).max(1);
    let round_secs = seconds / rounds as f64;
    let fresh = || Segment {
        load1: env::load1(),
        ..Segment::default()
    };
    let mut plain = fresh();
    let mut traced = tracer.map(|_| fresh());
    for round_no in 0..rounds {
        round(opts, round_no, round_secs, None, &mut plain)?;
        if let (Some(t), Some(seg)) = (tracer, traced.as_mut()) {
            round(opts, round_no, round_secs, Some(t), seg)?;
        }
    }
    if let (Some(t), Some(seg)) = (tracer, traced.as_mut()) {
        seg.sums = Some(t.finish());
    }
    Ok((plain, traced))
}

fn round(
    opts: &Options,
    round_no: usize,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    seg: &mut Segment,
) -> Result<(), String> {
    let (d, _) = Deployment::new(opts.workload, opts.seed, opts.tamper, tracer)?;
    let oracle = oracle_for(opts.workload, opts.seed);
    let clients = opts.workload.clients();
    let n_slices = (seconds.round() as usize).max(1);
    let slice_len = Duration::from_secs_f64(seconds / n_slices as f64);
    let capacity = (seconds * MAX_OPS_PER_SEC) as usize;
    let mut logs: Vec<ClientLog> = (0..clients)
        .map(|_| ClientLog::new(capacity, n_slices))
        .collect();
    let mut rngs: Vec<Rng> = (0..clients as u64)
        .map(|i| {
            Rng::new(
                opts.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ ((round_no as u64) << 8 | (i + 1)),
            )
        })
        .collect();
    let mut readings = Vec::with_capacity(n_slices + 1);
    let phase = Phase::default();
    let allocs = std::thread::scope(|s| {
        for (log, rng) in logs.iter_mut().zip(rngs.iter_mut()) {
            let (d, oracle, phase, tracer) = (&d, oracle.as_ref(), &phase, tracer.map(Arc::as_ref));
            s.spawn(move || run_client(d, oracle, rng, phase, tracer, log));
        }
        std::thread::sleep(Duration::from_secs_f64(
            (opts.seconds / 20.0).min(MAX_WARMUP_SECS),
        ));
        if let Some(t) = tracer {
            alloc::set_counting(true);
            t.set_measuring(true);
        }
        let a0 = alloc::totals();
        let start = std::time::Instant::now();
        for i in 0..n_slices {
            readings.push(Reading::now());
            phase.start_slice(i);
            let until = start + slice_len * (i as u32 + 1);
            std::thread::sleep(until.saturating_duration_since(std::time::Instant::now()));
        }
        phase.stop();
        let a1 = alloc::totals();
        if let Some(t) = tracer {
            t.set_measuring(false);
            alloc::set_counting(false);
        }
        readings.push(Reading::now());
        (a1.0 - a0.0, a1.1 - a0.1)
    });
    d.shutdown();
    let problems = &mut seg.problems;
    problems.extend(logs.iter().flat_map(|l| l.problems.iter().cloned()));
    if !d.first_reply_ok {
        problems.push("the set-up's first reply failed its oracle".to_owned());
    }
    let connections = 1 + logs.iter().map(|l| l.connections).sum::<u64>();
    let verified = u64::from(d.first_reply_ok) + logs.iter().map(|l| l.verified).sum::<u64>();
    let comments = logs.iter().map(|l| l.comments).sum();
    problems.extend(d.check_totals(connections, verified, comments));
    if logs.iter().any(ClientLog::full) {
        problems.push("a client filled its latency buffer and stopped early".to_owned());
    }
    let first = seg.slices.len();
    for (i, r) in readings.windows(2).enumerate() {
        seg.slices.push(Slice {
            latencies: Vec::new(),
            ok: logs.iter().map(|l| l.ok_per_slice[i]).sum(),
            r0: r[0],
            r1: r[1],
        });
    }
    for log in &logs {
        for (&lat, &i) in log.latencies.iter().zip(&log.slices).take(log.recorded) {
            seg.slices[first + i as usize].latencies.push(lat);
        }
        seg.attempted += log.attempted;
        seg.failed += log.failed;
    }
    for s in &mut seg.slices[first..] {
        s.latencies.sort_unstable();
    }
    let (r0, r1) = (&readings[0], &readings[n_slices]);
    seg.rss_growth += r1.rss_bytes as f64 - r0.rss_bytes as f64;
    seg.allocs.0 += allocs.0;
    seg.allocs.1 += allocs.1;
    Ok(())
}

/// Runs the benchmark once.
///
/// # Errors
///
/// A deployment could not be built at all.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (setup, setup_failures) = setups(opts)?;
    let setup_median = |f: fn(&SetupTimes) -> Duration| {
        median(&setup.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    let mut out = Outcome::default();
    if setup_failures > 0 {
        out.problems.push(format!(
            "{setup_failures} of {SETUP_REPS} set-ups failed their first reply's oracle"
        ));
    }
    if opts.trace {
        let tracer = Tracer::new();
        let (plain, traced) = segments(opts, opts.seconds / 2.0, Some(&tracer))?;
        let traced = traced.expect("traced rounds ran");
        out.spans = Some(tracer.spans_tsv());
        out.metrics = layer_metrics(&traced, &tracer, &plain);
        out.info.push(metric(
            "latency_samples",
            traced.latencies().len() as f64,
            "count",
        ));
        out.metrics.extend([
            metric("setup.merge_ms", setup_median(|t| t.merge), "ms"),
            metric(
                "setup.codec_build_ms",
                setup_median(|t| t.codec_build),
                "ms",
            ),
            metric("setup.deploy_ms", setup_median(|t| t.deploy), "ms"),
        ]);
        for s in [&plain, &traced] {
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.problems.extend(s.problems.iter().cloned());
        }
    } else {
        let (s, _) = segments(opts, opts.seconds, None)?;
        out.attempted = s.attempted;
        out.failed = s.failed;
        out.problems.extend(s.problems.iter().cloned());
        let us = |ns: u64| ns as f64 / 1e3;
        out.metrics = vec![
            metric(
                "latency_p50_us",
                s.slice_median(|sl| us(quantile(&sl.latencies, 0.50))),
                "us",
            ),
            metric(
                "latency_p99_us",
                s.slice_median(|sl| us(quantile(&sl.latencies, 0.99))),
                "us",
            ),
            metric(
                "throughput_ops_s",
                s.slice_median(|sl| sl.ok as f64 / (sl.r1.at - sl.r0.at).as_secs_f64()),
                "1/s",
            ),
            metric(
                "cpu_us_per_op",
                s.slice_median(|sl| (sl.r1.cpu_s - sl.r0.cpu_s) * 1e6 / sl.ok.max(1) as f64),
                "us",
            ),
            metric("setup_s", setup_median(SetupTimes::total) / 1e3, "s"),
        ];
        let all = s.latencies();
        out.info.extend([
            metric("run_p50_us", us(quantile(&all, 0.50)), "us"),
            metric("run_p99_us", us(quantile(&all, 0.99)), "us"),
            metric("latency_samples", all.len() as f64, "count"),
            metric("slices", s.slices.len() as f64, "count"),
            metric("rss_growth_bytes_per_op", s.per_op(s.rss_growth), "bytes"),
            metric("env.steal_pct", s.steal_pct(), "%"),
            metric("env.load1", s.load1, "1"),
        ]);
    }
    out.info
        .push(metric("error_rate", out.error_rate(), "ratio"));
    out.correct = out.failed == 0 && out.attempted > 0 && out.problems.is_empty();
    Ok(out)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(traced: &Segment, tracer: &Tracer, plain: &Segment) -> Vec<Metric> {
    let sums = traced.sums.clone().unwrap_or_default();
    let c = &tracer.counters;
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    // Per attributed op.
    let n = sums.ops.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    let engine_self = sums.mediator_ns as i64
        - (sums.parse_ns + sums.compose_ns + sums.gamma_ns + sums.service_connect_ns) as i64;
    let probes = get(&c.probe_hits) + get(&c.probe_fallbacks);
    vec![
        metric("mdl.parse_us", us(sums.parse_ns), "us"),
        metric("mdl.parse_calls", sums.parse_calls as f64 / n, "count/op"),
        metric("mdl.parse_allocs", sums.parse_allocs as f64 / n, "count/op"),
        metric("mdl.compose_us", us(sums.compose_ns), "us"),
        metric(
            "mdl.compose_calls",
            sums.compose_calls as f64 / n,
            "count/op",
        ),
        metric(
            "mdl.compose_allocs",
            sums.compose_allocs as f64 / n,
            "count/op",
        ),
        metric(
            "mdl.probe_fallback_ratio",
            ratio(get(&c.probe_fallbacks), probes),
            "ratio",
        ),
        metric("mdl.probe_events", probes as f64 / n, "count/op"),
        metric("mtl.gamma_us", us(sums.gamma_ns), "us"),
        metric("mtl.gamma_calls", sums.gamma_calls as f64 / n, "count/op"),
        metric("core.mediator_us", us(sums.mediator_ns), "us"),
        metric("core.engine_self_us", engine_self as f64 / 1e3 / n, "us"),
        metric("host.accept_wait_us", us(sums.accept_wait_ns), "us"),
        metric(
            "host.accept_hit_ratio",
            ratio(get(&c.accepts), get(&c.try_accept_calls)),
            "ratio",
        ),
        metric("host.service_connect_us", us(sums.service_connect_ns), "us"),
        metric("net.send_us", us(sums.send_ns), "us"),
        metric("net.connect_us", us(sums.connect_ns), "us"),
        metric("net.frames", sums.frames as f64 / n, "count/op"),
        metric("net.bytes", sums.bytes as f64 / n, "bytes/op"),
        metric(
            "net.try_receive_hit_ratio",
            ratio(get(&c.try_receive_hits), get(&c.try_receive_calls)),
            "ratio",
        ),
        metric("net.hop_us", sums.hop_ns as f64 / 1e3 / n, "us"),
        metric(
            "telemetry.events",
            traced.per_op(get(&c.telemetry_events) as f64),
            "count/op",
        ),
        metric(
            "alloc.count",
            traced.per_op(traced.allocs.0 as f64),
            "count/op",
        ),
        metric(
            "alloc.bytes",
            traced.per_op(traced.allocs.1 as f64),
            "bytes/op",
        ),
        metric("apps.service_us", us(sums.service_ns), "us"),
        metric("apps.client_us", us(sums.client_ns), "us"),
        metric("trace.op_us", us(sums.op_ns), "us"),
        metric(
            "trace.overhead_pct",
            (plain.throughput() / traced.throughput() - 1.0) * 100.0,
            "%",
        ),
        metric(
            "trace.unattributed_us",
            sums.unattributed_ns() as f64 / 1e3 / n,
            "us",
        ),
        metric("trace.attributed_ops", sums.ops as f64, "count"),
        metric("env.steal_pct", traced.steal_pct(), "%"),
        metric("env.load1", traced.load1, "1"),
    ]
}
