//! `churn`: the resident SMM service as `selfstab serve --telemetry-addr`
//! configures it (serial drain, telemetry registry attached, the same
//! observer type), fed in-process through `serve_with` by one closed-loop
//! client: a seeded stream of edge toggles and node leave/join, with
//! membership reads mixed in. No socket, so the scheduler stays out of
//! the numbers.

use crate::check;
use crate::common::{derive, mean, median, proc_mb, quantile, secs, unit_disk, Report};
use crate::stream::{Mix, Req, Stream};
use selfstab_core::Smm;
use selfstab_engine::obs::{JsonlEventLog, RoundStats};
use selfstab_engine::{InitialState, Observer};
use selfstab_graph::{Graph, Node};
use selfstab_json::{Json, ToJson};
use selfstab_service::proto::resp_ok;
use selfstab_service::EventRecord;
use selfstab_service::{
    serve_with, OverlayService, Polled, QueryKind, RealClock, Request, ServeHooks, ShutdownFlag,
    Telemetry, Transport,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

pub const N: usize = 20_000;
/// One batch: 5 % membership reads; of the writes, 4 node leave/join and
/// the rest edge toggles.
pub const MIX: Mix = Mix {
    reads: 10,
    toggles: 186,
    membership: 4,
};
/// Writes only, to bring the service to the state a long-running daemon
/// is in before anything is timed.
const WARM_MIX: Mix = Mix {
    reads: 0,
    toggles: 196,
    membership: 4,
};
/// 70 000 events: past the registry's 65 536-row event track, which a
/// daemon up for a while has filled.
const WARM_BATCHES: usize = 350;
const SETUPS: usize = 3;
/// The idle sleep `selfstab serve --socket` passes to the serve loop.
const IDLE_SLEEP_MICROS: u64 = 20_000;

/// The observer `selfstab serve` threads through its loop when no
/// `--profile-out` is given: an absent JSONL log.
type ServeObserver<'a> = Option<&'a mut JsonlEventLog>;

/// The closed-loop client: hands the next line to the loop only after
/// the previous reply came back, and times each request from the moment
/// its line is handed over to the moment its reply line returns.
struct Client {
    queue: VecDeque<String>,
    sent: Option<Instant>,
    latencies: Vec<f64>,
    replies: Vec<String>,
}

impl Client {
    fn new(batch: &[Req]) -> Client {
        Client {
            queue: batch.iter().map(|r| r.line.clone()).collect(),
            sent: None,
            latencies: Vec::with_capacity(batch.len()),
            replies: Vec::with_capacity(batch.len()),
        }
    }
}

impl Transport for Client {
    fn poll(&mut self) -> Polled {
        match self.queue.pop_front() {
            Some(line) => {
                self.sent = Some(Instant::now());
                Polled::Request { client: 1, line }
            }
            None => Polled::Closed,
        }
    }

    fn reply(&mut self, _client: u64, line: &str) {
        if let Some(t) = self.sent.take() {
            self.latencies.push(secs(t));
        }
        self.replies.push(line.to_string());
    }
}

/// Check one reply against its request.
fn check_reply(req: &Req, reply: &str) -> Result<(), String> {
    let v = Json::parse(reply).map_err(|e| format!("unparsable reply {reply:?}: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} -> {reply}", req.line));
    }
    match &req.read {
        Some((node, nbrs)) => {
            if v.get("node").and_then(Json::as_u64) != Some(*node as u64) {
                return Err(format!("membership reply for the wrong node: {reply}"));
            }
            let partner = match v.get("partner") {
                Some(Json::Null) | None => None,
                Some(p) => Some(p.as_u64().ok_or("non-integer partner")? as usize),
            };
            if v.get("matched").and_then(Json::as_bool) != Some(partner.is_some()) {
                return Err(format!("matched flag disagrees with partner: {reply}"));
            }
            check::partner_is_neighbor(*node, partner, nbrs)
        }
        None => match v.get("converged").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err(format!("mutation reply not converged: {reply}")),
        },
    }
}

/// The service's final graph is the mirror and its states a maximal
/// matching of it.
fn check_final(svc: &OverlayService<'_, Smm>, mirror: &Graph) -> Result<(), String> {
    if svc.graph() != mirror {
        return Err(format!(
            "service graph (m={}) differs from the mirror (m={})",
            svc.graph().m(),
            mirror.m()
        ));
    }
    check::maximal_matching(mirror, &check::pointers(svc.states()))
}

/// Serve one batch through `serve_with`, checking each reply when a
/// report is given; returns per-request (read flag, latency in seconds)
/// and the time spent inside the loop.
fn serve_batch(
    svc: &mut OverlayService<'_, Smm>,
    batch: &[Req],
    telemetry: Option<&Arc<Telemetry>>,
    report: Option<&mut Report>,
) -> (Vec<(bool, f64)>, f64) {
    let mut client = Client::new(batch);
    let mut obs: ServeObserver<'_> = None;
    let t = Instant::now();
    let summary = serve_with(
        svc,
        &mut client,
        &RealClock::new(),
        &ShutdownFlag::new(),
        IDLE_SLEEP_MICROS,
        &mut obs,
        ServeHooks {
            telemetry: telemetry.cloned(),
            snapshots: None,
        },
    );
    let busy = secs(t);
    if let Some(report) = report {
        for (i, req) in batch.iter().enumerate() {
            let check = match client.replies.get(i) {
                Some(reply) => check_reply(req, reply),
                None => Err(format!("no reply to {}", req.line)),
            };
            report.op(check);
        }
        if summary.errors != 0 {
            report.line(format!("serve loop reported {} errors", summary.errors));
        }
    }
    let lat = batch
        .iter()
        .zip(&client.latencies)
        .map(|(r, &l)| (r.read.is_some(), l))
        .collect();
    (lat, busy)
}

struct Setup {
    total: f64,
    gen: f64,
    /// RSS growth across the graph build.
    graph_rss: f64,
    bootstrap: f64,
}

/// Graph generation plus the bootstrap `stabilize`, as `serve` does both
/// before it accepts requests; the registry is attached as
/// `--telemetry-addr` attaches it.
fn setup(seed: u64) -> (OverlayService<'static, Smm>, Setup) {
    let rss0 = proc_mb(None, "VmRSS").unwrap_or(0.0);
    let t = Instant::now();
    let (graph, ids) = unit_disk(N, seed);
    let gen = secs(t);
    let graph_rss = proc_mb(None, "VmRSS").unwrap_or(0.0) - rss0;
    // The protocol outlives every service built on it; one small copy per
    // set-up.
    let smm: &'static Smm = Box::leak(Box::new(Smm::paper(ids)));
    let mut svc = OverlayService::new(graph, smm, InitialState::Default, 0)
        .with_telemetry(Arc::new(Telemetry::new()));
    let t_boot = Instant::now();
    let mut obs: ServeObserver<'_> = None;
    svc.stabilize(&RealClock::new(), &mut obs);
    let bootstrap = secs(t_boot);
    let times = Setup {
        total: secs(t),
        gen,
        graph_rss,
        bootstrap,
    };
    (svc, times)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        // Drop the previous service first so the peak holds one copy.
        drop(kept.take());
        let (svc, times) = setup(derive(seed, 3));
        setups.push(times);
        kept = Some(svc);
    }
    let mut svc = kept.expect("at least one set-up");
    let setup_s = median(&setups.iter().map(|s| s.total).collect::<Vec<_>>());
    let base = svc.graph().clone();
    let rounds = svc.records()[0].recovery_rounds;
    let registry = svc.telemetry().cloned().expect("registry attached");
    report.line(format!(
        "churn: unit-disk n={} m={}; {} warm-up events; batch = {} reads + {} toggles + {} leave/join; bootstrap {} rounds",
        base.n(),
        base.m(),
        WARM_BATCHES * (WARM_MIX.toggles + WARM_MIX.membership),
        MIX.reads,
        MIX.toggles,
        MIX.membership,
        rounds
    ));
    let mut stream = Stream::new(&base, derive(seed, 4));

    if traced {
        traced_run(&svc, &mut stream, seconds, &mut report);
        report.metric(
            "graph.gen_s",
            median(&setups.iter().map(|s| s.gen).collect::<Vec<_>>()),
        );
        report.metric("graph.rss_mb", setups[0].graph_rss);
        report.metric(
            "service.bootstrap_s",
            median(&setups.iter().map(|s| s.bootstrap).collect::<Vec<_>>()),
        );
        return report;
    }

    for _ in 0..WARM_BATCHES {
        let batch = stream.batch(WARM_MIX);
        serve_batch(&mut svc, &batch, Some(&registry), Some(&mut report));
    }
    let started = Instant::now();
    let mut lat = Vec::new();
    let mut busy = 0.0;
    let mut requests = 0usize;
    while requests == 0 || secs(started) < seconds {
        let batch = stream.batch(MIX);
        requests += batch.len();
        let (l, b) = serve_batch(&mut svc, &batch, Some(&registry), Some(&mut report));
        lat.extend(l);
        busy += b;
    }
    report.op(check_final(&svc, stream.mirror()));

    let all: Vec<f64> = lat.iter().map(|&(_, l)| l * 1e6).collect();
    let writes: Vec<f64> = lat.iter().filter(|x| !x.0).map(|&(_, l)| l * 1e6).collect();
    let reads: Vec<f64> = lat.iter().filter(|x| x.0).map(|&(_, l)| l * 1e6).collect();
    report.line(format!(
        "churn: {requests} requests ({} reads) in {:.2} s inside the serve loop",
        reads.len(),
        busy
    ));
    for (name, value, unit) in [
        ("requests_per_s", requests as f64 / busy, "1/s"),
        ("write_p50_us", quantile(&writes, 0.5), "us"),
        ("write_p99_us", quantile(&writes, 0.99), "us"),
        ("read_p50_us", quantile(&reads, 0.5), "us"),
        ("read_p99_us", quantile(&reads, 0.99), "us"),
    ] {
        report.line(format!("figure churn/{name} = {value:.2} {unit}"));
    }
    report.line(format!(
        "churn: reads take {:.0} % of the loop's time",
        100.0 * reads.iter().sum::<f64>() / all.iter().sum::<f64>()
    ));
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", proc_mb(None, "VmHWM").unwrap_or(f64::NAN));
    report.metric("rounds", rounds as f64);
    report.metric("ops_per_s", requests as f64 / busy);
    report.metric("op_p50_us", quantile(&all, 0.5));
    report
}

/// Per-event work of the service's drains: recovery rounds, perturbed
/// nodes, and guard evaluations — what `RoundStats` reports for each round
/// that moved, plus the final sweep that found no move (recomputed from
/// the last round's movers).
#[derive(Default)]
struct DrainCount {
    events: u64,
    recovery: u64,
    perturbed: u64,
    evaluated: u64,
    movers: Vec<Node>,
}

impl<S> Observer<S> for DrainCount {
    fn on_round_start(&mut self, _round: usize, _states: &[S]) {
        self.movers.clear();
    }

    fn on_move(&mut self, node: Node, _rule: usize, _next: &S) {
        self.movers.push(node);
    }

    fn on_round_end(&mut self, stats: &RoundStats, _states: &[S]) {
        self.evaluated += stats.evaluated as u64;
    }
}

impl DrainCount {
    fn event(&mut self, g: &Graph, record: &EventRecord) {
        self.events += 1;
        self.recovery += record.recovery_rounds as u64;
        self.perturbed += record.perturbed as u64;
        if record.recovery_rounds == 0 {
            self.evaluated += record.perturbed as u64;
            return;
        }
        let mut sweep: Vec<Node> = self.movers.clone();
        for &u in &self.movers {
            sweep.extend_from_slice(g.neighbors(u));
        }
        sweep.sort_unstable();
        sweep.dedup();
        self.evaluated += sweep.len() as u64;
    }

    fn per_event(&self, total: u64) -> f64 {
        total as f64 / self.events.max(1) as f64
    }
}

/// One request through direct calls into the layers' public functions:
/// `Request::parse`, `enqueue` + `drain` or `membership_json`, and the
/// reply render. Returns `(parse, apply or query, render)` seconds.
fn direct_call(
    svc: &mut OverlayService<'_, Smm>,
    req: &Req,
    drains: &mut DrainCount,
) -> Result<(f64, f64, f64), String> {
    let clock = RealClock::new();
    let t = Instant::now();
    let request = Request::parse(&req.line);
    let parse = secs(t);
    let (work, fields) = match request {
        Ok(Request::Mutate { mutation, tag: _ }) => {
            let t = Instant::now();
            svc.enqueue(mutation);
            let out = svc.drain(&clock, drains);
            let work = secs(t);
            let record = match out.into_iter().last() {
                Some(Ok(r)) => r,
                other => return Err(format!("direct drain of {} gave {other:?}", req.line)),
            };
            drains.event(svc.graph(), &record);
            let fields = vec![
                ("seq".to_string(), record.seq.to_json()),
                ("round".to_string(), record.round.to_json()),
                ("perturbed".to_string(), record.perturbed.to_json()),
                (
                    "recovery_rounds".to_string(),
                    record.recovery_rounds.to_json(),
                ),
                ("moves".to_string(), record.moves.to_json()),
                ("converged".to_string(), record.converged.to_json()),
            ];
            (work, fields)
        }
        Ok(Request::Query {
            query: QueryKind::Membership(node),
            tag: _,
        }) => {
            let t = Instant::now();
            let body = svc.membership_json(node);
            let work = secs(t);
            match body {
                Ok(Json::Object(fields)) => (work, fields),
                other => return Err(format!("direct query {} gave {other:?}", req.line)),
            }
        }
        other => return Err(format!("{} parsed as {other:?}", req.line)),
    };
    let t = Instant::now();
    let line = resp_ok(fields, None).to_string();
    let render = secs(t);
    std::hint::black_box(line);
    Ok((parse, work, render))
}

/// One request's timings across the three services of the traced run.
struct Row {
    read: bool,
    attached: f64,
    detached: f64,
    parse: f64,
    work: f64,
    render: f64,
}

/// The traced run keeps three services in step from the same bootstrapped
/// state and feeds each batch to all three in turn: through `serve_with`
/// with the registry attached (as untraced), through `serve_with` with it
/// detached, and through direct timed calls into the layers' public
/// functions. Interleaving by batch keeps machine drift out of the
/// per-request differences.
fn traced_run(
    svc: &OverlayService<'static, Smm>,
    stream: &mut Stream,
    seconds: f64,
    report: &mut Report,
) {
    let (smm, base, boot_states) = (svc.proto(), svc.graph(), svc.states());
    let fresh = |telemetry: Option<&Arc<Telemetry>>| {
        let mut s = OverlayService::new(
            base.clone(),
            smm,
            InitialState::Explicit(boot_states.to_vec()),
            0,
        );
        if let Some(t) = telemetry {
            s = s.with_telemetry(t.clone());
        }
        let mut obs: ServeObserver<'_> = None;
        s.stabilize(&RealClock::new(), &mut obs);
        s
    };
    let (reg_a, reg_c) = (Arc::new(Telemetry::new()), Arc::new(Telemetry::new()));
    let mut attached = fresh(Some(&reg_a));
    let mut detached = fresh(None);
    let mut direct = fresh(Some(&reg_c));
    for _ in 0..WARM_BATCHES {
        let batch = stream.batch(WARM_MIX);
        serve_batch(&mut attached, &batch, Some(&reg_a), Some(report));
        serve_batch(&mut detached, &batch, None, None);
        serve_batch(&mut direct, &batch, Some(&reg_c), None);
    }
    let mut drains = DrainCount::default();
    let mut rows = Vec::new();
    let started = Instant::now();
    while rows.is_empty() || secs(started) < seconds {
        let batch = stream.batch(MIX);
        let (lat_a, _) = serve_batch(&mut attached, &batch, Some(&reg_a), Some(report));
        let (lat_d, _) = serve_batch(&mut detached, &batch, None, None);
        for ((req, a), d) in batch.iter().zip(lat_a).zip(lat_d) {
            match direct_call(&mut direct, req, &mut drains) {
                Ok((parse, work, render)) => rows.push(Row {
                    read: a.0,
                    attached: a.1,
                    detached: d.1,
                    parse,
                    work,
                    render,
                }),
                Err(e) => report.op(Err(e)),
            }
        }
    }
    for s in [&attached, &detached, &direct] {
        report.op(check_final(s, stream.mirror()));
    }

    let col = |f: &dyn Fn(&Row) -> f64, reads: Option<bool>| -> Vec<f64> {
        rows.iter()
            .filter(|r| reads.is_none_or(|want| r.read == want))
            .map(|r| f(r) * 1e6)
            .collect()
    };
    let apply = col(&|r| r.work, Some(false));
    let query = col(&|r| r.work, Some(true));
    let telemetry = col(&|r| r.attached - r.detached, None);
    let loop_rest = col(&|r| r.attached - r.parse - r.work - r.render, None);
    report.metric(
        "graph.mutate_us",
        stream.mutate_secs * 1e6 / stream.mutations.max(1) as f64,
    );
    report.metric("service.apply_us.p50", quantile(&apply, 0.5));
    report.metric("service.apply_us.p99", quantile(&apply, 0.99));
    report.metric("service.query_us.p50", quantile(&query, 0.5));
    report.metric("service.recovery_rounds", drains.per_event(drains.recovery));
    report.metric("service.perturbed", drains.per_event(drains.perturbed));
    report.metric("service.evaluated", drains.per_event(drains.evaluated));
    report.metric("service.telemetry_us", quantile(&telemetry, 0.5));
    report.metric("service.loop_us", quantile(&loop_rest, 0.5));
    report.metric("json.parse_us", quantile(&col(&|r| r.parse, None), 0.5));
    report.metric("json.render_us", quantile(&col(&|r| r.render, None), 0.5));

    let total = mean(&col(&|r| r.attached, None));
    let share = |v: &[f64]| v.iter().sum::<f64>() / rows.len() as f64;
    let parts = [
        ("json.parse", mean(&col(&|r| r.parse, None))),
        ("service.apply", share(&apply)),
        ("service.query", share(&query)),
        ("json.render", mean(&col(&|r| r.render, None))),
    ];
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    let listed: Vec<String> = parts
        .iter()
        .map(|(name, v)| format!("{name}={v:.2}us"))
        .collect();
    report.line(format!(
        "blocking path (mean per request, {total:.2}us): {} unattributed={:.2}us",
        listed.join(" "),
        total - attributed
    ));
    report.line(format!(
        "churn traced: {} requests, each served three ways; reads take {:.0} % of the layer time",
        rows.len(),
        100.0 * share(&query) / attributed
    ));
}
