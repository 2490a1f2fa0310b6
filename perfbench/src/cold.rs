//! `cold`: the paper's Theorem 1/2 setting. SMM stabilizes a seeded
//! unit-disk graph from a seeded arbitrary state, serially and on the
//! 2-shard runtime; SMI stabilizes a path with identity IDs from the
//! default state.

use crate::check;
use crate::common::{derive, median, proc_mb, secs, unit_disk, Report};
use selfstab_core::partition::Partition;
use selfstab_core::{Pointer, Smi, Smm};
use selfstab_engine::obs::{Phase, RoundStats};
use selfstab_engine::{InitialState, Observer, Outcome, Run, SyncExecutor};
use selfstab_graph::{generators, Graph, Ids, Node};
use selfstab_runtime::RuntimeExecutor;
use std::time::Instant;

/// Unit-disk size (mean degree ≈ 56 at the suite radius). Small enough
/// that a run holds dozens of cold rounds: with a handful of one-second
/// rounds, noise from other tenants of a small VM dominated the median.
pub const N_SMM: usize = 5_000;
/// Path length: n rounds in which nearly every node moves, so worklist
/// upkeep and move apply dominate instead of the guard kernel.
pub const N_PATH: usize = 2_500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Inputs {
    graph: Graph,
    smm: Smm,
    partition: Partition,
    path: Graph,
    smi: Smi,
    init_seed: u64,
}

struct SetupTimes {
    total: f64,
    gen: f64,
    /// RSS growth across the graph build.
    graph_rss: f64,
    partition: f64,
}

fn setup(seed: u64) -> (Inputs, SetupTimes) {
    let rss0 = proc_mb(None, "VmRSS").unwrap_or(0.0);
    let t = Instant::now();
    let (graph, ids) = unit_disk(N_SMM, derive(seed, 1));
    let gen = secs(t);
    let graph_rss = proc_mb(None, "VmRSS").unwrap_or(0.0) - rss0;
    let t_part = Instant::now();
    let partition = Partition::coarsened(&graph, 2);
    let partition_s = secs(t_part);
    let path = generators::path(N_PATH);
    let smi = Smi::new(Ids::identity(N_PATH));
    let total = secs(t);
    let inputs = Inputs {
        graph,
        smm: Smm::paper(ids),
        partition,
        path,
        smi,
        init_seed: derive(seed, 2),
    };
    (
        inputs,
        SetupTimes {
            total,
            gen,
            graph_rss,
            partition: partition_s,
        },
    )
}

fn stabilized<S>(run: &Run<S>, what: &str) -> Result<(), String> {
    match &run.outcome {
        Outcome::Stabilized => Ok(()),
        other => Err(format!(
            "{what} ended {other:?} after {} rounds",
            run.rounds
        )),
    }
}

fn check_smm(g: &Graph, run: &Run<Pointer>) -> Result<(), String> {
    stabilized(run, "SMM")?;
    check::theorem1_bound(g.n(), run.rounds)?;
    check::maximal_matching(g, &check::pointers(&run.final_states))
}

fn check_sharded(
    serial: &Run<Pointer>,
    sharded: &Result<Run<Pointer>, selfstab_runtime::RuntimeError>,
) -> Result<(), String> {
    let run = sharded
        .as_ref()
        .map_err(|e| format!("2-shard run failed: {e}"))?;
    stabilized(run, "2-shard SMM")?;
    if run.rounds != serial.rounds {
        return Err(format!(
            "2-shard SMM took {} rounds, serial {}",
            run.rounds, serial.rounds
        ));
    }
    if run.final_states != serial.final_states {
        return Err("2-shard SMM final states differ from the serial run's".into());
    }
    Ok(())
}

fn check_smi(g: &Graph, run: &Run<bool>) -> Result<(), String> {
    stabilized(run, "SMI")?;
    check::independent_dominating(g, &run.final_states)
}

struct RoundTimes {
    smm: f64,
    shards2: f64,
    smi: f64,
    rounds: usize,
}

/// One untraced cold round: the three stabilizations, each checked.
fn round(inp: &Inputs, report: &mut Report) -> RoundTimes {
    let n = inp.graph.n();
    let init = InitialState::Random {
        seed: inp.init_seed,
    };
    let t = Instant::now();
    let serial = SyncExecutor::new(&inp.graph, &inp.smm).run(init.clone(), 2 * n + 2);
    let smm = secs(t);
    let partition = inp.partition.clone();
    let t = Instant::now();
    let sharded =
        RuntimeExecutor::from_partition(&inp.graph, &inp.smm, partition).run(init, 2 * n + 2);
    let shards2 = secs(t);
    let t = Instant::now();
    let smi_run = SyncExecutor::new(&inp.path, &inp.smi).run(InitialState::Default, 2 * N_PATH + 2);
    let smi = secs(t);
    report.op(check_smm(&inp.graph, &serial));
    report.op(check_sharded(&serial, &sharded));
    report.op(check_smi(&inp.path, &smi_run));
    let sharded_rounds = sharded.map(|r| r.rounds).unwrap_or(0);
    RoundTimes {
        smm,
        shards2,
        smi,
        rounds: serial.rounds + sharded_rounds + smi_run.rounds,
    }
}

/// Per-layer figures of one observed run. Fed by the executors' own
/// `RoundStats` (phase spans, evaluations, runtime counters); the
/// worklist each round is recomputed here from the observed movers and
/// must match `RoundStats::evaluated`.
struct Layers<'g> {
    graph: &'g Graph,
    movers: Vec<Node>,
    stamp: Vec<u32>,
    rounds: u32,
    guard: f64,
    apply: f64,
    observe: f64,
    evaluated: u64,
    moves: u64,
    adj_entries: u64,
    worklist_mismatch: Option<String>,
    /// Critical-path (straggler) lane of the sharded runtime, per phase.
    lane: [f64; 5],
    frames: u64,
    wire_bytes: u64,
}

const LANE: [Phase; 5] = [
    Phase::Compute,
    Phase::Encode,
    Phase::Send,
    Phase::RecvWait,
    Phase::BarrierWait,
];

impl<'g> Layers<'g> {
    fn new(graph: &'g Graph) -> Self {
        Layers {
            graph,
            movers: Vec::new(),
            stamp: vec![0; graph.n()],
            rounds: 0,
            guard: 0.0,
            apply: 0.0,
            observe: 0.0,
            evaluated: 0,
            moves: 0,
            adj_entries: 0,
            worklist_mismatch: None,
            lane: [0.0; 5],
            frames: 0,
            wire_bytes: 0,
        }
    }

    /// This round's worklist: every node in round 1, afterwards the closed
    /// neighbourhoods of the previous round's movers. Returns its size and
    /// the adjacency entries its guards scan.
    fn worklist(&mut self, round: usize) -> (u64, u64) {
        let g = self.graph;
        if round == 1 {
            return (g.n() as u64, g.degree_sum() as u64);
        }
        let mark = self.rounds;
        let (mut size, mut adj) = (0u64, 0u64);
        let mut visit = |v: Node, stamp: &mut Vec<u32>| {
            if stamp[v.index()] != mark {
                stamp[v.index()] = mark;
                size += 1;
                adj += g.degree(v) as u64;
            }
        };
        for &u in &self.movers {
            visit(u, &mut self.stamp);
            for &w in g.neighbors(u) {
                visit(w, &mut self.stamp);
            }
        }
        (size, adj)
    }
}

impl<S> Observer<S> for Layers<'_> {
    fn on_move(&mut self, node: Node, _rule: usize, _next: &S) {
        self.movers.push(node);
    }

    fn on_round_end(&mut self, stats: &RoundStats, _states: &[S]) {
        let t = Instant::now();
        self.rounds += 1;
        // `movers` now holds this round's movers appended after the
        // previous round's; split them.
        let this_round: u64 = stats.moves_per_rule.iter().sum();
        let split = self.movers.len() - this_round as usize;
        let current = self.movers.split_off(split);
        let (size, adj) = self.worklist(stats.round);
        if size != stats.evaluated as u64 && self.worklist_mismatch.is_none() {
            self.worklist_mismatch = Some(format!(
                "round {}: recomputed worklist {size} != RoundStats::evaluated {}",
                stats.round, stats.evaluated
            ));
        }
        self.movers = current;
        self.evaluated += stats.evaluated as u64;
        self.moves += this_round;
        self.adj_entries += adj;
        if let Some(rt) = &stats.runtime {
            self.frames += rt.frames;
            self.wire_bytes += rt.bytes_on_wire;
        }
        if let Some(profile) = &stats.profile {
            let us = |x: u64| x as f64 * 1e-6;
            if profile.shards.len() == 1 {
                let spans = &profile.shards[0].spans;
                self.guard += us(spans.micros(Phase::GuardEval));
                self.apply += us(spans.micros(Phase::Apply));
                self.observe += us(spans.micros(Phase::Gauges));
            } else if let Some(lane) = profile.straggler() {
                for (slot, phase) in self.lane.iter_mut().zip(LANE) {
                    *slot += us(lane.spans.micros(phase));
                }
            }
        }
        self.observe += secs(t);
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        // Drop the previous inputs first so the peak holds one copy.
        drop(inputs.take());
        let (inp, t) = setup(seed);
        inputs = Some(inp);
        times.push(t);
    }
    let inp = inputs.expect("at least one set-up");
    let setup_s = median(&times.iter().map(|t| t.total).collect::<Vec<_>>());
    report.line(format!(
        "cold: unit-disk n={} m={} radius={:.5}; path n={}; 2-shard cut={} edges",
        inp.graph.n(),
        inp.graph.m(),
        crate::common::suite_radius(N_SMM),
        N_PATH,
        inp.partition.cut_edges(&inp.graph).len()
    ));
    if traced {
        traced_rounds(&inp, seconds, &mut report);
        report.metric(
            "graph.gen_s",
            median(&times.iter().map(|t| t.gen).collect::<Vec<_>>()),
        );
        report.metric("graph.rss_mb", times[0].graph_rss);
        report.metric(
            "core.partition_s",
            median(&times.iter().map(|t| t.partition).collect::<Vec<_>>()),
        );
        report.metric(
            "core.cut_fraction",
            inp.partition.cut_edges(&inp.graph).len() as f64 / inp.graph.m() as f64,
        );
        return report;
    }

    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(round(&inp, &mut report));
        if secs(started) >= seconds {
            break;
        }
    }
    let total: Vec<f64> = rounds.iter().map(|r| r.smm + r.shards2 + r.smi).collect();
    let smm = median(&rounds.iter().map(|r| r.smm).collect::<Vec<_>>());
    let shards2 = median(&rounds.iter().map(|r| r.shards2).collect::<Vec<_>>());
    let smi = median(&rounds.iter().map(|r| r.smi).collect::<Vec<_>>());
    report.line(format!(
        "cold: {} rounds of 3 stabilizations in {:.1} s",
        rounds.len(),
        secs(started)
    ));
    report.line(format!("figure cold/stabilize_s.smm = {smm:.4} s"));
    report.line(format!(
        "figure cold/stabilize_s.smm.shards2 = {shards2:.4} s"
    ));
    report.line(format!("figure cold/stabilize_s.smi.path = {smi:.4} s"));
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", proc_mb(None, "VmHWM").unwrap_or(f64::NAN));
    report.metric("rounds", rounds[0].rounds as f64);
    report.metric("ops_per_s", 3.0 / median(&total));
    report.metric("op_p50_us", median(&total) * 1e6 / 3.0);
    report
}

fn traced_rounds(inp: &Inputs, seconds: f64, report: &mut Report) {
    let n = inp.graph.n();
    let init = InitialState::Random {
        seed: inp.init_seed,
    };
    let started = Instant::now();
    let mut per_round: Vec<Vec<(String, f64)>> = Vec::new();
    let mut blocking;
    loop {
        let mut row = Vec::new();
        let mut smm_obs = Layers::new(&inp.graph);
        let t = Instant::now();
        let serial = SyncExecutor::new(&inp.graph, &inp.smm).run_observed(
            init.clone(),
            2 * n + 2,
            &mut smm_obs,
        );
        let smm_wall = secs(t);
        report.op(check_smm(&inp.graph, &serial).and(mismatch(&smm_obs)));

        let mut rt_obs = Layers::new(&inp.graph);
        let exec = RuntimeExecutor::from_partition(&inp.graph, &inp.smm, inp.partition.clone());
        let t = Instant::now();
        let sharded = exec.run_observed(init.clone(), 2 * n + 2, &mut rt_obs);
        let rt_wall = secs(t);
        report.op(check_sharded(&serial, &sharded).and(mismatch(&rt_obs)));

        let mut smi_obs = Layers::new(&inp.path);
        let t = Instant::now();
        let smi_run = SyncExecutor::new(&inp.path, &inp.smi).run_observed(
            InitialState::Default,
            2 * N_PATH + 2,
            &mut smi_obs,
        );
        let smi_wall = secs(t);
        report.op(check_smi(&inp.path, &smi_run).and(mismatch(&smi_obs)));

        for (suffix, obs, wall) in [
            (".smm", &smm_obs, smm_wall),
            (".smi.path", &smi_obs, smi_wall),
        ] {
            row.push((format!("engine.guard_eval_s{suffix}"), obs.guard));
            row.push((format!("engine.apply_s{suffix}"), obs.apply));
            row.push((
                format!("engine.other_s{suffix}"),
                wall - obs.guard - obs.apply - obs.observe,
            ));
            row.push((format!("engine.evaluated{suffix}"), obs.evaluated as f64));
            row.push((
                format!("engine.move_yield{suffix}"),
                obs.moves as f64 / obs.evaluated.max(1) as f64,
            ));
        }
        row.push(("core.adj_entries.smm".into(), smm_obs.adj_entries as f64));
        row.push((
            "core.ns_per_adj_entry.smm".into(),
            smm_obs.guard * 1e9 / smm_obs.adj_entries.max(1) as f64,
        ));
        let lane: Vec<(&str, f64)> = LANE
            .iter()
            .zip(rt_obs.lane)
            .map(|(p, v)| (p.label(), v))
            .collect();
        for (phase, secs) in &lane {
            row.push((format!("runtime.{phase}_s"), *secs));
        }
        row.push(("runtime.wire_bytes".into(), rt_obs.wire_bytes as f64));
        row.push(("runtime.frames".into(), rt_obs.frames as f64));
        blocking = vec![
            segment(".smm", smm_wall, &smm_obs, vec![]),
            segment(".smm.shards2", rt_wall, &rt_obs, lane),
            segment(".smi.path", smi_wall, &smi_obs, vec![]),
        ];
        per_round.push(row);
        if secs(started) >= seconds {
            break;
        }
    }
    for (i, (name, _)) in per_round[0].iter().enumerate() {
        let values: Vec<f64> = per_round.iter().map(|r| r[i].1).collect();
        report.metric(name, median(&values));
    }
    for line in blocking {
        report.line(line);
    }
}

/// One run's wall time split into the layer self times its `RoundStats`
/// report (the serial lane's guard/apply spans, or the sharded runtime's
/// critical-path lane), the observation overhead, and the rest.
fn segment(name: &str, wall: f64, obs: &Layers<'_>, lane: Vec<(&str, f64)>) -> String {
    let mut parts = if lane.is_empty() {
        vec![("guard_eval", obs.guard), ("apply", obs.apply)]
    } else {
        lane
    };
    parts.push(("observer", obs.observe));
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    let listed: Vec<String> = parts.iter().map(|(k, v)| format!("{k}={v:.4}s")).collect();
    format!(
        "blocking path stabilize{name} ({wall:.4}s): {} unattributed={:.4}s",
        listed.join(" "),
        wall - attributed
    )
}

fn mismatch(obs: &Layers<'_>) -> Result<(), String> {
    match &obs.worklist_mismatch {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    }
}
