//! `sparse`: one client on one Unix-socket connection to a shipped
//! `selfstab serve --socket` daemon. The client sends an edge toggle,
//! waits for its reply, then pauses a fixed `PAUSE` before the next one —
//! the only path through the transport.

use crate::common::{derive, median, proc_mb, quantile, secs, unit_disk, Report};
use crate::stream::{Mix, Req, Stream};
use selfstab_core::Pointer;
use selfstab_json::Json;
use selfstab_service::snapshot::write_snapshot;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const N: usize = 5_000;
/// The client's think time between a reply and its next request. Between
/// 20 and 40 ms the request lands while the serve loop sleeps out its
/// idle period after an empty 20 ms poll.
pub const PAUSE: Duration = Duration::from_millis(30);
/// Requests per whole round of the workload.
const BATCH: Mix = Mix {
    reads: 0,
    toggles: 25,
    membership: 0,
};
const SETUPS: usize = 3;
/// A daemon that has not answered within this long counts as failed.
const DEADLINE: Duration = Duration::from_secs(60);

/// A running daemon; killed and reaped if dropped while still up.
struct Daemon {
    child: Child,
    conn: BufReader<UnixStream>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Start the daemon on `snapshot` and connect once its socket accepts.
    fn start(cli: &Path, snapshot: &Path, socket: &Path, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = log.try_clone().map_err(|e| e.to_string())?;
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--protocol")
            .arg("smm")
            .arg("--resume")
            .arg(snapshot)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let started = Instant::now();
        let stream = loop {
            if let Ok(s) = UnixStream::connect(socket) {
                break s;
            }
            let exited = child.try_wait().map_err(|e| e.to_string())?;
            if exited.is_some() || started.elapsed() > DEADLINE {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "daemon did not open {} ({exited:?})",
                    socket.display()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        stream
            .set_read_timeout(Some(DEADLINE))
            .map_err(|e| e.to_string())?;
        Ok(Daemon {
            child,
            conn: BufReader::new(stream),
        })
    }

    /// One request line out, one reply line back; returns the reply and
    /// the round-trip time.
    fn request(&mut self, line: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        let stream = self.conn.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.conn.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok((reply.trim_end().to_string(), secs(t))),
            Err(e) => Err(format!("no reply to {line}: {e}")),
        }
    }

    /// `status` query: `(clock_rounds, legitimate)`.
    fn status(&mut self) -> Result<(u64, bool), String> {
        let (reply, _) = self.request(r#"{"op":"query","what":"status"}"#)?;
        let v = Json::parse(&reply).map_err(|e| format!("bad status reply {reply}: {e}"))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("status failed: {reply}"));
        }
        let rounds = v.get("clock_rounds").and_then(Json::as_u64).unwrap_or(0);
        let legit = v.get("legitimate").and_then(Json::as_bool) == Some(true);
        Ok((rounds, legit))
    }

    /// Ask the daemon to stop and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        self.request(r#"{"op":"shutdown"}"#)?;
        let started = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if started.elapsed() > DEADLINE {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

fn check_mutation(req: &Req, reply: &str) -> Result<(), String> {
    let v = Json::parse(reply).map_err(|e| format!("unparsable reply {reply:?}: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} -> {reply}", req.line));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool, cli: &Path, workdir: &Path) -> Report {
    let mut report = Report::default();
    if let Err(e) = std::fs::create_dir_all(workdir) {
        report.op(Err(format!("{}: {e}", workdir.display())));
        return report;
    }
    let result = run_in(seed, seconds, traced, cli, workdir, &mut report);
    report.op(result);
    let _ = std::fs::remove_dir_all(workdir);
    report
}

fn run_in(
    seed: u64,
    seconds: f64,
    traced: bool,
    cli: &Path,
    workdir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let rss0 = proc_mb(None, "VmRSS").unwrap_or(0.0);
    let t = Instant::now();
    let (graph, _) = unit_disk(N, derive(seed, 5));
    let gen = secs(t);
    let graph_rss = proc_mb(None, "VmRSS").unwrap_or(0.0) - rss0;
    // The daemon gets the generated topology as a snapshot of all-null
    // pointers, so it bootstraps SMM from scratch on start.
    let snapshot = workdir.join("input.snapshot.json");
    let doc = write_snapshot("smm", &graph, &vec![Pointer::NULL; graph.n()], 0);
    std::fs::write(&snapshot, doc).map_err(|e| format!("{}: {e}", snapshot.display()))?;
    let socket: PathBuf = workdir.join("s.sock");
    let log = workdir.join("daemon.log");
    report.line(format!(
        "sparse: unit-disk n={} m={}; one connection; {} ms pause between reply and next request",
        graph.n(),
        graph.m(),
        PAUSE.as_millis()
    ));

    let mut setup = Vec::new();
    let mut boot_rounds = 0;
    let mut daemon = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let mut d = Daemon::start(cli, &snapshot, &socket, &log)?;
        let (rounds, legit) = d.status()?;
        setup.push(secs(t));
        if !legit {
            return Err("daemon not legitimate after its bootstrap".into());
        }
        boot_rounds = rounds;
        if i + 1 < SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");
    let mut stream = Stream::new(&graph, derive(seed, 6));

    let paced_for = if traced { seconds / 2.0 } else { seconds };
    let started = Instant::now();
    let mut lat = Vec::new();
    let mut sent = Vec::new();
    while lat.is_empty() || secs(started) < paced_for {
        for req in stream.batch(BATCH) {
            let (reply, rtt) = daemon.request(&req.line)?;
            report.op(check_mutation(&req, &reply));
            lat.push(rtt * 1e6);
            sent.push(req.edge);
            std::thread::sleep(PAUSE);
        }
    }
    let elapsed = secs(started);

    let mut awake = Vec::new();
    if traced {
        // The same links again, back to back, in reverse order: the
        // service work of the paced requests without the idle wait.
        for (u, w) in sent.iter().rev().flatten() {
            let req = stream.flip(*u, *w);
            let (reply, rtt) = daemon.request(&req.line)?;
            report.op(check_mutation(&req, &reply));
            awake.push(rtt * 1e6);
        }
    }

    let (_, legit) = daemon.status()?;
    report.op(if legit {
        Ok(())
    } else {
        Err("closing status query reports legitimate: false".into())
    });
    let daemon_peak = proc_mb(Some(daemon.child.id()), "VmHWM");
    daemon.stop()?;

    let p50 = quantile(&lat, 0.5);
    if traced {
        let rtt_awake = quantile(&awake, 0.5);
        report.metric("graph.gen_s", gen);
        report.metric("graph.rss_mb", graph_rss);
        report.metric(
            "graph.mutate_us",
            stream.mutate_secs * 1e6 / stream.mutations.max(1) as f64,
        );
        report.metric("transport.rtt_awake_us", rtt_awake);
        report.metric("transport.idle_wait_us", p50 - rtt_awake);
        report.line(format!(
            "blocking path (p50 request, {p50:.1}us): request+service round trip={rtt_awake:.1}us unattributed (idle wait)={:.1}us",
            p50 - rtt_awake
        ));
        return Ok(());
    }
    report.line(format!(
        "sparse: {} requests in {elapsed:.2} s; daemon bootstrap {boot_rounds} rounds",
        lat.len()
    ));
    report.line(format!("figure sparse/write_p50_us = {p50:.1} us"));
    report.metric("setup_s", median(&setup));
    report.metric("peak_rss_mb", daemon_peak.unwrap_or(f64::NAN));
    report.metric("rounds", boot_rounds as f64);
    report.metric("ops_per_s", lat.len() as f64 / elapsed);
    report.metric("op_p50_us", p50);
    Ok(())
}
