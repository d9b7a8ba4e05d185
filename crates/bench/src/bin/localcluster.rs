//! `localcluster` — an n-process loopback cluster over real sockets.
//!
//! Parent mode (default) reserves `n` loopback ports, re-executes itself
//! once per replica in child mode, collects every child's committed
//! sequence (an entry per transaction, or per microblock for reference
//! payloads) and counters over stdout, and checks that all replicas agree.
//! With `--check-sim` it additionally requires the socket cluster's
//! commit sequence to be byte-identical to the simulator's.
//!
//! ```text
//! localcluster [--protocol N-HS] [--n 4] [--rate 4000] [--tx-limit 60]
//!              [--horizon-us 2500000] [--seed 42] [--batch-bytes 16384]
//!              [--source <replica index|even>] [--check-sim] [--chaos]
//!              [--trace-out <dir>]
//! ```
//!
//! A run ends when its work is done.  Children print each `commit` line
//! as they commit, and how many transactions they have committed; once
//! every child has committed every transaction the workload offers
//! (`--tx-limit` from each offering replica), the parent writes `stop` on
//! their stdin.  `--horizon-us` is the longest a run may last: a run that
//! offers nothing (`--rate 0`) lasts it, and a loaded run that reaches it
//! exits 1, naming each replica and how many transactions it lacks.
//!
//! With `--chaos` the parent SIGKILLs the last replica once every replica
//! has committed the workload, restarts it 200 ms later in recovery mode
//! (`--recover`), and stops the cluster once the recovered replica holds
//! as many entries as its peers.  The resurrected process is held to the same
//! agreement (and, with `--check-sim`, simulator-conformance) bar as
//! everyone else: it must re-sync the committed sequence over the `Sync`
//! wire family and finish byte-identical.  The kill/restart instants are
//! stamped into `cluster_trace.json` as global instant events when
//! `--trace-out` is active.
//!
//! With `--trace-out <dir>` the run becomes fully observed: each child
//! serves an admin endpoint the parent polls while the cluster runs
//! (`HEALTH`, `METRICS`, and `SERIES` must all answer, and the cluster is
//! not stopped before they have), whose thread also samples its flight
//! recorder, and writes its per-replica trace / flight-recorder series /
//! metrics snapshot into `<dir>`.  After the run the parent merges them
//! into two cluster-wide artifacts: `cluster_trace.json` (one
//! chrome://tracing timeline, one track per replica, wall-clocks aligned
//! by epoch offsets) and `cluster_flightrec.json` (per-replica window
//! series plus a cluster metrics rollup).
//!
//! Child mode (`--replica <i> --addrs a,b,...`) is internal: it calls
//! [`smp_replica::run_replica_over_net`], stops on a `stop` line or the
//! end of its stdin, and reports on stdout with `commit <64-hex-txid>` /
//! `stat <key> <value>` / `peer_error <msg>` / `frame_error <msg>` lines.
//!
//! Exit codes: 0 success, 1 divergence (replicas disagree, sim mismatch,
//! a loaded run that reached its horizon, peer/frame errors, or an
//! unresponsive admin endpoint), 2 usage/spawn failures — an unknown flag
//! among them.

use smp_bench::arg_value;
use smp_crypto::Digest;
use smp_metrics::JsonValue;
use smp_net::{bind_loopback, probe};
use smp_replica::{
    offered_txs, run_replica_over_net, sim_commit_logs, ExperimentConfig, NetRunOptions,
    NetRunSummary, Protocol,
};
use smp_telemetry::{merge_chrome_traces, merge_cluster_series, rollup_snapshots, MetricsSnapshot};
use smp_types::{ReplicaId, TxId};
use smp_workload::LoadDistribution;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: localcluster [--protocol N-HS] [--n 4] [--rate 4000] \
[--tx-limit 60] [--horizon-us 2500000] [--seed 42] [--batch-bytes 16384] \
[--source <replica index|even>] [--check-sim] [--chaos] [--trace-out <dir>]
A run ends once every replica has committed every offered transaction; \
--horizon-us is the longest it may last (a loaded run that reaches it fails).";

/// Flags followed by a value; the internal child-mode ones included.
const VALUE_FLAGS: &[&str] = &[
    "--protocol",
    "--n",
    "--rate",
    "--tx-limit",
    "--horizon-us",
    "--seed",
    "--batch-bytes",
    "--source",
    "--trace-out",
    "--replica",
    "--addrs",
    "--admin-addr",
];
/// Flags that stand alone.
const SWITCHES: &[&str] = &["--check-sim", "--chaos", "--recover"];

/// The first argument that is neither a known flag nor a known flag's
/// value.
fn unknown_arg(args: &[String]) -> Option<&str> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            args.next();
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

fn parse_protocol(s: &str) -> Option<Protocol> {
    Protocol::all()
        .into_iter()
        .find(|p| p.label().eq_ignore_ascii_case(s) || format!("{p:?}").eq_ignore_ascii_case(s))
}

/// Cluster parameters shared by parent and children, rebuilt from the
/// command line so every process derives the identical config.
struct ClusterArgs {
    protocol: Protocol,
    n: usize,
    rate: f64,
    tx_limit: u64,
    horizon_us: u64,
    seed: u64,
    batch_bytes: usize,
    source: Option<usize>,
}

impl ClusterArgs {
    fn from_env() -> ClusterArgs {
        let num = |flag: &str, default: f64| -> f64 {
            arg_value(flag)
                .map(|v| {
                    v.parse().unwrap_or_else(|_| {
                        eprintln!("localcluster: {flag} takes a number, got '{v}'");
                        std::process::exit(2);
                    })
                })
                .unwrap_or(default)
        };
        let protocol = match arg_value("--protocol") {
            Some(name) => parse_protocol(&name).unwrap_or_else(|| {
                let labels: Vec<&str> = Protocol::all().iter().map(|p| p.label()).collect();
                eprintln!(
                    "localcluster: unknown protocol '{name}' (one of {})",
                    labels.join(", ")
                );
                std::process::exit(2);
            }),
            None => Protocol::NativeHotStuff,
        };
        let source = match arg_value("--source").as_deref() {
            None => Some(0),
            Some("even") => None,
            Some(i) => Some(i.parse().unwrap_or_else(|_| {
                eprintln!("localcluster: --source takes a replica index or 'even'");
                std::process::exit(2);
            })),
        };
        ClusterArgs {
            protocol,
            n: num("--n", 4.0) as usize,
            rate: num("--rate", 4_000.0),
            tx_limit: num("--tx-limit", 60.0) as u64,
            horizon_us: num("--horizon-us", 2_500_000.0) as u64,
            seed: num("--seed", 42.0) as u64,
            batch_bytes: num("--batch-bytes", 16_384.0) as usize,
            source,
        }
    }

    fn config(&self) -> ExperimentConfig {
        let mut config = ExperimentConfig::new(self.protocol, self.n, self.rate)
            .with_batch_size(self.batch_bytes);
        if let Some(i) = self.source {
            config = config.with_distribution(LoadDistribution::SingleReplica(i));
        }
        config.seed = self.seed;
        config
    }
}

fn txid_hex(id: &TxId) -> String {
    let Digest(words) = id.0;
    words.iter().map(|w| format!("{w:016x}")).collect()
}

fn txid_from_hex(s: &str) -> Option<TxId> {
    if s.len() != 64 {
        return None;
    }
    let mut words = [0u64; 4];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u64::from_str_radix(&s[i * 16..(i + 1) * 16], 16).ok()?;
    }
    Some(TxId(Digest(words)))
}

// ---------------------------------------------------------------- child

fn run_child(me: usize, args: &ClusterArgs) -> ! {
    let addrs: Vec<SocketAddr> = arg_value("--addrs")
        .unwrap_or_default()
        .split(',')
        .map(|a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("localcluster: bad --addrs entry '{a}'");
                std::process::exit(2);
            })
        })
        .collect();
    let trace_out = arg_value("--trace-out");
    let admin_addr: Option<SocketAddr> = arg_value("--admin-addr").map(|a| {
        a.parse().unwrap_or_else(|_| {
            eprintln!("localcluster: bad --admin-addr '{a}'");
            std::process::exit(2);
        })
    });
    let opts = NetRunOptions {
        tx_limit: Some(args.tx_limit),
        horizon_us: args.horizon_us,
        admin_addr,
        recover: std::env::args().any(|a| a == "--recover"),
    };
    // The parent ends the run with a `stop` line; the end of stdin (the
    // parent gone) ends it too.  The reader is left to the process's exit:
    // a run that ends at its horizon hears neither.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let _ = io::stdin()
                .lines()
                .find(|l| l.as_ref().map_or(true, |l| l == "stop"));
            stop.store(true, Ordering::Relaxed);
        });
    }
    // Commits go out as they happen, so the parent sees the run's progress.
    let (mut streamed, mut told) = (0, 0);
    let id = ReplicaId(me as u32);
    let summary = run_replica_over_net(&args.config(), id, addrs, &opts, |log, committed| {
        print_commits(&log[streamed..]);
        streamed = log.len();
        if committed > told {
            println!("stat committed_txs {committed}");
            told = committed;
        }
        stop.load(Ordering::Relaxed)
    })
    .unwrap_or_else(|e| {
        eprintln!("localcluster: replica {me} failed: {e}");
        std::process::exit(2);
    });
    print_commits(&summary.commit_log[streamed..]);
    report_child(me, &summary, trace_out.as_deref());
    let clean = summary.peer_errors.is_empty() && summary.frame_errors.is_empty();
    std::process::exit(if clean { 0 } else { 1 });
}

fn print_commits(ids: &[TxId]) {
    for id in ids {
        println!("commit {}", txid_hex(id));
    }
}

fn report_child(me: usize, summary: &NetRunSummary, trace_out: Option<&str>) {
    let stats: [(&str, u64); 9] = [
        ("committed_txs", summary.committed_txs),
        ("client_txs", summary.client_txs),
        ("view_changes", summary.view_changes),
        ("frames_in", summary.frames_in),
        ("frames_out", summary.frames_out),
        ("bytes_in", summary.bytes_in),
        ("bytes_out", summary.bytes_out),
        ("wall_us", summary.wall_us),
        ("epoch_unix_us", summary.epoch_unix_us.unwrap_or(0)),
    ];
    for (key, value) in stats {
        println!("stat {key} {value}");
    }
    for e in &summary.peer_errors {
        println!("peer_error {e}");
    }
    for e in &summary.frame_errors {
        println!("frame_error {e}");
    }
    if let Some(dir) = trace_out {
        let _ = std::fs::create_dir_all(dir);
        let write = |name: String, doc: &JsonValue| {
            let path = Path::new(dir).join(name);
            if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
                eprintln!("localcluster: cannot write {}: {e}", path.display());
            }
        };
        write(
            format!("trace_replica_{me}.json"),
            &summary.telemetry.trace_json(),
        );
        write(
            format!("metrics_replica_{me}.json"),
            &summary.telemetry.registry_json(),
        );
        if let Some(series) = &summary.flight_series {
            write(format!("flightrec_replica_{me}.json"), series);
        }
    }
}

// --------------------------------------------------------------- parent

/// What one child process has printed so far.
#[derive(Default)]
struct ChildReport {
    commits: Vec<TxId>,
    stats: std::collections::BTreeMap<String, u64>,
    peer_errors: Vec<String>,
    frame_errors: Vec<String>,
}

impl ChildReport {
    /// Takes in one line of the child's output.
    fn hear(&mut self, line: &str) {
        if let Some(hex) = line.strip_prefix("commit ") {
            if let Some(id) = txid_from_hex(hex.trim()) {
                self.commits.push(id);
            }
        } else if let Some(rest) = line.strip_prefix("stat ") {
            if let Some((key, value)) = rest.split_once(' ') {
                if let Ok(v) = value.trim().parse() {
                    self.stats.insert(key.to_string(), v);
                }
            }
        } else if let Some(e) = line.strip_prefix("peer_error ") {
            self.peer_errors.push(e.to_string());
        } else if let Some(e) = line.strip_prefix("frame_error ") {
            self.frame_errors.push(e.to_string());
        }
    }
}

/// One child process: a replica's first incarnation or, under `--chaos`,
/// the victim's recovered one.
struct Proc {
    replica: usize,
    child: Child,
    /// Taken when the parent tells the child to stop.
    stdin: Option<ChildStdin>,
    report: ChildReport,
    /// Started with `--recover`: it executes nothing and syncs its log.
    recover: bool,
    open: bool,
    killed: bool,
}

/// What the parent hears from its children, by process index.
enum Heard {
    /// A line the child printed.
    Line(usize, String),
    /// Its stdout closed: it has exited.
    Closed(usize),
}

/// Pinpoints where two commit sequences diverge: the first differing
/// index plus a short-hex excerpt of the surrounding entries on each
/// side, so a divergence report identifies the exact commits at fault
/// rather than just the lengths.
fn divergence_excerpt(reference: &[TxId], other: &[TxId]) -> String {
    let common = reference.len().min(other.len());
    let idx = (0..common)
        .find(|&k| reference[k] != other[k])
        .unwrap_or(common);
    let short = |id: &TxId| txid_hex(id)[..8].to_string();
    let excerpt = |log: &[TxId]| -> String {
        let lo = idx.saturating_sub(1);
        let hi = (idx + 2).min(log.len());
        if lo >= hi {
            return "(end of log)".into();
        }
        log[lo..hi]
            .iter()
            .enumerate()
            .map(|(off, id)| format!("[{}]={}", lo + off, short(id)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "first divergence at index {idx}: reference {} | diverged {}",
        excerpt(reference),
        excerpt(other)
    )
}

/// Merges the per-replica artifacts the children wrote under `dir` into
/// `cluster_trace.json` (one chrome://tracing timeline, one process
/// track per replica, wall-clocks aligned via epoch offsets) and
/// `cluster_flightrec.json` (per-replica window series + metrics
/// rollup).  Chaos fault instants (`faults`: name + wall-clock µs) are
/// stamped into the merged trace as global chrome instant events on the
/// same epoch-aligned timeline.
fn merge_cluster_artifacts(
    dir: &str,
    n: usize,
    epochs: &[u64],
    faults: &[(String, u64)],
) -> io::Result<(PathBuf, PathBuf)> {
    let read_json = |name: String| -> io::Result<JsonValue> {
        let path = Path::new(dir).join(&name);
        let text = std::fs::read_to_string(&path)?;
        JsonValue::parse(&text)
            .map_err(|e| io::Error::other(format!("{}: bad JSON: {e:?}", path.display())))
    };
    let min_epoch = epochs.iter().copied().filter(|&e| e > 0).min().unwrap_or(0);
    let mut trace_sources = Vec::new();
    let mut series_sources = Vec::new();
    let mut snapshots = Vec::new();
    for i in 0..n {
        let label = format!("replica.{i}");
        let offset_us = epochs
            .get(i)
            .copied()
            .unwrap_or(0)
            .saturating_sub(min_epoch) as i64;
        trace_sources.push((
            label.clone(),
            offset_us,
            read_json(format!("trace_replica_{i}.json"))?,
        ));
        series_sources.push((
            label.clone(),
            read_json(format!("flightrec_replica_{i}.json"))?,
        ));
        let metrics = read_json(format!("metrics_replica_{i}.json"))?;
        snapshots.push((label, MetricsSnapshot::from_json(&metrics)));
    }
    let trace_path = Path::new(dir).join("cluster_trace.json");
    let mut trace_doc = merge_chrome_traces(&trace_sources);
    if let JsonValue::Object(fields) = &mut trace_doc {
        if let Some((_, JsonValue::Array(events))) =
            fields.iter_mut().find(|(k, _)| k == "traceEvents")
        {
            for (name, at_unix_us) in faults {
                let ts = at_unix_us.saturating_sub(min_epoch) as f64;
                events.push(JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(name.clone())),
                    ("ph".into(), JsonValue::String("i".into())),
                    ("s".into(), JsonValue::String("g".into())),
                    ("ts".into(), JsonValue::Number(ts)),
                    ("pid".into(), JsonValue::Number(0.0)),
                    ("tid".into(), JsonValue::Number(0.0)),
                ]));
            }
        }
    }
    std::fs::write(&trace_path, trace_doc.to_pretty())?;
    let rollup = rollup_snapshots(&snapshots).to_json();
    let flight_path = Path::new(dir).join("cluster_flightrec.json");
    std::fs::write(
        &flight_path,
        merge_cluster_series(&series_sources, Some(rollup)).to_pretty(),
    )?;
    Ok((trace_path, flight_path))
}

/// The live replicas that lack part of what the run waits for, as
/// (replica, how much it lacks, of how many, of what): the `offered`
/// transactions or, for a recovered replica (which executes nothing), the
/// entries its peers' logs hold.
fn lacking(procs: &[Proc], offered: u64) -> impl Iterator<Item = (usize, u64, u64, &str)> {
    let live = || procs.iter().filter(|p| !p.killed);
    let longest = live().map(|p| p.report.commits.len()).max().unwrap_or(0) as u64;
    live().filter_map(move |p| {
        let (has, wants, what) = if p.recover {
            let has = p.report.commits.len() as u64;
            (has, longest, "entries its peers hold")
        } else {
            let has = p.report.stats.get("committed_txs").copied().unwrap_or(0);
            (has, offered, "offered transactions")
        };
        (has < wants).then_some((p.replica, wants - has, wants, what))
    })
}

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before unix epoch")
        .as_micros() as u64
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = unknown_arg(&argv) {
        eprintln!("localcluster: unknown argument '{arg}'\n{USAGE}");
        std::process::exit(2);
    }
    let args = ClusterArgs::from_env();
    if let Some(me) = arg_value("--replica") {
        let me: usize = me.parse().unwrap_or_else(|_| {
            eprintln!("localcluster: --replica takes an index");
            std::process::exit(2);
        });
        run_child(me, &args);
    }

    let config = args.config();
    let chaos = std::env::args().any(|a| a == "--chaos");
    if chaos && args.n < 2 {
        eprintln!("localcluster: --chaos needs at least 2 replicas");
        std::process::exit(2);
    }
    println!(
        "localcluster: {} n={} rate={} tx_limit={} horizon={}us seed={}",
        args.protocol.label(),
        args.n,
        args.rate,
        args.tx_limit,
        args.horizon_us,
        args.seed
    );

    // What every replica must commit before the run ends: each offering
    // replica's whole workload.
    let offered = offered_txs(&config, Some(args.tx_limit));
    if chaos && offered == 0 {
        eprintln!("localcluster: --chaos needs a workload that commits");
        std::process::exit(2);
    }

    // With --trace-out, the run is observed: every child also gets an
    // admin endpoint the parent polls.  One reservation gives both sets of
    // ports, so none is in both; the children bind them again right after.
    let trace_dir = arg_value("--trace-out");
    let mut ports = bind_loopback(args.n * if trace_dir.is_some() { 2 } else { 1 })
        .unwrap_or_else(|e| {
            eprintln!("localcluster: cannot reserve loopback ports: {e}");
            std::process::exit(2);
        })
        .1;
    let admin_addrs = ports.split_off(args.n);
    let addr_list = ports
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let (heard_by, heard) = mpsc::channel();
    // Starts replica `replica` as child process `id`, with a thread that
    // forwards its stdout.
    let exe = std::env::current_exe().expect("current exe");
    let launch = |id: usize, replica: usize, recover: bool| {
        let mut cmd = Command::new(&exe);
        // A child parses the parent's own flags, so it builds the same config.
        cmd.args(std::env::args().skip(1)).args([
            "--replica",
            &replica.to_string(),
            "--addrs",
            &addr_list,
        ]);
        if let Some(admin) = admin_addrs.get(replica) {
            cmd.args(["--admin-addr", &admin.to_string()]);
        }
        if recover {
            cmd.arg("--recover");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("localcluster: cannot spawn replica {replica}: {e}");
                std::process::exit(2);
            });
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let heard_by = heard_by.clone();
        thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                heard_by.send(Heard::Line(id, line)).ok();
            }
            heard_by.send(Heard::Closed(id)).ok();
        });
        Proc {
            replica,
            stdin: child.stdin.take(),
            child,
            report: ChildReport::default(),
            recover,
            open: true,
            killed: false,
        }
    };
    let mut procs: Vec<Proc> = (0..args.n).map(|i| launch(i, i, false)).collect();
    let mut failed = false;
    // The observed run's admin endpoints answer before the cluster may stop.
    let deadline = Instant::now() + Duration::from_micros(args.horizon_us);
    for (i, &addr) in admin_addrs.iter().enumerate() {
        match probe(addr, i as u32, deadline) {
            Ok(health) => println!("localcluster: replica {i} admin ok mid-run ({health})"),
            Err(e) => {
                eprintln!("localcluster: replica {i} admin endpoint at {addr}: {e}");
                failed = true;
            }
        }
    }

    // The run: children stream their commits.  Under --chaos the last
    // replica is SIGKILLed once every replica has committed the workload
    // and respawned 200 ms later with `--recover`, which forces the `Sync`
    // re-sync path over real sockets.  Once no live replica lacks
    // anything (the recovered one included), every child is told to stop.
    // A run that offers nothing, or never gets there, lasts its horizon.
    let mut victim = chaos.then_some(args.n - 1);
    let mut fault_timeline: Vec<(String, u64)> = Vec::new();
    while procs.iter().any(|p| p.open) {
        match heard.recv().expect("`launch` keeps a sender") {
            Heard::Line(p, line) => procs[p].report.hear(&line),
            Heard::Closed(p) => procs[p].open = false,
        }
        if offered == 0 || lacking(&procs, offered).next().is_some() {
            continue;
        }
        if let Some(v) = victim.take() {
            let kill_us = unix_us();
            procs[v].child.kill().expect("kill victim");
            procs[v].killed = true;
            thread::sleep(Duration::from_millis(200));
            let restart_us = unix_us();
            procs.push(launch(procs.len(), v, true));
            println!(
                "localcluster: chaos SIGKILLed replica {v} and respawned it \
                 {}ms later with --recover",
                restart_us.saturating_sub(kill_us) / 1_000
            );
            fault_timeline.push((format!("fault.kill.replica.{v}"), kill_us));
            fault_timeline.push((format!("fault.restart.replica.{v}"), restart_us));
        } else {
            for p in &mut procs {
                if let Some(mut stdin) = p.stdin.take() {
                    writeln!(stdin, "stop").ok();
                }
            }
        }
    }

    for (replica, lacks, of, what) in lacking(&procs, offered) {
        eprintln!(
            "localcluster: replica {replica} lacks {lacks} of the {of} {what} at its {}us horizon",
            args.horizon_us
        );
        failed = true;
    }
    // The victim's first incarnation is not reported: its recovered one
    // takes its place, last.
    let mut reports = Vec::new();
    for mut p in procs {
        let status = p.child.wait().expect("wait for child");
        if p.killed {
            continue;
        }
        if !status.success() {
            eprintln!("localcluster: replica {} exited with {status}", p.replica);
            failed = true;
        }
        reports.push(p.report);
    }

    for (i, r) in reports.iter().enumerate() {
        for e in &r.peer_errors {
            eprintln!("localcluster: replica {i} peer error: {e}");
            failed = true;
        }
        for e in &r.frame_errors {
            eprintln!("localcluster: replica {i} frame error: {e}");
            failed = true;
        }
        println!(
            "  replica {i}: {} committed, {} frames in, {} bytes in, {}us wall",
            r.commits.len(),
            r.stats.get("frames_in").copied().unwrap_or(0),
            r.stats.get("bytes_in").copied().unwrap_or(0),
            r.stats.get("wall_us").copied().unwrap_or(0),
        );
    }

    // Agreement: every replica must report the same committed sequence.
    let mut agree = true;
    for (i, r) in reports.iter().enumerate().skip(1) {
        if r.commits != reports[0].commits {
            eprintln!(
                "localcluster: replica {i} commit sequence diverges from replica 0 \
                 ({} vs {} entries); {}",
                r.commits.len(),
                reports[0].commits.len(),
                divergence_excerpt(&reports[0].commits, &r.commits)
            );
            agree = false;
        }
    }
    if agree {
        println!(
            "localcluster: all {} replicas agree on {} committed entries",
            args.n,
            reports[0].commits.len()
        );
    }

    // Cross-runtime conformance: the socket cluster must replay the
    // simulator's sequence for the same config and seed.
    let mut sim_ok = true;
    if std::env::args().any(|a| a == "--check-sim") {
        let sim = sim_commit_logs(&config, Some(args.tx_limit), args.horizon_us + 1_000_000);
        if reports[0].commits == sim[0] {
            println!(
                "localcluster: socket commit sequence matches the simulator ({} entries)",
                sim[0].len()
            );
        } else {
            eprintln!(
                "localcluster: socket commit sequence diverges from the simulator \
                 ({} vs {} entries); {}",
                reports[0].commits.len(),
                sim[0].len(),
                divergence_excerpt(&sim[0], &reports[0].commits)
            );
            sim_ok = false;
        }
    }

    // Cross-process aggregation: merge the children's artifacts into
    // one cluster timeline and one cluster flight-recorder document.
    if let Some(dir) = &trace_dir {
        let epochs: Vec<u64> = reports
            .iter()
            .map(|r| r.stats.get("epoch_unix_us").copied().unwrap_or(0))
            .collect();
        match merge_cluster_artifacts(dir, args.n, &epochs, &fault_timeline) {
            Ok((trace_path, flight_path)) => println!(
                "localcluster: merged cluster artifacts: {} {}",
                trace_path.display(),
                flight_path.display()
            ),
            Err(e) => {
                eprintln!("localcluster: cannot merge cluster artifacts: {e}");
                failed = true;
            }
        }
    }

    if failed || !agree || !sim_ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &str) -> Vec<String> {
        args.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn known_flags_and_their_values_pass_and_anything_else_is_refused() {
        let ok = argv("--protocol S-HS --n 4 --rate 0 --check-sim --chaos --trace-out --help");
        assert_eq!(unknown_arg(&ok), None, "'--help' here is a directory name");
        for (bad, first) in [
            ("--help", "--help"),
            ("--n 4 -h", "-h"),
            ("4", "4"),
            ("--rate=0 --n 4", "--rate=0"),
        ] {
            assert_eq!(unknown_arg(&argv(bad)), Some(first));
        }
    }
}
