//! `localcluster` — an n-process loopback cluster over real sockets.
//!
//! Parent mode (default) reserves `n` loopback ports, re-executes itself
//! once per replica in child mode, collects every child's committed
//! transaction sequence and counters over stdout, and checks that all
//! replicas agree.  With `--check-sim` it additionally runs the
//! deterministic simulator on the same `ExperimentConfig` and seed and
//! requires the socket cluster's commit sequence to be byte-identical.
//!
//! ```text
//! localcluster [--protocol N-HS] [--n 4] [--rate 4000] [--tx-limit 60]
//!              [--horizon-us 2500000] [--seed 42] [--batch-bytes 16384]
//!              [--source <replica index|even>] [--check-sim] [--chaos]
//!              [--trace-out <dir>]
//! ```
//!
//! With `--chaos` the parent SIGKILLs the last replica at 30% of the
//! horizon, restarts it 200 ms later in recovery mode (`--recover`), and
//! holds the resurrected process to the same agreement (and, with
//! `--check-sim`, simulator-conformance) bar as everyone else: the
//! recovered replica must re-sync the committed sequence over the `Sync`
//! wire family and finish byte-identical.  The kill/restart instants are
//! stamped into `cluster_trace.json` as global instant events when
//! `--trace-out` is active.
//!
//! With `--trace-out <dir>` the run becomes fully observed: each child
//! serves an admin endpoint the parent polls mid-run (`HEALTH`,
//! `METRICS`, and `SERIES` must all answer), runs a flight-recorder
//! sampler, and writes its per-replica trace / flight-recorder series /
//! metrics snapshot into `<dir>`.  After the run the parent merges them
//! into two cluster-wide artifacts: `cluster_trace.json` (one
//! chrome://tracing timeline, one track per replica, wall-clocks aligned
//! by epoch offsets) and `cluster_flightrec.json` (per-replica window
//! series plus a cluster metrics rollup).
//!
//! Child mode (`--replica <i> --addrs a,b,...`) is internal: it calls
//! [`smp_replica::run_replica_over_net`] and reports on stdout with
//! `commit <64-hex-txid>` / `stat <key> <value>` / `peer_error <msg>` /
//! `frame_error <msg>` lines.
//!
//! Exit codes: 0 success, 1 divergence (replicas disagree, sim mismatch,
//! peer/frame errors, or an unresponsive admin endpoint), 2 usage/spawn
//! failures — an unknown flag among them.

use smp_bench::arg_value;
use smp_crypto::Digest;
use smp_metrics::JsonValue;
use smp_replica::{
    run_replica_over_net, sim_commit_logs, ExperimentConfig, NetRunOptions, NetRunSummary, Protocol,
};
use smp_telemetry::{merge_chrome_traces, merge_cluster_series, rollup_snapshots, MetricsSnapshot};
use smp_types::{ReplicaId, TxId};
use smp_workload::LoadDistribution;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: localcluster [--protocol N-HS] [--n 4] [--rate 4000] \
[--tx-limit 60] [--horizon-us 2500000] [--seed 42] [--batch-bytes 16384] \
[--source <replica index|even>] [--check-sim] [--chaos] [--trace-out <dir>]";

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
#[derive(Clone)]
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

    /// The flags a child needs to rebuild this exact config.
    fn forward(&self) -> Vec<String> {
        let mut f = vec![
            "--protocol".into(),
            self.protocol.label().to_string(),
            "--n".into(),
            self.n.to_string(),
            "--rate".into(),
            self.rate.to_string(),
            "--tx-limit".into(),
            self.tx_limit.to_string(),
            "--horizon-us".into(),
            self.horizon_us.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--batch-bytes".into(),
            self.batch_bytes.to_string(),
            "--source".into(),
            match self.source {
                Some(i) => i.to_string(),
                None => "even".into(),
            },
        ];
        if let Some(dir) = arg_value("--trace-out") {
            f.push("--trace-out".into());
            f.push(dir);
        }
        f
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
    let observed = trace_out.is_some() || admin_addr.is_some();
    let opts = NetRunOptions {
        tx_limit: Some(args.tx_limit),
        horizon_us: args.horizon_us,
        admin_addr,
        // Sample often enough that even a short CI run records several
        // windows per replica.
        flight_cadence_us: observed.then_some(250_000),
        recover: std::env::args().any(|a| a == "--recover"),
    };
    let summary = run_replica_over_net(&args.config(), ReplicaId(me as u32), addrs, &opts)
        .unwrap_or_else(|e| {
            eprintln!("localcluster: replica {me} failed: {e}");
            std::process::exit(2);
        });
    report_child(me, &summary, trace_out.as_deref());
    let clean = summary.peer_errors.is_empty() && summary.frame_errors.is_empty();
    std::process::exit(if clean { 0 } else { 1 });
}

fn report_child(me: usize, summary: &NetRunSummary, trace_out: Option<&str>) {
    for id in &summary.commit_log {
        println!("commit {}", txid_hex(id));
    }
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

#[derive(Default)]
struct ChildReport {
    commits: Vec<TxId>,
    stats: std::collections::BTreeMap<String, u64>,
    peer_errors: Vec<String>,
    frame_errors: Vec<String>,
}

fn parse_child_output(text: &str) -> ChildReport {
    let mut r = ChildReport::default();
    for line in text.lines() {
        if let Some(hex) = line.strip_prefix("commit ") {
            if let Some(id) = txid_from_hex(hex.trim()) {
                r.commits.push(id);
            }
        } else if let Some(rest) = line.strip_prefix("stat ") {
            if let Some((key, value)) = rest.split_once(' ') {
                if let Ok(v) = value.trim().parse() {
                    r.stats.insert(key.to_string(), v);
                }
            }
        } else if let Some(e) = line.strip_prefix("peer_error ") {
            r.peer_errors.push(e.to_string());
        } else if let Some(e) = line.strip_prefix("frame_error ") {
            r.frame_errors.push(e.to_string());
        }
    }
    r
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

/// One line-oriented admin request/reply against a child's endpoint.
fn admin_ask(addr: SocketAddr, cmd: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{cmd}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "empty admin reply",
        ));
    }
    Ok(reply.trim_end().to_string())
}

/// Polls every child's admin endpoint mid-run: `HEALTH`, `METRICS`, and
/// `SERIES` must all answer before the run's horizon elapses.  Returns
/// one error line per replica that failed.
fn poll_admin_endpoints(admin_addrs: Vec<SocketAddr>, horizon_us: u64) -> Vec<String> {
    let start = Instant::now();
    // Let the cluster form and commit some work first, but stay well
    // inside the horizon so this is genuinely a *mid-run* observation.
    thread::sleep(Duration::from_micros(horizon_us / 3));
    let deadline = start + Duration::from_micros(horizon_us.saturating_sub(horizon_us / 5));
    let mut failures = Vec::new();
    for (i, addr) in admin_addrs.into_iter().enumerate() {
        let verdict = loop {
            match check_admin(addr, i) {
                Ok(detail) => break Ok(detail),
                Err(e) => {
                    if Instant::now() >= deadline {
                        break Err(e);
                    }
                    thread::sleep(Duration::from_millis(100));
                }
            }
        };
        match verdict {
            Ok(detail) => println!("localcluster: replica {i} admin ok mid-run ({detail})"),
            Err(e) => failures.push(format!("replica {i} admin endpoint at {addr}: {e}")),
        }
    }
    failures
}

fn check_admin(addr: SocketAddr, i: usize) -> Result<String, String> {
    let health = admin_ask(addr, "HEALTH").map_err(|e| format!("HEALTH: {e}"))?;
    if !health.starts_with(&format!("ok replica={i} ")) {
        return Err(format!("HEALTH replied '{health}'"));
    }
    let metrics = admin_ask(addr, "METRICS").map_err(|e| format!("METRICS: {e}"))?;
    if !metrics.starts_with('{') {
        return Err(format!("METRICS not a JSON object: '{metrics}'"));
    }
    let series = admin_ask(addr, "SERIES").map_err(|e| format!("SERIES: {e}"))?;
    if !series.contains("smp-flightrec-v1") {
        return Err(format!("SERIES not schema-versioned: '{series}'"));
    }
    Ok(health)
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

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before unix epoch")
        .as_micros() as u64
}

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    // Bind-then-drop reserves distinct ephemeral ports; children rebind
    // them immediately after, so reuse by another process is unlikely.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
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
    println!(
        "localcluster: {} n={} rate={} tx_limit={} horizon={}us seed={}",
        args.protocol.label(),
        args.n,
        args.rate,
        args.tx_limit,
        args.horizon_us,
        args.seed
    );

    let addrs = free_addrs(args.n);
    let addr_list = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    // With --trace-out, the run is observed: every child gets an admin
    // endpoint (the parent reserves the ports so it knows where to
    // poll — children only report stdout after they exit).
    let trace_dir = arg_value("--trace-out");
    let admin_addrs = if trace_dir.is_some() {
        free_addrs(args.n)
    } else {
        Vec::new()
    };
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    for i in 0..args.n {
        let mut cmd = Command::new(&exe);
        cmd.args(["--replica", &i.to_string(), "--addrs", &addr_list])
            .args(args.forward());
        if let Some(admin) = admin_addrs.get(i) {
            cmd.args(["--admin-addr", &admin.to_string()]);
        }
        let child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("localcluster: cannot spawn replica {i}: {e}");
                std::process::exit(2);
            });
        children.push(child);
    }

    // Live observation: while children run, poll each admin endpoint
    // once mid-run (HEALTH + METRICS + SERIES must answer).
    let poller = (!admin_addrs.is_empty()).then(|| {
        let admin_addrs = admin_addrs.clone();
        let horizon_us = args.horizon_us;
        thread::spawn(move || poll_admin_endpoints(admin_addrs, horizon_us))
    });

    // Chaos: SIGKILL the last replica at 30% of the horizon, then
    // respawn it 200 ms later with `--recover`.  The first incarnation's
    // output and exit status are discarded; the resurrected process is
    // held to the same agreement bar as everyone else, which forces the
    // `Sync` re-sync path over real sockets.
    let chaos = std::env::args().any(|a| a == "--chaos");
    if chaos && args.n < 2 {
        eprintln!("localcluster: --chaos needs at least 2 replicas");
        std::process::exit(2);
    }
    let chaos_handle = chaos.then(|| {
        let victim = args.n - 1;
        let mut first = children.pop().expect("victim child");
        let exe = exe.clone();
        let mut respawn_args: Vec<String> = vec![
            "--replica".into(),
            victim.to_string(),
            "--addrs".into(),
            addr_list.clone(),
        ];
        respawn_args.extend(args.forward());
        if let Some(admin) = admin_addrs.get(victim) {
            respawn_args.push("--admin-addr".into());
            respawn_args.push(admin.to_string());
        }
        respawn_args.push("--recover".into());
        let kill_after = Duration::from_micros(args.horizon_us * 3 / 10);
        thread::spawn(move || {
            thread::sleep(kill_after);
            let kill_unix_us = unix_us();
            first.kill().expect("kill victim");
            first.wait().expect("reap victim");
            thread::sleep(Duration::from_millis(200));
            let child = Command::new(&exe)
                .args(&respawn_args)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("respawn victim");
            (kill_unix_us, unix_us(), child)
        })
    });

    let mut reports = Vec::new();
    let mut failed = false;
    for (i, mut child) in children.into_iter().enumerate() {
        let mut text = String::new();
        child
            .stdout
            .take()
            .expect("piped stdout")
            .read_to_string(&mut text)
            .expect("read child stdout");
        let status = child.wait().expect("wait for child");
        if !status.success() {
            eprintln!("localcluster: replica {i} exited with {status}");
            failed = true;
        }
        reports.push(parse_child_output(&text));
    }

    // Collect the resurrected victim last: its run started late and ends
    // after the survivors, so this read naturally waits out recovery.
    let mut fault_timeline: Vec<(String, u64)> = Vec::new();
    if let Some(handle) = chaos_handle {
        let victim = args.n - 1;
        let (kill_us, restart_us, mut child) = handle.join().expect("chaos thread");
        println!(
            "localcluster: chaos SIGKILLed replica {victim} and respawned it \
             {}ms later with --recover",
            restart_us.saturating_sub(kill_us) / 1_000
        );
        fault_timeline.push((format!("fault.kill.replica.{victim}"), kill_us));
        fault_timeline.push((format!("fault.restart.replica.{victim}"), restart_us));
        let mut text = String::new();
        child
            .stdout
            .take()
            .expect("piped stdout")
            .read_to_string(&mut text)
            .expect("read recovered child stdout");
        let status = child.wait().expect("wait for recovered child");
        if !status.success() {
            eprintln!("localcluster: recovered replica {victim} exited with {status}");
            failed = true;
        }
        reports.push(parse_child_output(&text));
    }

    if let Some(poller) = poller {
        for e in poller.join().expect("admin poller thread") {
            eprintln!("localcluster: mid-run admin poll failed: {e}");
            failed = true;
        }
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
                 ({} vs {} txs); {}",
                r.commits.len(),
                reports[0].commits.len(),
                divergence_excerpt(&reports[0].commits, &r.commits)
            );
            agree = false;
        }
    }
    if agree {
        println!(
            "localcluster: all {} replicas agree on {} committed txs",
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
                "localcluster: socket commit sequence matches the simulator ({} txs)",
                sim[0].len()
            );
        } else {
            eprintln!(
                "localcluster: socket commit sequence diverges from the simulator \
                 ({} vs {} txs); {}",
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
