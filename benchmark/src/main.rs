//! The repo's benchmark: five workloads over the real stack — the
//! simulator as a program and `smp-net` loopback clusters — with every
//! layer measured from outside by probe wrappers.  See `README.md`.
//!
//! ```text
//! stratus-benchmark run [--seed N] [--seconds S] [--smoke] [--trace] [--only W] [--out FILE]
//! stratus-benchmark run --workload W --seed N --seconds S --trace 0|1   (one workload, in process)
//! stratus-benchmark compare A.json B.json
//! stratus-benchmark spec                                               (prints BENCHMARK.json)
//! ```

mod assemble;
mod calib;
mod checks;
mod compare;
mod ledger;
mod metrics;
mod micro;
mod net;
mod outcome;
mod probe;
mod sim;
mod stats;
mod trace;
mod workloads;

use metrics::{end_to_end, per_layer, MetricDef, Values};
use smp_metrics::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use workloads::{execute, Execution, Runtime, NOMINAL_SECONDS, WORKLOADS};

/// Marks the full record of a workload in a child's output, for the
/// orchestrating `run` to pick up.
const RECORD_PREFIX: &str = "RECORD ";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Probes {
    None,
    Quick,
    Full,
}

struct Options {
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Contract mode: run this one workload in process.
    workload: Option<String>,
    /// Orchestrating mode: restrict the set to this workload.
    only: Option<String>,
    out: Option<String>,
    /// Layer probes beside a traced workload (`--probes none|quick|full`).
    probes: Probes,
}

fn usage() -> ! {
    eprintln!(
        "usage: stratus-benchmark run [--seed N] [--seconds S] [--smoke] [--trace [0|1]] \
         [--only W] [--workload W] [--out FILE]\n       stratus-benchmark compare A.json B.json\n       \
         stratus-benchmark spec\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_run_options(args: &[String]) -> Options {
    let mut o = Options {
        seed: 42,
        seconds: NOMINAL_SECONDS as f64,
        trace: false,
        workload: None,
        only: None,
        out: None,
        probes: Probes::Quick,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => o.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                o.seconds = value(&mut i).parse().unwrap_or_else(|_| usage());
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    usage();
                }
            }
            "--smoke" => o.seconds = NOMINAL_SECONDS as f64 / 10.0,
            "--trace" => {
                // A bare flag, or the contract's `--trace 0|1`.
                o.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--workload" => o.workload = Some(value(&mut i)),
            "--only" => o.only = Some(value(&mut i)),
            "--out" => o.out = Some(value(&mut i)),
            "--probes" => {
                o.probes = match value(&mut i).as_str() {
                    "none" => Probes::None,
                    "quick" => Probes::Quick,
                    "full" => Probes::Full,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    for name in o.workload.iter().chain(&o.only) {
        if workloads::find(name).is_none() {
            eprintln!("unknown workload {name}");
            usage();
        }
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => {
            let options = parse_run_options(&args[1..]);
            if options.workload.is_some() {
                run_workload(&options)
            } else {
                run_set(&options)
            }
        }
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("spec") => {
            println!("{}", spec_json());
            0
        }
        _ => usage(),
    };
    std::process::exit(code);
}

// ----- JSON (written and read through `smp_metrics::JsonValue`) ----------

/// A JSON number; what is not finite is written as 0 (the contract wants
/// numbers).
fn num(v: f64) -> JsonValue {
    JsonValue::Number(if v.is_finite() { v } else { 0.0 })
}

fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

// ----- one workload, in process (the contract's command) ----------------

fn print_values(defs: &[MetricDef], values: &Values) {
    for m in defs {
        let value = metrics::value_of(values, &m.name);
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        println!(
            "  {:<40} {:>16.4} {:<7} ({} is better){bound}",
            m.name,
            value,
            m.unit,
            m.better.as_str()
        );
    }
}

fn metrics_json(defs: &[MetricDef], values: &Values) -> JsonValue {
    object(defs.iter().map(|m| {
        let value = metrics::value_of(values, &m.name);
        (
            m.name.clone(),
            object([
                ("value", num(value)),
                ("unit", JsonValue::String(m.unit.into())),
            ]),
        )
    }))
}

fn flat_json(values: &Values) -> JsonValue {
    object(values.iter().map(|(n, v)| (n.clone(), num(*v))))
}

fn rows_json(exec: &Execution) -> JsonValue {
    object(
        exec.parts
            .iter()
            .filter(|_| exec.runtime == Runtime::Simulator)
            .map(|p| {
                (
                    p.label.clone(),
                    object([
                        ("fingerprint", JsonValue::String(p.fingerprint.clone())),
                        ("events", num(p.events as f64)),
                    ]),
                )
            }),
    )
}

fn print_rows(exec: &Execution) {
    for p in &exec.parts {
        let mut latency = p.latency.clone();
        print!(
            "  {:<9} offered {:>7} succeeded {:>7} failed {:>6.2}%  p50 {:>8.3} ms  n={:<7} cpu {:>6.3} s (raw {:>6.3})",
            p.label,
            p.ledger.attempted,
            p.ledger.succeeded,
            p.failed_share() * 100.0,
            latency.percentile_ms(50.0).unwrap_or(0.0),
            latency.count(),
            p.cpu_s,
            p.cpu_raw_s,
        );
        match exec.runtime {
            Runtime::Simulator => println!("  events {:>9}  log {}", p.events, p.fingerprint),
            Runtime::Sockets => println!(
                "  frames {:>8}  views {:>6}  skew {:>5.0} us",
                p.wire_msgs, p.max_view, p.clock_skew_us
            ),
        }
    }
}

fn print_self_time_table(exec: &Execution) {
    let t = metrics::self_times(exec);
    let (runtime, total) = match exec.runtime {
        Runtime::Simulator => ("simnet", "wall"),
        Runtime::Sockets => ("net", "process CPU"),
    };
    println!("per-layer self time (clocks on):");
    let rows = [
        (runtime, t.runtime_s),
        ("replica", t.replica_s),
        ("mempool", t.mempool_s),
        ("consensus", t.consensus_s),
    ];
    for (layer, s) in rows {
        println!("  {layer:<10} {s:>9.3} s {:>6.1}%", s / t.total_s * 100.0);
    }
    let sum: f64 = rows.iter().map(|(_, s)| s).sum();
    println!(
        "  {:<10} {sum:>9.3} s of {:.3} s {total} ({:+.2}%)",
        "sum",
        t.total_s,
        (sum / t.total_s - 1.0) * 100.0
    );
}

fn run_workload(o: &Options) -> i32 {
    let name = o.workload.as_deref().expect("contract mode");
    let mut errors = checks::assembly_equivalence(o.seed);
    let (attempted, failed, section, values, rows);
    println!(
        "workload {name}  seed {}  seconds {}  trace {}",
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    if !o.trace {
        let exec = execute(name, o.seconds, o.seed, false);
        print_rows(&exec);
        errors.extend(exec.errors.iter().cloned());
        values = metrics::end_to_end_values(&exec, stats::peak_rss_mb());
        println!("end-to-end metrics:");
        print_values(&end_to_end(), &values);
        (attempted, failed, section, rows) = (
            exec.attempted(),
            exec.failed(),
            "end_to_end",
            rows_json(&exec),
        );
    } else {
        // The same work twice at half length: clocks off, then clocks on.
        // The difference is what tracing costs.
        let untraced = execute(name, o.seconds / 2.0, o.seed, false);
        let traced = execute(name, o.seconds / 2.0, o.seed, true);
        print_rows(&traced);
        errors.extend(untraced.errors.iter().chain(&traced.errors).cloned());
        if untraced.runtime == Runtime::Simulator {
            // Clocks on or off, one seed gives one simulation.
            for (a, b) in untraced.parts.iter().zip(&traced.parts) {
                errors.extend(a.divergence_from(b).map(|e| format!("traced run: {e}")));
            }
        }
        let probes = match o.probes {
            Probes::None => Vec::new(),
            Probes::Quick => micro::run_all(micro::Budget::QUICK),
            Probes::Full => micro::run_all(micro::Budget::FULL),
        };
        values = metrics::per_layer_values(&traced, &untraced, &probes);
        print_self_time_table(&traced);
        println!("per-layer metrics:");
        print_values(&per_layer(), &values);
        let parts: Vec<(&str, &[probe::Span])> = traced
            .parts
            .iter()
            .map(|p| (p.label.as_str(), p.spans.as_slice()))
            .collect();
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{name}.json"));
        match trace::write_chrome_trace(&path, &parts) {
            Ok(spans) => println!("{spans} raw spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        (attempted, failed, section, rows) = (
            traced.attempted(),
            traced.failed(),
            "per_layer",
            rows_json(&traced),
        );
    }
    let failed_share = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    println!(
        "operations: attempted {attempted}  failed {failed}  failed_share {:.4}%",
        failed_share * 100.0
    );
    if attempted == 0 {
        errors.push("no operation was attempted".into());
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    if correct {
        println!("checks passed: safety, determinism, assembly equivalence, wire errors");
    }
    let record = object([
        ("workload", JsonValue::String(name.into())),
        ("seed", num(o.seed as f64)),
        ("seconds", num(o.seconds)),
        ("correct", JsonValue::Bool(correct)),
        (
            "summary",
            object([
                ("attempted", num(attempted as f64)),
                ("failed", num(failed as f64)),
                ("failed_share", num(failed_share)),
            ]),
        ),
        (section, flat_json(&values)),
        ("rows", rows),
        (
            "errors",
            JsonValue::Array(errors.iter().cloned().map(JsonValue::String).collect()),
        ),
    ]);
    println!("{RECORD_PREFIX}{}", record.to_compact());
    let defs = if o.trace { per_layer() } else { end_to_end() };
    let result = object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(attempted.max(1) as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics_json(&defs, &values)),
    ]);
    println!("{}", result.to_compact());
    i32::from(!correct)
}

// ----- the whole set, one child process per workload ---------------------

/// Runs one workload in a child process (so peak RSS and CPU are its
/// own), echoes its report, and returns its record.
fn run_child(o: &Options, name: &str, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // The orchestrating run measures the layer probes once itself.
        .args(["--probes", "none"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = None;
    let lines: Vec<&str> = stdout.lines().collect();
    // The last line is the contract's result; the record says the same
    // and more.
    for line in &lines[..lines.len().saturating_sub(1)] {
        match line.strip_prefix(RECORD_PREFIX) {
            Some(json) => record = JsonValue::parse(json).ok(),
            None => println!("{line}"),
        }
    }
    let record = record.ok_or_else(|| format!("{name} printed no record"))?;
    if !output.status.success() {
        println!("{name}: exited with {}", output.status);
    }
    Ok(record)
}

fn run_set(o: &Options) -> i32 {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| o.only.as_deref().is_none_or(|only| only == *n))
        .collect();
    let mut records: Vec<JsonValue> = Vec::new();
    let mut all_correct = true;
    for name in &names {
        for trace in [false, true] {
            if trace && !o.trace {
                continue;
            }
            println!();
            match run_child(o, name, trace) {
                Ok(record) => {
                    all_correct &= record.get("correct").and_then(JsonValue::as_bool) == Some(true);
                    // Fold the traced record into the workload's untraced one.
                    let folds = trace
                        && records
                            .last()
                            .is_some_and(|last| last.get("workload") == record.get("workload"));
                    match (records.last_mut(), record.get("per_layer")) {
                        (Some(JsonValue::Object(pairs)), Some(layers)) if folds => {
                            pairs.push(("per_layer".into(), layers.clone()));
                        }
                        _ => records.push(record),
                    }
                }
                Err(e) => {
                    println!("CHECK FAILED: {e}");
                    all_correct = false;
                }
            }
        }
    }
    let mut probes = JsonValue::Object(Vec::new());
    if o.trace {
        println!("\nlayer probes (direct timed calls, >= 200 ms each, median of 5):");
        let values = micro::run_all(micro::Budget::FULL);
        let defs: Vec<MetricDef> = per_layer()
            .into_iter()
            .filter(|m| metrics::PROBE_METRICS.iter().any(|p| p.0 == m.name))
            .collect();
        print_values(&defs, &values);
        probes = JsonValue::Object(
            values
                .into_iter()
                .map(|(n, v)| (n, JsonValue::Number(v)))
                .collect(),
        );
    }
    println!(
        "\n{} workloads, {}",
        names.len(),
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if let Some(path) = &o.out {
        let run = JsonValue::Object(vec![
            ("seed".into(), JsonValue::Number(o.seed as f64)),
            ("seconds".into(), JsonValue::Number(o.seconds)),
            ("workloads".into(), JsonValue::Array(records)),
            ("probes".into(), probes),
        ]);
        if let Err(e) = append_run(path, run) {
            eprintln!("writing {path}: {e}");
            return 2;
        }
        println!("results appended to {path}");
    }
    i32::from(!all_correct)
}

/// Appends a run to the result file (`{"runs": [...]}`), creating it.
/// Several runs in one file give `compare` a spread to judge by.
fn append_run(path: &str, run: JsonValue) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => JsonValue::parse(&text)
            .map_err(|e| e.to_string())?
            .get("runs")
            .and_then(JsonValue::as_array)
            .map(<[_]>::to_vec)
            .ok_or("not a result file: no \"runs\" array")?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(run);
    let doc = JsonValue::Object(vec![("runs".into(), JsonValue::Array(runs))]);
    std::fs::write(path, doc.to_pretty() + "\n").map_err(|e| e.to_string())
}

// ----- BENCHMARK.json -----------------------------------------------------

/// `BENCHMARK.json` as the registry defines it.
fn spec_json() -> String {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", JsonValue::String(m.name.clone())),
            ("unit", JsonValue::String(m.unit.into())),
            ("better", JsonValue::String(m.better.as_str().into())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", num(bound)));
        }
        object(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let doc = object([
        (
            "command",
            JsonValue::Array(
                command
                    .iter()
                    .map(|s| JsonValue::String((*s).into()))
                    .collect(),
            ),
        ),
        (
            "paths",
            JsonValue::Array(vec![JsonValue::String("benchmark".into())]),
        ),
        ("run_seconds", num(NOMINAL_SECONDS as f64)),
        (
            "workloads",
            JsonValue::Array(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| {
                        object([
                            ("name", JsonValue::String(w.name.into())),
                            ("why", JsonValue::String(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Array(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            JsonValue::Array(per_layer().iter().map(metric).collect()),
        ),
    ]);
    // One top-level key per line keeps the file reviewable.
    let JsonValue::Object(pairs) = doc else {
        unreachable!("built as an object")
    };
    let lines: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!(
                "  {}: {}",
                JsonValue::String(k.clone()).to_compact(),
                v.to_compact()
            )
        })
        .collect();
    format!("{{\n{}\n}}", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            JsonValue::parse(&on_disk).expect("BENCHMARK.json parses"),
            JsonValue::parse(&spec_json()).expect("spec parses"),
            "regenerate with `stratus-benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn workload_specs_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(spec_json().len() < 64 * 1024);
    }
}
