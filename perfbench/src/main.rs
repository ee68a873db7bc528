//! The repository benchmark: one seeded command that drives a workload of
//! the CryptoPIM serving stack through its public APIs, verifies every
//! output bit for bit outside the measured window, and prints its metrics.
//!
//! ```text
//! perfbench --workload <mul-checked|proto-hotkeys|tcp-rr> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! window, short probes of the layers the workload leaves idle, and the
//! isolated layer timings, and prints the per-layer metrics. The last line
//! of standard output is always the JSON result; the exit code is non-zero
//! on any verification failure. See `perfbench/README.md`.

mod host;
mod kernels;
mod measure;
mod model;
mod mul_checked;
mod proto_hotkeys;
mod report;
mod tcp_rr;
mod trace;
mod workload;

use report::Metric;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::RunResult;

/// The workloads. `BENCHMARK.json` lists the first two; `tcp-rr` runs
/// by hand. A traced run of one also runs short probes of the other two,
/// for the layers it leaves idle.
const WORKLOADS: [&str; 3] = ["mul-checked", "proto-hotkeys", "tcp-rr"];

/// Cold set-ups measured in child processes before the window, and as
/// many again after it, on top of the run's own, for the `setup_s`
/// median. Spreading them over the run keeps one burst of host load from
/// spoiling every sample.
const SETUP_CHILDREN: usize = 8;

/// Window of each probe run that covers a layer the workload leaves idle.
const PROBE_SECONDS: f64 = 1.5;

/// The whole command must end well inside the 180 s a run is allowed.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&k| k == w)
                        .ok_or(format!("unknown workload {w:?}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must lie in 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_probe,
    })
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> RunResult {
    match workload {
        "mul-checked" => mul_checked::run(seed, seconds, traced),
        "proto-hotkeys" => proto_hotkeys::run(seed, seconds, traced),
        _ => tcp_rr::run(seed, seconds, traced),
    }
}

/// One cold set-up (inputs prepared untimed), for the child processes.
fn setup_once(workload: &str, seed: u64) -> f64 {
    match workload {
        "mul-checked" => {
            let inputs = mul_checked::Inputs::new(seed);
            let t = Instant::now();
            let svc = mul_checked::setup(&inputs);
            let s = t.elapsed().as_secs_f64();
            svc.shutdown();
            s
        }
        "proto-hotkeys" => {
            let inputs = proto_hotkeys::Inputs::warm_up(seed);
            let t = Instant::now();
            let svc = proto_hotkeys::setup(&inputs);
            let s = t.elapsed().as_secs_f64();
            svc.shutdown();
            s
        }
        _ => {
            let inputs = tcp_rr::Inputs::new(seed);
            let t = Instant::now();
            let env = tcp_rr::setup(&inputs);
            let s = t.elapsed().as_secs_f64();
            env.shutdown();
            s
        }
    }
}

/// Set-up times of [`SETUP_CHILDREN`] fresh processes, so that lazy
/// plan and twiddle construction is paid in every sample.
fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .map_err(|e| format!("spawning a set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let value = text
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s="))
                .and_then(|v| v.parse().ok());
            match value {
                Some(v) if out.status.success() => Ok(v),
                _ => Err(format!("set-up probe failed: {}", out.status)),
            }
        })
        .collect()
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push('}');
    s
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<48} {:>16.6} {:<7} base {:<9} from {}",
            m.name, m.value, m.unit, m.base, m.source
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        println!("setup_s={}", setup_once(args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: still running after {DEADLINE:?}; giving up");
        std::process::exit(3);
    });

    let fingerprint = host::fingerprint();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host {fingerprint}");

    let mut setups = Vec::new();
    if !args.trace {
        match child_setups(&args) {
            Ok(s) => setups = s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let main = run(args.workload, args.seed, args.seconds, args.trace);
    setups.push(main.setup_s);
    if !args.trace {
        match child_setups(&args) {
            Ok(s) => setups.extend(s),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let attempted = main.records.len() as u64;
    let verified = main.records.iter().filter(|o| o.verified).count() as u64;
    let mismatched = main.mismatches();
    let mut probes: Vec<RunResult> = Vec::new();
    let metrics = if args.trace {
        for other in WORKLOADS.iter().filter(|&&w| w != args.workload) {
            probes.push(run(other, args.seed, PROBE_SECONDS, true));
        }
        let kernels = kernels::measure(args.seed);
        let metrics = report::per_layer(&main, &probes, &kernels);
        print!("{}", report::trace_tables(&main));
        if let Err(e) = write_spans(&main, args.seed) {
            eprintln!("perfbench: writing spans: {e}");
        }
        metrics
    } else {
        match report::end_to_end(&main, &setups) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    if let Some(bad) = metrics
        .iter()
        .find(|m| !measure::valid_metric_name(&m.name))
    {
        eprintln!("perfbench: metric name {:?} breaks the grammar", bad.name);
        return ExitCode::from(1);
    }
    if let Err(e) = matches_declared(&metrics, args.trace) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    if !args.trace {
        let thr = report::per_second_throughput(&main);
        let shown: Vec<String> = thr.iter().map(|t| format!("{t:.0}")).collect();
        println!("throughput per second (ops/s): {}", shown.join(" "));
        let show = |w: &report::SubWindow| {
            let us = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.1}"));
            format!(
                "{} ops, {:.1} ops/s, p50 {} us, p99 {} us",
                w.ops,
                w.throughput,
                us(w.p50),
                us(w.p99)
            )
        };
        for (i, w) in report::sub_windows(&main).iter().enumerate() {
            println!("sub-window {i}: {}", show(w));
        }
        println!("whole window: {}", show(&report::whole_window(&main)));
        if let Some((q1, q3)) = measure::quartiles(&thr) {
            println!(
                "throughput over {} seconds: quartiles {q1:.1} .. {q3:.1} ops/s",
                thr.len()
            );
        }
    }
    println!("metrics:");
    print_table(&metrics);
    let probe_bad: usize = probes.iter().map(RunResult::mismatches).sum();
    let counters_bad = std::iter::once(&main)
        .chain(&probes)
        .filter_map(|r| r.counter_check().err())
        .inspect(|e| eprintln!("perfbench: {e}"))
        .count();
    let correct = mismatched == 0 && probe_bad == 0 && counters_bad == 0 && verified > 0;
    let count = |o: workload::Outcome| main.records.iter().filter(|r| r.outcome == o).count();
    println!(
        "verified {verified}/{attempted} ops: refused {}, timed out {}, failed {}, \
         mismatched {mismatched}; error_rate {:.6}",
        count(workload::Outcome::Refused),
        count(workload::Outcome::TimedOut),
        count(workload::Outcome::Failed),
        (attempted - verified) as f64 / attempted.max(1) as f64
    );
    if !args.trace {
        println!("setup samples (s): {setups:?}");
    }
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"window_ops\": {}, \"mismatched\": {}, \"probe_mismatched\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        fingerprint.to_json(),
        attempted,
        mismatched,
        probe_bad
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        attempted - verified,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: verification failed");
        ExitCode::from(1)
    }
}

/// Checks that the run prints exactly the metrics `BENCHMARK.json`
/// declares for its mode (when run from a checkout that has one).
fn matches_declared(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let section = if trace { "per_layer" } else { "end_to_end" };
    let mut declared = measure::declared_names(&text, section)
        .ok_or(format!("BENCHMARK.json has no {section} section"))?;
    let mut printed: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
    declared.sort();
    printed.sort();
    if declared == printed {
        return Ok(());
    }
    let missing: Vec<&String> = declared.iter().filter(|d| !printed.contains(d)).collect();
    let extra: Vec<&String> = printed.iter().filter(|p| !declared.contains(p)).collect();
    Err(format!(
        "metrics differ from BENCHMARK.json {section}: missing {missing:?}, undeclared {extra:?}"
    ))
}

/// Writes the traced run's spans to `perfbench/out/`.
fn write_spans(r: &RunResult, seed: u64) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{seed}.tsv", r.workload));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{}", trace::TSV_HEADER)?;
    for log in &r.spans {
        log.write_tsv(&mut f)?;
    }
    f.flush()?;
    println!("spans written to {}", path.display());
    Ok(())
}
