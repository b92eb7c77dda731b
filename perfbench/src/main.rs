//! One benchmark for the dnnip workspace.
//!
//! ```text
//! perfbench --workload <vendor-suite|serve-mixed|fault-campaign> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path to dnnip-serve>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the same
//! seeded inputs through each layer's public calls under a span recorder and
//! reports the per-layer metrics. Either way every output is checked, and
//! the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! prints `correct: false` and exits with code 1.
//!
//! `PREDICTIONS.md` next to this crate maps each layer to the end-to-end
//! metric it should move and the workload where it should stay flat.

mod fault;
mod layers;
mod serve;
mod stats;
mod trace;
mod vendor;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dnnip_serve::json::{obj, Json};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["vendor-suite", "serve-mixed", "fault-campaign"];

/// End-to-end metrics every untraced run reports in its JSON line. Each
/// workload maps its own named figures onto them (see
/// [`Outcome::end_to_end`]); the workload's latency percentiles are printed
/// by name but not reported there, because on a host whose second hardware
/// thread comes and goes they did not repeat across seeds.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("quality", "fraction"),
];

/// Per-layer metrics every traced run reports; a layer the workload never
/// calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_nt_gflops", "GFLOP/s"),
    ("tensor.im2col_ns_per_sample", "ns"),
    ("nn.param_grad_us_per_sample", "us"),
    ("nn.forward_us_per_sample", "us"),
    ("nn.input_grad_us_per_sample", "us"),
    ("nn.reference_forward_us", "us"),
    ("graph.covered_us_per_sample", "us"),
    ("criterion.param-gradient.self_us_per_sample", "us"),
    ("criterion.param-gradient.density", "fraction"),
    ("criterion.neuron-activation.self_us_per_sample", "us"),
    ("criterion.neuron-activation.density", "fraction"),
    ("criterion.topk-neuron.self_us_per_sample", "us"),
    ("criterion.topk-neuron.density", "fraction"),
    ("cache.hit_rate", "fraction"),
    ("cache.flight_hits", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_us_per_sample", "us"),
    ("cache.resident_bytes", "bytes"),
    ("cache.compression_ratio", "ratio"),
    ("persist.writes", "count"),
    ("persist.bytes_on_disk", "bytes"),
    ("persist.write_us_per_entry", "us"),
    ("persist.hit_us_per_sample", "us"),
    ("select.greedy_us", "us"),
    ("select.steps", "count"),
    ("gradgen.us_per_test", "us"),
    ("gradgen.synthetic_share", "fraction"),
    ("protocol.golden_us_per_test", "us"),
    ("accel.validate_us_per_test", "us"),
    ("faults.sba.attack_ms", "ms"),
    ("faults.sba.effective_rate", "fraction"),
    ("faults.gda.attack_ms", "ms"),
    ("faults.gda.effective_rate", "fraction"),
    ("faults.random.attack_ms", "ms"),
    ("faults.random.effective_rate", "fraction"),
    ("faults.apply_us", "us"),
    ("faults.check_us", "us"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_p99", "ms"),
    ("serve.outside_run_ms_p50", "ms"),
    ("serve.outside_run_ms_p99", "ms"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.parse_us", "us"),
    ("serve.pool_us", "us"),
    ("serve.coalesced_batches", "count"),
    ("self_share.core.eval", "fraction"),
    ("self_share.core.select", "fraction"),
    ("self_share.core.gradgen", "fraction"),
    ("self_share.core.curve", "fraction"),
    ("self_share.core.protocol", "fraction"),
    ("self_share.accel", "fraction"),
    ("self_share.core.workspace", "fraction"),
    ("self_share.serve.parse", "fraction"),
    ("self_share.serve.pool", "fraction"),
    ("self_share.faults.attack", "fraction"),
    ("self_share.faults.apply", "fraction"),
    ("self_share.faults.check", "fraction"),
    ("self_share.nn.reference", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "ratio"),
];

/// What one workload invocation needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run-private scratch directory (fresh cache tiers live here); removed
    /// when the run ends.
    pub run_dir: PathBuf,
    pub serve_bin: PathBuf,
}

/// A workload's result: operation counts, named output checks and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<String, (f64, String)>,
    lines: Vec<String>,
}

impl Outcome {
    /// Record a named metric (printed with its unit; reported in the JSON
    /// line when it is one of the declared metrics).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.insert(name.into(), (value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// Record an output check; any failed check makes the run incorrect.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Map a workload's own figures onto the shared end-to-end names.
    pub fn end_to_end(&mut self, ops: &str, quality: &str) {
        for (generic, own) in [("ops_per_s", ops), ("quality", quality)] {
            if let Some(entry) = self.metrics.get(own).cloned() {
                self.metrics.insert(generic.to_string(), entry);
            }
        }
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut serve_bin = PathBuf::from("target/release/dnnip-serve");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            "--serve-bin" => serve_bin = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin,
    })
}

/// The host the numbers were measured on.
fn host_line() -> String {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host available_parallelism={parallelism} nproc={nproc} target_cpu={} avx2={} fma={}",
        env!("PERFBENCH_TARGET_CPU"),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".perfbench_runs").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        run_dir: run_dir.clone(),
        serve_bin: args.serve_bin,
    };
    let result = match args.workload.as_str() {
        "vendor-suite" => vendor::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        _ => fault::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".perfbench_runs");
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            return ExitCode::from(1);
        }
    };
    report(&args.workload, ctx.trace, &outcome)
}

fn report(workload: &str, trace: bool, outcome: &Outcome) -> ExitCode {
    println!("workload {workload} trace={}", u8::from(trace));
    println!("{}", host_line());
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, ok) in &outcome.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "operations attempted={} failed={} error_rate={error_rate}",
        outcome.attempted, outcome.failed
    );
    for (name, (value, unit)) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let declared: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.get(name).unwrap_or(0.0);
            (
                name,
                obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let correct = outcome.correct();
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
