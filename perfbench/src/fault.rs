//! `fault-campaign`: Table II/III detection trials against one vendor suite.
//!
//! Set-up builds the `vendor-suite` model and one combined suite. The timed
//! part runs rounds of SBA, GDA and random-perturbation trials exactly as
//! `detection_table` does (argmax matching, 1% of parameters at σ = 0.5)
//! with `DetectionConfig.exec` at 2 threads. The work is forward passes on
//! the per-sample reference `Network` plus the attack search: no backward
//! pass, no cache and no service.

use std::sync::Arc;
use std::time::Instant;

use dnnip_accel::ip::FloatIp;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::GradGenConfig;
use dnnip_core::par::ExecPolicy;
use dnnip_core::workspace::TestGenRequest;
use dnnip_faults::attacks::{Attack, GradientDescentAttack, RandomPerturbation, SingleBiasAttack};
use dnnip_faults::detection::{
    detection_rate, golden_outputs, is_detected, DetectionConfig, DetectionReport, MatchPolicy,
};
use dnnip_nn::Network;
use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{child_seed, mean, median, nearest_rank, tail_percentile};
use crate::trace::{durations, root_coverage, self_times, Recorder};
use crate::vendor::{workspace_at, VendorModel, BUDGET, POOL};
use crate::{ms, Ctx, Outcome};

/// Probes the attacks aim at (the smoke profile's probe count).
const PROBES: usize = 8;
/// Rounds whose detection rates are reported; the run always completes them,
/// so the rates are deterministic for a seed.
const RATE_ROUNDS: usize = 3;
/// Cells needed before the tail percentile has 10 samples beyond the median.
const MIN_OPS: usize = 20;
const SETUPS: usize = 3;
const THREADS: usize = 2;

struct Campaign {
    network: Arc<Network>,
    probes: Vec<Tensor>,
    tests: Vec<Tensor>,
    attacks: Vec<(&'static str, Box<dyn Attack>, usize)>,
}

fn build_campaign(ctx: &Ctx, k: usize) -> Result<Campaign, String> {
    let model = VendorModel::build();
    let ws = workspace_at(&ctx.run_dir.join(format!("setup-{k}")));
    let fp = ws.register("cifar-scaled", Arc::clone(&model.network), model.coverage);
    let pool = model.dataset[..POOL].to_vec();
    let report = ws
        .run(
            &TestGenRequest::new(fp, GenerationMethod::Combined, BUDGET)
                .with_gradgen(GradGenConfig {
                    exec: ExecPolicy::auto(),
                    ..GradGenConfig::default()
                })
                .with_candidates(pool),
        )
        .map_err(|e| e.to_string())?;
    let random_params = (model.network.num_parameters() / 100).max(16);
    Ok(Campaign {
        probes: model.dataset[..PROBES].to_vec(),
        tests: report.tests.inputs,
        network: model.network,
        attacks: vec![
            ("sba", Box::new(SingleBiasAttack::default()), 6),
            ("gda", Box::new(GradientDescentAttack::default()), 6),
            (
                "random",
                Box::new(RandomPerturbation {
                    num_params: random_params,
                    std: 0.5,
                }),
                6,
            ),
        ],
    })
}

fn config(seed: u64, round: usize, trials: usize, exec: ExecPolicy) -> DetectionConfig {
    DetectionConfig {
        trials,
        seed: child_seed(seed, round as u64),
        policy: MatchPolicy::ArgMax,
        exec,
    }
}

/// The per-trial RNG seed `detection_rate` derives (SplitMix64 finalizer of
/// the campaign seed and trial index); the traced replay must draw the same
/// perturbations, which the report comparison checks.
fn trial_seed(seed: u64, trial: u64) -> u64 {
    let mut z = seed
        .wrapping_add(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut campaign = None;
    let mut suites = Vec::new();
    for k in 0..SETUPS {
        let t = Instant::now();
        let c = build_campaign(ctx, k)?;
        times.push(t.elapsed().as_secs_f64());
        suites.push(c.tests.clone());
        campaign = Some(c);
    }
    let campaign = campaign.expect("SETUPS > 0");
    out.set("setup_s", median(&times), "s");
    out.check(
        "set-up builds identical suites",
        suites.windows(2).all(|w| w[0] == w[1]),
    );
    out.note(format!(
        "campaign: {} tests, {} probes, trials per round {}",
        campaign.tests.len(),
        campaign.probes.len(),
        campaign
            .attacks
            .iter()
            .map(|(n, _, t)| format!("{n}={t}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if ctx.trace {
        traced(ctx, &mut out, &campaign)?;
    } else {
        untraced(ctx, &mut out, &campaign)?;
    }
    Ok(out)
}

fn threaded_round(c: &Campaign, seed: u64, round: usize) -> Result<Vec<DetectionReport>, String> {
    c.attacks
        .iter()
        .map(|(_, attack, trials)| {
            detection_rate(
                &c.network,
                attack.as_ref(),
                &c.probes,
                &c.tests,
                &config(seed, round, *trials, ExecPolicy::Threads(THREADS)),
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

fn untraced(ctx: &Ctx, out: &mut Outcome, c: &Campaign) -> Result<(), String> {
    // One operation is one campaign cell: `detection_rate` for one attack,
    // cycling SBA, GDA, random; cycle `r` draws its trials from seed `r`.
    let mut walls = Vec::new();
    let mut walls_by_attack = vec![Vec::new(); c.attacks.len()];
    let mut detected = [0usize; 3];
    let mut rate_trials = [0usize; 3];
    let mut first = vec![DetectionReport::default(); c.attacks.len()];
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds || op < MIN_OPS.max(3 * RATE_ROUNDS) {
        let (a, round) = (op % c.attacks.len(), op / c.attacks.len());
        let (_, attack, n) = &c.attacks[a];
        let cfg = config(ctx.seed, round, *n, ExecPolicy::Threads(THREADS));
        let t = Instant::now();
        out.attempted += 1;
        match detection_rate(&c.network, attack.as_ref(), &c.probes, &c.tests, &cfg) {
            Ok(r) => {
                walls.push(ms(t.elapsed()));
                walls_by_attack[a].push(ms(t.elapsed()));
                if round < RATE_ROUNDS {
                    detected[a] += r.detected;
                    rate_trials[a] += r.trials;
                }
                if round == 0 {
                    first[a] = r;
                }
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("cell {op} failed: {e}"));
            }
        }
        op += 1;
    }
    // The threaded reports must equal a serial run of the same cells.
    let serial: Result<Vec<DetectionReport>, String> = c
        .attacks
        .iter()
        .map(|(_, attack, n)| {
            detection_rate(
                &c.network,
                attack.as_ref(),
                &c.probes,
                &c.tests,
                &config(ctx.seed, 0, *n, ExecPolicy::Serial),
            )
            .map_err(|e| e.to_string())
        })
        .collect();
    out.check("threaded reports equal the serial replay", serial? == first);
    // Rate at each attack's median cell time: a neighbour's burst on the
    // shared host moves a mean, not a median.
    if walls_by_attack.iter().any(Vec::is_empty) {
        return Err("an attack completed no detection cell".to_string());
    }
    let cycle_s: f64 = walls_by_attack.iter().map(|w| median(w) / 1e3).sum();
    let cycle_trials: usize = c.attacks.iter().map(|(_, _, n)| n).sum();
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len(), 10).unwrap_or(50);
    out.set("cell_p50_ms", nearest_rank(&sorted, 50.0), "ms");
    out.set("cell_tail_ms", nearest_rank(&sorted, f64::from(p)), "ms");
    out.note(format!("cell_tail_ms is p{p} of {} cells", sorted.len()));
    out.set("trials_per_s", cycle_trials as f64 / cycle_s, "1/s");
    let rates: Vec<f64> = (0..3)
        .map(|a| detected[a] as f64 / rate_trials[a].max(1) as f64)
        .collect();
    for (a, (name, _, _)) in c.attacks.iter().enumerate() {
        out.set(format!("detection_{name}"), rates[a], "fraction");
    }
    out.set("detection_mean", mean(&rates), "fraction");
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
    );
    out.end_to_end("trials_per_s", "detection_mean");
    Ok(())
}

/// One attack's trials replayed serially, each call in a layer span; returns
/// the same report `detection_rate` computes.
fn replay(
    rec: &mut Recorder,
    c: &Campaign,
    attack: &dyn Attack,
    cfg: &DetectionConfig,
    first_id: u64,
    reference_calls: &mut usize,
) -> Result<DetectionReport, String> {
    let err = |e: dnnip_faults::FaultError| e.to_string();
    let golden = golden_outputs(&FloatIp::new((*c.network).clone()), &c.tests).map_err(err)?;
    let predictions: Vec<usize> = c
        .probes
        .iter()
        .map(|p| c.network.predict_sample(p))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut report = DetectionReport {
        trials: cfg.trials,
        ..DetectionReport::default()
    };
    for trial in 0..cfg.trials as u64 {
        let id = first_id + trial;
        let root = rec.begin("trial", id);
        let mut rng = StdRng::seed_from_u64(trial_seed(cfg.seed, trial));
        let perturbation = rec
            .span("faults.attack", id, || {
                attack.generate(&c.network, &c.probes, &mut rng)
            })
            .map_err(err)?;
        let (tampered, ip) = rec
            .span("faults.apply", id, || {
                perturbation.apply_to_network(&c.network).map(|t| {
                    let ip = FloatIp::new(t.clone());
                    (t, ip)
                })
            })
            .map_err(err)?;
        let detected = rec
            .span("faults.check", id, || {
                is_detected(&ip, &c.tests, &golden, cfg.policy)
            })
            .map_err(err)?;
        let effective = rec.span("nn.reference", id, || {
            c.probes.iter().zip(&predictions).any(|(p, &pred)| {
                *reference_calls += 1;
                tampered
                    .predict_sample(p)
                    .map(|q| q != pred)
                    .unwrap_or(false)
            })
        });
        rec.end(root);
        report.detected += usize::from(detected);
        report.effective += usize::from(effective);
    }
    Ok(report)
}

fn traced(ctx: &Ctx, out: &mut Outcome, c: &Campaign) -> Result<(), String> {
    let mut rec = Recorder::new();
    let mut same = true;
    let mut next_id = 0u64;
    let mut reference_calls = 0usize;
    let (mut traced_s, mut serial_s) = (0.0, 0.0);
    let mut attack_ms: Vec<Vec<f64>> = vec![Vec::new(); c.attacks.len()];
    let mut effective = vec![(0usize, 0usize); c.attacks.len()];
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds || round == 0 {
        out.attempted += 1;
        let threaded = threaded_round(c, ctx.seed, round)?;
        for (a, (_, attack, n)) in c.attacks.iter().enumerate() {
            let cfg = config(ctx.seed, round, *n, ExecPolicy::Serial);
            let t = Instant::now();
            detection_rate(&c.network, attack.as_ref(), &c.probes, &c.tests, &cfg)
                .map_err(|e| e.to_string())?;
            serial_s += t.elapsed().as_secs_f64();
            let spans_before = rec.spans().len();
            let t = Instant::now();
            let report = replay(
                &mut rec,
                c,
                attack.as_ref(),
                &cfg,
                next_id,
                &mut reference_calls,
            )?;
            traced_s += t.elapsed().as_secs_f64();
            next_id += *n as u64;
            same &= report == threaded[a];
            attack_ms[a].extend(
                durations(&rec.spans()[spans_before..], "faults.attack")
                    .iter()
                    .map(|&d| d as f64 / 1e6),
            );
            effective[a].0 += report.effective;
            effective[a].1 += report.trials;
        }
        round += 1;
    }
    out.check("threaded reports equal the serial traced replay", same);
    for (a, (name, _, _)) in c.attacks.iter().enumerate() {
        out.set(
            format!("faults.{name}.attack_ms"),
            mean(&attack_ms[a]),
            "ms",
        );
        out.set(
            format!("faults.{name}.effective_rate"),
            effective[a].0 as f64 / effective[a].1.max(1) as f64,
            "fraction",
        );
    }
    let spans = rec.spans();
    let times = self_times(spans);
    let trials = times.get("trial").map(|t| t.calls).unwrap_or(1).max(1) as f64;
    let root_ns = times.get("trial").map(|t| t.total_ns).unwrap_or(1).max(1) as f64;
    for (name, t) in &times {
        if *name != "trial" {
            out.set(
                format!("self_share.{name}"),
                t.self_ns as f64 / root_ns,
                "fraction",
            );
        }
    }
    let total_us = |name: &str| {
        times
            .get(name)
            .map(|t| t.total_ns as f64 / 1e3)
            .unwrap_or(0.0)
    };
    out.set("faults.apply_us", total_us("faults.apply") / trials, "us");
    out.set("faults.check_us", total_us("faults.check") / trials, "us");
    out.set(
        "nn.reference_forward_us",
        total_us("nn.reference") / reference_calls.max(1) as f64,
        "us",
    );
    let coverage = root_coverage(spans, "trial");
    out.set(
        "trace.coverage",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
        "fraction",
    );
    out.set("trace.overhead", traced_s / serial_s, "ratio");
    out.note(format!(
        "traced {} rounds, {} trials",
        round,
        coverage.len()
    ));
    Ok(())
}
