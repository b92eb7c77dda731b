//! `vendor-suite`: the paper's own flow as a closed loop with one client.
//!
//! Each suite runs `Workspace::run(Combined, param-gradient)` on a fresh
//! candidate pool, packages it with `FunctionalTestSuite::from_evaluator` and
//! validates it on the delivered `AcceleratorIp` (int8). The workspace keeps
//! its disk tier on in a run-private directory, as the vendor binaries do.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dnnip_accel::ip::AcceleratorIp;
use dnnip_accel::quant::BitWidth;
use dnnip_bench::{prepare_cifar, ExperimentProfile};
use dnnip_core::combined::TestSource;
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::covered::CoveredSet;
use dnnip_core::eval::Evaluator;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::GradGenConfig;
use dnnip_core::par::ExecPolicy;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_core::select::greedy_select_covered;
use dnnip_core::workspace::{DiskCacheConfig, TestGenRequest, Workspace, WorkspaceConfig};
use dnnip_dataset::objects::{synthetic_cifar, ObjectConfig};
use dnnip_faults::detection::MatchPolicy;
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;

use crate::layers::{engine_probe, kernel_probe, median_time};
use crate::stats::{child_seed, mean, median, nearest_rank, tail_percentile};
use crate::trace::{root_coverage, self_times, Recorder};
use crate::{ms, us, Ctx, Outcome};

/// The IP under test is one fixed model: the seed varies the workload's
/// inputs (candidate pools, synthesis seeds), not the model.
pub const MODEL_SEED: u64 = 11;
/// Candidate pool per suite (the smoke profile's pool size).
pub const POOL: usize = 60;
/// Tests per suite.
pub const BUDGET: usize = 20;
/// Suites needed before the tail percentile has 10 samples beyond the median.
const MIN_SUITES: usize = 20;
/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 3;
/// Fresh pools the traced run spends on the tier-on versus tier-off probe.
const PERSIST_POOLS: usize = 4;

/// The vendor's trained model and the IP it delivers.
pub struct VendorModel {
    /// The deployed parameters: the trained network round-tripped through
    /// the int8 weight memory, so the golden outputs are the IP's own.
    pub network: Arc<Network>,
    pub coverage: CoverageConfig,
    pub ip: AcceleratorIp,
    /// The training set (the fault campaign's probes and pool come from it).
    pub dataset: Vec<Tensor>,
}

impl VendorModel {
    /// Train the cifar-scaled ReLU model at the smoke profile.
    pub fn build() -> Self {
        let prepared = prepare_cifar(ExperimentProfile::Smoke, MODEL_SEED);
        let deployed = AcceleratorIp::from_network(&prepared.network, BitWidth::Int8)
            .effective_network()
            .expect("memory image matches the architecture");
        let ip = AcceleratorIp::from_network(&deployed, BitWidth::Int8);
        Self {
            network: Arc::new(deployed),
            coverage: prepared.coverage,
            ip,
            dataset: prepared.dataset.inputs,
        }
    }
}

/// Build the model `SETUPS` times, returning the last one, the median set-up
/// time and whether every build produced the same parameters.
pub fn setup_model() -> (VendorModel, f64, bool) {
    let mut times = Vec::new();
    let mut prints = Vec::new();
    let mut model = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let m = VendorModel::build();
        times.push(t.elapsed().as_secs_f64());
        prints.push(NetworkFingerprint::of(&m.network));
        model = Some(m);
    }
    let same = prints.windows(2).all(|w| w[0] == w[1]);
    (model.expect("SETUPS > 0"), median(&times), same)
}

pub fn workspace_at(dir: &Path) -> Workspace {
    Workspace::with_config(WorkspaceConfig {
        disk: DiskCacheConfig::at(dir),
        ..WorkspaceConfig::default()
    })
}

/// Suite `i`'s fresh candidate pool.
fn pool(seed: u64, i: usize) -> Vec<Tensor> {
    synthetic_cifar(
        &ObjectConfig::with_size(16),
        POOL,
        child_seed(seed, i as u64),
    )
    .inputs
}

fn gradgen(seed: u64, i: usize) -> GradGenConfig {
    GradGenConfig {
        exec: ExecPolicy::auto(),
        seed: child_seed(seed ^ 0x67, i as u64),
        ..GradGenConfig::default()
    }
}

fn request(
    model: NetworkFingerprint,
    seed: u64,
    i: usize,
    candidates: Vec<Tensor>,
) -> TestGenRequest {
    TestGenRequest::new(model, GenerationMethod::Combined, BUDGET)
        .with_gradgen(gradgen(seed, i))
        .with_candidates(candidates)
}

/// One whole suite, untraced: generate, package, validate.
struct SuiteResult {
    wall: Duration,
    coverage: f32,
    passed: bool,
    selected: Vec<usize>,
    curve: Vec<f32>,
    synthetic: usize,
}

fn run_suite(
    ws: &Workspace,
    evaluator: &Evaluator,
    ip: &AcceleratorIp,
    req: &TestGenRequest,
) -> Result<SuiteResult, String> {
    let t = Instant::now();
    let report = ws.run(req).map_err(|e| e.to_string())?;
    let suite = FunctionalTestSuite::from_evaluator(
        evaluator,
        report.tests.inputs.clone(),
        MatchPolicy::ArgMax,
    )
    .map_err(|e| e.to_string())?;
    let verdict = suite.validate(ip).map_err(|e| e.to_string())?;
    let wall = t.elapsed();
    Ok(SuiteResult {
        wall,
        coverage: report.final_coverage(),
        passed: verdict.passed,
        selected: report.selected_indices(),
        curve: report.tests.coverage_curve.clone(),
        synthetic: report
            .tests
            .provenance
            .iter()
            .filter(|s| matches!(s, TestSource::Synthetic(_)))
            .count(),
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (model, setup_s, same) = setup_model();
    out.check("set-up builds identical models", same);
    out.set("setup_s", setup_s, "s");
    let ws = workspace_at(&ctx.run_dir.join("cache"));
    let fp = ws.register("cifar-scaled", Arc::clone(&model.network), model.coverage);
    let evaluator = ws.default_evaluator(fp).map_err(|e| e.to_string())?;
    out.note(format!(
        "model cifar-scaled: {} parameters, {} units, pool {POOL}, budget {BUDGET}",
        model.network.num_parameters(),
        evaluator.num_units()
    ));
    if ctx.trace {
        traced(ctx, &mut out, &model, &ws, &evaluator)?;
    } else {
        untraced(ctx, &mut out, &model, &ws, fp, &evaluator)?;
    }
    Ok(out)
}

/// Stop before the shared memory budget could start evicting: the next
/// suite's worst-case growth must still fit.
fn budget_allows_another(ws: &Workspace, worst_growth: usize) -> bool {
    let stats = ws.cache_stats();
    stats.bytes + 2 * worst_growth < stats.max_bytes
}

fn untraced(
    ctx: &Ctx,
    out: &mut Outcome,
    model: &VendorModel,
    ws: &Workspace,
    fp: NetworkFingerprint,
    evaluator: &Evaluator,
) -> Result<(), String> {
    let mut walls = Vec::new();
    let mut coverages = Vec::new();
    let mut all_passed = true;
    let mut worst_growth = 0usize;
    let start = Instant::now();
    let mut i = 0;
    while (start.elapsed().as_secs_f64() < ctx.seconds || walls.len() < MIN_SUITES)
        && budget_allows_another(ws, worst_growth)
    {
        let req = request(fp, ctx.seed, i, pool(ctx.seed, i));
        let before = ws.cache_stats().bytes;
        out.attempted += 1;
        match run_suite(ws, evaluator, &model.ip, &req) {
            Ok(r) => {
                walls.push(ms(r.wall));
                coverages.push(f64::from(r.coverage));
                all_passed &= r.passed;
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("suite {i} failed: {e}"));
            }
        }
        worst_growth = worst_growth.max(ws.cache_stats().bytes.saturating_sub(before));
        i += 1;
    }
    let stats = ws.cache_stats();
    out.check("every suite passes validate on the clean IP", all_passed);
    out.check(
        "covered sets stay under the memory budget (no eviction)",
        stats.evictions == 0,
    );
    out.check(
        "enough suites for a tail percentile",
        walls.len() >= MIN_SUITES,
    );
    suite_metrics(out, &walls, &coverages);
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
    );
    out.end_to_end("suites_per_s", "suite_coverage");
    Ok(())
}

fn suite_metrics(out: &mut Outcome, walls: &[f64], coverages: &[f64]) {
    if walls.is_empty() {
        return;
    }
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len(), 10).unwrap_or(50);
    out.set("suite_p50_ms", nearest_rank(&sorted, 50.0), "ms");
    out.set("suite_tail_ms", nearest_rank(&sorted, f64::from(p)), "ms");
    out.note(format!("suite_tail_ms is p{p} of {} suites", sorted.len()));
    // Rate at the median suite time: a neighbour's burst on the shared host
    // moves a mean, not a median.
    out.set("suites_per_s", 1e3 / nearest_rank(&sorted, 50.0), "1/s");
    out.set("suite_coverage", mean(coverages), "fraction");
}

/// One suite decomposed into the public calls `generate_combined` and
/// `generate_tests` make, in their order, each inside a layer span.
struct Decomposed {
    inputs: Vec<Tensor>,
    sources: Vec<TestSource>,
    curve: Vec<f32>,
    candidate_sets: Vec<Arc<CoveredSet>>,
}

fn decompose(
    rec: &mut Recorder,
    id: u64,
    evaluator: &Evaluator,
    candidates: &[Tensor],
    config: GradGenConfig,
) -> Result<Decomposed, String> {
    let err = |e: dnnip_core::CoreError| e.to_string();
    let num_units = evaluator.num_units();
    let candidate_sets = rec
        .span("core.eval", id, || evaluator.activation_sets(candidates))
        .map_err(err)?;
    let mut generator = rec.span("core.gradgen", id, || evaluator.gradient_generator(config));
    let mut taken = vec![false; candidates.len()];
    let mut covered = CoveredSet::new(num_units);
    let mut inputs = Vec::new();
    let mut sources = Vec::new();
    let mut pending: Vec<(Tensor, usize, Arc<CoveredSet>)> = Vec::new();
    let mut switched = false;
    let mut materialize =
        |rec: &mut Recorder| -> Result<Vec<(Tensor, usize, Arc<CoveredSet>)>, String> {
            let batch = rec
                .span("core.gradgen", id, || generator.generate_batch())
                .map_err(err)?;
            let batch_inputs: Vec<Tensor> = batch.iter().map(|t| t.input.clone()).collect();
            let sets = rec
                .span("core.eval", id, || evaluator.activation_sets(&batch_inputs))
                .map_err(err)?;
            Ok(batch
                .into_iter()
                .zip(sets)
                .map(|(t, s)| (t.input, t.target_class, s))
                .collect())
        };
    while inputs.len() < BUDGET {
        if switched {
            if pending.is_empty() {
                pending = materialize(rec)?;
            }
            let (input, class, set) = pending.remove(0);
            rec.span("core.select", id, || covered.union_with(&set));
            inputs.push(input);
            sources.push(TestSource::Synthetic(class));
            continue;
        }
        let sel = rec.begin("core.select", id);
        let mut best: Option<(usize, usize)> = None;
        for (i, set) in candidate_sets.iter().enumerate() {
            if taken[i] {
                continue;
            }
            let gain = covered.union_gain(set);
            if best.map(|(g, _)| gain > g).unwrap_or(true) {
                best = Some((gain, i));
            }
        }
        rec.end(sel);
        let train_gain = best.map(|(g, _)| g).unwrap_or(0);
        if pending.is_empty() {
            pending = materialize(rec)?;
        }
        let sel = rec.begin("core.select", id);
        let mut union = covered.clone();
        let mut total = 0usize;
        for (_, _, set) in &pending {
            total += union.union_gain(set);
            union.union_with(set);
        }
        let per_test = total / pending.len().max(1);
        if best.is_none() || per_test > train_gain {
            switched = true;
            rec.end(sel);
            continue;
        }
        let (_, index) = best.expect("checked above");
        taken[index] = true;
        covered.union_with(&candidate_sets[index]);
        rec.end(sel);
        inputs.push(candidates[index].clone());
        sources.push(TestSource::TrainingSample(index));
    }
    // `generate_tests` re-derives the curve from the final inputs.
    let sets = rec
        .span("core.eval", id, || evaluator.activation_sets(&inputs))
        .map_err(err)?;
    let curve = rec.span("core.curve", id, || {
        let mut acc = CoveredSet::new(num_units);
        sets.iter()
            .map(|s| {
                acc.union_with(s);
                acc.density()
            })
            .collect::<Vec<f32>>()
    });
    Ok(Decomposed {
        inputs,
        sources,
        curve,
        candidate_sets,
    })
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    model: &VendorModel,
    ws: &Workspace,
    evaluator: &Evaluator,
) -> Result<(), String> {
    // The untraced twin runs the same requests in a workspace of its own
    // (own disk tier), for the bit-identity check and the overhead ratio.
    let twin = workspace_at(&ctx.run_dir.join("twin"));
    let twin_fp = twin.register("cifar-scaled", Arc::clone(&model.network), model.coverage);
    let twin_eval = twin.default_evaluator(twin_fp).map_err(|e| e.to_string())?;
    let mut rec = Recorder::new();
    let mut identical = true;
    let mut all_passed = true;
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut greedy_us, mut greedy_steps) = (Vec::new(), Vec::new());
    let (mut tests, mut synthetic) = (0usize, 0usize);
    let mut pools = Vec::new();
    let before = ws.cache_stats();
    let disk_before = ws.disk_stats().unwrap_or_default();
    let start = Instant::now();
    let mut i = 0;
    // A traced suite adds at most ~0.5 MiB of covered sets; 2 MiB of
    // headroom keeps the probes below out of eviction too.
    while (start.elapsed().as_secs_f64() < ctx.seconds || i < 4)
        && budget_allows_another(ws, 2 << 20)
    {
        let candidates = pool(ctx.seed, i);
        let id = i as u64;
        out.attempted += 1;
        let root = rec.begin("suite", id);
        let d = decompose(&mut rec, id, evaluator, &candidates, gradgen(ctx.seed, i))?;
        let suite = rec
            .span("core.protocol", id, || {
                FunctionalTestSuite::from_evaluator(
                    evaluator,
                    d.inputs.clone(),
                    MatchPolicy::ArgMax,
                )
            })
            .map_err(|e| e.to_string())?;
        let verdict = rec
            .span("accel", id, || suite.validate(&model.ip))
            .map_err(|e| e.to_string())?;
        rec.end(root);
        traced_ms.push(rec.spans()[root].duration() as f64 / 1e6);
        all_passed &= verdict.passed;
        tests += d.inputs.len();
        synthetic += d
            .sources
            .iter()
            .filter(|s| matches!(s, TestSource::Synthetic(_)))
            .count();

        let twin_req = request(twin_fp, ctx.seed, i, candidates.clone());
        let r = run_suite(&twin, &twin_eval, &model.ip, &twin_req)?;
        untraced_ms.push(ms(r.wall));
        let pool_indices: Vec<usize> = d
            .sources
            .iter()
            .filter_map(|s| match s {
                TestSource::TrainingSample(i) => Some(*i),
                TestSource::Synthetic(_) => None,
            })
            .collect();
        let same_curve = r.curve.len() == d.curve.len()
            && r.curve
                .iter()
                .zip(&d.curve)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if pool_indices != r.selected || !same_curve || r.synthetic != synthetic_of(&d.sources) {
            identical = false;
            out.note(format!(
                "suite {i}: traced decomposition differs from Workspace::run"
            ));
        }

        let t = Instant::now();
        let sel = greedy_select_covered(&d.candidate_sets, evaluator.num_units(), BUDGET)
            .map_err(|e| e.to_string())?;
        greedy_us.push(us(t.elapsed()));
        greedy_steps.push(sel.selected.len() as f64);
        pools.push(candidates);
        i += 1;
    }
    let after = ws.cache_stats();
    out.check("every suite passes validate on the clean IP", all_passed);
    out.check(
        "traced decomposition reproduces Workspace::run bit for bit",
        identical,
    );
    out.check(
        "covered sets stay under the memory budget (no eviction)",
        after.evictions == 0,
    );

    let spans = rec.spans();
    let times = self_times(spans);
    let root_ns = times.get("suite").map(|t| t.total_ns).unwrap_or(1).max(1) as f64;
    for (name, t) in &times {
        if *name != "suite" {
            out.set(
                format!("self_share.{name}"),
                t.self_ns as f64 / root_ns,
                "fraction",
            );
        }
    }
    let per_test = |name: &str, n: usize| {
        times
            .get(name)
            .map(|t| t.total_ns as f64 / 1e3 / n.max(1) as f64)
            .unwrap_or(0.0)
    };
    out.set(
        "gradgen.us_per_test",
        per_test("core.gradgen", synthetic),
        "us",
    );
    out.set(
        "gradgen.synthetic_share",
        synthetic as f64 / tests.max(1) as f64,
        "fraction",
    );
    out.set(
        "protocol.golden_us_per_test",
        per_test("core.protocol", tests),
        "us",
    );
    out.set("accel.validate_us_per_test", per_test("accel", tests), "us");
    out.set("select.greedy_us", mean(&greedy_us), "us");
    out.set("select.steps", mean(&greedy_steps), "count");
    let lookups = (after.hits + after.misses).saturating_sub(before.hits + before.misses);
    out.set(
        "cache.hit_rate",
        (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        "fraction",
    );
    out.set(
        "cache.flight_hits",
        (after.flight_hits - before.flight_hits) as f64,
        "count",
    );
    out.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    out.set("cache.resident_bytes", after.resident_bytes as f64, "bytes");
    out.set(
        "cache.compression_ratio",
        after.compression_ratio(),
        "ratio",
    );
    let disk_after = ws.disk_stats().unwrap_or_default();
    out.set(
        "persist.writes",
        (disk_after.writes - disk_before.writes) as f64,
        "count",
    );
    out.set(
        "persist.bytes_on_disk",
        dir_bytes(&ctx.run_dir.join("cache")) as f64,
        "bytes",
    );
    let coverage = root_coverage(spans, "suite");
    out.set(
        "trace.coverage",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
        "fraction",
    );
    out.set(
        "trace.overhead",
        median(&traced_ms) / median(&untraced_ms),
        "ratio",
    );
    out.note(format!(
        "traced {} suites; layer spans cover min {:.4} / mean {:.4} of each suite's wall time",
        coverage.len(),
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
        mean(&coverage)
    ));

    // Cache and persist tiers on fresh pools: cold with the tier on versus
    // off (alternating which goes first), then memory-warm, then disk-warm
    // after the memory tier is cleared.
    let off = Workspace::with_config(WorkspaceConfig::default());
    let off_fp = off.register("cifar-scaled", Arc::clone(&model.network), model.coverage);
    let off_eval = off.default_evaluator(off_fp).map_err(|e| e.to_string())?;
    let timed = |e: &Evaluator, samples: &[Tensor]| -> Result<Duration, String> {
        let t = Instant::now();
        e.activation_sets(samples).map_err(|e| e.to_string())?;
        Ok(t.elapsed())
    };
    let writes_before = ws.disk_stats().unwrap_or_default().writes;
    let (mut cold_on, mut cold_off) = (Duration::ZERO, Duration::ZERO);
    let mut fresh = Vec::new();
    for k in 0..PERSIST_POOLS {
        fresh = pool(ctx.seed ^ 0x5eed, (1 << 20) + k);
        if k % 2 == 0 {
            cold_on += timed(evaluator, &fresh)?;
            cold_off += timed(&off_eval, &fresh)?;
        } else {
            cold_off += timed(&off_eval, &fresh)?;
            cold_on += timed(evaluator, &fresh)?;
        }
    }
    let writes = ws.disk_stats().unwrap_or_default().writes - writes_before;
    let warm = median_time(5, || evaluator.activation_sets(&fresh).expect("cached"));
    ws.clear_memory_cache();
    let disk_warm = timed(evaluator, &fresh)?;
    let n = fresh.len() as f64;
    out.set("cache.hit_us_per_sample", us(warm) / n, "us");
    out.set(
        "persist.write_us_per_entry",
        us(cold_on.saturating_sub(cold_off)) / writes.max(1) as f64,
        "us",
    );
    out.set("persist.hit_us_per_sample", us(disk_warm) / n, "us");

    let chunk = &pools[0][..16];
    kernel_probe(out, &model.network, chunk);
    engine_probe(out, Arc::clone(&model.network), &model.coverage, chunk);
    Ok(())
}

fn synthetic_of(sources: &[TestSource]) -> usize {
    sources
        .iter()
        .filter(|s| matches!(s, TestSource::Synthetic(_)))
        .count()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
