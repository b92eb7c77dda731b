//! `serve-mixed`: an open loop against the shipped `dnnip-serve --workers 2`
//! binary, everything else at defaults (coalescing off, disk tier on in a
//! fresh directory).
//!
//! One process drives one connection (the server's stdin/stdout pipes): the
//! main thread sends each request when it falls due on a seeded Poisson
//! schedule and a reader thread timestamps the responses. The mix covers all
//! five builtin models, three criteria and three strategies; pool seeds are
//! Zipf-distributed over a large seed space so the memory hit rate stays
//! partial. One phase runs at a fixed nominal rate, the other searches a
//! fixed geometric ladder of rates, entered near the capacity the nominal
//! phase implies; each starts from a fresh server and cache directory and
//! discards a warm-up prefix.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dnnip_core::coverage::CoverageConfig;
use dnnip_core::criterion::criterion_from_spec;
use dnnip_core::workspace::{TestGenRequest, Workspace, WorkspaceConfig};
use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_serve::json::Json;
use dnnip_serve::protocol::{
    build_graph_model, build_model, parse_request, RequestOp, BUILTIN_GRAPH_MODELS, BUILTIN_MODELS,
};

use crate::layers::{engine_probe, kernel_probe, median_time};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stats::{
    child_seed, highest_passing, ladder_entry, ladder_rates, latency_from_due_ms, mean, median,
    nearest_rank, next_ladder_index, poisson_schedule, LadderStep, Zipf,
};
use crate::trace::{root_coverage, self_times, Recorder};
use crate::vendor::dir_bytes;
use crate::{us, Ctx, Outcome};

/// Worker threads of the server under test.
const WORKERS: usize = 2;
/// Offered rate of the nominal phase, requests per second: a quarter of the
/// goodput this mix first reached on the recording host (see
/// `PREDICTIONS.md`), so the phase measures latency below saturation.
const NOMINAL_RPS: f64 = 170.0;
/// Share of `--seconds` spent in the nominal phase (the ladder gets the rest).
const NOMINAL_SHARE: f64 = 0.2;
/// Requests due in this leading part of the nominal phase are not measured.
const WARMUP_S: f64 = 1.0;
/// The ladder: `LADDER_STEPS` rates from `LADDER_BASE_RPS` apart by
/// `LADDER_RATIO` (< 1.1), about 20 to 2,500 req/s, and the length of one
/// step.
const LADDER_BASE_RPS: f64 = 20.0;
const LADDER_STEPS: usize = 64;
const LADDER_RATIO: f64 = 1.08;
const LADDER_STEP_S: f64 = 3.0;
/// Length of the unscored priming step that precedes the search.
const PRIME_S: f64 = 1.5;
/// Unscored leading part of every ladder step.
const LADDER_WARMUP_S: f64 = 0.5;
/// A ladder step passes when its p99 (and its drain) stay within this.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// Every request's deadline, the one `load_gen`'s deadline-carrying burst
/// requests use: far above the latency limit, so a deadline miss means the
/// service collapsed, not that the ladder probed past capacity.
const DEADLINE_MS: u64 = 5000;
/// Pool seeds: Zipf over this many ranks. With this exponent the nominal
/// phase's memory hit rate is about 0.40, the partial rate an earlier
/// backlog probe of mixed traffic saw (see `PREDICTIONS.md`).
const SEED_SPACE: usize = 100_000;
const ZIPF_S: f64 = 1.1;
/// Seed of the pool behind Zipf rank 0 (rank `r` uses this plus `r`).
const POOL_SEED_BASE: u64 = 0x900D_5EED;
/// Pool size of the layer probes: the largest pool the mix sends.
const POOL_SIZE: usize = 16;
/// How long a phase waits for stragglers after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// The request mix is the one `load_gen`, the repository's serve load
/// harness, drives: every builtin model, criterion and strategy equally
/// likely, 8-, 12- or 16-sample synthetic pools, budgets 2 to 4 and two
/// gradgen steps. Added to it: the `residual` graph model (forward-only
/// criteria, and the selection strategies only: the graph path refuses
/// `combined`), a `deadline_ms` on every request and Zipf-drawn pool seeds.
const CRITERIA: [&str; 3] = ["param-gradient", "neuron-activation:0.25", "topk-neuron:2"];
const GRAPH_CRITERIA: [&str; 2] = ["neuron-activation:0.25", "topk-neuron:2"];
const STRATEGIES: [&str; 3] = ["training-set-selection", "random-selection", "combined"];
/// Deck entries per model: a multiple of every model's number of
/// criterion × strategy combinations (9 for a network, 4 for a graph).
const DECK_PER_MODEL: usize = 36;

/// Deals request bodies. Model, criterion and strategy come from a
/// shuffled deck that holds each combination exactly as often as the
/// uniform mix draws it, so every 180 requests carry the mix's proportions:
/// a short ladder step then gets the same share of the heavy
/// `mnist-scaled` × `combined` requests whatever the seed. Pool size, budget
/// and pool seed are drawn per request.
struct Mix {
    rng: StdRng,
    zipf: Zipf,
    deck: Vec<(&'static str, &'static str, &'static str)>,
    next: usize,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let models = BUILTIN_MODELS
            .iter()
            .map(|&m| (m, &CRITERIA[..], &STRATEGIES[..]))
            .chain(
                BUILTIN_GRAPH_MODELS
                    .iter()
                    .map(|&m| (m, &GRAPH_CRITERIA[..], &STRATEGIES[..2])),
            );
        let mut deck = Vec::new();
        for (model, criteria, strategies) in models {
            let copies = DECK_PER_MODEL / (criteria.len() * strategies.len());
            for &criterion in criteria {
                for &strategy in strategies {
                    deck.extend(std::iter::repeat_n((model, criterion, strategy), copies));
                }
            }
        }
        let next = deck.len();
        Self {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(SEED_SPACE, ZIPF_S),
            deck,
            next,
        }
    }

    /// The next request body (everything but the id).
    fn deal(&mut self) -> String {
        if self.next == self.deck.len() {
            self.deck.shuffle(&mut self.rng);
            self.next = 0;
        }
        let (model, criterion, strategy) = self.deck[self.next];
        self.next += 1;
        let rng = &mut self.rng;
        let pool_size = 8 + 4 * rng.gen_range(0..3usize);
        let budget = rng.gen_range(2..=4usize);
        // The pool behind each Zipf rank is fixed, like a shared dataset:
        // the seed decides which ranks are drawn and when, not what rank 0
        // holds.
        let pool_seed = POOL_SEED_BASE + self.zipf.sample(rng) as u64;
        let req_seed = rng.gen_range(0..1000u64);
        format!(
            "\"op\":\"generate\",\"model\":\"{model}\",\"strategy\":\"{strategy}\",\"criterion\":\"{criterion}\",\
             \"budget\":{budget},\"seed\":{req_seed},\"gradgen_steps\":2,\
             \"pool\":{{\"synthetic\":{pool_size},\"seed\":{pool_seed}}},\"deadline_ms\":{DEADLINE_MS}"
        )
    }

    /// The schedule of one phase or ladder step: Poisson arrivals at `rate`
    /// for `duration_s`, unmeasured before `warmup_s`.
    fn plan(&mut self, rate: f64, duration_s: f64, warmup_s: f64) -> Vec<Planned> {
        poisson_schedule(rate, duration_s, &mut self.rng)
            .into_iter()
            .map(|due| Planned {
                due,
                body: self.deal(),
                measured: due >= warmup_s,
            })
            .collect()
    }
}

/// One planned request: its due offset within its step and its body.
#[derive(Debug, Clone)]
struct Planned {
    due: f64,
    body: String,
    measured: bool,
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
struct Observed {
    due: f64,
    sent: f64,
    latency_ms: Option<f64>,
    response: Option<Json>,
    measured: bool,
}

impl Observed {
    fn ok(&self) -> bool {
        self.response
            .as_ref()
            .and_then(|r| r.get("ok"))
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }
}

/// A running `dnnip-serve` child on its own fresh cache directory.
struct Server {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    responses: mpsc::Receiver<(Instant, String)>,
    received: Arc<AtomicUsize>,
    reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait until it answers a `models` request.
    fn start(bin: &Path, cache_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--workers", &WORKERS.to_string()])
            .env("DNNIP_CACHE_DIR", cache_dir)
            .env_remove("DNNIP_CACHE_PERSIST")
            .env_remove("DNNIP_CACHE_MAX_BYTES")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let stdin = BufWriter::new(child.stdin.take().expect("piped stdin"));
        let (tx, responses) = mpsc::channel();
        let received = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&received);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let now = Instant::now();
                counter.fetch_add(1, Ordering::SeqCst);
                if tx.send((now, line)).is_err() {
                    break;
                }
            }
        });
        let mut server = Self {
            child,
            stdin: Some(stdin),
            responses,
            received,
            reader: Some(reader),
        };
        let ready = server.call(r#"{"id":"ready","op":"models"}"#)?;
        if ready.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("server not ready: {ready}"));
        }
        Ok(server)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("server input already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("server pipe closed: {e}"))
    }

    /// A control request answered inline.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let (_, reply) = self
            .responses
            .recv_timeout(DRAIN_TIMEOUT)
            .map_err(|_| "server did not answer a control request".to_string())?;
        Json::parse(&reply).map_err(|e| format!("bad control reply: {e}"))
    }

    /// Send `plans` on schedule from `t0`, then collect every response (or
    /// give up after [`DRAIN_TIMEOUT`]). Returns the observations, the
    /// largest backlog seen at a send and the drain time after the last due
    /// time, in milliseconds.
    fn run(
        &mut self,
        plans: &[Planned],
        first_id: usize,
    ) -> Result<(Vec<Observed>, usize, f64), String> {
        let base = self.received.load(Ordering::SeqCst);
        let t0 = Instant::now();
        let mut observed: Vec<Observed> = plans
            .iter()
            .map(|p| Observed {
                due: p.due,
                sent: 0.0,
                latency_ms: None,
                response: None,
                measured: p.measured,
            })
            .collect();
        let mut backlog_max = 0usize;
        for (k, p) in plans.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(p.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let line = format!("{{\"id\":\"r{}\",{}}}", first_id + k, p.body);
            observed[k].sent = t0.elapsed().as_secs_f64();
            self.send(&line)?;
            let done = self.received.load(Ordering::SeqCst) - base;
            backlog_max = backlog_max.max(k + 1 - done.min(k + 1));
        }
        let last_due = plans.last().map(|p| p.due).unwrap_or(0.0);
        let mut pending = plans.len();
        let mut last_recv = 0.0f64;
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while pending > 0 {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            let Ok((at, line)) = self.responses.recv_timeout(give_up - now) else {
                break;
            };
            let Ok(json) = Json::parse(&line) else {
                continue;
            };
            let Some(k) = json
                .get("id")
                .and_then(Json::as_str)
                .and_then(|id| id.strip_prefix('r'))
                .and_then(|n| n.parse::<usize>().ok())
                .and_then(|n| n.checked_sub(first_id))
                .filter(|&k| k < plans.len())
            else {
                continue;
            };
            if observed[k].response.is_none() {
                let recv = at.saturating_duration_since(t0).as_secs_f64();
                last_recv = last_recv.max(recv);
                observed[k].latency_ms = Some(latency_from_due_ms(plans[k].due, recv));
                observed[k].response = Some(json);
                pending -= 1;
            }
        }
        Ok((observed, backlog_max, (last_recv - last_due).max(0.0) * 1e3))
    }

    /// Ask for the `stats` op, shut down and wait for the process to exit.
    fn finish(mut self) -> Result<Json, String> {
        let stats = self.call(r#"{"id":"stats","op":"stats"}"#)?;
        self.send(r#"{"id":"bye","op":"shutdown"}"#)?;
        self.close();
        Ok(stats)
    }

    fn close(&mut self) {
        // Closing stdin ends the service loop even if shutdown was not sent.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// A fresh server in a fresh cache directory, and how long it took to be
/// ready.
fn fresh_server(ctx: &Ctx, name: &str) -> Result<(Server, f64, std::path::PathBuf), String> {
    let dir = ctx.run_dir.join(name);
    let t = Instant::now();
    let server = Server::start(&ctx.serve_bin, &dir)?;
    Ok((server, t.elapsed().as_secs_f64(), dir))
}

/// Count a phase's sent, succeeded and failed requests into the outcome.
fn tally(out: &mut Outcome, phase: &str, obs: &[Observed]) {
    let ok = obs.iter().filter(|o| o.ok()).count();
    let failed = obs.len() - ok;
    out.attempted += obs.len() as u64;
    out.failed += failed as u64;
    out.note(format!(
        "phase {phase}: sent {} succeeded {ok} failed {failed}",
        obs.len()
    ));
}

/// The request body and response of every ok request, for [`verify`].
fn ok_answers<'a>(
    plans: &'a [Planned],
    obs: &'a [Observed],
) -> impl Iterator<Item = (String, Json)> + 'a {
    plans.iter().zip(obs).filter(|(_, o)| o.ok()).map(|(p, o)| {
        (
            p.body.clone(),
            o.response.clone().expect("ok has a response"),
        )
    })
}

fn sorted_latencies(obs: &[Observed]) -> Vec<f64> {
    let mut lat: Vec<f64> = obs
        .iter()
        .filter(|o| o.measured && o.ok())
        .filter_map(|o| o.latency_ms)
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut mix = Mix::new(child_seed(ctx.seed, 0x5e7e));
    // Set-up: a probe server answers `models` and shuts down; each phase then
    // starts its own. The reported set-up time is the median start-up.
    let mut setups = Vec::new();
    let (probe, t, _) = fresh_server(ctx, "probe")?;
    setups.push(t);
    probe.finish()?;

    let nominal_s = ctx.seconds * NOMINAL_SHARE;
    let plans = mix.plan(NOMINAL_RPS, nominal_s, WARMUP_S);
    let (mut server, t, nominal_dir) = fresh_server(ctx, "nominal")?;
    setups.push(t);
    let (nominal, backlog_max, _) = server.run(&plans, 0)?;
    let nominal_bytes = dir_bytes(&nominal_dir);
    let nominal_stats = server.finish()?;
    tally(&mut out, "nominal", &nominal);
    let mut answered: Vec<(String, Json)> = ok_answers(&plans, &nominal).collect();

    let lat = sorted_latencies(&nominal);
    if lat.is_empty() {
        return Err("no measured request succeeded in the nominal phase".to_string());
    }
    out.set("req_p50_ms", nearest_rank(&lat, 50.0), "ms");
    out.set("req_p99_ms", nearest_rank(&lat, 99.0), "ms");
    out.note(format!(
        "nominal phase: {NOMINAL_RPS} req/s for {nominal_s:.1} s, {} measured requests",
        lat.len()
    ));
    // Mean `final_coverage` of every ok response of the run: each is fixed by
    // its request, so this depends on the seeded requests alone.
    let served_coverage = |answered: &[(String, Json)]| {
        let coverage: Vec<f64> = answered
            .iter()
            .filter_map(|(_, r)| r.get("final_coverage")?.as_f64())
            .collect();
        mean(&coverage)
    };

    if !ctx.trace {
        // Every ladder step is a phase of its own: a fresh server and cache
        // directory, so each rate starts from the same cold state and the
        // cache warmth of one step never lends capacity to the next. The
        // search enters at the capacity the nominal phase implies: the
        // workers' throughput at its mean `wall_ms`.
        let ladder_s = ctx.seconds - nominal_s;
        let started = Instant::now();
        let rates = ladder_rates(LADDER_BASE_RPS, LADDER_RATIO, LADDER_STEPS);
        let wall: Vec<f64> = nominal
            .iter()
            .filter(|o| o.measured && o.ok())
            .filter_map(|o| o.response.as_ref()?.get("wall_ms")?.as_f64())
            .collect();
        let capacity = WORKERS as f64 * 1e3 / mean(&wall).max(1e-3);
        let entry = ladder_entry(&rates, capacity);
        out.note(format!(
            "ladder: entry {:.1} req/s from a mean wall_ms of {:.3} on {WORKERS} workers",
            rates[entry],
            mean(&wall)
        ));
        let mut steps = Vec::new();
        let mut probed = Vec::new();
        let mut first_id = plans.len();
        // An unscored priming step at the entry rate: on the recording host
        // the first loaded step after the light nominal phase ran slower,
        // and failed rates that later steps passed.
        let prime_plans = mix.plan(rates[entry], PRIME_S, PRIME_S);
        let (mut server, t, _) = fresh_server(ctx, "prime")?;
        setups.push(t);
        let (mut ladder_obs, _, _) = server.run(&prime_plans, first_id)?;
        server.finish()?;
        first_id += prime_plans.len();
        answered.extend(ok_answers(&prime_plans, &ladder_obs));
        while let Some(k) = next_ladder_index(&probed, entry, rates.len()) {
            // The time budget ends the search only once a step has passed:
            // a search cut short before that would read as a collapse.
            let out_of_time = started.elapsed().as_secs_f64() + LADDER_STEP_S > ladder_s;
            if out_of_time && probed.iter().any(|&(_, passed)| passed) {
                out.note("ladder: stopped by the time budget before the search ended");
                break;
            }
            let rate = rates[k];
            let step_plans = mix.plan(rate, LADDER_STEP_S, LADDER_WARMUP_S);
            let (mut server, t, _) = fresh_server(ctx, &format!("ladder-{k}"))?;
            setups.push(t);
            let (obs, _, drain_ms) = server.run(&step_plans, first_id)?;
            server.finish()?;
            first_id += step_plans.len();
            let lat = sorted_latencies(&obs);
            let ok = obs.iter().filter(|o| o.ok()).count();
            let step = LadderStep {
                rate,
                p99_ms: if lat.is_empty() {
                    f64::INFINITY
                } else {
                    nearest_rank(&lat, 99.0)
                },
                drain_ms,
                failures: obs.len() - ok,
                achieved_rps: ok as f64 / (LADDER_STEP_S + drain_ms / 1e3),
            };
            let passed = step.passes(LATENCY_LIMIT_MS);
            probed.push((k, passed));
            out.note(format!(
                "ladder {rate:.1} req/s (served {:.1}): p99 {:.2} ms, drain {:.2} ms, failures {} -> {}",
                step.achieved_rps,
                step.p99_ms,
                step.drain_ms,
                step.failures,
                if passed { "pass" } else { "fail" }
            ));
            steps.push(step);
            answered.extend(ok_answers(&step_plans, &obs));
            ladder_obs.extend(obs);
        }
        tally(&mut out, "ladder", &ladder_obs);
        // No passing step is a measurement, not a wrong output: the search
        // ends without a pass only when the ladder's lowest rate fails, so
        // the service's goodput reads 0.
        let best = highest_passing(&steps, LATENCY_LIMIT_MS);
        match best {
            Some(step) => out.note(format!(
                "goodput: the {:.1} req/s step, which served {:.1} req/s",
                step.rate, step.achieved_rps
            )),
            None => out.note("goodput: no ladder step met the latency limit"),
        }
        out.set(
            "goodput_rps",
            best.map(|s| s.achieved_rps).unwrap_or(0.0),
            "1/s",
        );
        out.set("setup_s", median(&setups), "s");
        let identical = verify(&answered, None)?;
        out.check(
            "every ok response matches an in-process Workspace::run",
            identical,
        );
        out.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            "fraction",
        );
        out.set("served_coverage", served_coverage(&answered), "fraction");
        out.end_to_end("goodput_rps", "served_coverage");
        return Ok(out);
    }

    // Traced: client-side decomposition of the nominal phase, then a serial
    // in-process replay of every answered request under layer spans.
    out.set("setup_s", median(&setups), "s");
    out.set("served_coverage", served_coverage(&answered), "fraction");
    let measured: Vec<&Observed> = nominal.iter().filter(|o| o.measured && o.ok()).collect();
    let wall: Vec<f64> = measured
        .iter()
        .filter_map(|o| o.response.as_ref()?.get("wall_ms")?.as_f64())
        .collect();
    let outside: Vec<f64> = measured
        .iter()
        .filter_map(|o| Some(o.latency_ms? - o.response.as_ref()?.get("wall_ms")?.as_f64()?))
        .collect();
    let lag: Vec<f64> = nominal.iter().map(|o| (o.sent - o.due) * 1e3).collect();
    let pct = |v: &[f64], p: f64| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        if s.is_empty() {
            0.0
        } else {
            nearest_rank(&s, p)
        }
    };
    out.set("serve.run_ms_p50", pct(&wall, 50.0), "ms");
    out.set("serve.run_ms_p99", pct(&wall, 99.0), "ms");
    out.set("serve.outside_run_ms_p50", pct(&outside, 50.0), "ms");
    out.set("serve.outside_run_ms_p99", pct(&outside, 99.0), "ms");
    out.set("serve.gen_lag_ms_p99", pct(&lag, 99.0), "ms");
    out.set("serve.backlog_max", backlog_max as f64, "count");
    let num = |path: &[&str]| -> f64 {
        let mut v = &nominal_stats;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    };
    let (hits, misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
    out.set(
        "cache.hit_rate",
        hits / (hits + misses).max(1.0),
        "fraction",
    );
    out.set("cache.flight_hits", num(&["cache", "flight_hits"]), "count");
    out.set("cache.evictions", num(&["cache", "evictions"]), "count");
    out.set(
        "cache.resident_bytes",
        num(&["cache", "resident_bytes"]),
        "bytes",
    );
    out.set(
        "cache.compression_ratio",
        num(&["cache", "compression_ratio"]),
        "ratio",
    );
    out.set("persist.writes", num(&["disk", "writes"]), "count");
    out.set("persist.bytes_on_disk", nominal_bytes as f64, "bytes");
    out.set(
        "serve.coalesced_batches",
        num(&["coalesce", "batches"]),
        "count",
    );

    let mut rec = Recorder::new();
    let t = Instant::now();
    let identical = verify(&answered, Some(&mut rec))?;
    let traced_s = t.elapsed().as_secs_f64();
    out.check(
        "every ok response matches an in-process Workspace::run",
        identical,
    );
    let t = Instant::now();
    verify(&answered, None)?;
    let untraced_s = t.elapsed().as_secs_f64();
    let spans = rec.spans();
    let times = self_times(spans);
    let requests = times.get("request").map(|t| t.calls).unwrap_or(1).max(1) as f64;
    let root_ns = times.get("request").map(|t| t.total_ns).unwrap_or(1).max(1) as f64;
    for (name, t) in &times {
        if *name != "request" {
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
    out.set("serve.parse_us", total_us("serve.parse") / requests, "us");
    out.set("serve.pool_us", total_us("serve.pool") / requests, "us");
    let coverage = root_coverage(spans, "request");
    out.set(
        "trace.coverage",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
        "fraction",
    );
    out.set("trace.overhead", traced_s / untraced_s, "ratio");
    out.note(format!(
        "replayed {} distinct requests; mean span coverage {:.4}",
        coverage.len(),
        mean(&coverage)
    ));

    // Layer probes on the served models.
    let (mnist, mnist_cov) = build_model("mnist-scaled").expect("builtin model");
    let shape = mnist.input_shape().to_vec();
    let pool = dnnip_serve::protocol::PoolSpec::Synthetic {
        size: POOL_SIZE,
        seed: ctx.seed,
    }
    .materialize(&shape)
    .map_err(|e| e.to_string())?;
    kernel_probe(&mut out, &mnist, &pool);
    engine_probe(&mut out, Arc::new(mnist), &mnist_cov, &pool);
    let (graph, graph_cov) = build_graph_model("residual").expect("builtin graph");
    let graph_pool = dnnip_serve::protocol::PoolSpec::Synthetic {
        size: POOL_SIZE,
        seed: ctx.seed,
    }
    .materialize(graph.input_shape())
    .map_err(|e| e.to_string())?;
    let criterion =
        criterion_from_spec("neuron-activation", &graph_cov).map_err(|e| e.to_string())?;
    let t = median_time(5, || {
        criterion
            .covered_units_graph(&graph, &graph_pool)
            .expect("forward-only criteria have a graph path")
            .expect("shapes match")
    });
    out.set(
        "graph.covered_us_per_sample",
        us(t) / graph_pool.len() as f64,
        "us",
    );
    Ok(out)
}

/// The builtin zoo registered the way `Engine::new` registers it.
fn builtin_workspace() -> (
    Workspace,
    HashMap<&'static str, (NetworkFingerprint, Vec<usize>)>,
) {
    let ws = Workspace::with_config(WorkspaceConfig::default());
    let mut models = HashMap::new();
    for &name in BUILTIN_MODELS {
        let (network, coverage): (_, CoverageConfig) = build_model(name).expect("builtin model");
        let shape = network.input_shape().to_vec();
        models.insert(name, (ws.register(name, network, coverage), shape));
    }
    for &name in BUILTIN_GRAPH_MODELS {
        let (graph, coverage) = build_graph_model(name).expect("builtin graph model");
        let shape = graph.input_shape().to_vec();
        models.insert(name, (ws.register_graph(name, graph, coverage), shape));
    }
    (ws, models)
}

/// Re-run every distinct answered request in process — `parse_request`,
/// `PoolSpec::materialize`, then `Workspace::run` on the builtin zoo — and
/// compare `selected_indices`, `num_tests` and `final_coverage` with what the
/// server answered. With a recorder, each request runs under a `request`
/// span with its layer calls as children.
fn verify(answered: &[(String, Json)], mut rec: Option<&mut Recorder>) -> Result<bool, String> {
    let (ws, models) = builtin_workspace();
    let mut seen: HashMap<&str, &Json> = HashMap::new();
    let mut identical = true;
    for (id, (body, response)) in answered.iter().enumerate() {
        if let Some(previous) = seen.get(body.as_str()) {
            identical &= same_answer(previous, response);
            continue;
        }
        seen.insert(body, response);
        let id = id as u64;
        let line = format!("{{\"id\":\"v\",{body}}}");
        let span = |rec: &mut Option<&mut Recorder>, name: &'static str| {
            rec.as_mut().map(|r| r.begin(name, id))
        };
        let close = |rec: &mut Option<&mut Recorder>, s: Option<usize>| {
            if let (Some(r), Some(s)) = (rec.as_mut(), s) {
                r.end(s);
            }
        };
        let root = span(&mut rec, "request");
        let s = span(&mut rec, "serve.parse");
        let parsed = parse_request(&line).map_err(|e| e.message)?;
        close(&mut rec, s);
        let RequestOp::Generate(spec) = parsed.op else {
            return Err("replayed a non-generate request".to_string());
        };
        let (key, shape) = models.get(spec.model.as_str()).ok_or("unknown model")?;
        let s = span(&mut rec, "serve.pool");
        let candidates = spec.pool.materialize(shape)?;
        close(&mut rec, s);
        let mut request = TestGenRequest::new(*key, spec.strategy, spec.budget)
            .with_seed(spec.seed)
            .with_gradgen(spec.gradgen())
            .with_candidates(candidates);
        if let Some(criterion) = &spec.criterion {
            request = request.with_criterion_spec(criterion.clone());
        }
        let s = span(&mut rec, "core.workspace");
        let report = ws.run(&request).map_err(|e| e.to_string())?;
        close(&mut rec, s);
        close(&mut rec, root);
        let matches = response.get("num_tests").and_then(Json::as_u64)
            == Some(report.tests.len() as u64)
            && response
                .get("final_coverage")
                .and_then(Json::as_f64)
                .map(|c| (c as f32).to_bits())
                == Some(report.final_coverage().to_bits())
            && response
                .get("selected_indices")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_u64)
                        .map(|i| i as usize)
                        .collect::<Vec<_>>()
                })
                == Some(report.selected_indices());
        identical &= matches;
    }
    Ok(identical)
}

fn same_answer(a: &Json, b: &Json) -> bool {
    ["num_tests", "final_coverage", "selected_indices"]
        .iter()
        .all(|k| a.get(k).map(ToString::to_string) == b.get(k).map(ToString::to_string))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_deck_deals_the_uniform_mix() {
        let mut mix = Mix::new(3);
        let deck = mix.deck.len();
        assert_eq!(deck, DECK_PER_MODEL * 5);
        let mut counts: HashMap<(String, String, String), usize> = HashMap::new();
        for _ in 0..deck {
            let body = Json::parse(&format!("{{{}}}", mix.deal())).unwrap();
            let field = |k: &str| body.get(k).and_then(Json::as_str).unwrap().to_string();
            *counts
                .entry((field("model"), field("criterion"), field("strategy")))
                .or_default() += 1;
        }
        let per_model = |m: &str| {
            counts
                .iter()
                .filter(|(k, _)| k.0 == m)
                .map(|(_, n)| n)
                .sum::<usize>()
        };
        for &m in BUILTIN_MODELS.iter().chain(BUILTIN_GRAPH_MODELS) {
            assert_eq!(per_model(m), DECK_PER_MODEL, "{m}");
        }
        // 4 network models × 9 combinations + `residual` × 4.
        assert_eq!(counts.len(), 40);
        assert!(counts
            .keys()
            .all(|k| k.0 != "residual" || k.2 != "combined"));
    }
}
