//! The `serve_cold` workload: `generate` requests to an in-process `vega-serve`
//! (default `ServeConfig`) over loopback TCP from a closed loop of two
//! connections, on a checkpoint trained with the pipeline configuration.
//!
//! Requests go out in rounds of one request per function group (a whole
//! backend's worth). Both connections draw from the round's list; the next
//! round starts when the last reply of this one is in. `serve_cold` never
//! repeats a (target, group) pair, so every request misses the cache.

use crate::report::{self, mean, median, quantile, Counters, Outcome};
use crate::trace::Tracer;
use crate::Args;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, RwLock};
use std::time::{Duration, Instant};
use vega::{Vega, VegaConfig};
use vega_corpus::{Corpus, Mix64, Module, EVAL_TARGET_NAMES};
use vega_obs::json::Json;
use vega_serve::{load_checkpoint, Client, ServeConfig, Server};

/// Closed-loop connections (the host's core count).
const CONNS: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-request deadline; a request that misses it fails.
const DEADLINE_MS: u64 = 30_000;
/// `serve_cold` responses byte-compared against in-process generation.
const VERIFY_SAMPLE: usize = 8;
/// Requests one connection can record before its sample list reallocates
/// (reserved up front so the list's growth does not move `peak_rss_mb`).
const SAMPLES_PER_CONN: usize = 1 << 17;

/// Trains the fixture checkpoint (run in a child process, so neither its
/// time nor its memory lands in a measured run).
pub fn make_fixture(path: &Path) -> Result<(), String> {
    let vega = Vega::train(crate::pipeline::config());
    vega.model()
        .save_file_v2(path)
        .map_err(|e| format!("saving fixture {}: {e}", path.display()))
}

/// The fixture checkpoint for this executable and configuration, training
/// it first if this build has none. Returns its path and, when it was
/// trained now, how long that took.
fn fixture(out_dir: &Path) -> Result<(PathBuf, Option<Duration>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let mut h = vega_serve::hash::StableHasher::new();
    h.write(&bytes);
    h.write_str(&format!("{:?}", crate::pipeline::config()));
    let key = h.finish_hex();
    let path = out_dir.join(format!("fixture-{key}.ckpt"));
    if path.exists() {
        return Ok((path, None));
    }
    let tmp = out_dir.join(format!("fixture-{key}.{}.tmp", std::process::id()));
    let t0 = Instant::now();
    let status = Command::new(&exe)
        .arg("--make-fixture")
        .arg(&tmp)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning the fixture trainer: {e}"))?;
    if !status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("fixture trainer failed: {status}"));
    }
    std::fs::rename(&tmp, &path).map_err(|e| format!("installing the fixture: {e}"))?;
    Ok((path, Some(t0.elapsed())))
}

/// A running server plus the names it serves.
struct Live {
    server: Server,
    addr: String,
    targets: Vec<String>,
    groups: Vec<String>,
}

/// Loads the checkpoint, builds the engine, starts the server and waits for
/// the first connection to be answered. Returns the three phase times.
fn start(ckpt: &Path, cfg: &VegaConfig, tracer: &Tracer) -> Result<(Live, [Duration; 3]), String> {
    let (res, _) = tracer.timed("serve.setup", 0, |root| {
        let (checkpoint, load) = tracer.timed("vega_serve.load_checkpoint", root, |_| {
            load_checkpoint(ckpt)
        });
        let checkpoint = checkpoint.map_err(|e| e.to_string())?;
        let (engine, eng) = tracer.timed("vega_serve.Checkpoint::into_engine", root, |_| {
            checkpoint.into_engine(cfg.clone())
        });
        let (_, engine) = engine.map_err(|e| e.to_string())?;
        let (live, up) = tracer.timed("vega_serve.Server::start+first_reply", root, |_| {
            let targets = engine.target_names();
            let groups = engine.group_names();
            let server = Server::start(engine, ServeConfig::default())
                .map_err(|e| format!("starting the server: {e}"))?;
            let addr = server.local_addr().to_string();
            let mut client =
                Client::connect(&addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
            let pong = client
                .op("ping")
                .map_err(|e| format!("first request: {e}"))?;
            if !matches!(pong.field("ok"), Ok(Json::Bool(true))) {
                return Err(format!("first request refused: {}", pong.render()));
            }
            Ok(Live {
                server,
                addr,
                targets,
                groups,
            })
        });
        Ok::<_, String>((live?, [load, eng, up]))
    });
    res
}

fn stop(live: Live) {
    live.server.shutdown();
    live.server.join();
}

/// A (target index, group index) pair.
type Pair = (usize, usize);

/// One request of a window.
struct Sample {
    seq: usize,
    pair: Pair,
    latency_ms: f32,
    queue_ms: f32,
    decode_ms: f32,
    ok: bool,
}

/// What a sequence of rounds measured.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    /// `result` bytes by request sequence number (kept unless compared).
    payloads: Vec<(usize, String)>,
    /// Why requests failed, by sequence number.
    errors: Vec<(usize, String)>,
    /// Round durations in seconds.
    rounds: Vec<f64>,
    /// Successful requests per second of each round.
    round_rps: Vec<f64>,
    wall: Duration,
    diag: String,
}

impl Window {
    fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| f64::from(s.latency_ms))
            .collect()
    }

    /// Payloads with their pairs.
    fn served(&self) -> impl Iterator<Item = (Pair, &str)> {
        let pair_of: HashMap<usize, Pair> = self.samples.iter().map(|s| (s.seq, s.pair)).collect();
        self.payloads
            .iter()
            .map(move |(seq, p)| (pair_of[seq], p.as_str()))
    }
}

/// The request rounds, one request per function group each: a Latin-square
/// schedule over a seeded permutation `perm` of the targets. Round `r` asks
/// every group `g` for target `perm[(g + r) % targets]`, so each (target,
/// group) pair appears once over all rounds and every round holds each group
/// once and each target equally often: rounds carry like work whatever the
/// seed. Rounds run in a seeded order, and the group order changes every
/// round, so which requests meet in the server's queue varies within a run
/// instead of between runs.
fn cold_rounds(targets: usize, groups: usize, seed: u64) -> Vec<Vec<Pair>> {
    let mut rng = Mix64::new(seed);
    let mut perm: Vec<usize> = (0..targets).collect();
    report::shuffle(&mut perm, &mut rng);
    let mut rounds: Vec<Vec<Pair>> = (0..targets)
        .map(|r| {
            let mut order: Vec<usize> = (0..groups).collect();
            report::shuffle(&mut order, &mut rng);
            order
                .into_iter()
                .map(|g| (perm[(g + r) % targets], g))
                .collect()
        })
        .collect();
    report::shuffle(&mut rounds, &mut rng);
    rounds
}

/// One closed-loop connection's share of a window.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    payloads: Vec<(usize, String)>,
    errors: Vec<(usize, String)>,
}

impl ConnLog {
    /// Records one reply and returns the trace id the server echoed.
    fn absorb(
        &mut self,
        seq: usize,
        pair: Pair,
        latency: Duration,
        resp: std::io::Result<Json>,
    ) -> Option<String> {
        let mut s = Sample {
            seq,
            pair,
            latency_ms: (latency.as_secs_f64() * 1e3) as f32,
            queue_ms: 0.0,
            decode_ms: 0.0,
            ok: false,
        };
        let mut trace = None;
        let failure = match resp {
            Err(e) => Some(format!("transport: {e}")),
            Ok(r) if !matches!(r.field("ok"), Ok(Json::Bool(true))) => {
                Some(format!("error response: {}", r.render()))
            }
            Ok(r) => {
                if let Ok(t) = r.field("timing") {
                    let ms = |k| t.field(k).and_then(Json::as_f64).unwrap_or(0.0) as f32;
                    s.queue_ms = ms("queue_ms");
                    s.decode_ms = ms("decode_ms");
                }
                trace = r
                    .field("trace")
                    .ok()
                    .and_then(|t| t.as_str().ok())
                    .map(str::to_string);
                match r.field("result") {
                    Err(e) => Some(format!("response without result: {e}")),
                    Ok(got) => {
                        self.payloads.push((seq, got.render()));
                        None
                    }
                }
            }
        };
        s.ok = failure.is_none();
        if let Some(f) = failure {
            self.errors.push((seq, f));
        }
        self.samples.push(s);
        trace
    }
}

/// Runs rounds `span` in order, stopping after the round during which
/// `seconds` ran out.
fn run_rounds(
    live: &Live,
    rounds: &[Vec<Pair>],
    span: Range<usize>,
    seconds: f64,
    tracer: &Tracer,
    trace_seed: Option<u64>,
) -> Result<Window, String> {
    let mut clients = Vec::new();
    for c in 0..CONNS {
        let mut client =
            Client::connect(&live.addr).map_err(|e| format!("connecting to {}: {e}", live.addr))?;
        if let Some(seed) = trace_seed {
            client.set_tracer(seed.wrapping_add(c as u64));
        }
        clients.push(client);
    }
    let barrier = Barrier::new(CONNS + 1);
    let current: RwLock<Arc<Vec<Pair>>> = RwLock::default();
    let next = AtomicUsize::new(0);
    let base = AtomicUsize::new(0);
    let round_span = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut w = Window::default();
    let counters = Counters::read();
    let window_id = tracer.reserve();
    let first_round = span.start;
    let per_round = rounds.get(first_round).map_or(1, |r| r.len().max(1));
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (barrier, current, next, base, round_span, done) =
                    (&barrier, &current, &next, &base, &round_span, &done);
                s.spawn(move || {
                    let mut log = ConnLog {
                        samples: Vec::with_capacity(SAMPLES_PER_CONN),
                        ..ConnLog::default()
                    };
                    loop {
                        barrier.wait();
                        if done.load(Ordering::SeqCst) {
                            return log;
                        }
                        let round = Arc::clone(&current.read().expect("round lock poisoned"));
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let Some(&(t, g)) = round.get(i) else { break };
                            let id = tracer.reserve();
                            let t0 = Instant::now();
                            let resp = client.generate(
                                &live.targets[t],
                                &live.groups[g],
                                Some(DEADLINE_MS),
                            );
                            let t1 = Instant::now();
                            let seq = base.load(Ordering::SeqCst) + i;
                            let req = log.absorb(seq, (t, g), t1 - t0, resp);
                            let parent = round_span.load(Ordering::SeqCst);
                            tracer.record(id, "vega_serve.Client::generate", parent, t0, t1, req);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        let start = Instant::now();
        for r in span {
            let round = rounds[r].clone();
            base.store(r * round.len(), Ordering::SeqCst);
            *current.write().expect("round lock poisoned") = Arc::new(round);
            next.store(0, Ordering::SeqCst);
            let round_id = tracer.reserve();
            round_span.store(round_id, Ordering::SeqCst);
            let t0 = Instant::now();
            barrier.wait();
            barrier.wait();
            let t1 = Instant::now();
            tracer.record(round_id, "serve.round", window_id, t0, t1, None);
            w.rounds.push((t1 - t0).as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        w.wall = start.elapsed();
        tracer.record(window_id, "serve.window", 0, start, Instant::now(), None);
        done.store(true, Ordering::SeqCst);
        barrier.wait();
        for h in workers {
            let log = h.join().expect("a closed-loop connection thread panicked");
            w.samples.extend(log.samples);
            w.payloads.extend(log.payloads);
            w.errors.extend(log.errors);
        }
    });
    w.diag = counters.describe(&Counters::read(), w.wall);
    w.samples.sort_by_key(|s| s.seq);
    let mut ok = vec![0usize; w.rounds.len()];
    for s in w.samples.iter().filter(|s| s.ok) {
        if let Some(n) = ok.get_mut(s.seq / per_round - first_round) {
            *n += 1;
        }
    }
    w.round_rps = ok
        .iter()
        .zip(&w.rounds)
        .map(|(&n, t)| n as f64 / t)
        .collect();
    w.payloads.sort();
    Ok(w)
}

/// The server's `stats` snapshot, via the protocol.
fn stats(addr: &str) -> Result<Json, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connecting for stats: {e}"))?;
    let r = c.op("stats").map_err(|e| format!("stats op: {e}"))?;
    r.field("stats")
        .cloned()
        .map_err(|e| format!("stats reply without stats: {e}"))
}

fn stat(s: &Json, key: &str) -> f64 {
    s.field(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// pass@1 of served payloads: each payload's function is parsed back and run
/// through the `vega-minicc` regression harness against the corpus
/// reference backend. The result is the mean over targets of each target's
/// pass rate, as the pipeline reports it; functions the reference backend
/// lacks are left out, as there.
fn pass1<'a>(
    corpus: &Corpus,
    served: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
) -> f64 {
    let mut by_target: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (target, group, payload) in served {
        let Some(t) = corpus.target(target) else {
            continue;
        };
        let Some(reference) = t.backend.function(group) else {
            continue;
        };
        let source = Json::parse(payload).ok().and_then(|p| {
            p.field("function")
                .ok()
                .and_then(|f| f.as_str().ok())
                .map(str::to_string)
        });
        let passed = source
            .and_then(|src| vega_cpplite::parse_function(&src).ok())
            .is_some_and(|f| vega_minicc::regression_test(group, &f, reference, &t.spec).passed());
        let e = by_target.entry(target).or_default();
        e.0 += usize::from(passed);
        e.1 += 1;
    }
    let rates: Vec<f64> = by_target
        .values()
        .map(|&(p, n)| p as f64 / n.max(1) as f64)
        .collect();
    100.0 * mean(&rates)
}

/// Runs the `serve_cold` workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (ckpt, trained) = fixture(&crate::out_dir()?)?;
    match trained {
        Some(d) => println!(
            "fixture: trained {} in {:.2} s (not part of any metric)",
            ckpt.display(),
            d.as_secs_f64()
        ),
        None => println!("fixture: reusing {}", ckpt.display()),
    }
    let cfg = crate::pipeline::config();
    let tracer = Tracer::new(args.trace);
    let untimed = Tracer::new(false);

    let mut setups: Vec<[Duration; 3]> = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = live.take() {
            stop(prev);
        }
        let (l, phases) = start(&ckpt, &cfg, &tracer)?;
        setups.push(phases);
        live = Some(l);
    }
    let live = live.expect("SETUP_REPS is positive");
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|p| p.iter().sum::<Duration>().as_secs_f64())
        .collect();

    let eval: Vec<usize> = EVAL_TARGET_NAMES
        .iter()
        .filter_map(|n| live.targets.iter().position(|t| t == n))
        .collect();
    let (n_t, n_g) = (live.targets.len(), live.groups.len());

    let rounds = cold_rounds(n_t, n_g, args.seed);
    let obs = vega_obs::global();

    // A traced run first measures half a window untraced, then half traced,
    // so the tracing overhead compares two windows of one process.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut pre = Window::default();
    if args.trace {
        pre = run_rounds(&live, &rounds, 0..rounds.len(), secs, &untimed, None)?;
    }
    let first = pre.rounds.len();
    let before = stats(&live.addr)?;
    let (tok0, sc0) = (
        obs.counter("decode.tokens"),
        obs.counter("decode.scored_tokens"),
    );
    let trace_seed = args.trace.then_some(args.seed);
    let w = run_rounds(
        &live,
        &rounds,
        first..rounds.len(),
        secs,
        &tracer,
        trace_seed,
    )?;
    // The high-water mark as the window leaves it, before the checks below
    // load a second engine and corpus.
    let peak_rss_mb = report::peak_rss_mb();
    let tokens = obs.counter("decode.tokens") - tok0;
    let scored = obs.counter("decode.scored_tokens") - sc0;
    let after = stats(&live.addr)?;
    println!("{}", w.diag);
    let (targets, groups) = (live.targets.clone(), live.groups.clone());
    stop(live);

    let delta = |k: &str| stat(&after, k) - stat(&before, k);
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    let hit_ratio = hits / (hits + misses).max(1.0);
    let (coalesced, shed) = (delta("coalesced"), delta("shed"));
    let windows = [&pre, &w];
    let attempted: usize = windows.iter().map(|x| x.samples.len()).sum();
    let mut errors: Vec<String> = windows
        .iter()
        .flat_map(|x| x.errors.iter().map(|(_, e)| e.clone()))
        .collect();

    // Output checks, outside every timed window.
    let (corpus, corpus_build) = tracer.timed("vega_corpus.Corpus::build", 0, |_| {
        Corpus::build(&cfg.corpus)
    });
    let name = |(t, g): Pair| (targets[t].as_str(), groups[g].as_str());
    let pairs: Vec<Pair> = [&pre, &w]
        .iter()
        .flat_map(|x| x.samples.iter().map(|s| s.pair))
        .collect();
    let distinct: HashSet<&Pair> = pairs.iter().collect();
    out.check(
        format!("serve_cold: {} requests, no pair repeated", pairs.len()),
        distinct.len() == pairs.len(),
    );
    let (h, c, s) = (
        stat(&after, "cache_hits"),
        stat(&after, "coalesced"),
        stat(&after, "shed"),
    );
    out.check(
        format!("serve_cold: cache hits {h}, coalesced {c}, shed {s}, all 0"),
        h == 0.0 && c == 0.0 && s == 0.0,
    );
    // A seeded sample of window payloads against in-process
    // generation on the same checkpoint.
    let engine = load_checkpoint(&ckpt)
        .and_then(|c| c.into_engine(cfg.clone()))
        .map(|(_, e)| e)
        .map_err(|e| format!("verification engine: {e}"))?;
    let generate = |pair: Pair| {
        let (t, g) = name(pair);
        let mut replica = engine.replica();
        engine
            .generate_with(&mut replica, t, g)
            .map(|(m, gf)| vega_serve::protocol::render_generated(t, g, m, &gf).render())
            .map_err(|e| format!("in-process {t}/{g}: {}", e.msg))
    };
    let served: Vec<(Pair, &str)> = w.served().collect();
    let picks = Mix64::new(args.seed ^ 0x7e51f7).choose_indices(served.len(), VERIFY_SAMPLE);
    let mut same = 0;
    for &i in &picks {
        let (pair, payload) = served[i];
        match generate(pair) {
            Ok(local) if local == payload => same += 1,
            Ok(_) => {
                let (t, g) = name(pair);
                errors.push(format!("{t}/{g} differs from in-process generate_with"));
            }
            Err(e) => errors.push(e),
        }
    }
    out.check(
        format!(
            "serve_cold: {same} of {} sampled responses byte-identical to in-process generate_with",
            picks.len()
        ),
        same == picks.len(),
    );
    // pass@1 and the digest cover the eval pairs whatever the seed and
    // the speed: served payloads where the window reached them, the
    // rest generated in process (which the sample above shows equal).
    let mut evals: BTreeMap<Pair, String> = [&pre, &w]
        .iter()
        .flat_map(|x| x.served())
        .filter(|(pair, _)| eval.contains(&pair.0))
        .map(|(pair, p)| (pair, p.to_string()))
        .collect();
    let missing: Vec<Pair> = eval
        .iter()
        .flat_map(|&t| (0..n_g).map(move |g| (t, g)))
        .filter(|pair| !evals.contains_key(pair))
        .collect();
    println!(
        "serve_cold: {} of {} eval pairs served in the window; generating the rest in process",
        eval.len() * n_g - missing.len(),
        eval.len() * n_g
    );
    for (pair, r) in missing
        .iter()
        .zip(vega_par::par_map(missing.clone(), |_, p| generate(p)))
    {
        match r {
            Ok(p) => {
                evals.insert(*pair, p);
            }
            Err(e) => errors.push(e),
        }
    }
    let mut sorted: Vec<(&str, &str, &str)> = evals
        .iter()
        .map(|(&pair, p)| {
            let (t, g) = name(pair);
            (t, g, p.as_str())
        })
        .collect();
    sorted.sort_unstable();
    let digested = report::digest(sorted.iter().map(|s| s.2));
    let pass1_pct = pass1(&corpus, sorted.iter().copied());
    println!(
        "payload_digest={} payloads={} (target x group, sorted)",
        digested.0, digested.1
    );
    for e in errors.iter().take(5) {
        println!("failure: {e}");
    }
    out.attempted = attempted as u64;
    out.failed = errors.len() as u64;

    let lat = w.latencies();
    let ok_count = w.samples.iter().filter(|s| s.ok).count();
    let window_s = w.wall.as_secs_f64().max(1e-9);
    let e = &mut out.e2e;
    e.insert("setup_s", median(&setup_s));
    e.insert("wall_s", median(&w.rounds));
    e.insert("pass1_pct", pass1_pct);
    e.insert("rps", median(&w.round_rps));
    e.insert("latency_p50_ms", quantile(&lat, 0.5));
    e.insert("latency_p90_ms", quantile(&lat, 0.9));
    e.insert("peak_rss_mb", peak_rss_mb);
    let tail = report::tail(&lat).map_or_else(
        || "n/a".to_string(),
        |(p, v, beyond)| format!("p{p}={v:.3} ms ({beyond} samples beyond it)"),
    );
    println!(
        "window: requests={} rounds={} wall_s={window_s:.3} setup_s={setup_s:?} latency tail {tail} (not gated)",
        w.samples.len(),
        w.rounds.len(),
    );

    if args.trace {
        let l = &mut out.layers;
        let phase = |i: usize| {
            let xs: Vec<f64> = setups.iter().map(|p| p[i].as_secs_f64()).collect();
            median(&xs)
        };
        l.insert("corpus.build_s", corpus_build.as_secs_f64());
        l.insert("setup.load_checkpoint_s", phase(0));
        l.insert("setup.engine_s", phase(1));
        l.insert("setup.server_start_s", phase(2));
        let queue: Vec<f64> = w.samples.iter().map(|s| f64::from(s.queue_ms)).collect();
        let service: Vec<f64> = w
            .samples
            .iter()
            .map(|s| f64::from(s.latency_ms - s.queue_ms))
            .collect();
        let decode: Vec<f64> = w.samples.iter().map(|s| f64::from(s.decode_ms)).collect();
        l.insert("serve.queue_ms_p50", quantile(&queue, 0.5));
        l.insert("serve.queue_ms_mean", mean(&queue));
        l.insert("serve.service_ms_p50", quantile(&service, 0.5));
        l.insert("serve.decode_ms_mean", mean(&decode));
        l.insert("serve.cache_hit_ratio", hit_ratio);
        l.insert("serve.coalesced", coalesced);
        l.insert("serve.shed", shed);
        l.insert("serve.requests", w.samples.len() as f64);
        let generated = misses.max(1.0);
        l.insert("decode.tokens_per_fn", tokens as f64 / generated);
        l.insert("decode.scored_tokens_per_fn", scored as f64 / generated);
        // Stage 3 as the server runs it: each request's service time,
        // split by the module its payload names.
        let service_of: HashMap<usize, f64> = w
            .samples
            .iter()
            .map(|s| (s.seq, f64::from(s.latency_ms - s.queue_ms) / 1e3))
            .collect();
        let (mut kept, mut emitted) = (0usize, 0usize);
        for (seq, p) in &w.payloads {
            let Ok(p) = Json::parse(p) else { continue };
            let module = p.field("module").ok().and_then(|m| m.as_str().ok());
            if let Some(m) = module.and_then(|c| Module::ALL.into_iter().find(|m| m.code() == c)) {
                *l.entry(crate::pipeline::module_metric(m)).or_default() += service_of[seq];
            }
            if let Ok(stmts) = p.field("stmts").and_then(Json::as_array) {
                emitted += stmts.len();
                kept += stmts
                    .iter()
                    .filter(|st| matches!(st.field("kept"), Ok(Json::Bool(true))))
                    .count();
            }
        }
        l.insert("stage3.s", service.iter().sum::<f64>() / 1e3);
        l.insert("stage3.functions_per_s", ok_count as f64 / window_s);
        l.insert("stage3.kept_ratio", kept as f64 / emitted.max(1) as f64);
        let base = quantile(&pre.latencies(), 0.5);
        let traced = quantile(&lat, 0.5);
        l.insert(
            "trace.overhead_pct",
            100.0 * (traced - base) / base.max(1e-9),
        );
        println!(
            "trace overhead: latency_p50_ms traced {traced:.4} - untraced {base:.4} = {:+.4} ms",
            traced - base
        );
        tracer.print_self_times();
        crate::write_trace(&tracer, args)?;
    }
    Ok(())
}
