//! End-to-end tests for the vega-serve service: one tiny pipeline is trained
//! once, then reused as a checkpoint across several server instances to cover
//! caching, coalescing, byte-identity across thread counts, backpressure,
//! deadlines, error paths and graceful shutdown.
//!
//! Everything lives in a single `#[test]` because `vega_par::set_threads` is
//! process-global and the scenarios deliberately flip it between 1 and 4.

use std::time::{Duration, Instant};
use vega::{signature_feature_input, TgtIndex, Vega, VegaConfig};
use vega_model::CodeBe;
use vega_obs::json::Json;
use vega_obs::TraceIdGen;
use vega_serve::{protocol, Client, Engine, ServeConfig, Server};

/// Rebuilds a serving engine from the checkpoint, exactly as the daemon does.
fn engine_from(checkpoint: &str) -> Engine {
    let model = CodeBe::load_json(checkpoint).expect("checkpoint parses");
    let vega = Vega::with_model(VegaConfig::tiny(), model).expect("checkpoint fits the corpus");
    Engine::new(vega)
}

fn start(checkpoint: &str, cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(engine_from(checkpoint), cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn result_render(resp: &Json) -> String {
    assert_eq!(
        resp.field("ok").unwrap(),
        &Json::Bool(true),
        "expected success: {}",
        resp.render()
    );
    resp.field("result").unwrap().render()
}

fn error_code(resp: &Json) -> String {
    assert_eq!(
        resp.field("ok").unwrap(),
        &Json::Bool(false),
        "expected failure: {}",
        resp.render()
    );
    resp.field("error").unwrap().as_str().unwrap().to_string()
}

#[test]
fn serve_end_to_end() {
    vega_par::set_threads(4);
    let trained = Vega::train(VegaConfig::tiny());
    let checkpoint = trained.model().save_json();

    // Direct in-process generations are the byte-identity reference.
    let reference = Engine::new(trained);
    let groups = reference.group_names();
    let targets = reference.target_names();
    assert!(groups.len() >= 2 && targets.len() >= 2);
    let (t0, g0) = (targets[0].clone(), groups[0].clone());
    let expect = |target: &str, group: &str| -> String {
        let (module, gf) = reference
            .generate(target, group)
            .expect("direct generation");
        protocol::render_generated(target, group, module, &gf).render()
    };
    let expected_t0g0 = expect(&t0, &g0);
    one_encoder_pass_per_statement(&reference, &t0);

    sequential_cache_and_errors(&checkpoint, &t0, &targets[1], &g0, &expected_t0g0);
    concurrent_coalescing(&checkpoint, &t0, &g0, &expected_t0g0);
    backpressure_and_deadlines(&checkpoint, &targets, &groups);
    telemetry_and_flight(&checkpoint, &t0, &g0, &expected_t0g0);
    score_matches_per_candidate_logprob(&checkpoint, &t0, &g0);
    // Last: speculation bumps the process-global spec.* counters, which the
    // telemetry scenario asserts are still zero.
    speculative_serving(&checkpoint, &t0, &g0, &expected_t0g0);
}

fn encodes() -> u64 {
    vega_obs::global().counter("decode.encodes")
}

/// Stage 3 runs one encoder pass for the signature decode and one per body
/// statement, kept or dropped: the statement's session serves its
/// confidence head and every slot candidate. Nothing else runs in the
/// process here, so the global counter's delta is exact.
fn one_encoder_pass_per_statement(reference: &Engine, t0: &str) {
    let mut dropped = 0;
    for group in reference.group_names() {
        let before = encodes();
        let (_, gf) = reference.generate(t0, &group).expect("direct generation");
        let body = gf.stmts.len() - 1;
        dropped += gf.stmts.iter().filter(|st| !st.kept).count();
        assert_eq!(
            encodes() - before,
            1 + body as u64,
            "{t0}/{group}: one encoder pass for the signature plus one per body statement"
        );
    }
    assert!(dropped > 0, "some dropped statement must be covered");
}

/// The `score` op scores every candidate of a request on one session: the
/// served logprobs must equal per-candidate `CodeBe::sequence_logprob` bit
/// for bit — duplicates and shared prefixes included — and the request must
/// cost one encoder pass, not one per candidate.
fn score_matches_per_candidate_logprob(checkpoint: &str, t0: &str, g0: &str) {
    vega_par::set_threads(1);
    let engine = engine_from(checkpoint);
    let vega = engine.vega();
    let bundle = &vega.templates[g0];
    let ix = TgtIndex::build(&vega.corpus.try_target(t0).unwrap().descriptions);
    let sig_input = signature_feature_input(
        &vega.model().vocab,
        t0,
        &bundle.template,
        &bundle.features,
        &ix,
        &vega.catalog,
        vega.max_input_len(),
    );
    let candidates: Vec<Vec<usize>> = vec![
        vec![5, 9, 2, 11],
        vec![5, 9, 3],
        vec![5, 9, 2, 11],
        vec![5],
        vec![7, 7, 7, 7],
        vec![5, 9, 3],
        vec![5, 9, 2, 11, 4, 6],
    ];
    let mut model = vega.model().clone();
    let want: Vec<String> = candidates
        .iter()
        .map(|c| Json::num_f32(model.sequence_logprob(&sig_input, c)).render())
        .collect();

    let (server, addr) = start(checkpoint, ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();
    let before = encodes();
    let resp = c.score(t0, g0, &candidates, None).unwrap();
    assert_eq!(encodes() - before, 1, "one encoder pass per score request");
    assert_eq!(
        resp.field("ok").unwrap(),
        &Json::Bool(true),
        "{}",
        resp.render()
    );
    // `num_f32` renders the shortest text that round-trips the f32, so
    // equal text is equal bits.
    let got: Vec<String> = resp
        .field("scores")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(Json::render)
        .collect();
    assert_eq!(got, want, "served scores differ from per-candidate scoring");
    server.shutdown();
    server.join_with_stats();
}

/// threads=1: cache hits, byte-identity against direct generation, error
/// responses, and shutdown-refuses-new-work.
fn sequential_cache_and_errors(checkpoint: &str, t0: &str, t1: &str, g0: &str, expected: &str) {
    vega_par::set_threads(1);
    let (server, addr) = start(checkpoint, ServeConfig::default());
    let mut c = Client::connect(&addr).unwrap();

    let pong = c.op("ping").unwrap();
    assert_eq!(pong.field("pong").unwrap(), &Json::Bool(true));

    // First request is a miss, second a hit; both byte-identical to the
    // direct generate_function call.
    let first = c.generate(t0, g0, None).unwrap();
    assert_eq!(first.field("cached").unwrap(), &Json::Bool(false));
    assert_eq!(
        result_render(&first),
        expected,
        "server response differs from direct generation"
    );
    let second = c.generate(t0, g0, None).unwrap();
    assert_eq!(second.field("cached").unwrap(), &Json::Bool(true));
    assert_eq!(
        result_render(&second),
        expected,
        "cache hit is not byte-identical"
    );

    // Error paths name what exists.
    let bad_target = c.generate("NoSuchTarget", g0, None).unwrap();
    assert_eq!(error_code(&bad_target), "unknown_target");
    let msg = bad_target
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(msg.contains("NoSuchTarget") && msg.contains(t0), "{msg}");
    let bad_group = c.generate(t0, "noSuchGroup", None).unwrap();
    assert_eq!(error_code(&bad_group), "unknown_group");
    assert!(
        bad_group
            .field("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains(g0),
        "unknown-group message should list available groups"
    );
    let garbage = c.request_raw("this is not json").unwrap();
    assert_eq!(error_code(&Json::parse(&garbage).unwrap()), "bad_request");

    // Shutdown refuses fresh generate work (but the cache still answers
    // during the drain), then the server joins cleanly with accurate
    // counters.
    let stopping = c.op("shutdown").unwrap();
    assert_eq!(stopping.field("stopping").unwrap(), &Json::Bool(true));
    let refused = c.generate(t1, g0, None).unwrap();
    assert_eq!(error_code(&refused), "shutting_down");
    let drained = c.generate(t0, g0, None).unwrap();
    assert_eq!(drained.field("cached").unwrap(), &Json::Bool(true));
    assert_eq!(result_render(&drained), expected);
    let stats = server.join_with_stats();
    assert_eq!(stats.cache_hits, 2, "exactly two cache hits expected");
    assert_eq!(stats.generated, 1, "exactly one fresh generation expected");
    assert!(stats.requests >= 4);
}

/// threads=4: concurrent identical requests are answered byte-identically to
/// the sequential (threads=1) run, and the key is generated exactly once —
/// every other request either coalesced onto it or hit the cache.
fn concurrent_coalescing(checkpoint: &str, t0: &str, g0: &str, expected: &str) {
    vega_par::set_threads(4);
    let (server, addr) = start(checkpoint, ServeConfig::default());
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let (t0, g0) = (t0.to_string(), g0.to_string());
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.generate(&t0, &g0, None).unwrap()
            })
        })
        .collect();
    for w in workers {
        let resp = w.join().expect("client thread");
        assert_eq!(
            result_render(&resp),
            expected,
            "concurrent response differs from the threads=1 sequential generation"
        );
    }
    server.shutdown();
    let stats = server.join_with_stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(
        stats.generated, 1,
        "8 identical concurrent requests must generate exactly once \
         (coalesced={} cache_hits={})",
        stats.coalesced, stats.cache_hits
    );
    assert_eq!(stats.coalesced + stats.cache_hits, 7);
}

/// A deliberately slow single-replica server with a one-slot queue: excess
/// concurrent work is shed with `overloaded` (never hung), and a job whose
/// deadline elapses while queued is answered with `deadline_exceeded`.
fn backpressure_and_deadlines(checkpoint: &str, targets: &[String], groups: &[String]) {
    vega_par::set_threads(1);
    let cfg = ServeConfig {
        cache_cap: 0, // every request is fresh work
        queue_cap: 1,
        batch: 1,
        slow_ms: 400,
        ..ServeConfig::default()
    };
    let (server, addr) = start(checkpoint, cfg);

    // Deadline: occupy the single replica, then queue a job that cannot be
    // dispatched before its 1 ms deadline.
    let slow = {
        let addr = addr.clone();
        let (t, g) = (targets[0].clone(), groups[0].clone());
        std::thread::spawn(move || {
            Client::connect(&addr)
                .unwrap()
                .generate(&t, &g, None)
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let mut c = Client::connect(&addr).unwrap();
    let late = c.generate(&targets[1], &groups[0], Some(1)).unwrap();
    assert_eq!(error_code(&late), "deadline_exceeded");
    assert_eq!(slow.join().unwrap().field("ok").unwrap(), &Json::Bool(true));

    // Overload: burst six distinct fresh jobs at a server that can hold at
    // most one running plus one queued. At least one must be shed, every
    // probe must get an answer, and successes still verify.
    let mut pairs = Vec::new();
    'outer: for g in groups.iter().rev() {
        for t in targets.iter().rev() {
            pairs.push((t.clone(), g.clone()));
            if pairs.len() == 6 {
                break 'outer;
            }
        }
    }
    let probes: Vec<_> = pairs
        .into_iter()
        .map(|(t, g)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                Client::connect(&addr)
                    .unwrap()
                    .generate(&t, &g, Some(30_000))
                    .unwrap()
            })
        })
        .collect();
    let mut shed = 0;
    let mut answered = 0;
    for p in probes {
        let resp = p.join().expect("probe answered (never hangs)");
        answered += 1;
        if resp.field("ok").unwrap() == &Json::Bool(false) {
            assert_eq!(error_code(&resp), "overloaded");
            let msg = resp.field("message").unwrap().as_str().unwrap().to_string();
            assert!(msg.contains("queue full"), "{msg}");
            shed += 1;
        }
    }
    assert_eq!(answered, 6);
    assert!(shed >= 1, "a 6-request burst at queue_cap=1 must shed");

    server.shutdown();
    let stats = server.join_with_stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.deadline_exceeded, 1);
}

/// Traced requests echo the caller's trace id and a timing breakdown, the
/// `stats`, `metrics` and Prometheus `text` views of the same process agree
/// with each other, and the flight recorder retains trace-stamped spans
/// served by the `flightdump` op — without perturbing the `result` bytes.
fn telemetry_and_flight(checkpoint: &str, t0: &str, g0: &str, expected: &str) {
    vega_par::set_threads(1);
    let cfg = ServeConfig {
        flight_cap: 128,
        ..ServeConfig::default()
    };
    let (server, addr) = start(checkpoint, cfg);
    let mut c = Client::connect(&addr).unwrap();
    c.set_tracer(0xC0FFEE);
    // A twin generator predicts every trace the client will mint.
    let mut twin = TraceIdGen::new(0xC0FFEE);

    // Fresh generation: trace echoed, timing says miss, result bytes
    // untouched by the new envelope fields.
    let sent = Instant::now();
    let miss = c.generate(t0, g0, None).unwrap();
    let client_ms = sent.elapsed().as_secs_f64() * 1e3;
    let miss_trace = twin.mint().render();
    assert_eq!(result_render(&miss), expected);
    assert_eq!(
        miss.field("trace").unwrap().as_str().unwrap(),
        miss_trace,
        "response must echo the caller's trace id"
    );
    let timing = miss.field("timing").unwrap();
    assert_eq!(timing.field("cache").unwrap().as_str().unwrap(), "miss");
    let tokens = timing.field("tokens").unwrap().as_u64().unwrap();
    assert!(tokens > 0, "a fresh generation decodes at least one token");
    // Decode steps are part of the model work, which is part of the
    // request the client waited for.
    let decode_ms = timing.field("decode_ms").unwrap().as_f64().unwrap();
    let model_ms = timing.field("model_ms").unwrap().as_f64().unwrap();
    assert!(decode_ms >= 0.0);
    assert!(
        decode_ms <= model_ms && model_ms <= client_ms,
        "decode_ms {decode_ms} <= model_ms {model_ms} <= client latency {client_ms}"
    );
    timing.field("queue_ms").unwrap().as_u64().unwrap();

    // Cache hit: new trace, timing says hit with zero decode work.
    let hit = c.generate(t0, g0, None).unwrap();
    let hit_trace = twin.mint().render();
    assert_eq!(hit.field("trace").unwrap().as_str().unwrap(), hit_trace);
    let hit_timing = hit.field("timing").unwrap();
    assert_eq!(hit_timing.field("cache").unwrap().as_str().unwrap(), "hit");
    assert_eq!(hit_timing.field("tokens").unwrap().as_u64().unwrap(), 0);

    // The metrics op returns three views of the same instant; they must
    // agree exactly (golden consistency, not approximate).
    let m = c.op("metrics").unwrap();
    assert_eq!(m.field("ok").unwrap(), &Json::Bool(true));
    let stats = m.field("stats").unwrap();
    let metrics = m.field("metrics").unwrap();
    let stat_f64 = |name: &str| stats.field(name).unwrap().as_f64().unwrap();
    let stat_u64 = |name: &str| stats.field(name).unwrap().as_u64().unwrap();

    assert_eq!(stat_u64("cache_hits"), 1);
    assert_eq!(stat_u64("cache_misses"), 1);
    assert_eq!(
        stat_f64("cache_hit_ratio"),
        0.5,
        "one hit + one miss must precompute to exactly 0.5"
    );

    // stats.decode_tokens mirrors the obs counter verbatim, and the
    // decode.step_seconds histogram observed exactly one sample per token.
    let counters = metrics.field("counters").unwrap();
    let decode_tokens = counters.field("decode.tokens").unwrap().as_u64().unwrap();
    assert_eq!(stat_u64("decode_tokens"), decode_tokens);
    let step = metrics
        .field("hists")
        .unwrap()
        .field("decode.step_seconds")
        .unwrap();
    assert_eq!(
        step.field("count").unwrap().as_u64().unwrap(),
        decode_tokens
    );
    for (stat_name, hist_q) in [
        ("decode_step_p50", "p50"),
        ("decode_step_p90", "p90"),
        ("decode_step_p99", "p99"),
    ] {
        let from_stats = stat_f64(stat_name);
        let from_hist = step.field(hist_q).unwrap().as_f64().unwrap();
        assert_eq!(
            from_stats, from_hist,
            "stats.{stat_name} and hists.decode.step_seconds.{hist_q} disagree"
        );
    }

    // Without --speculate/--draft the speculation stats read zero (the
    // speculative scenario below then proves they move): same golden
    // consistency, just for the off state.
    assert_eq!(stat_u64("spec_draft_tokens"), 0);
    assert_eq!(stat_u64("spec_accepted_tokens"), 0);
    assert_eq!(stat_f64("spec_accept_ratio"), 0.0);
    assert_eq!(stat_u64("spec_depth"), 0);
    let spec_depth_gauge = metrics
        .field("gauges")
        .unwrap()
        .field("serve.spec.depth")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(spec_depth_gauge, 0.0, "depth gauge must read 0 when off");

    // The Prometheus exposition is well-formed `name value` text with the
    // same sample count.
    let text = m.field("text").unwrap().as_str().unwrap().to_string();
    let mut prom_count = None;
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("metric name");
        let value = parts.next().expect("metric value");
        assert_eq!(
            parts.next(),
            None,
            "exposition lines are `name value`: {line}"
        );
        assert!(name.starts_with("vega_"), "{line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value in {line}"));
        if name == "vega_decode_step_seconds_count" {
            prom_count = Some(value.parse::<f64>().unwrap());
        }
    }
    assert_eq!(
        prom_count,
        Some(decode_tokens as f64),
        "Prometheus _count must match the JSON histogram count"
    );
    assert!(
        text.contains("le=\"+Inf\""),
        "cumulative buckets must end at +Inf:\n{text}"
    );

    // The flight recorder retained trace-stamped spans for both requests.
    let fd = c.op("flightdump").unwrap();
    assert_eq!(fd.field("enabled").unwrap(), &Json::Bool(true));
    let records = fd.field("records").unwrap().as_array().unwrap();
    // `what` is the dotted span path, so match on the leaf name.
    let has = |leaf: &str, trace: &str| {
        records.iter().any(|r| {
            r.field("what")
                .ok()
                .and_then(|w| w.as_str().ok())
                .is_some_and(|w| w.ends_with(leaf))
                && r.field("trace").ok().and_then(|t| t.as_str().ok()) == Some(trace)
        })
    };
    assert!(
        has("serve.generate", &miss_trace),
        "the miss's generate span must be in the flight dump: {}",
        fd.render()
    );
    assert!(
        has("serve.cache_lookup", &hit_trace),
        "the hit's cache-lookup span must be in the flight dump: {}",
        fd.render()
    );

    server.shutdown();
    server.join_with_stats();
    // The recorder is process-global; leave it off for whatever runs next.
    vega_obs::flight::configure(0);
}

/// A replica server with a GRU draft installed (`--speculate 3 --draft …`):
/// the response is byte-identical to plain greedy — speculation is exact by
/// construction — and the `stats` speculation fields mirror the obs
/// counters and the configured depth.
fn speculative_serving(checkpoint: &str, t0: &str, g0: &str, expected: &str) {
    vega_par::set_threads(1);
    let model_vocab = CodeBe::load_json(checkpoint)
        .expect("checkpoint parses")
        .vocab
        .len();
    // An untrained draft: acceptance may be poor, but exactness (and the
    // counter plumbing) is independent of draft quality.
    let draft = vega_nn::GruSeq2Seq::new(vega_nn::GruConfig::tiny(model_vocab));
    let cfg = ServeConfig {
        speculate: 3,
        draft: Some(std::sync::Arc::new(draft)),
        ..ServeConfig::default()
    };
    let (server, addr) = start(checkpoint, cfg);
    let mut c = Client::connect(&addr).unwrap();

    let fresh = c.generate(t0, g0, None).unwrap();
    assert_eq!(fresh.field("cached").unwrap(), &Json::Bool(false));
    assert_eq!(
        result_render(&fresh),
        expected,
        "speculative serving must be byte-identical to plain greedy"
    );

    let m = c.op("metrics").unwrap();
    assert_eq!(m.field("ok").unwrap(), &Json::Bool(true));
    let stats = m.field("stats").unwrap();
    let stat_u64 = |name: &str| stats.field(name).unwrap().as_u64().unwrap();
    assert_eq!(stat_u64("spec_depth"), 3);
    let drafted = stat_u64("spec_draft_tokens");
    let accepted = stat_u64("spec_accepted_tokens");
    assert!(drafted > 0, "the draft must have proposed tokens");
    assert!(accepted <= drafted);
    let ratio = stats.field("spec_accept_ratio").unwrap().as_f64().unwrap();
    assert_eq!(
        ratio,
        accepted as f64 / drafted as f64,
        "spec_accept_ratio must be precomputed from the two counters"
    );

    // The stats fields mirror the obs counters verbatim, and the live depth
    // gauge reads the configured (non-degraded) depth.
    let metrics = m.field("metrics").unwrap();
    let counters = metrics.field("counters").unwrap();
    let counter_u64 = |name: &str| counters.field(name).unwrap().as_u64().unwrap();
    assert_eq!(counter_u64("spec.draft_tokens"), drafted);
    assert_eq!(counter_u64("spec.accepted_tokens"), accepted);
    assert!(counter_u64("spec.rounds") >= 1);
    let depth_gauge = metrics
        .field("gauges")
        .unwrap()
        .field("serve.spec.depth")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(depth_gauge, 3.0);

    server.shutdown();
    server.join_with_stats();
}
