//! The `pipeline` workload: the offline paper pipeline (Fig. 5) at
//! `Scale::Small` with one fine-tune epoch and no pre-training — corpus,
//! stage 1 and stage 2 (`Vega::train_on`), then stage 3 (`generate_backend`)
//! and evaluation (`eval_generated_backend`) for the three eval targets.

use crate::report::{self, median, ms, quantile, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::Args;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vega::{GeneratedBackend, Vega, VegaConfig};
use vega_corpus::{Corpus, Mix64, Module, EVAL_TARGET_NAMES};
use vega_eval::eval_generated_backend;

/// Corpus builds per run; `setup_s` is their median. A build takes about
/// 10 ms, so a run makes enough of them for the median to hold still.
const SETUP_REPS: usize = 40;
/// Interface functions every generated backend must hold.
const FUNCTIONS_PER_TARGET: usize = 38;
/// Passes every run makes, whatever `--seconds` says: a pass keeps both
/// cores busy for ~20 s, so host CPU steal moves its wall time most, and the
/// median of three passes sets one disturbed pass aside.
const MIN_PASSES: usize = 3;
/// Extra `generate_backend` rounds over the eval targets after each pass,
/// outside `wall_s`: a pass alone holds three stage-3 calls, too few for a
/// steady median.
const STAGE3_REPEATS: usize = 1;

/// The pipeline configuration, shared with the `serve_cold` fixture:
/// `vega-experiments headline --scale small --epochs 1 --pretrain 0 --seed 0`.
pub fn config() -> VegaConfig {
    let mut cfg = VegaConfig::default();
    cfg.train.pretrain_steps = 0;
    cfg.train.finetune_epochs = 1;
    cfg.seed = 0;
    cfg.train.seed = 1;
    cfg
}

/// Everything one pass from stage 1 through evaluation measured.
struct Pass {
    wall: Duration,
    stage1: Duration,
    stage2: Duration,
    train_samples: usize,
    /// The pass's `generate_backend` times, one per target.
    gen: Vec<Duration>,
    /// The repeated rounds' `generate_backend` times.
    regen: Vec<Duration>,
    /// Whether every repeated round generated the pass's payloads.
    regen_same: bool,
    eval: Duration,
    module: BTreeMap<Module, Duration>,
    functions: usize,
    failed: usize,
    kept: usize,
    emitted: usize,
    tokens: u64,
    scored: u64,
    pass1: f64,
    per_target: Vec<(String, usize)>,
    payloads: Vec<(String, String, String)>,
}

fn one_pass(cfg: &VegaConfig, corpus: Corpus, order: &[&str], tracer: &Tracer) -> Pass {
    let obs = vega_obs::global();
    let ((mut p, mut vega), wall) = tracer.timed("pipeline.pass", 0, |root: SpanId| {
        let (mut vega, _) = tracer.timed("vega.train_on", root, |_| {
            Vega::train_on(cfg.clone(), corpus)
        });
        let mut p = Pass {
            wall: Duration::ZERO,
            stage1: vega.timings.code_feature_mapping,
            stage2: vega.timings.model_creation,
            train_samples: vega.train_samples.len() * cfg.train.finetune_epochs,
            gen: Vec::new(),
            regen: Vec::new(),
            regen_same: true,
            eval: Duration::ZERO,
            module: BTreeMap::new(),
            functions: 0,
            failed: 0,
            kept: 0,
            emitted: 0,
            tokens: 0,
            scored: 0,
            pass1: 0.0,
            per_target: Vec::new(),
            payloads: Vec::new(),
        };
        let (tok0, sc0) = (
            obs.counter("decode.tokens"),
            obs.counter("decode.scored_tokens"),
        );
        let mut acc = Vec::new();
        for &target in order {
            let (gen, d) = tracer.timed("vega.generate_backend", root, |_| {
                vega.generate_backend(target)
            });
            p.gen.push(d);
            let (ev, d) = tracer.timed("vega_eval.eval_generated_backend", root, |_| {
                eval_generated_backend(&vega.corpus, &gen)
            });
            p.eval += d;
            acc.push(ev.function_accuracy());
            for (m, d) in &gen.module_times {
                *p.module.entry(*m).or_default() += *d;
            }
            p.per_target.push((target.to_string(), gen.functions.len()));
            for (_, gf) in &gen.functions {
                p.functions += 1;
                p.failed += usize::from(gf.function.is_none());
                p.kept += gf.stmts.iter().filter(|s| s.kept).count();
                p.emitted += gf.stmts.len();
            }
            p.payloads.extend(payloads(&gen));
        }
        p.tokens = obs.counter("decode.tokens") - tok0;
        p.scored = obs.counter("decode.scored_tokens") - sc0;
        p.pass1 = 100.0 * report::mean(&acc);
        (p, vega)
    });
    p.wall = wall;
    tracer.timed("pipeline.stage3_repeats", 0, |root| {
        for _ in 0..STAGE3_REPEATS {
            let mut again = Vec::new();
            for &target in order {
                let (gen, d) = tracer.timed("vega.generate_backend", root, |_| {
                    vega.generate_backend(target)
                });
                p.regen.push(d);
                again.extend(payloads(&gen));
            }
            p.regen_same &= again == p.payloads;
        }
    });
    p
}

/// `(target, group, payload)` for every generated function, the payload
/// rendered as `vega-serve` renders a `generate` result.
fn payloads(gen: &GeneratedBackend) -> impl Iterator<Item = (String, String, String)> + '_ {
    gen.functions.iter().map(|(module, gf)| {
        let payload =
            vega_serve::protocol::render_generated(&gen.target, &gf.name, *module, gf).render();
        (gen.target.clone(), gf.name.clone(), payload)
    })
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let cfg = config();
    let tracer = Tracer::new(args.trace);
    let mut setup = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        let (c, d) = tracer.timed("vega_corpus.Corpus::build", 0, |_| {
            Corpus::build(&cfg.corpus)
        });
        setup.push(d.as_secs_f64());
        corpus = Some(c);
    }
    let corpus = corpus.expect("SETUP_REPS is positive");
    // The seed orders the stage-3 targets. Training runs at the fixed config
    // seed: pass@1 moves by tens of points between training seeds, which
    // would drown any change a commit makes.
    let mut order: Vec<&str> = EVAL_TARGET_NAMES.to_vec();
    report::shuffle(&mut order, &mut Mix64::new(args.seed));

    let start = Instant::now();
    let mut passes = Vec::new();
    let counters = report::Counters::read();
    loop {
        passes.push(one_pass(&cfg, corpus.clone(), &order, &tracer));
        if passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    println!(
        "{}",
        counters.describe(&report::Counters::read(), start.elapsed())
    );
    let peak_rss_mb = report::peak_rss_mb();
    // A traced run then repeats one pass untraced; the tracing overhead is
    // its difference from the last traced pass.
    let untraced = args
        .trace
        .then(|| one_pass(&cfg, corpus.clone(), &order, &Tracer::new(false)));

    let first = &passes[0];
    for (target, n) in &first.per_target {
        out.check(
            format!("pipeline: {target} has {n} of {FUNCTIONS_PER_TARGET} functions"),
            *n == FUNCTIONS_PER_TARGET,
        );
    }
    out.check(
        format!(
            "pipeline: {} passes and their stage-3 repeats generate identical payloads",
            passes.len()
        ),
        passes
            .iter()
            .all(|p| p.payloads == first.payloads && p.regen_same),
    );
    let expected = EVAL_TARGET_NAMES.len() * FUNCTIONS_PER_TARGET;
    out.attempted = (expected * passes.len()) as u64;
    out.failed = passes
        .iter()
        .map(|p| (p.failed + expected.saturating_sub(p.functions)) as u64)
        .sum();

    let mut sorted: Vec<&(String, String, String)> = first.payloads.iter().collect();
    sorted.sort();
    let (dig, n) = report::digest(sorted.iter().map(|p| p.2.as_str()));
    println!("payload_digest={dig} payloads={n} (eval targets x groups, sorted)");

    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let gen_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.gen.iter().chain(&p.regen).map(|d| ms(*d)))
        .collect();
    let gen_s: f64 = gen_ms.iter().sum::<f64>() / 1e3;
    let functions = passes.iter().map(|p| p.functions).sum::<usize>() * (1 + STAGE3_REPEATS);
    let e = &mut out.e2e;
    e.insert("setup_s", median(&setup));
    e.insert("wall_s", median(&walls));
    e.insert("pass1_pct", first.pass1);
    e.insert("rps", functions as f64 / gen_s.max(1e-9));
    e.insert("latency_p50_ms", quantile(&gen_ms, 0.5));
    e.insert("latency_p90_ms", quantile(&gen_ms, 0.9));
    e.insert("peak_rss_mb", peak_rss_mb);
    println!(
        "pipeline: passes={} wall_s={:?} pass1_pct={:.2} ({} functions, stage-3 per-target latency samples={})",
        passes.len(),
        walls,
        first.pass1,
        first.functions,
        gen_ms.len()
    );

    if args.trace {
        let p = &passes[0];
        let stage3: f64 = p.gen.iter().map(Duration::as_secs_f64).sum();
        let l = &mut out.layers;
        l.insert("corpus.build_s", median(&setup));
        l.insert("stage1.s", p.stage1.as_secs_f64());
        l.insert("stage2.s", p.stage2.as_secs_f64());
        l.insert(
            "stage2.samples_per_s",
            p.train_samples as f64 / p.stage2.as_secs_f64().max(1e-9),
        );
        l.insert("stage3.s", stage3);
        l.insert(
            "stage3.functions_per_s",
            p.functions as f64 / stage3.max(1e-9),
        );
        for m in Module::ALL {
            l.insert(
                module_metric(m),
                p.module.get(&m).map_or(0.0, Duration::as_secs_f64),
            );
        }
        l.insert("stage3.kept_ratio", p.kept as f64 / p.emitted.max(1) as f64);
        l.insert(
            "decode.tokens_per_fn",
            p.tokens as f64 / p.functions.max(1) as f64,
        );
        l.insert(
            "decode.scored_tokens_per_fn",
            p.scored as f64 / p.functions.max(1) as f64,
        );
        l.insert("eval.s", p.eval.as_secs_f64());
        let attributed = p.stage1 + p.stage2 + p.eval + p.gen.iter().sum::<Duration>();
        l.insert(
            "pipeline.other_s",
            p.wall.as_secs_f64() - attributed.as_secs_f64(),
        );
        if let (Some(u), Some(last)) = (&untraced, passes.last()) {
            let (base, traced) = (u.wall.as_secs_f64(), last.wall.as_secs_f64());
            l.insert(
                "trace.overhead_pct",
                100.0 * (traced - base) / base.max(1e-9),
            );
            println!(
                "trace overhead: wall_s traced {traced:.4} - untraced {base:.4} = {:+.4} s",
                traced - base
            );
        }
        tracer.print_self_times();
        crate::write_trace(&tracer, args)?;
    }
    Ok(())
}

/// The per-layer metric name of a module's stage-3 time.
pub fn module_metric(m: Module) -> &'static str {
    match m {
        Module::Sel => "stage3.module_s.SEL",
        Module::Emi => "stage3.module_s.EMI",
        Module::Ass => "stage3.module_s.ASS",
        Module::Sch => "stage3.module_s.SCH",
        Module::Opt => "stage3.module_s.OPT",
        Module::Dis => "stage3.module_s.DIS",
        Module::Reg => "stage3.module_s.REG",
    }
}
