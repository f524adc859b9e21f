//! End-to-end benchmark of the VEGA reproduction's two workloads: the paper
//! pipeline and `generate` traffic to `vega-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline|serve_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs in this process, with the `vega-par` pool pinned to
//! two threads, the default kernel mode and logging off. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md`.

mod pipeline;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

/// `vega-par` pool size: the core count of the host the bounds were set on.
const POOL_THREADS: usize = 2;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where fixtures and traces go: `perfbench/out`, ignored by git.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes a traced run's spans as JSON lines.
fn write_trace(tracer: &trace::Tracer, args: &Args) -> Result<(), String> {
    let path = out_dir()?.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(())
}

fn main() {
    // Quiet logging: the obs handle reads VEGA_LOG once, on first use, and
    // nothing has used it yet.
    std::env::set_var("VEGA_LOG", "off");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--make-fixture") {
        vega_par::set_threads(POOL_THREADS);
        let Some(path) = argv.get(1) else {
            eprintln!("perfbench: --make-fixture needs a path");
            std::process::exit(2);
        };
        if let Err(e) = serve::make_fixture(std::path::Path::new(path)) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    vega_par::set_threads(POOL_THREADS);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} kernel={} pool={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        vega_nn::kernel::active_name(),
        vega_par::threads()
    );
    let mut out = report::Outcome::default();
    let ran = match args.workload.as_str() {
        "pipeline" => pipeline::run(&args, &mut out),
        "serve_cold" => serve::run(&args, &mut out),
        other => Err(format!("unknown workload `{other}` (pipeline, serve_cold)")),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let ok = out.attempted.saturating_sub(out.failed);
    out.e2e
        .insert("ok_pct", 100.0 * ok as f64 / out.attempted.max(1) as f64);
    if args.trace {
        out.print_layer_table();
    }
    println!("{}", out.result_line(args.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}
