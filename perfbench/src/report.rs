//! Metric names, the result line, order statistics and process diagnostics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one of
/// them with tracing off; `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pass1_pct", "%"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics reported by a traced run: `(name, unit, layer, moves,
/// measured on)`. A workload that bypasses a layer reports 0 for it.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str, &str); 30] = [
    ("corpus.build_s", "s", "vega-corpus", "setup_s", "all"),
    ("stage1.s", "s", "vega stage 1", "wall_s", "pipeline"),
    ("stage2.s", "s", "vega-model/vega-nn training", "wall_s", "pipeline"),
    ("stage2.samples_per_s", "1/s", "vega-model/vega-nn training", "wall_s", "pipeline"),
    ("stage3.s", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.functions_per_s", "1/s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.module_s.SEL", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.module_s.EMI", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.module_s.ASS", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.module_s.SCH", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.module_s.OPT", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.module_s.DIS", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.module_s.REG", "s", "vega stage 3", "wall_s; rps, latency", "pipeline; serve_cold"),
    ("stage3.kept_ratio", "ratio", "vega stage 3", "pass1_pct", "pipeline; serve_cold"),
    ("decode.tokens_per_fn", "count", "vega-nn decode", "service time", "pipeline; serve_cold"),
    ("decode.scored_tokens_per_fn", "count", "vega-nn decode", "service time", "pipeline; serve_cold"),
    ("eval.s", "s", "vega-eval", "wall_s", "pipeline"),
    ("pipeline.other_s", "s", "unattributed", "wall_s", "pipeline"),
    ("setup.load_checkpoint_s", "s", "vega-serve set-up", "setup_s", "serve"),
    ("setup.engine_s", "s", "vega-serve set-up", "setup_s", "serve"),
    ("setup.server_start_s", "s", "vega-serve set-up", "setup_s", "serve"),
    ("serve.queue_ms_p50", "ms", "vega-serve dispatcher", "latency", "serve_cold"),
    ("serve.queue_ms_mean", "ms", "vega-serve dispatcher", "latency", "serve_cold"),
    ("serve.service_ms_p50", "ms", "vega-serve engine", "rps, latency", "serve_cold"),
    ("serve.decode_ms_mean", "ms", "vega-serve engine", "rps, latency", "serve_cold"),
    ("serve.cache_hit_ratio", "ratio", "vega-serve cache/protocol", "rps, latency_p50_ms", "serve_cold"),
    ("serve.coalesced", "count", "vega-serve cache/protocol", "rps, latency_p50_ms", "serve_cold"),
    ("serve.shed", "count", "vega-serve cache/protocol", "rps, latency_p50_ms", "serve_cold"),
    ("serve.requests", "count", "vega-serve cache/protocol", "rps", "serve"),
    ("trace.overhead_pct", "%", "benchmark tracing", "none", "all"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (functions generated or requests sent).
    pub attempted: u64,
    /// Operations that failed: error responses, timeouts, byte mismatches,
    /// missing or unassembled functions.
    pub failed: u64,
    /// Workload self-checks: `(what it claims, held)`.
    pub checks: Vec<(String, bool)>,
    /// End-to-end values by name (tracing off).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a self-check and says so on standard output.
    pub fn check(&mut self, what: impl Into<String>, held: bool) {
        let what = what.into();
        println!("check: {} {what}", if held { "ok  " } else { "FAIL" });
        self.checks.push((what, held));
    }

    /// True when every self-check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: end-to-end metrics untraced, per-layer metrics traced.
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics = String::new();
        let mut push = |name: &str, unit: &str, value: f64| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        };
        if traced {
            for (name, unit, ..) in PER_LAYER {
                push(name, unit, self.layers.get(name).copied().unwrap_or(0.0));
            }
        } else {
            for (name, unit) in END_TO_END {
                push(name, unit, self.e2e.get(name).copied().unwrap_or(0.0));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// Prints the per-layer table with each metric's layer and prediction.
    pub fn print_layer_table(&self) {
        println!(
            "{:<28} {:>14} {:<6} {:<28} {:<20} on",
            "per-layer metric", "value", "unit", "layer", "moves"
        );
        for (name, unit, layer, moves, on) in PER_LAYER {
            let v = self.layers.get(name).copied().unwrap_or(0.0);
            println!("{name:<28} {v:>14.4} {unit:<6} {layer:<28} {moves:<20} {on}");
        }
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of a fixed ladder of percentiles that still has at least ten
/// samples beyond it, as `(percentile, value, samples beyond)`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    [99.9, 99.0, 98.0, 95.0, 90.0].into_iter().find_map(|p| {
        let beyond = (xs.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
        (beyond >= 10).then(|| (p, quantile(xs, p / 100.0), beyond))
    })
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and process counters read at the edges of a measured window.
#[derive(Clone, Copy)]
pub struct Counters {
    steal: u64,
    total: u64,
    nivcsw: i64,
    cpu_s: f64,
}

impl Counters {
    /// Reads `/proc/stat` and this process's resource usage.
    pub fn read() -> Counters {
        let (steal, total) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu: Vec<u64> = s
                    .lines()
                    .next()?
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal ...: guest
                // time is already counted in user.
                Some((cpu.get(7).copied().unwrap_or(0), cpu.iter().take(8).sum()))
            })
            .unwrap_or((0, 0));
        let (nivcsw, cpu_s) = rusage::involuntary_switches_and_cpu();
        Counters {
            steal,
            total,
            nivcsw,
            cpu_s,
        }
    }

    /// One diagnostics line for the window from `self` to `end`.
    pub fn describe(&self, end: &Counters, window: Duration) -> String {
        let dt = end.total.saturating_sub(self.total).max(1);
        format!(
            "diag: kernel={} pool={} steal_pct={:.2} involuntary_ctx_switches={} process_cpu_pct={:.1} window_s={:.3}",
            vega_nn::kernel::active_name(),
            vega_par::threads(),
            100.0 * end.steal.saturating_sub(self.steal) as f64 / dt as f64,
            end.nivcsw - self.nivcsw,
            100.0 * (end.cpu_s - self.cpu_s) / window.as_secs_f64().max(1e-9),
            window.as_secs_f64(),
        )
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals then fourteen longs,
    /// the last of which is `ru_nivcsw`.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    /// Involuntary context switches and CPU seconds of all threads of this
    /// process, including threads that have exited.
    pub fn involuntary_switches_and_cpu() -> (i64, f64) {
        let mut r = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `r` is a live, writable value laid out as the C
        // `struct rusage` of 64-bit Linux (guarded by the cfg above), and
        // RUSAGE_SELF (0) asks the kernel to fill exactly that struct.
        let rc = unsafe { getrusage(0, &mut r) };
        if rc != 0 {
            return (0, 0.0);
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        (r.longs[13], secs(&r.utime) + secs(&r.stime))
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod rusage {
    /// Not available off 64-bit Linux.
    pub fn involuntary_switches_and_cpu() -> (i64, f64) {
        (0, 0.0)
    }
}

/// Shuffles `xs` in place with a seeded Fisher-Yates pass.
pub fn shuffle<T>(xs: &mut [T], rng: &mut vega_corpus::Mix64) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// Digest of payloads in the given order: equal digests mean byte-identical
/// payload sequences.
pub fn digest<'a>(payloads: impl IntoIterator<Item = &'a str>) -> (String, usize) {
    let mut h = vega_serve::hash::StableHasher::new();
    let mut n = 0;
    for p in payloads {
        h.write_str(p);
        n += 1;
    }
    (h.finish_hex(), n)
}
