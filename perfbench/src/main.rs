//! End-to-end and per-layer benchmark of the PANORAMA compiler.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload spr-8x8 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload (see [`workload::Workload`]). With
//! `--trace 0` it times cold compiles on one thread, shared-executor
//! batches at `available_parallelism` threads, and the oracles that check
//! every mapping, and reports the end-to-end metrics, each time scaled by
//! the host-speed yardstick (see [`yardstick`]). With `--trace 1` it
//! reports per-layer metrics from a traced pass instead. Either way it
//! prints one row per kernel, checks every output, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. The rows, the run
//! parameters and (traced) the per-layer table are also written under
//! `perfbench/results/`.

mod layers;
mod stats;
mod workload;
mod yardstick;

use layers::{Metric, TracedRun};
use panorama::arch::Cgra;
use panorama::mapper::Mapping;
use panorama::trace::{RecordingSink, SpanCollector, Tracer, NO_CANDIDATE};
use stats::{compile_ok, geomean, ii_ratio, median, ok_ratio, tail, Verdict};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{
    batch_after, check, compile_batch, compile_one, pass_order, setup, Checked, Setup, Workload,
};
use yardstick::Timed;

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("kernel_tail_ms", "ms"),
    ("batch_s", "s"),
    ("oracle_s", "s"),
    ("ii_over_mii", "ratio"),
    ("ii_at_mii", "count"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Oracle samples, and set-up samples but on the warm workload, a timed
/// run takes (at most one per compile), spread evenly between its
/// compiles: the host's speed drifts over seconds, and samples taken
/// together would all see the same moment of it.
const SAMPLES: usize = 21;

/// Least wall-clock one oracle sample spends: the battery repeats until
/// it has run this long, and the sample is the mean battery time, so a
/// battery of well under a millisecond is not timed on its own.
const ORACLE_SAMPLE_S: f64 = 0.05;

/// Least wall-clock one set-up sample spends, likewise (a set-up of a cold
/// workload takes about a millisecond).
const SETUP_SAMPLE_S: f64 = 0.02;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Returns the heap's free memory to the OS, then resets the peak resident
/// set (`VmHWM`) to the resident set (Linux `clear_refs`), so that
/// [`peak_rss_mb`] reads the peak since. The trim matters on the warm
/// workload, whose set-up compiles a batch: worker arenas keep a varying
/// share of what they freed.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers; it only releases
        // free pages of the heap's arenas.
        unsafe {
            malloc_trim(0);
        }
    }
    // where the reset is unsupported the peak is the whole process's
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one kernel produced over a run.
#[derive(Default)]
struct KernelStats {
    /// `(ii, mii, content hash)` of the first successful compile.
    first: Option<(usize, usize, u64)>,
    /// Compile time of every pass, seconds, scaled by the yardstick.
    compile_s: Vec<f64>,
    config_bits: usize,
    verdicts: Option<[Verdict; 3]>,
    failures: Vec<String>,
}

/// Tallies compiles and their failures, and remembers each kernel's first
/// result so every later compile of it is checked against that.
struct Ledger {
    kernels: Vec<KernelStats>,
    attempted: usize,
    ok: usize,
}

impl Ledger {
    fn new(n: usize) -> Self {
        Ledger {
            kernels: (0..n).map(|_| KernelStats::default()).collect(),
            attempted: 0,
            ok: 0,
        }
    }

    /// Records one compile of kernel `k`: `key` is `(ii, content hash)`
    /// or the error, `verdicts` what the oracles said (empty when only
    /// determinism is checked).
    fn record(
        &mut self,
        k: usize,
        what: &str,
        key: Result<(usize, usize, u64), String>,
        verdicts: &[Verdict],
    ) {
        self.attempted += 1;
        let stats = &mut self.kernels[k];
        let mut failures: Vec<String> = verdicts
            .iter()
            .filter_map(|v| match v {
                Verdict::Fail(msg) => Some(msg.clone()),
                _ => None,
            })
            .collect();
        match &key {
            Err(e) => failures.push(format!("{what}: did not map: {e}")),
            Ok(got) => match stats.first {
                None => stats.first = Some(*got),
                Some(first) if first != *got => failures.push(format!(
                    "{what}: nondeterministic: (ii {}, hash {:016x}) vs first (ii {}, hash {:016x})",
                    got.0, got.2, first.0, first.2
                )),
                Some(_) => {}
            },
        }
        if compile_ok(key.is_ok(), verdicts) && failures.is_empty() {
            self.ok += 1;
        }
        stats.failures.extend(failures);
    }

    /// Runs every oracle on kernel `k`'s `mapping` (mapped on `cgra`) and
    /// records the compile with their verdicts.
    fn check(
        &mut self,
        setup: &Setup,
        k: usize,
        what: &str,
        mapping: &Mapping,
        cgra: &Cgra,
        bench: &mut SpanCollector,
    ) -> Checked {
        let checked = check(&setup.kernels[k].dfg, cgra, mapping, bench);
        let stats = &mut self.kernels[k];
        stats.config_bits = checked.config_bits;
        let verdicts = checked.verdicts();
        if stats
            .verdicts
            .as_ref()
            .is_none_or(|v| v.iter().all(|x| !x.failed()))
        {
            stats.verdicts = Some(verdicts.clone());
        }
        self.record(k, what, Ok(key_of(mapping)), &verdicts);
        checked
    }

    fn failed(&self) -> usize {
        self.attempted - self.ok
    }
}

fn key_of(m: &Mapping) -> (usize, usize, u64) {
    (m.ii(), m.mii(), m.content_hash())
}

/// Totals of one pass.
#[derive(Default)]
struct PassTotals {
    /// Σ compile seconds, scaled by the yardstick.
    compile_s: f64,
    /// Σ compile wall-clock.
    raw_compile_s: f64,
    /// `(kernel, scaled compile seconds)` of every compile, in pass order.
    latencies: Vec<(usize, f64)>,
    /// Every mapping the pass produced, with the `Cgra` it was mapped on.
    mapped: Vec<(usize, Mapping, Cgra)>,
    mrrg: (u64, u64),
    warm: (u64, u64),
    tokens_checked: u64,
    active_words: u64,
    config_bits: u64,
}

/// Compiles every kernel once, in the seeded order of `pass`, each between
/// two yardstick readings, calling `between` after each compile; then runs
/// the oracle battery once over the pass's mappings and records every
/// verdict.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    setup: &Setup,
    ledger: &mut Ledger,
    seed: u64,
    pass: usize,
    what: &str,
    tracer: &Tracer,
    bench: &mut SpanCollector,
    between: &mut dyn FnMut(),
) -> PassTotals {
    let mut totals = PassTotals::default();
    for k in pass_order(seed, pass, setup.kernels.len()) {
        let ((compiled, cgra), timed) = yardstick::around(1, || {
            let out = compile_one(setup, k, tracer, bench);
            let seconds = out.0.seconds;
            (out, seconds)
        });
        totals.compile_s += timed.scaled_s;
        totals.raw_compile_s += timed.raw_s;
        totals.latencies.push((k, timed.scaled_s));
        totals.mrrg.0 += compiled.mrrg.0;
        totals.mrrg.1 += compiled.mrrg.1;
        totals.warm.0 += compiled.warm.0;
        totals.warm.1 += compiled.warm.1;
        match compiled.result {
            Err(e) => ledger.record(k, what, Err(e), &[]),
            Ok(mapping) => totals.mapped.push((k, mapping, cgra)),
        }
        between();
    }
    for (k, mapping, cgra) in &totals.mapped {
        let checked = ledger.check(setup, *k, what, mapping, cgra, bench);
        totals.tokens_checked += checked.tokens_checked as u64;
        totals.active_words += checked.active_words as u64;
        totals.config_bits += checked.config_bits as u64;
    }
    totals
}

/// The untimed warm-up: one compile of the suite's cheapest kernel and the
/// oracle battery over it, so the process's cold start (first heap growth,
/// lazily built state, cold code) is paid before anything is timed, at the
/// cost of milliseconds instead of a whole extra pass.
fn warm_up(setup: &Setup, ledger: &mut Ledger) {
    let k = workload::warm_up_kernel();
    let mut bench = SpanCollector::disabled();
    let (compiled, cgra) = compile_one(setup, k, &Tracer::disabled(), &mut bench);
    match compiled.result {
        Err(e) => ledger.record(k, "warm-up", Err(e), &[]),
        Ok(mapping) => {
            ledger.check(setup, k, "warm-up", &mapping, &cgra, &mut bench);
        }
    }
}

/// Keeps a timed pass's per-kernel compile latencies for the rows and
/// the tail.
fn record_latencies(ledger: &mut Ledger, totals: &PassTotals) {
    for &(k, seconds) in &totals.latencies {
        ledger.kernels[k].compile_s.push(seconds);
    }
}

/// Repeats `work` until `min_s` has passed (at least once) and returns the
/// mean wall-clock of one repetition.
fn mean_over(min_s: f64, mut work: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || t.elapsed().as_secs_f64() < min_s {
        work();
        reps += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(reps)
}

/// One oracle sample: the mean time of one battery over `mapped`, on the
/// `Cgra` built at set-up. The verdicts were recorded by the first pass;
/// the repeats only time the same calls.
fn time_oracle(setup: &Setup, mapped: &[(usize, Mapping)]) -> Timed {
    let mut bench = SpanCollector::disabled();
    let ((), timed) = yardstick::around(1, || {
        let mean = mean_over(ORACLE_SAMPLE_S, || {
            for (k, mapping) in mapped {
                check(&setup.kernels[*k].dfg, &setup.cgra, mapping, &mut bench);
            }
        });
        ((), mean)
    });
    timed
}

/// One set-up sample: the mean time of a set-up over repeats.
fn time_setup(args: &Args, threads: usize) -> Timed {
    let ((), timed) = yardstick::around(1, || {
        let mean = mean_over(SETUP_SAMPLE_S, || {
            setup(args.workload, threads).expect("the workload was set up before");
        });
        ((), mean)
    });
    timed
}

/// Runs the batch once, checks every result against the kernel's first
/// result, and returns its time.
fn record_batch(setup: &Setup, ledger: &mut Ledger, threads: usize) -> Timed {
    let (results, batch_s) = yardstick::around(threads, || compile_batch(setup, threads));
    for (k, result) in results.into_iter().enumerate() {
        ledger.record(
            k,
            "batch",
            result.as_ref().map(key_of).map_err(Clone::clone),
            &[],
        );
    }
    batch_s
}

fn rows_table(setup: &Setup, ledger: &Ledger) -> String {
    let mut out = format!(
        "{:<16} {:>3} {:>4} {:>11} {:>11} {:>9} {:>13} {:>13}\n",
        "kernel", "ii", "mii", "compile_ms", "config_bits", "verify", "simulate", "execute"
    );
    for (k, kernel) in setup.kernels.iter().enumerate() {
        let s = &ledger.kernels[k];
        let (ii, mii) = s.first.map_or((0, 0), |f| (f.0, f.1));
        let labels = s.verdicts.as_ref().map_or(["-", "-", "-"], |v| {
            [v[0].label(), v[1].label(), v[2].label()]
        });
        let _ = writeln!(
            out,
            "{:<16} {:>3} {:>4} {:>11.3} {:>11} {:>9} {:>13} {:>13}",
            kernel.name,
            ii,
            mii,
            median(&s.compile_s) * 1e3,
            s.config_bits,
            labels[0],
            labels[1],
            labels[2]
        );
    }
    out
}

/// The untraced run: end-to-end metrics. After the warm-up come the timed
/// passes, with the batches evenly between them and, on the warm workload,
/// its second timed set-up halfway. The first pass runs before any batch:
/// its results are the reference every later compile must reproduce, its
/// mappings are what the oracle samples check, and its peak resident set
/// is `peak_rss_mb`. Oracle samples, and on the other workloads set-up
/// samples, are taken evenly between the compiles of the later passes.
/// Every time is scaled by the yardstick readings around it; the report
/// also prints the wall-clock.
fn run_timed(args: &Args, threads: usize) -> Result<String, String> {
    let warm = args.workload.is_warm();
    let timed_setup = || {
        // the warm set-up compiles a batch; the others run on this thread
        yardstick::around(if warm { threads } else { 1 }, || {
            let t = Instant::now();
            let s = setup(args.workload, threads);
            (s, t.elapsed().as_secs_f64())
        })
    };
    let (setup, first_setup_s) = match timed_setup() {
        (Ok(s), timed) => (s, timed),
        (Err(e), _) => return Err(e),
    };
    let mut setup_s = if warm {
        vec![first_setup_s]
    } else {
        Vec::new()
    };
    let n = setup.kernels.len();
    let mut ledger = Ledger::new(n);
    let passes = args.workload.passes(args.seconds);
    let batches = args.workload.batches(args.seconds);
    let (mut compile_s, mut oracle_s, mut batch_s) = (Vec::new(), Vec::new(), Vec::new());
    let tracer = Tracer::disabled();
    let mut bench = SpanCollector::disabled();
    warm_up(&setup, &mut ledger);
    let process_rss_mb = peak_rss_mb();
    reset_peak_rss();
    let mut first_pass_rss_mb = None;
    let mut reference: Vec<(usize, Mapping)> = Vec::new();
    let compiles = (passes - 1) * n;
    let mut compiled = 0;
    for pass in 1..=passes {
        let mut take_samples = || {
            if pass == 1 {
                return;
            }
            compiled += 1;
            if compiled * SAMPLES / compiles > oracle_s.len() {
                oracle_s.push(time_oracle(&setup, &reference));
                if !warm {
                    setup_s.push(time_setup(args, threads));
                }
            }
        };
        let totals = run_pass(
            &setup,
            &mut ledger,
            args.seed,
            pass,
            "pass",
            &tracer,
            &mut bench,
            &mut take_samples,
        );
        if pass == 1 {
            first_pass_rss_mb = Some(peak_rss_mb());
            reference = totals
                .mapped
                .iter()
                .map(|(k, m, _)| (*k, m.clone()))
                .collect();
        }
        compile_s.push(Timed {
            raw_s: totals.raw_compile_s,
            scaled_s: totals.compile_s,
        });
        record_latencies(&mut ledger, &totals);
        if warm && pass == passes.div_ceil(2) {
            setup_s.push(timed_setup().1);
        }
        while batch_s.len() < batches && batch_after(batch_s.len(), batches, passes) == pass {
            batch_s.push(record_batch(&setup, &mut ledger, threads));
        }
    }

    let latencies_ms: Vec<f64> = ledger
        .kernels
        .iter()
        .flat_map(|s| s.compile_s.iter().map(|s| s * 1e3))
        .collect();
    let tail = tail(&latencies_ms).expect("every run compiles more than ten kernels");
    let firsts: Vec<(usize, usize, u64)> = ledger.kernels.iter().filter_map(|s| s.first).collect();
    let ratios: Vec<f64> = firsts
        .iter()
        .map(|&(ii, mii, _)| ii_ratio(ii, mii))
        .collect();
    let at_mii = firsts.iter().filter(|&&(ii, mii, _)| ii == mii).count();
    let scaled = |v: &[Timed]| median(&v.iter().map(|t| t.scaled_s).collect::<Vec<_>>());
    let values = [
        scaled(&setup_s),
        scaled(&compile_s),
        tail.value,
        scaled(&batch_s),
        scaled(&oracle_s),
        geomean(&ratios),
        at_mii as f64,
        first_pass_rss_mb.expect("every run makes a first pass"),
        ok_ratio(ledger.ok, ledger.attempted),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();

    let mut text = format!(
        "workload {} seed {} seconds {} passes {} batches {} (from the first pass on) threads {} available_parallelism {} setup_samples {} oracle_samples {}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        passes,
        batch_s.len(),
        threads,
        available_parallelism(),
        setup_s.len(),
        oracle_s.len()
    );
    text.push_str(&rows_table(&setup, &ledger));
    for (name, samples) in [
        ("setup_s per sample", &setup_s),
        ("compile_s per pass", &compile_s),
        ("batch_s per batch", &batch_s),
        ("oracle_s per sample", &oracle_s),
    ] {
        let column = |f: fn(&Timed) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
        let _ = writeln!(text, "{name}, scaled {:?}", column(|t| t.scaled_s));
        let _ = writeln!(text, "{name}, wall-clock {:?}", column(|t| t.raw_s));
    }
    let raw = |v: &[Timed]| median(&v.iter().map(|t| t.raw_s).collect::<Vec<_>>());
    let _ = writeln!(
        text,
        "wall-clock medians: setup_s {} compile_s {} batch_s {} oracle_s {}; host slowdown over the yardstick reference {:.3}",
        raw(&setup_s),
        raw(&compile_s),
        raw(&batch_s),
        raw(&oracle_s),
        raw(&compile_s) / scaled(&compile_s)
    );
    let _ = writeln!(
        text,
        "peak_rss_mb: whole process {} MiB",
        process_rss_mb.max(peak_rss_mb())
    );
    let _ = writeln!(
        text,
        "kernel_tail_ms at p{:.1}: {} samples, {} beyond",
        tail.percentile, tail.samples, tail.beyond
    );
    let _ = writeln!(
        text,
        "config_bits = {} bits",
        ledger.kernels.iter().map(|s| s.config_bits).sum::<usize>()
    );
    Ok(finish(args, ".txt", text, &setup, &ledger, &metrics))
}

/// The traced run: per-layer metrics.
fn run_traced(args: &Args, threads: usize) -> Result<String, String> {
    let setup = setup(args.workload, threads)?;
    let mut ledger = Ledger::new(setup.kernels.len());
    let mut run = TracedRun {
        threads,
        ..TracedRun::default()
    };
    // untimed warm-up, then the untraced reference pass and the traced
    // pass on the same inputs, then one batch
    warm_up(&setup, &mut ledger);
    let (disabled, mut no_spans) = (Tracer::disabled(), SpanCollector::disabled());
    let untraced = run_pass(
        &setup,
        &mut ledger,
        args.seed,
        1,
        "untraced pass",
        &disabled,
        &mut no_spans,
        &mut || {},
    );
    record_latencies(&mut ledger, &untraced);
    run.untraced_compile_s = untraced.raw_compile_s;
    let sink = RecordingSink::shared();
    let tracer = Tracer::new(sink.clone());
    let mut bench = tracer.collector(NO_CANDIDATE);
    let traced = run_pass(
        &setup,
        &mut ledger,
        args.seed,
        2,
        "traced pass",
        &tracer,
        &mut bench,
        &mut || {},
    );
    record_latencies(&mut ledger, &traced);
    tracer.submit(vec![bench]);
    run.mrrg_hits = traced.mrrg.0;
    run.mrrg_misses = traced.mrrg.1;
    run.warm_hits = traced.warm.0;
    run.warm_misses = traced.warm.1;
    run.tokens_checked = traced.tokens_checked;
    run.active_words = traced.active_words;
    run.config_bits = traced.config_bits;
    run.batch_s = record_batch(&setup, &mut ledger, threads).raw_s;
    let events = sink.take();
    let rows = layers::fold(&events);

    if setup.workload.is_warm() {
        run.cold_fallbacks = run.warm_hits.saturating_sub(layers::warm_reuses(&events));
        let compiler = workload::compiler(1);
        let spr = panorama::mapper::SprMapper::default();
        for (k, kernel) in setup.kernels.iter().enumerate() {
            let cold = compiler
                .compile(&kernel.dfg, &setup.cgra, &spr)
                .map_err(|e| format!("{}: cold compile of the edit: {e}", kernel.name))?;
            let warm_ii = ledger.kernels[k].first.map_or(0, |f| f.0);
            run.ii_gap += warm_ii as i64 - cold.mapping().ii() as i64;
        }
    }

    let metrics = layers::metrics(&rows, &run);
    let mut text = format!(
        "workload {} seed {} seconds {} traced pass; threads {} available_parallelism {}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        threads,
        available_parallelism()
    );
    text.push_str(&rows_table(&setup, &ledger));
    text.push('\n');
    text.push_str(&layers::table(&rows));
    text.push('\n');
    let ii = rows.get("spr.ii").map_or(0, |r| r.count);
    let _ = writeln!(text, "mapper.spr.ii_yield base: {ii} II attempts");
    Ok(finish(args, ".layers.txt", text, &setup, &ledger, &metrics))
}

/// Prints `text` and the metrics, names every failure with its kernel,
/// saves the report under `perfbench/results/`, and returns the final JSON
/// line.
fn finish(
    args: &Args,
    suffix: &str,
    mut text: String,
    setup: &Setup,
    ledger: &Ledger,
    metrics: &[Metric],
) -> String {
    for (name, unit, value) in metrics {
        let _ = writeln!(text, "{name} = {value} {unit}");
    }
    for (k, kernel) in setup.kernels.iter().enumerate() {
        for f in &ledger.kernels[k].failures {
            let _ = writeln!(text, "FAIL {}: {f}", kernel.name);
        }
    }
    print!("{text}");
    let dir = Path::new("perfbench").join("results");
    let path = dir.join(format!(
        "{}-seed{}{suffix}",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed() == 0,
        ledger.attempted,
        ledger.failed(),
        fields.join(", ")
    )
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = available_parallelism();
    let result = if args.trace {
        run_traced(&args, threads)
    } else {
        run_timed(&args, threads)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panorama::trace::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        let layers: Vec<(&str, &str)> = layers::metrics(&Default::default(), &TracedRun::default())
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), own(&layers));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, names);
    }
}
