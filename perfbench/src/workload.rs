//! The four workloads: what each compiles, how it is set up, and the calls
//! that compile a kernel and check the result. Everything here goes
//! through the compiler's public API.

use crate::stats::Verdict;
use panorama::arch::{Cgra, CgraConfig};
use panorama::dfg::{kernels, Dep, Dfg, DfgBuilder, KernelId, KernelScale, OpId, OpKind};
use panorama::exec::{execute, ExecOptions};
use panorama::mapper::{
    Configware, LowerLevelMapper, Mapping, SprConfig, SprMapper, WarmStartCache,
};
use panorama::trace::{SpanCollector, Tracer};
use panorama::{AnyMapper, BackendId, BatchExecutor, Panorama, PanoramaConfig};
use std::time::Instant;

/// Iterations the route-replay simulator checks per mapping.
const SIM_ITERATIONS: usize = 4;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scaled kernels on the 8×8 with SPR\*: route-bound.
    Spr8x8,
    /// Scaled kernels on the 8×8 with Ultra-Fast: partition-bound, no router.
    Uf8x8,
    /// Tiny kernels on the 4×4 with SAT: CNF build and CDCL solving.
    Sat4x4,
    /// One-op edits of the scaled kernels remapped warm by SPR\*.
    SprWarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Spr8x8,
        Workload::Uf8x8,
        Workload::Sat4x4,
        Workload::SprWarm,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Spr8x8 => "spr-8x8",
            Workload::Uf8x8 => "uf-8x8",
            Workload::Sat4x4 => "sat-4x4",
            Workload::SprWarm => "spr-8x8-warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn preset(self) -> CgraConfig {
        match self {
            Workload::Sat4x4 => CgraConfig::small_4x4(),
            _ => CgraConfig::scaled_8x8(),
        }
    }

    fn scale(self) -> KernelScale {
        match self {
            Workload::Sat4x4 => KernelScale::Tiny,
            _ => KernelScale::Scaled,
        }
    }

    fn backend(self) -> BackendId {
        match self {
            Workload::Uf8x8 => BackendId::UltraFast,
            Workload::Sat4x4 => BackendId::Sat,
            Workload::Spr8x8 | Workload::SprWarm => BackendId::Spr,
        }
    }

    /// Whether compiles remap edited kernels through a warm-start cache.
    pub fn is_warm(self) -> bool {
        self == Workload::SprWarm
    }

    /// Timed passes over the kernels a run of `seconds` makes: a fixed
    /// count per 30 s, so every run has the same sample count (a
    /// time-bounded loop would move the tail percentile between runs). On
    /// a 2-core x86-64 host a 30 s run takes about 15 to 55 s: two ~16 s
    /// passes on `spr-8x8`, four ~2 s passes on `uf-8x8`, three ~5 s
    /// passes on `sat-4x4` (36 latency samples, so the tail is the median
    /// of one kernel's three) and 12 ~0.3 s passes on `spr-8x8-warm`
    /// after its ~10 s set-up (twice), whose tail then sits near the median
    /// of its one slow kernel (2-D convolution, about half a pass) instead
    /// of at an extreme of it.
    pub fn passes(self, seconds: u64) -> usize {
        let per_30s = match self {
            Workload::Spr8x8 => 2,
            Workload::Uf8x8 => 4,
            Workload::Sat4x4 => 3,
            Workload::SprWarm => 12,
        };
        // the first pass is the reference the others are checked against
        per_30s_of(per_30s, seconds).max(2)
    }

    /// Batches a run of `seconds` makes, fixed per 30 s like the passes
    /// and run between them (see [`batch_after`]). A batch's wall-clock
    /// varies with how the shared executor happens to spread the kernels
    /// over its workers: on `spr-8x8`, whose three ~3 s kernels dominate,
    /// one ~9 s batch read anywhere from 7.5 to 10 s, so every workload
    /// times two or more per 30 s.
    pub fn batches(self, seconds: u64) -> usize {
        let per_30s = match self {
            Workload::Spr8x8 => 2,
            Workload::Uf8x8 => 4,
            Workload::Sat4x4 => 3,
            Workload::SprWarm => 5,
        };
        per_30s_of(per_30s, seconds)
    }
}

/// `per_30s` scaled to a run of `seconds`, rounded up, at least one.
fn per_30s_of(per_30s: u64, seconds: u64) -> usize {
    ((per_30s * seconds).div_ceil(30) as usize).max(1)
}

/// The pass (1-based) after which batch `j` (0-based) of `batches` runs:
/// the batches sit evenly between the passes, so every kind of sample is
/// spread over the whole run. The host's speed drifts over seconds, and
/// samples taken together would all see the same moment of it.
pub fn batch_after(j: usize, batches: usize, passes: usize) -> usize {
    ((2 * j + 1) * passes)
        .div_ceil(2 * batches)
        .clamp(1, passes)
}

/// The kernel the warm-up compiles: the suite's cheapest on every
/// workload.
pub fn warm_up_kernel() -> usize {
    KernelId::ALL
        .iter()
        .position(|&id| id == KernelId::Cordic)
        .expect("cordic is in the suite")
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// gives one input set on every platform.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The kernel order of pass `pass` under `seed` (Fisher–Yates).
pub fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed ^ (pass as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Rebuilds `dfg` with one extra `Add` reading twice from its first
/// non-store op: the smallest edit the warm-start cache must tolerate, and
/// the same edit `panorama bench` replays. The edit does not depend on the
/// seed: where an edit lands decides whether the warm search keeps the
/// hint's II or falls back to a seconds-long search, so seeded edits made
/// the warm workload's compile time and II differ several-fold by seed.
fn perturb(dfg: &Dfg) -> Dfg {
    let source = dfg
        .op_ids()
        .find(|&op| dfg.op(op).kind != OpKind::Store)
        .expect("suite kernels compute something");
    let mut b = DfgBuilder::new(format!("{}+1", dfg.name()));
    let copies: Vec<OpId> = dfg
        .op_ids()
        .map(|op| b.push_op(dfg.op(op).clone()))
        .collect();
    for e in dfg.deps() {
        let (src, dst) = (copies[e.src.index()], copies[e.dst.index()]);
        match *e.weight {
            Dep::Data => b.data(src, dst),
            Dep::Back { distance } => b.back(src, dst, distance),
        }
    }
    let extra = b.op(OpKind::Add, "bench_delta");
    b.data(copies[source.index()], extra);
    b.data(copies[source.index()], extra);
    b.build()
        .expect("an extra add on a copied kernel stays well-formed")
}

/// One kernel of a workload. For the warm workload `dfg` is the edited
/// kernel and `winner` the set-up mapping of the original.
pub struct Kernel {
    pub name: String,
    pub dfg: Dfg,
    pub winner: Option<(Dfg, Mapping)>,
}

/// A set-up workload, ready for passes.
pub struct Setup {
    pub workload: Workload,
    pub kernels: Vec<Kernel>,
    /// The preset, built at set-up. Cold compiles each get a fresh
    /// `Cgra::new` instead; the warm workload keeps this one warm.
    pub cgra: Cgra,
}

/// Builds the preset and generates the kernels; for the warm workload also
/// edits each kernel and cold-compiles the originals, as one batch at
/// `threads` workers, into the mappings that seed the warm-start cache.
///
/// # Errors
///
/// A message naming the kernel whose set-up compile failed.
pub fn setup(workload: Workload, threads: usize) -> Result<Setup, String> {
    let cgra = Cgra::new(workload.preset()).map_err(|e| format!("preset: {e}"))?;
    let mut kernels: Vec<Kernel> = KernelId::ALL
        .iter()
        .map(|&id| Kernel {
            name: id.to_string(),
            dfg: kernels::generate(id, workload.scale()),
            winner: None,
        })
        .collect();
    if workload.is_warm() {
        let spr = SprMapper::default();
        let compiler = compiler(threads);
        let tracer = Tracer::disabled();
        let winners = BatchExecutor::scope(threads, |exec| {
            exec.run_batch(kernels.len(), |exec, i| {
                compiler
                    .compile_batch_traced(exec, &kernels[i].dfg, &cgra, &spr, &tracer, None)
                    .map(|r| r.mapping().clone())
            })
        });
        for (kernel, winner) in kernels.iter_mut().zip(winners) {
            let mapping = winner.map_err(|e| format!("{}: set-up compile: {e}", kernel.name))?;
            let delta = perturb(&kernel.dfg);
            kernel.winner = Some((std::mem::replace(&mut kernel.dfg, delta), mapping));
        }
    }
    Ok(Setup {
        workload,
        kernels,
        cgra,
    })
}

/// The compiler as a CLI invocation configures it, at `threads` workers.
pub fn compiler(threads: usize) -> Panorama {
    Panorama::new(PanoramaConfig {
        threads,
        ..PanoramaConfig::default()
    })
}

/// A warm SPR\* mapper whose fresh cache holds exactly the set-up winners,
/// recorded in kernel order so lookups never depend on pass order or
/// thread timing.
pub fn warm_mapper(setup: &Setup) -> (SprMapper, WarmStartCache) {
    let cache = WarmStartCache::default();
    for k in &setup.kernels {
        if let Some((dfg, mapping)) = &k.winner {
            cache.record(dfg, &setup.cgra, mapping);
        }
    }
    let mapper = SprMapper::new(SprConfig::default()).with_warm_cache(cache.clone());
    (mapper, cache)
}

/// One finished compile.
pub struct Compiled {
    pub result: Result<Mapping, String>,
    /// Wall-clock of the compile call alone.
    pub seconds: f64,
    /// MRRG cache `(hits, misses)` during the compile call.
    pub mrrg: (u64, u64),
    /// Warm-start `(hits, misses)` during the compile call.
    pub warm: (u64, u64),
}

/// Compiles kernel `k` once on one thread. `tracer` is disabled for the
/// timed passes; the traced run hands in a recording one.
pub fn compile_one(
    setup: &Setup,
    k: usize,
    tracer: &Tracer,
    bench: &mut SpanCollector,
) -> (Compiled, Cgra) {
    let kernel = &setup.kernels[k];
    if setup.workload.is_warm() {
        let (mapper, cache) = warm_mapper(setup);
        let cgra = setup.cgra.clone();
        let before = (cgra.mrrg_cache().hits(), cgra.mrrg_cache().misses());
        let span = bench.start();
        let t = Instant::now();
        let result = if tracer.is_enabled() {
            let mut col = tracer.collector(0);
            let r = mapper.map_traced(&kernel.dfg, &cgra, None, None, &mut col);
            tracer.submit(vec![col]);
            r
        } else {
            mapper.map(&kernel.dfg, &cgra, None)
        };
        let seconds = t.elapsed().as_secs_f64();
        bench.record("bench.compile", span, &[]);
        let mrrg = (
            cgra.mrrg_cache().hits() - before.0,
            cgra.mrrg_cache().misses() - before.1,
        );
        let compiled = Compiled {
            result: result.map_err(|e| e.to_string()),
            seconds,
            mrrg,
            warm: (cache.hits(), cache.misses()),
        };
        return (compiled, cgra);
    }
    let cgra = Cgra::new(setup.workload.preset()).expect("the preset built at set-up");
    let mapper = setup.workload.backend().mapper();
    let compiler = compiler(1);
    let span = bench.start();
    let t = Instant::now();
    let result = if tracer.is_enabled() {
        compiler.compile_traced(&kernel.dfg, &cgra, &mapper, tracer)
    } else {
        compiler.compile(&kernel.dfg, &cgra, &mapper)
    };
    let seconds = t.elapsed().as_secs_f64();
    bench.record("bench.compile", span, &[]);
    let mrrg = (cgra.mrrg_cache().hits(), cgra.mrrg_cache().misses());
    let compiled = Compiled {
        result: result
            .map(|r| r.mapping().clone())
            .map_err(|e| e.to_string()),
        seconds,
        mrrg,
        warm: (0, 0),
    };
    (compiled, cgra)
}

/// Compiles every kernel as one batch on a shared executor of `threads`
/// workers. Returns each kernel's mapping (or its error) and the batch
/// wall-clock.
pub fn compile_batch(setup: &Setup, threads: usize) -> (Vec<Result<Mapping, String>>, f64) {
    let n = setup.kernels.len();
    if setup.workload.is_warm() {
        let mappers: Vec<SprMapper> = (0..n).map(|_| warm_mapper(setup).0).collect();
        let t = Instant::now();
        let out = BatchExecutor::scope(threads, |exec| {
            exec.run_batch(n, |_, i| {
                mappers[i]
                    .map(&setup.kernels[i].dfg, &setup.cgra, None)
                    .map_err(|e| e.to_string())
            })
        });
        return (out, t.elapsed().as_secs_f64());
    }
    let cgras: Vec<Cgra> = (0..n)
        .map(|_| Cgra::new(setup.workload.preset()).expect("the preset built at set-up"))
        .collect();
    let mapper: AnyMapper = setup.workload.backend().mapper();
    let compiler = compiler(threads);
    let tracer = Tracer::disabled();
    let t = Instant::now();
    let out = BatchExecutor::scope(threads, |exec| {
        exec.run_batch(n, |exec, i| {
            compiler
                .compile_batch_traced(
                    exec,
                    &setup.kernels[i].dfg,
                    &cgras[i],
                    &mapper,
                    &tracer,
                    None,
                )
                .map(|r| r.mapping().clone())
                .map_err(|e| e.to_string())
        })
    });
    (out, t.elapsed().as_secs_f64())
}

/// Every oracle's verdict on one mapping, plus what the configware weighs.
pub struct Checked {
    pub verify: Verdict,
    pub simulate: Verdict,
    pub execute: Verdict,
    pub config_bits: usize,
    pub active_words: usize,
    pub tokens_checked: usize,
    /// Wall-clock of all the oracle calls.
    pub seconds: f64,
}

impl Checked {
    pub fn verdicts(&self) -> [Verdict; 3] {
        [
            self.verify.clone(),
            self.simulate.clone(),
            self.execute.clone(),
        ]
    }
}

/// Runs the static verifier, and on routed mappings the route-replay
/// simulator, configware generation and the value-level executor.
/// Routeless (Ultra-Fast) mappings skip the last three with `no_routes`.
pub fn check(dfg: &Dfg, cgra: &Cgra, mapping: &Mapping, bench: &mut SpanCollector) -> Checked {
    let t = Instant::now();
    let span = bench.start();
    let verify = match mapping.verify(dfg, cgra) {
        Ok(()) => Verdict::Pass,
        Err(e) => Verdict::Fail(format!("verify: {e}")),
    };
    bench.record("bench.verify", span, &[]);
    let mut checked = Checked {
        simulate: Verdict::Skip("no_routes"),
        execute: Verdict::Skip("no_routes"),
        verify,
        config_bits: 0,
        active_words: 0,
        tokens_checked: 0,
        seconds: 0.0,
    };
    if mapping.routes().is_some() && checked.verify.failed() {
        checked.simulate = Verdict::Skip("verify_failed");
        checked.execute = Verdict::Skip("verify_failed");
    } else if mapping.routes().is_some() {
        let span = bench.start();
        checked.simulate = match panorama::sim::simulate(dfg, cgra, mapping, SIM_ITERATIONS) {
            Ok(_) => Verdict::Pass,
            Err(e) => Verdict::Fail(format!("simulate: {e}")),
        };
        bench.record("bench.simulate", span, &[]);
        let span = bench.start();
        let configware = Configware::generate(dfg, cgra, mapping);
        bench.record("bench.configware", span, &[]);
        checked.config_bits = configware.size_bits();
        checked.active_words = configware.active_words();
        let span = bench.start();
        checked.execute = match execute(dfg, cgra, mapping, &ExecOptions::default()) {
            Ok(run) if run.passed() => {
                checked.tokens_checked = run.checked_total();
                Verdict::Pass
            }
            Ok(run) => {
                let (vector, msg) = run.first_divergence().expect("a failed run diverged");
                Verdict::Fail(format!("execute ({vector}): {msg}"))
            }
            Err(e) => Verdict::Fail(format!("execute: {e}")),
        };
        bench.record("bench.execute", span, &[]);
    }
    checked.seconds = t.elapsed().as_secs_f64();
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(7, 0, 12);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_eq!(a, pass_order(7, 0, 12), "same seed, same order");
        assert_ne!(a, pass_order(7, 1, 12), "each pass gets its own order");
        assert_ne!(a, pass_order(8, 0, 12), "the seed changes the order");
    }

    #[test]
    fn batches_sit_between_the_passes() {
        let after = |batches, passes| -> Vec<usize> {
            (0..batches)
                .map(|j| batch_after(j, batches, passes))
                .collect()
        };
        assert_eq!(after(1, 2), [1]);
        assert_eq!(after(4, 8), [1, 3, 5, 7]);
        assert_eq!(after(2, 3), [1, 3]);
        assert_eq!(after(8, 24), [2, 5, 8, 11, 14, 17, 20, 23]);
        assert_eq!(after(3, 1), [1, 1, 1]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("spr"), None);
    }
}
