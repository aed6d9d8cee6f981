//! Folds the traced run's spans into per-layer metrics.
//!
//! The compiler's own spans come from `compile_traced` / `map_traced`; the
//! benchmark adds `bench.*` spans around each public call it makes
//! (compile, verify, simulate, configware, execute) on the same tracer, so
//! every span shares one clock and nests by interval.

use crate::stats::self_times;
use panorama::trace::TraceEvent;
use std::collections::BTreeMap;

/// Per-phase totals over a traced pass.
#[derive(Debug, Default, Clone)]
pub struct PhaseRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Counter sums by counter name.
    pub counters: BTreeMap<&'static str, i64>,
}

/// Per-phase rows keyed by phase name.
pub fn fold(events: &[TraceEvent]) -> BTreeMap<&'static str, PhaseRow> {
    let spans: Vec<(u64, u64)> = events.iter().map(|e| (e.start_ns, e.end_ns)).collect();
    let self_ns = self_times(&spans);
    let mut rows: BTreeMap<&'static str, PhaseRow> = BTreeMap::new();
    for (event, own) in events.iter().zip(self_ns) {
        let row = rows.entry(event.phase).or_default();
        row.count += 1;
        row.total_ns += event.end_ns.saturating_sub(event.start_ns);
        row.self_ns += own;
        for &(name, value) in &event.counters {
            *row.counters.entry(name).or_default() += value;
        }
    }
    rows
}

/// Everything the traced run measures besides the spans.
#[derive(Debug, Default, Clone)]
pub struct TracedRun {
    /// Untraced one-thread pass wall-clock (Σ compile calls), seconds.
    pub untraced_compile_s: f64,
    /// Batch wall-clock at `threads` workers, seconds.
    pub batch_s: f64,
    pub threads: usize,
    pub mrrg_hits: u64,
    pub mrrg_misses: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    /// Warm remaps that hit the cache but did not map from the hint
    /// (see [`warm_reuses`]).
    pub cold_fallbacks: u64,
    /// Σ (warm II − cold II) over the edited kernels.
    pub ii_gap: i64,
    pub tokens_checked: u64,
    pub active_words: u64,
    pub config_bits: u64,
}

/// One per-layer metric: name, unit and value.
pub type Metric = (&'static str, &'static str, f64);

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// never reaches reads 0.
pub fn metrics(rows: &BTreeMap<&'static str, PhaseRow>, run: &TracedRun) -> Vec<Metric> {
    let empty = PhaseRow::default();
    let row = |phase: &str| rows.get(phase).unwrap_or(&empty);
    let self_ms = |phase: &str| ms(row(phase).self_ns);
    let count = |phase: &str| row(phase).count as f64;
    let sum =
        |phase: &str, counter: &str| row(phase).counters.get(counter).copied().unwrap_or(0) as f64;
    let cancelled = count("spr.cancelled") + count("ultrafast.cancelled");
    let compile = row("bench.compile");
    let traced_compile_s = compile.total_ns as f64 / 1e9;
    let program_ns: u64 = rows
        .iter()
        .filter(|(phase, _)| !phase.starts_with("bench."))
        .map(|(_, r)| r.self_ns)
        .sum();
    vec![
        ("mapper.spr.route_ms", "ms", self_ms("spr.route")),
        ("mapper.spr.route_rounds", "count", count("spr.route")),
        (
            "mapper.spr.router_iterations",
            "count",
            sum("spr.route", "iterations"),
        ),
        ("mapper.spr.ii_attempts", "count", count("spr.ii")),
        ("mapper.spr.place_ms", "ms", self_ms("spr.place")),
        ("mapper.spr.place_fail", "count", count("spr.place_fail")),
        ("mapper.spr.place_fail_ms", "ms", self_ms("spr.place_fail")),
        ("mapper.spr.anneal_ms", "ms", self_ms("spr.anneal")),
        (
            "mapper.spr.ii_yield",
            "ratio",
            ratio(sum("spr.ii", "success"), count("spr.ii")),
        ),
        ("cluster.partition_ms", "ms", self_ms("partition")),
        (
            "cluster.eigen_sweeps",
            "count",
            sum("partition", "eigen_sweeps"),
        ),
        ("place.scatter_ms", "ms", self_ms("scatter")),
        ("place.ilp_bnb_nodes", "count", sum("scatter", "bnb_nodes")),
        (
            "place.simplex_pivots",
            "count",
            sum("scatter", "simplex_pivots"),
        ),
        ("lint.preflight_ms", "ms", self_ms("preflight")),
        ("mapper.ultrafast.ii_ms", "ms", self_ms("ultrafast.ii")),
        (
            "mapper.ultrafast.ii_attempts",
            "count",
            count("ultrafast.ii"),
        ),
        ("sat.encode_ms", "ms", self_ms("sat.ii")),
        ("sat.solve_ms", "ms", self_ms("sat.solve")),
        ("sat.solves", "count", count("sat.solve")),
        ("sat.conflicts", "count", sum("sat.solve", "conflicts")),
        ("core.candidates", "count", count("map.candidate")),
        ("core.cancelled", "count", cancelled),
        (
            "core.batch_efficiency",
            "ratio",
            ratio(run.untraced_compile_s, run.threads as f64 * run.batch_s),
        ),
        ("arch.mrrg_hits", "count", run.mrrg_hits as f64),
        ("arch.mrrg_misses", "count", run.mrrg_misses as f64),
        ("warmstart.hits", "count", run.warm_hits as f64),
        (
            "warmstart.hit_ratio",
            "ratio",
            ratio(
                run.warm_hits as f64,
                (run.warm_hits + run.warm_misses) as f64,
            ),
        ),
        (
            "warmstart.cold_fallbacks",
            "count",
            run.cold_fallbacks as f64,
        ),
        ("warmstart.ii_gap", "cycles", run.ii_gap as f64),
        ("verify.ms", "ms", self_ms("bench.verify")),
        ("sim.simulate_ms", "ms", self_ms("bench.simulate")),
        ("exec.execute_ms", "ms", self_ms("bench.execute")),
        ("exec.tokens_checked", "count", run.tokens_checked as f64),
        ("configware.generate_ms", "ms", self_ms("bench.configware")),
        ("configware.active_words", "count", run.active_words as f64),
        ("configware.size_bits", "bits", run.config_bits as f64),
        (
            "trace.coverage",
            "ratio",
            ratio(program_ns as f64, compile.total_ns as f64),
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            ratio(traced_compile_s, run.untraced_compile_s),
        ),
    ]
}

/// The value of counter `name` on `event`, if it carries one.
fn counter(event: &TraceEvent, name: &str) -> Option<i64> {
    event
        .counters
        .iter()
        .find(|&&(k, _)| k == name)
        .map(|&(_, v)| v)
}

/// Whether one warm remap mapped from the cache's hint. `inside` holds the
/// events within its `bench.compile` span. The hint was reused when a
/// `spr.warm` event seeded at least one op, a `spr.ii` attempt at that
/// event's II succeeded, and no attempt diverged from the recorded mapping
/// and restarted cold. A hit that fails any of these fell back to a cold
/// search: the hint's II failed and a later II succeeded, or the hint
/// seeded nothing, or its II lay outside the search range. A seeded
/// placement that fails as a whole at the hint's II and is retried cold at
/// the same II emits no event of its own, so it still reads as a reuse.
fn reused_hint(inside: &[&TraceEvent]) -> bool {
    let diverged = inside
        .iter()
        .any(|e| counter(e, "warm_diverged") == Some(1));
    let succeeded_at = |ii: i64| {
        inside.iter().any(|e| {
            e.phase == "spr.ii" && counter(e, "success") == Some(1) && counter(e, "ii") == Some(ii)
        })
    };
    !diverged
        && inside.iter().any(|e| {
            e.phase == "spr.warm"
                && counter(e, "seeds").is_some_and(|n| n > 0)
                && counter(e, "ii").is_some_and(succeeded_at)
        })
}

/// Warm remaps, one per `bench.compile` span, that mapped from the cache's
/// hint (see [`reused_hint`]).
pub fn warm_reuses(events: &[TraceEvent]) -> u64 {
    events
        .iter()
        .filter(|c| c.phase == "bench.compile")
        .filter(|c| {
            let inside: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| c.start_ns <= e.start_ns && e.end_ns <= c.end_ns)
                .collect();
            reused_hint(&inside)
        })
        .count() as u64
}

/// The per-layer table: one line per phase with its count, total and self
/// time and its share of the traced compile time, then its counters.
pub fn table(rows: &BTreeMap<&'static str, PhaseRow>) -> String {
    use std::fmt::Write as _;
    let compile_ns = rows.get("bench.compile").map_or(0, |r| r.total_ns).max(1);
    let mut out = String::from("phase\tcount\ttotal_ms\tself_ms\tself_share\tcounters\n");
    for (phase, r) in rows {
        let counters: Vec<String> = r.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "{phase}\t{}\t{:.3}\t{:.3}\t{:.4}\t{}",
            r.count,
            ms(r.total_ns),
            ms(r.self_ns),
            r.self_ns as f64 / compile_ns as f64,
            counters.join(" ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        phase: &'static str,
        span: (u64, u64),
        counters: &[(&'static str, i64)],
    ) -> TraceEvent {
        TraceEvent {
            phase,
            candidate: 0,
            seq: 0,
            start_ns: span.0,
            end_ns: span.1,
            counters: counters.to_vec(),
            stable: true,
        }
    }

    /// One warm remap in `[start, start + 100]` whose hint targets II 5:
    /// the warm event with `seeds` seeded ops, then the given II attempts.
    fn remap(start: u64, seeds: i64, attempts: &[(i64, i64)]) -> Vec<TraceEvent> {
        let mut events = vec![
            event("bench.compile", (start, start + 100), &[]),
            event(
                "spr.warm",
                (start + 5, start + 5),
                &[("ii", 5), ("seeds", seeds)],
            ),
        ];
        for (i, &(ii, success)) in attempts.iter().enumerate() {
            let at = start + 1 + 30 * i as u64;
            events.push(event(
                "spr.ii",
                (at, at + 29),
                &[("ii", ii), ("success", success)],
            ));
        }
        events
    }

    #[test]
    fn warm_reuse_needs_success_at_the_hints_ii() {
        assert_eq!(warm_reuses(&remap(0, 12, &[(5, 1)])), 1);
        // the hint's II fails routing and the search goes on cold at II 6
        assert_eq!(warm_reuses(&remap(0, 12, &[(5, 0), (6, 1)])), 0);
        // a hint that seeded no op is a cold search at the hint's II
        assert_eq!(warm_reuses(&remap(0, 0, &[(5, 1)])), 0);
    }

    #[test]
    fn warm_reuse_counts_each_compile_span_on_its_own() {
        let mut events = remap(0, 12, &[(5, 1)]);
        events.extend(remap(200, 12, &[(5, 0), (6, 1)]));
        events.extend(remap(400, 12, &[(5, 1)]));
        assert_eq!(warm_reuses(&events), 2);
        // a remap whose hint II was never tried (no spr.warm event)
        events.push(event("bench.compile", (600, 700), &[]));
        events.push(event("spr.ii", (601, 650), &[("ii", 4), ("success", 1)]));
        assert_eq!(warm_reuses(&events), 2);
    }

    #[test]
    fn warm_reuse_rejects_a_diverged_replay() {
        let mut events = remap(0, 12, &[(5, 1)]);
        events.push(event(
            "spr.ii",
            (40, 60),
            &[("ii", 5), ("success", 0), ("warm_diverged", 1)],
        ));
        assert_eq!(warm_reuses(&events), 0);
    }
}
