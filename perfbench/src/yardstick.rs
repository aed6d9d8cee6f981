//! The host-speed yardstick: a fixed piece of work that belongs to the
//! benchmark, not to the compiler, timed right before and right after each
//! timed call so the call's wall-clock can be scaled to a host of fixed
//! speed.
//!
//! A shared host runs the same code up to ~1.5× slower for stretches of
//! seconds to minutes (other tenants on the same cores and caches), so
//! raw wall-clock spreads from run to run by more than any change worth
//! measuring. The yardstick mixes the kinds of work the compiler does
//! (graph search over adjacency lists, a binary heap, hash-map counting,
//! sorting and a dense matrix-vector loop), and its time follows the
//! compiler's far more closely than a pure arithmetic loop, a pointer
//! chase or a memory stream did. Because it is the benchmark's own code,
//! a change to the compiler moves the scaled times exactly as it moves the
//! wall-clock.

use crate::stats::median;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// What one reading takes on the host the benchmark was calibrated on
/// (2-vCPU x86-64 VM, release build), so scaled seconds read about as
/// wall-clock there.
pub const REFERENCE_S: f64 = 0.0022;

/// Nodes of the yardstick's graph; sets its cost (about 2 ms).
const NODES: usize = 4000;

/// Times one run of the yardstick: always the same work on the same
/// generated data.
pub fn read() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let adj: Vec<Vec<(u32, u32)>> = (0..NODES)
        .map(|i| {
            (0..4)
                .map(|_| {
                    let to = (i as u64 + 1 + next() % 64) % NODES as u64;
                    (to as u32, (next() % 16 + 1) as u32)
                })
                .collect()
        })
        .collect();
    // shortest paths from node 0
    let mut dist = vec![u32::MAX; NODES];
    let mut heap = BinaryHeap::new();
    dist[0] = 0;
    heap.push(Reverse((0u32, 0u32)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &(v, w) in &adj[u as usize] {
            if d + w < dist[v as usize] {
                dist[v as usize] = d + w;
                heap.push(Reverse((d + w, v)));
            }
        }
    }
    // breadth-first reach from node 1
    let mut seen = vec![false; NODES];
    let mut queue = VecDeque::from([1usize]);
    seen[1] = true;
    let mut reached = 0;
    while let Some(u) = queue.pop_front() {
        reached += 1;
        for &(v, _) in &adj[u] {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v as usize);
            }
        }
    }
    let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
    for (i, edges) in adj.iter().enumerate() {
        for &(v, w) in edges {
            *counts.entry((i as u32 % 512, v % 256)).or_insert(0) += w;
        }
    }
    let mut keys: Vec<f64> = dist
        .iter()
        .map(|&d| f64::from(d) * 0.37 + (next() % 1000) as f64)
        .collect();
    keys.sort_by(f64::total_cmp);
    // power iteration on a dense 96×96 matrix
    const N: usize = 96;
    let m: Vec<f64> = (0..N * N)
        .map(|k| ((k / N * (k % N)) % 7) as f64 + keys[k % NODES])
        .collect();
    let mut v = vec![1.0f64; N];
    for _ in 0..20 {
        let w: Vec<f64> = (0..N)
            .map(|i| (0..N).map(|j| m[i * N + j] * v[j]).sum())
            .collect();
        let s: f64 = w.iter().sum();
        v = w.iter().map(|x| x / s).collect();
    }
    black_box((reached, counts.len(), keys[0], v[0]));
    t.elapsed().as_secs_f64()
}

/// Readings taken before and again after each timed call. A single
/// reading can land on a spike of a few milliseconds that the call around
/// it did not see, so the host's speed is the median of all of them.
const READINGS: usize = 3;

/// A timed call: its wall-clock, and the wall-clock scaled by the
/// yardstick readings around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw_s: f64,
    pub scaled_s: f64,
}

/// `raw_s` scaled to the reference host by the `readings` taken around it:
/// their median stands for the host's speed over the call.
pub fn scale(raw_s: f64, readings: &[f64]) -> Timed {
    Timed {
        raw_s,
        scaled_s: raw_s * REFERENCE_S / median(readings),
    }
}

/// Reads the yardstick on `threads` threads at once: the host's speed with
/// that many cores busy, as during a batch (a reading on one thread misses
/// what the other cores' tenants do). The threads share a batch's work, so
/// their speeds add up: the result is the harmonic mean of their readings.
pub fn read_on(threads: usize) -> f64 {
    if threads <= 1 {
        return read();
    }
    let inverse: f64 = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..threads).map(|_| scope.spawn(read)).collect();
        readers
            .into_iter()
            .map(|r| 1.0 / r.join().expect("a reading does not panic"))
            .sum()
    });
    threads as f64 / inverse
}

/// Runs `work`, which uses `threads` threads and returns its own
/// wall-clock (so set-up it does before its timed part is not counted),
/// between [`READINGS`] readings on as many threads before and as many
/// after.
pub fn around<T>(threads: usize, work: impl FnOnce() -> (T, f64)) -> (T, Timed) {
    let mut readings: Vec<f64> = (0..READINGS).map(|_| read_on(threads)).collect();
    let (out, raw_s) = work();
    readings.extend((0..READINGS).map(|_| read_on(threads)));
    (out, scale(raw_s, &readings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_median_reading_over_the_reference() {
        let at_reference = scale(2.0, &[REFERENCE_S; 6]);
        assert!((at_reference.scaled_s - 2.0).abs() < 1e-12);
        // a host half as fast: the call took twice as long, so did the
        // yardstick, and the scaled time is the reference host's; one
        // reading on a spike does not move the median
        let r = REFERENCE_S;
        let slow = scale(4.0, &[2.0 * r, 1.9 * r, 2.1 * r, 2.0 * r, 6.0 * r, 2.0 * r]);
        assert!((slow.scaled_s - 2.0).abs() < 1e-12);
        assert_eq!(slow.raw_s, 4.0);
    }

    #[test]
    fn a_reading_takes_time_on_any_thread_count() {
        assert!(read() > 0.0);
        assert!(read_on(2) > 0.0);
    }
}
