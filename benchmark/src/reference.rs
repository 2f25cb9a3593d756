//! The host-speed reference: a fixed round of standard-library work that
//! is timed between repetitions, so that a repetition's host seconds can
//! be restated at one host speed.
//!
//! The development VM (and any shared build machine) changes speed under
//! the benchmark: the same binary ran `analytic_count` in 2.6 s and, half
//! an hour later, in 3.8 s; phases last minutes, so no number of
//! repetitions inside one 10 s run averages them out. A round of ordinary
//! code timed right before and right after a repetition slows down by the
//! same factor (measured over 40 minutes of interleaved rounds and
//! workload pieces: correlation 0.82-0.90 on 10 s windows with a slope of
//! 1.0-1.2, against 2.6-3.2 for a register-only multiply loop, which the
//! interference barely touches). Dividing by that factor cut the drift
//! between the medians of consecutive ten-run sets from 20-30 % to 3-9 %.
//!
//! The round is deliberately *not* the repository's code: it uses `std`
//! collections, sorting and formatting only, so it changes with the
//! toolchain and never with a pull request.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one round took on the development VM (2 vCPUs, Xeon
/// 2.1 GHz) when this constant was fixed; later runs there saw 0.09 to
/// 0.16 s. It only fixes the unit: a time divided by
/// `round / NOMINAL_ROUND_S` is "seconds on that machine, then".
pub const NOMINAL_ROUND_S: f64 = 0.110;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Buffers the round reuses, so its own allocations settle after the
/// first call.
#[derive(Default)]
pub struct Reference {
    keys: Vec<u64>,
    text: String,
}

impl Reference {
    /// Runs one round — sort, ordered map, hash map, number formatting
    /// and a binary-heap event loop, about a fifth of the time each — and
    /// returns the host seconds it took.
    pub fn round(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;

        for _ in 0..8 {
            self.keys.clear();
            self.keys.extend((0..150_000).map(|_| xorshift(&mut x)));
            self.keys.sort_unstable();
            acc ^= self.keys[self.keys.len() / 2];
        }

        for _ in 0..2 {
            let mut ordered = BTreeMap::new();
            for i in 0..40_000u64 {
                ordered.insert(xorshift(&mut x) >> 16, i);
            }
            for _ in 0..40_000 {
                let probe = xorshift(&mut x) >> 16;
                acc ^= ordered.range(probe..).next().map_or(0, |(k, v)| k ^ v);
            }
        }

        let mut counts: HashMap<u64, u64> = HashMap::new();
        for i in 0..500_000u64 {
            *counts.entry(xorshift(&mut x) % 50_000).or_default() += i;
        }
        acc ^= counts.values().fold(0, |a, b| a ^ b);

        for _ in 0..150_000 {
            let word = xorshift(&mut x);
            let _ = write!(
                self.text,
                "{}:{:.3},",
                word >> 20,
                (word >> 40) as f64 * 1e-3
            );
            if self.text.len() > 1 << 16 {
                acc ^= self.text.len() as u64;
                self.text.clear();
            }
        }

        let mut queue = BinaryHeap::with_capacity(1 << 15);
        for _ in 0..(1u32 << 15) {
            queue.push(Reverse(xorshift(&mut x) >> 20));
        }
        for _ in 0..300_000u32 {
            let Reverse(at) = queue.pop().expect("the queue never empties");
            acc ^= at;
            queue.push(Reverse(at + (xorshift(&mut x) >> 40)));
        }

        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}
