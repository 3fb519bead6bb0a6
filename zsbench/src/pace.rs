//! The machine's pace during a run.  A fixed piece of the benchmark's own
//! work (no workspace crate runs in it) is timed again and again between
//! the measured samples, so a run can tell how fast the host let it run,
//! and its timings are reported at one nominal pace.
//!
//! The host's other tenants set the speed of the machine the benchmark
//! was tuned on (a 2-vCPU VM), in spells that can outlast a run, and
//! they slow the program's code and the reference work alike.  So each
//! timed sample (a set-up, a build, a window) is scaled by `NOMINAL_PASS_S` over
//! the reference pass time right before and after it: a sample taken in
//! a slow spell is scaled back by the spell's factor, and a change in
//! the program's code, which the reference work does not run, moves the
//! figure in full.  The end-to-end figures are medians of the scaled
//! samples over the whole run.

use crate::report::{median, Outcome};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

const TABLE_LEN: usize = 1 << 15;

/// Passes sampled before and after each set-up, build and serving window.
pub const PACE_PASSES: usize = 10;

/// The reference pass time the timings are reported at: about the
/// median pass on the 2-vCPU VM, so scaled figures read close to the
/// seconds measured there.
pub const NOMINAL_PASS_S: f64 = 0.0006;

/// A 256 KB table of pseudo-random words, built once.  It stays in the
/// core's caches and spans few pages, so where the allocator puts it
/// does not change the pace.
fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    })
}

/// One pass of the reference work, about a millisecond: dependent random
/// reads over the table (cache latency), a sort of pseudo-random keys
/// (branches) and dot products (floating point).  Returns its seconds.
fn one_pass() -> f64 {
    let table = table();
    let started = Instant::now();
    let mask = TABLE_LEN - 1;
    let mut i = 0usize;
    let mut acc = 0u64;
    for _ in 0..50_000 {
        let v = table[i];
        acc = acc.wrapping_add(v);
        i = ((v ^ acc) as usize) & mask;
    }
    let mut keys: Vec<u32> = table[..1 << 13].iter().map(|v| (*v >> 32) as u32).collect();
    keys.sort_unstable();
    let floats = &table[..1 << 12];
    let mut dot = 0.0f64;
    for r in 0..64 {
        dot += floats
            .iter()
            .zip(&floats[r..])
            .map(|(a, b)| (*a >> 11) as f64 * (*b >> 11) as f64)
            .sum::<f64>();
    }
    black_box((acc, keys[keys.len() / 2], dot));
    started.elapsed().as_secs_f64()
}

/// One timed window: its throughput and latency percentiles, and the
/// machine's slowdown while it ran (see `Pace::sample`).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub slow: f64,
}

/// The reference work's samples of one run.
#[derive(Debug, Default)]
pub struct Pace {
    samples: Vec<f64>,
    /// The passes of the latest `sample` call.
    last: Vec<f64>,
}

impl Pace {
    /// Time `passes` passes of the reference work and return how much
    /// slower than nominal the machine ran since the previous call: the
    /// median pass time over this call's and the previous call's passes,
    /// over `NOMINAL_PASS_S`.  Work timed between two calls is scaled by
    /// the second call's answer.
    pub fn sample(&mut self, passes: usize) -> f64 {
        let group: Vec<f64> = (0..passes).map(|_| one_pass()).collect();
        self.samples.extend(&group);
        let mut around = std::mem::replace(&mut self.last, group);
        around.extend(&self.last);
        median(&around) / NOMINAL_PASS_S
    }

    /// Push the end-to-end timing rows, medians over the run at the
    /// nominal pace: set-up and build seconds (`(secs, slow)` each), and
    /// the windows' throughput (req/s) and latency percentiles (ms).  The
    /// unscaled medians go to the detail line.
    pub fn report(
        &self,
        out: &mut Outcome,
        setups: &[(f64, f64)],
        builds: &[(f64, f64)],
        windows: &[Window],
    ) {
        out.details.push(("pace_pass_s", median(&self.samples)));
        out.details
            .push(("pace_samples", self.samples.len() as f64));
        // One row from `(measured, scale)` samples.
        let mut row = |name, unit, unscaled, samples: Vec<(f64, f64)>| {
            let scaled: Vec<f64> = samples.iter().map(|(v, scale)| v * scale).collect();
            let measured: Vec<f64> = samples.iter().map(|(v, _)| *v).collect();
            out.end_to_end.push(name, median(&scaled), unit);
            out.details.push((unscaled, median(&measured)));
        };
        let per_window = |f: fn(&Window) -> (f64, f64)| windows.iter().map(f).collect();
        let per_run = |runs: &[(f64, f64)]| runs.iter().map(|&(s, slow)| (s, 1.0 / slow)).collect();
        row("setup_s", "s", "setup_s_unscaled", per_run(setups));
        row("build_s", "s", "build_s_unscaled", per_run(builds));
        row(
            "throughput_qps",
            "req/s",
            "throughput_qps_unscaled",
            per_window(|w| (w.qps, w.slow)),
        );
        row(
            "latency_p50_ms",
            "ms",
            "latency_p50_ms_unscaled",
            per_window(|w| (w.p50_ms, 1.0 / w.slow)),
        );
        row(
            "latency_p99_ms",
            "ms",
            "latency_p99_ms_unscaled",
            per_window(|w| (w.p99_ms, 1.0 / w.slow)),
        );
    }
}
