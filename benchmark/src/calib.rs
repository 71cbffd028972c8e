//! Host-speed calibration.
//!
//! On the reference box (a 2-vCPU virtual machine) the whole machine runs
//! 10–25 % faster or slower for seconds at a time, whatever the process
//! does: a pure in-memory loop shows the same swings as the benchmark
//! (README, "Noise"). A regression gate on raw wall time would need bounds
//! wider than any change worth catching. So next to every timed phase the
//! harness times a fixed **reference kernel** of its own — a sequential
//! pass, a dependent random walk and an arithmetic loop over a private
//! buffer, a few milliseconds — and reports phase times in *calibrated
//! seconds*: wall seconds × (nominal kernel time ÷ kernel time measured
//! just before and after the phase). On the reference box at its usual
//! speed the factor is 1; the raw factor of a run is reported as the
//! per-layer metric `harness.host_speed`.

use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time on the reference box at its usual speed. Only a
/// scale: it keeps calibrated seconds close to wall seconds there.
pub const NOMINAL_S: f64 = 0.0280;

const BUF_WORDS: usize = 1 << 22; // 32 MiB, well beyond the 4 MiB L2
const WALK_STEPS: usize = 400_000;
const ALU_STEPS: usize = 8_000_000;

pub struct Calibrator {
    buf: Vec<u64>,
    /// The most recent kernel time, in seconds.
    last: f64,
    /// Host speed at every sample so far: nominal ÷ measured kernel time.
    pub speeds: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf = (0..BUF_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator {
            buf,
            last: NOMINAL_S,
            speeds: Vec::new(),
        }
    }

    /// Run the reference kernel once (the sample before the first phase);
    /// returns its wall time in seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let buf = &self.buf;
        let mut s = 0u64;
        for _ in 0..2 {
            for &v in buf {
                s = s.wrapping_add(v);
            }
        }
        let mask = buf.len() - 1;
        let mut i = (s as usize) & mask;
        for _ in 0..WALK_STEPS {
            i = (buf[i] as usize ^ i.wrapping_mul(0x9E37)) & mask;
            s = s.wrapping_add(i as u64);
        }
        let mut x = s | 1;
        for _ in 0..ALU_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(s ^ x);
        let secs = t.elapsed().as_secs_f64();
        self.speeds.push(NOMINAL_S / secs);
        self.last = secs;
        secs
    }

    /// Close a phase: run the kernel and return the factor that turns the
    /// wall seconds measured since the previous sample into calibrated
    /// seconds (nominal ÷ mean of the kernel times before and after).
    pub fn factor(&mut self) -> f64 {
        let before = self.last;
        let after = self.sample();
        NOMINAL_S / ((before + after) / 2.0)
    }
}
