//! Host-speed probe: converts host seconds into reference seconds.
//!
//! The benchmark's hosts share their cores and caches with other tenants,
//! and the speed of the same simulation drifts by 20-35% over minutes. A
//! median inside one run cannot remove drift that lasts longer than the
//! run. So the benchmark samples a fixed probe just before and just after
//! every timed interval and scales the interval by how much slower than
//! usual the probe ran:
//!
//! `reference_s = host_s × (REFERENCE_S / probe_s) ^ SENSITIVITY`
//!
//! where `probe_s` is the geometric mean of the two samples. The probe is
//! branchy, random-access work over a 4 MiB table, the same kind of work
//! as the simulator, and shares no code with the crates. It never runs
//! while the simulator does, and each sample starts with an untimed call
//! that brings the table back into the caches. So the timed calls do not
//! depend on how much of the table the simulator evicted: a change to the
//! crates, its working set included, moves the simulated time and not the
//! probe.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Probe loop iterations per call.
const ITERS: u32 = 100_000;
/// log2 of the probe table's length in words.
const TABLE_BITS: u32 = 20;
/// The probe table's size in MB. It is resident for the whole run.
pub const TABLE_MB: f64 = (4u64 << TABLE_BITS) as f64 / (1u64 << 20) as f64;
/// Timed calls per sample, after the untimed one.
const CALLS: usize = 8;
/// The usual probe sample on the reference host, a 2-CPU Intel Xeon KVM
/// guest. A reference second is a host second on that host in its usual
/// state.
const REFERENCE_S: f64 = 0.0015;
/// How much more the simulator slows down than the probe when the host
/// is busy: the log-log slope of host time against probe time, fitted on
/// repetitions and set-ups of the three workloads (see `README.md`).
const SENSITIVITY: f64 = 1.3;

/// The probe table lives outside the heap: a live 4 MiB heap block
/// changes when the allocator returns freed memory to the kernel, and
/// with it the cost of building a machine that `setup_s` measures.
static TABLE: [AtomicU32; 1 << TABLE_BITS] = [const { AtomicU32::new(0) }; 1 << TABLE_BITS];

/// Handle to the probe, made once the table is filled.
pub struct Probe(());

impl Probe {
    pub fn new() -> Probe {
        for (i, w) in (0u32..).zip(&TABLE) {
            w.store(i.wrapping_mul(0x9E37_79B1), Ordering::Relaxed);
        }
        Probe(())
    }

    /// Host seconds of one probe call, as the host runs now: the lower
    /// quartile of `CALLS` timed calls made after an untimed one. The
    /// quartile skips calls that an interrupt slowed down.
    pub fn sample(&mut self) -> f64 {
        call();
        let mut calls: Vec<f64> = (0..CALLS).map(|_| call()).collect();
        calls.sort_by(f64::total_cmp);
        calls[CALLS / 4]
    }
}

/// Host seconds of one pass of the probe loop over the table.
fn call() -> f64 {
    let mask = (1usize << TABLE_BITS) - 1;
    let started = Instant::now();
    let mut x: u64 = 1;
    let mut acc = 0u32;
    for _ in 0..ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 44) as usize & mask;
        // Relaxed atomics compile to plain loads and stores.
        let w = TABLE[i].load(Ordering::Relaxed);
        match w & 3 {
            0 => acc = acc.wrapping_add(w),
            1 => acc ^= w.rotate_left(5),
            2 => TABLE[i].store(w.wrapping_add(acc), Ordering::Relaxed),
            _ => acc = acc.wrapping_mul(3),
        }
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Reference seconds per host second for an interval between the probe
/// samples `before` and `after`.
pub fn factor(before: f64, after: f64) -> f64 {
    (REFERENCE_S / (before * after).sqrt()).powf(SENSITIVITY)
}
