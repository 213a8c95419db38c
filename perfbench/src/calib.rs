//! Host-speed calibration.
//!
//! The shared 2-vCPU hosts this benchmark runs on change speed by 20 to
//! 40 % over minutes: neighbours contend for the shared last-level
//! cache and memory, every instruction slows, and the process's CPU
//! time slows with its wall time, so neither another timer nor more
//! repetitions remove it. The benchmark therefore runs a fixed
//! calibration kernel before the timed region and after every timed
//! repetition, and reports its median times scaled by how much slower
//! than [`REFERENCE_S`] the median kernel ran. The kernel lives here,
//! not in the library, so no change to the library moves it.
//!
//! The kernel mixes work whose slowdown was measured to track the
//! simulator's on a contended host: ordered-map inserts and a sort,
//! string formatting, parsing and hashing, fresh 8 MB buffers copied
//! and chased through, and a branchy bytecode loop. It runs in a child
//! process, so its buffers never show in the benchmark's peak resident
//! set.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The kernel's time on the reference host (2 vCPUs of an Intel Xeon at
/// 2.0 GHz) when quiet. Scaled times read as seconds on that host.
pub const REFERENCE_S: f64 = 0.12;

/// The flag that makes the benchmark binary run the kernel once and
/// print its time instead of benchmarking.
pub const FLAG: &str = "--calibrate";

/// Runs the kernel once in a child process and returns its time.
pub fn measure() -> f64 {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = Command::new(exe)
        .arg(FLAG)
        .output()
        .expect("the calibration child runs");
    assert!(
        out.status.success(),
        "the calibration child failed: {}",
        out.status
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the calibration child prints its time")
}

/// Runs the kernel once in this process and returns its wall time.
pub fn kernel_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let mut map = BTreeMap::new();
    for i in 0..60_000u64 {
        map.insert(rnd() & 0xFF_FFFF, i);
    }
    black_box(
        map.range(0x10_0000..0x80_0000)
            .map(|(_, v)| *v)
            .sum::<u64>(),
    );
    let mut pairs: Vec<(u32, u32)> = (0..150_000)
        .map(|_| (rnd() as u32 & 0xFFFF, rnd() as u32))
        .collect();
    pairs.sort();
    black_box(&pairs);

    let mut words: HashMap<String, u32> = HashMap::new();
    for _ in 0..60_000 {
        let key = format!("k{:.3}", (rnd() % 1_000_000) as f64 / 7.0);
        let back: f64 = key[1..].parse().expect("a formatted float parses");
        *words.entry(key).or_default() += back as u32 & 1;
    }
    black_box(words.len());

    let src = vec![7u8; 8 << 20];
    let mut dst = vec![0u8; 8 << 20];
    for _ in 0..6 {
        dst.copy_from_slice(black_box(&src));
    }
    black_box(&dst);

    let table: Vec<u64> = (0..1 << 20).map(|_| rnd()).collect();
    let mut idx = 0usize;
    for _ in 0..300_000 {
        idx = (table[idx] as usize ^ idx) & (table.len() - 1);
    }
    black_box(idx);

    let prog: Vec<u8> = (0..4096).map(|_| (rnd() % 6) as u8).collect();
    let mut regs = [1u64; 8];
    let mut pc = 0usize;
    for _ in 0..3_000_000 {
        let r = (pc * 7) & 7;
        match prog[pc] {
            0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 7]),
            1 => regs[r] ^= regs[(r + 3) & 7].rotate_left(7),
            2 => regs[r] = regs[r].wrapping_mul(0x100_0000_01B3),
            3 => {
                if regs[r] & 1 == 0 {
                    pc = (pc + 17) & 4095;
                }
            }
            4 => regs[r] = regs[r] >> 3 | 1,
            _ => regs[(r + 5) & 7] = regs[r].wrapping_sub(3),
        }
        pc = (pc + 1) & 4095;
    }
    black_box(regs);
    t.elapsed().as_secs_f64()
}
