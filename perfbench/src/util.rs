//! Small shared pieces: the seeded RNG, percentiles, the metric sink, the
//! input digest, peak-RSS readout and the scratch directory.

use std::path::PathBuf;
use std::time::Duration;

/// SplitMix64: tiny, fast, and identical on every platform, so one seed
/// always produces the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A `width`-bit value (`width <= 64`).
    pub fn bits(&mut self, width: u32) -> u64 {
        self.next_u64() & mask(width)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// FNV-1a over everything a run generates, printed so two runs of one
/// seed can be compared.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// The calibration loop's time at the reference host speed, in ns.
const CALIBRATION_REF_NS: f64 = 40_000.0;

/// Host-speed calibration. Shared 2-vCPU Intel Xeon VMs were measured to
/// change speed by up to 1.7x, per vCPU, on scales from a tenth of a
/// second to minutes, which moves wall-clock figures of the same code by
/// 30% between runs. A fixed loop of sorting, hashing and allocation —
/// benchmark code, untouched by any change to the repository — is timed
/// on the measuring thread right before each timed operation; timings are
/// scaled by `CALIBRATION_REF_NS` over the median of the last five loop
/// times, i.e. reported at a fixed reference host speed.
pub struct Calibration {
    recent: [f64; 5],
    filled: usize,
}

impl Calibration {
    pub fn new() -> Self {
        let mut c = Calibration {
            recent: [0.0; 5],
            filled: 0,
        };
        for _ in 0..5 {
            c.sample();
        }
        c
    }

    /// Times the loop once more.
    pub fn sample(&mut self) {
        let t = std::time::Instant::now();
        let mut v: Vec<u64> = (0..2048u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20)
            .collect();
        v.sort_unstable();
        let mut m = std::collections::HashMap::with_capacity(64);
        for x in &v[..768] {
            *m.entry(x % 61).or_insert(0u64) += x;
        }
        let s: String = m
            .values()
            .map(|x| char::from(b'a' + (x % 26) as u8))
            .collect();
        std::hint::black_box((v, s));
        self.recent[self.filled % 5] = ns(t.elapsed());
        self.filled += 1;
    }

    /// Multiplier from wall time to reference-speed time.
    pub fn scale(&self) -> f64 {
        CALIBRATION_REF_NS / median(&self.recent)
    }
}

/// Counts operations and keeps the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    shown: usize,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.shown < 5 {
            self.shown += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    pub fn check(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(e) => self.fail(&e),
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Prints the human-readable summary and, as the last line of standard
/// output, the result object.
pub fn print_result(tally: &Tally, metrics: &Metrics) {
    let correct = tally.failed == 0;
    println!(
        "error_rate = {} ({} failed / {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for (name, value, unit) in &metrics.0 {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// Peak resident set size (`VmHWM`) of `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-process scratch directory under the working directory (the
/// benchmark reads and writes nothing outside the directory it runs in).
/// Removed by [`Scratch::drop`].
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}
