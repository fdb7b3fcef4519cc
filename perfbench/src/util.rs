//! Small helpers shared by the workloads: hashing, seeded draws, medians,
//! memory readings, and panic capture.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// FNV-1a over bytes: a dependency-free fingerprint for pinned inputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A word-wise FNV-style hash of a pool image (equality checks only; 8×
/// cheaper than [`fnv64`] on multi-MiB images).
pub fn image_hash(image: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in image.chunks(8) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's only source of seeded draws.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `f`, turning a panic into `Err(message)`. The panic hook stays
/// quiet for it: the caller reports the failure in one line.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    ido_crashtest::quiet_panics(|| catch_unwind(AssertUnwindSafe(f))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "non-string panic".to_string()
        }
    })
}

/// Reads a corpus file of the checkout; the error names the path.
pub fn read_input(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Lower-case metric-name form of a scheme (`iDO` → `ido`).
pub fn scheme_key(s: ido_compiler::Scheme) -> &'static str {
    use ido_compiler::Scheme;
    match s {
        Scheme::Origin => "origin",
        Scheme::Ido => "ido",
        Scheme::JustDo => "justdo",
        Scheme::Atlas => "atlas",
        Scheme::Mnemosyne => "mnemosyne",
        Scheme::Nvml => "nvml",
        Scheme::Nvthreads => "nvthreads",
        Scheme::Nvtraverse => "nvtraverse",
        Scheme::LfEager => "lf_eager",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_hashes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(image_hash(&[0, 1]), image_hash(&[1, 0]));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
