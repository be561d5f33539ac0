//! Order statistics, image hashing and process memory.

use pvr_render::Image;

/// Median of `v` (mean of the middle pair for even lengths); `0.0` for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample. Returns `(value, percentile, samples)`.
/// With fewer than eleven samples no such percentile exists and the
/// median stands in, labelled as the 50th percentile.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let n = v.len();
    if n < 11 {
        return (median(v), 50.0, n);
    }
    let s = sorted(v);
    let idx = n - 11;
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over the image size and every pixel channel's bit pattern:
/// two images hash equal only if they are bit-identical (up to the
/// 64-bit collision odds).
pub fn image_hash(img: &Image) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (w, ht) = img.size();
    eat(&(w as u64).to_le_bytes());
    eat(&(ht as u64).to_le_bytes());
    for p in img.pixels() {
        for c in p {
            eat(&c.to_bits().to_le_bytes());
        }
    }
    h
}

/// Peak resident set of this process in MB (10^6 bytes), from the
/// kernel's high-water mark `VmHWM`. `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 is followed by exactly ten larger samples.
        assert_eq!(tail(&v), (90.0, 90.0, 100));
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (2.0, 50.0, 3));
    }
}
