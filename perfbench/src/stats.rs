//! Order statistics and process-memory readings.

/// Median of `xs` (mean of the two middle values for an even count; 0 for an
/// empty slice). Sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The 10th percentile (nearest rank) of repeated wall times: the time a
/// tenth of the repetitions beat. Interference from other work on the host
/// only ever adds time, and on a shared host it comes and goes for seconds
/// at a time; this figure needs only a tenth of the repetitions to run
/// undisturbed, where the median needs half. Sorts in place; 0 when empty.
pub fn fast_decile(walls: &mut [f64]) -> f64 {
    if walls.is_empty() {
        return 0.0;
    }
    walls.sort_by(f64::total_cmp);
    let rank = (0.1 * walls.len() as f64).ceil() as usize;
    walls[rank.clamp(1, walls.len()) - 1]
}

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of an ascending slice; 0 for an
/// empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Reads one `kB` field (`VmHWM`, `VmRSS`) of `/proc/self/status`, in bytes;
/// 0 where the file or field is unavailable.
fn status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of this process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

/// Current resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        let mut walls: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&mut walls), 2.0);
        assert_eq!(fast_decile(&mut [7.0]), 7.0);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&xs, 0.5), 50);
        assert_eq!(quantile_sorted(&xs, 0.99), 99);
        assert_eq!(quantile_sorted(&xs, 1.0), 100);
        assert!(peak_rss_bytes() > 0 && rss_bytes() > 0);
    }
}
