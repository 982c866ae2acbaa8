//! Summary statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between closest
/// ranks (the common "type 7" definition); `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median; `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The geometric mean of positive samples; `None` for no samples.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

/// The arithmetic mean; `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hands the heap's free pages back to the system and restarts the peak
/// resident set (`VmHWM`) from the current one. Between two daemon
/// set-ups this drops what the stopped daemon left behind: glibc keeps the
/// freed memory of exited threads mapped, so without the trim every later
/// peak would count the earlier daemons too.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers; it only returns free heap
        // pages to the system.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to clear_refs resets the peak resident set (Linux >= 4.0).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!(close(median(&samples).unwrap(), 3.0));
        assert!(close(quantile(&samples, 0.0).unwrap(), 1.0));
        assert!(close(quantile(&samples, 1.0).unwrap(), 5.0));
        assert!(close(quantile(&samples, 0.9).unwrap(), 4.6));
        assert!(close(quantile(&samples, 0.25).unwrap(), 2.0));
        assert!(close(median(&[1.0, 2.0, 3.0, 10.0]).unwrap(), 2.5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(quantile(&hundred, 0.9).unwrap(), 90.1));
        assert!(close(median(&[7.0]).unwrap(), 7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_and_mean() {
        assert!(close(geomean(&[1.0, 4.0, 16.0]).unwrap(), 4.0));
        assert!(close(geomean(&[2.0, 8.0]).unwrap(), 4.0));
        assert!(close(geomean(&[3.5]).unwrap(), 3.5));
        assert!(close(mean(&[1.0, 2.0, 6.0]).unwrap(), 3.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
