//! Spike detection on hourly traffic series.
//!
//! §4.3 observes that leaked services receive "spikes" of traffic —
//! attackers "only briefly scan a leaked service, likely after it has been
//! found … on a search engine". The paper detects the phenomenon with a KS
//! test plus manual verification; this module makes the manual step
//! explicit: a spike hour is one whose volume exceeds the series'
//! median-based robust threshold.

use crate::descriptive::median;

/// A detected spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// Hour index in the series.
    pub hour: usize,
    /// Volume at that hour.
    pub volume: f64,
    /// The threshold it exceeded.
    pub threshold: f64,
}

/// Detect spike hours: volume > median + `k` · MAD-scale (robust sigma).
///
/// The median absolute deviation is scaled by 1.4826 to estimate σ under
/// normality; a floor of 1 event keeps flat-zero series from flagging every
/// blip. `k = 3` is a conventional robust outlier cut.
pub fn detect_spikes(hourly: &[f64], k: f64) -> Vec<Spike> {
    let Some(med) = median(hourly) else {
        return Vec::new();
    };
    let deviations: Vec<f64> = hourly.iter().map(|v| (v - med).abs()).collect();
    let mad = median(&deviations).unwrap_or(0.0);
    let sigma = (1.4826 * mad).max(0.5);
    let threshold = med + k * sigma;
    let threshold = threshold.max(med + 1.0);
    hourly
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > threshold)
        .map(|(hour, &volume)| Spike {
            hour,
            volume,
            threshold,
        })
        .collect()
}

/// Summary of a series' burstiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeProfile {
    /// Number of spike hours.
    pub spike_hours: usize,
    /// Fraction of total volume concentrated in spike hours.
    pub volume_in_spikes: f64,
    /// Peak-to-median ratio (∞-safe: 0 when the series is empty).
    pub peak_to_median: f64,
}

/// Profile a series' burstiness with the default k = 3 cut.
pub fn spike_profile(hourly: &[f64]) -> SpikeProfile {
    let spikes = detect_spikes(hourly, 3.0);
    let total: f64 = hourly.iter().sum();
    let in_spikes: f64 = spikes.iter().map(|s| s.volume).sum();
    let med = median(hourly).unwrap_or(0.0);
    let peak = hourly.iter().cloned().fold(0.0f64, f64::max);
    SpikeProfile {
        spike_hours: spikes.len(),
        volume_in_spikes: if total > 0.0 { in_spikes / total } else { 0.0 },
        peak_to_median: if med > 0.0 { peak / med } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_has_no_spikes() {
        let flat = vec![5.0; 168];
        assert!(detect_spikes(&flat, 3.0).is_empty());
        let p = spike_profile(&flat);
        assert_eq!(p.spike_hours, 0);
        assert!((p.peak_to_median - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bursts_are_detected() {
        let mut series = vec![2.0; 168];
        series[10] = 80.0;
        series[99] = 60.0;
        let spikes = detect_spikes(&series, 3.0);
        let hours: Vec<usize> = spikes.iter().map(|s| s.hour).collect();
        assert_eq!(hours, vec![10, 99]);
        let p = spike_profile(&series);
        assert_eq!(p.spike_hours, 2);
        assert!(p.volume_in_spikes > 0.25);
        assert!(p.peak_to_median > 30.0);
    }

    #[test]
    fn zero_series_is_quiet() {
        let z = vec![0.0; 24];
        assert!(detect_spikes(&z, 3.0).is_empty());
        let p = spike_profile(&z);
        assert_eq!(p.spike_hours, 0);
        assert_eq!(p.volume_in_spikes, 0.0);
    }

    #[test]
    fn empty_series_is_safe() {
        assert!(detect_spikes(&[], 3.0).is_empty());
        let p = spike_profile(&[]);
        assert_eq!(p.spike_hours, 0);
    }

    #[test]
    fn noisy_but_unspiked_series_stays_quiet() {
        // Alternating 4/6 around median 5 — well inside 3 robust sigmas.
        let series: Vec<f64> = (0..168)
            .map(|h| if h % 2 == 0 { 4.0 } else { 6.0 })
            .collect();
        assert!(detect_spikes(&series, 3.0).is_empty());
    }
}
