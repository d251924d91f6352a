//! Small descriptive-statistics helpers used across the pipeline:
//! medians (the §4.4 group-median filtering), means, and fold changes.

/// Median of a sample (average of the two middle elements for even n).
/// Returns `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    median_in_place(&mut values.to_vec())
}

/// [`median`] over a buffer the caller lends, sorted in place instead of
/// copied.
pub fn median_in_place(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` on empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Fold increase of `treatment` over `control` means.
///
/// Used for Table 3's "Fold Increase in Traffic per Hour". When the control
/// mean is zero, the fold is reported against a floor of one event over the
/// whole window (the smallest observable control signal) to keep the
/// statistic finite and monotone.
pub fn fold_increase(treatment: &[f64], control: &[f64]) -> Option<f64> {
    let t = mean(treatment)?;
    let c = mean(control)?;
    let window = control.len().max(1) as f64;
    let floor = 1.0 / window;
    Some(t / c.max(floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn fold_increase_basic() {
        let t = vec![20.0; 10];
        let c = vec![5.0; 10];
        assert!((fold_increase(&t, &c).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fold_increase_zero_control_is_finite() {
        let t = vec![10.0; 168];
        let c = vec![0.0; 168];
        let f = fold_increase(&t, &c).unwrap();
        assert!(f.is_finite());
        assert!(f > 100.0);
    }
}
