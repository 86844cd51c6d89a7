//! Feature scaling for the ML pipelines (Section 5.4: "feature scaling"
//! before CNN inference): a scaler is fitted on data and re-applied at
//! inference time.

/// Standard-score scaler: `(v - mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZScoreScaler {
    pub mean: f32,
    pub std: f32,
}

impl ZScoreScaler {
    /// Fits on data, ignoring NaNs; degenerate input yields unit std.
    pub fn fit(data: &[f32]) -> Self {
        let vals = || data.iter().filter(|v| !v.is_nan()).map(|&v| v as f64);
        let n = vals().count();
        if n == 0 {
            return ZScoreScaler { mean: 0.0, std: 1.0 };
        }
        let mean = vals().sum::<f64>() / n as f64;
        let var = vals().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let std = var.sqrt();
        ZScoreScaler { mean: mean as f32, std: if std > 0.0 { std as f32 } else { 1.0 } }
    }

    /// Standardizes one value.
    #[inline]
    fn apply(&self, v: f32) -> f32 {
        (v - self.mean) / self.std
    }

    /// Standardizes a buffer in place.
    pub fn apply_slice(&self, data: &mut [f32]) {
        for v in data {
            *v = self.apply(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zscore_standardizes() {
        let s = ZScoreScaler::fit(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean - 3.0).abs() < 1e-6);
        assert!((s.apply(3.0)).abs() < 1e-6);
        let mut buf = [1.0, 5.0];
        s.apply_slice(&mut buf);
        assert!((buf[0] + buf[1]).abs() < 1e-5, "symmetric points standardize symmetrically");
    }

    #[test]
    fn zscore_degenerate_input_is_safe() {
        let s = ZScoreScaler::fit(&[]);
        assert!(s.apply(1.0).is_finite());
        let s = ZScoreScaler::fit(&[4.0, 4.0]);
        assert_eq!(s.apply(4.0), 0.0);
    }
}
