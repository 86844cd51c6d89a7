//! The TC-localization head's composite loss: value plus gradient with
//! respect to the prediction.

/// Weighted sum of an MSE term over a subset of outputs and a BCE term over
/// another subset — the composite loss of the TC-localization head
/// (detection probability + center coordinates). The MSE term only applies
/// when `gate` is 1 (no coordinate penalty when there is no cyclone).
pub fn detection_loss(
    pred_prob: f32,
    pred_xy: (f32, f32),
    target_present: f32,
    target_xy: (f32, f32),
    coord_weight: f32,
) -> (f32, f32, (f32, f32)) {
    const EPS: f32 = 1e-6;
    let y = pred_prob.clamp(EPS, 1.0 - EPS);
    let t = target_present;
    let bce_loss = -(t * y.ln() + (1.0 - t) * (1.0 - y).ln());
    let gprob = (y - t) / (y * (1.0 - y));

    let gate = target_present;
    let dx = pred_xy.0 - target_xy.0;
    let dy = pred_xy.1 - target_xy.1;
    let mse_loss = gate * (dx * dx + dy * dy);
    let gxy = (gate * coord_weight * 2.0 * dx, gate * coord_weight * 2.0 * dy);

    (bce_loss + coord_weight * mse_loss, gprob, gxy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_loss_gates_coordinates() {
        // No cyclone present: coordinate error must not contribute.
        let (l_abs, _, gxy) = detection_loss(0.1, (0.9, 0.9), 0.0, (0.0, 0.0), 10.0);
        let (l_no_coord, _, _) = detection_loss(0.1, (0.0, 0.0), 0.0, (0.0, 0.0), 10.0);
        assert!((l_abs - l_no_coord).abs() < 1e-6);
        assert_eq!(gxy, (0.0, 0.0));

        // Cyclone present: coordinate error contributes and has gradient.
        let (l_present, _, gxy) = detection_loss(0.9, (0.9, 0.1), 1.0, (0.5, 0.5), 1.0);
        assert!(l_present > 0.0);
        assert!(gxy.0 > 0.0, "predicted x too large -> positive gradient");
        assert!(gxy.1 < 0.0, "predicted y too small -> negative gradient");
    }
}
