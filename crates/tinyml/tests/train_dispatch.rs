//! Training dispatches coarsely: each minibatch is two pool scopes (phase
//! A over the samples, phase B over the parameter rows), each of at most one
//! job per lane. A trainer that went back to one job per sample, per
//! channel or per row would multiply the count by the batch or the layer
//! width, and fails here. This file holds one test, so nothing else in its
//! process adds jobs to the global pool while it counts.

use tinyml::data::{generate_patches, PatchGenConfig};
use tinyml::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid};
use tinyml::net::Sequential;
use tinyml::tensor::Tensor;
use tinyml::train::{train_epoch, Sgd};

#[test]
fn one_epoch_runs_at_most_two_jobs_per_lane_per_minibatch() {
    // The TC-localization CNN's layout at a 16x16 patch.
    let mut net = Sequential::new()
        .add(Conv2d::new(4, 8, 3, 1, 1))
        .add(ReLU::new())
        .add(MaxPool2d::new(2))
        .add(Conv2d::new(8, 16, 3, 1, 2))
        .add(ReLU::new())
        .add(MaxPool2d::new(2))
        .add(Flatten::new())
        .add(Dense::new(16 * 4 * 4, 48, 3))
        .add(ReLU::new())
        .add(Dense::new(48, 3, 4))
        .add(Sigmoid::new());
    let samples = generate_patches(&PatchGenConfig { size: 16, ..Default::default() }, 70, 5);
    let mse = |y: &Tensor, t: &Tensor| {
        let d: Vec<f32> = y.data.iter().zip(&t.data).map(|(y, t)| y - t).collect();
        (d.iter().map(|d| d * d).sum(), Tensor::from_vec(&[3], d))
    };
    let pool = par::global();
    let lanes = pool.threads() as u64;
    let before = pool.jobs_run();
    let stats = train_epoch(&mut net, &mut Sgd::new(0.01, 0.9), &samples, 16, mse);
    let jobs = pool.jobs_run() - before;
    assert_eq!(stats.batches, 5, "70 samples in minibatches of 16");
    let bound = stats.batches as u64 * 2 * lanes;
    assert!(jobs <= bound, "{jobs} pool jobs for {} minibatches at {lanes} lanes", stats.batches);
    if lanes > 1 {
        assert!(jobs > 0, "training at {lanes} lanes ran nothing on the pool");
    }
}
