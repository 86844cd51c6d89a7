//! The hyperslab reader's granularity promise: a slab is read as its
//! coalesced contiguous runs, so reading a `[t, lat, lon]` variable one
//! whole `[1, lat, lon]` step at a time (the TC tracker's access pattern)
//! costs about what one whole-variable read does. A plan that seeks and
//! reads once per latitude row shows as a many-fold larger cost.

use ncformat::{Reader, Writer};
use std::time::Instant;

/// Largest ratio of the median cost of reading every step slab to the
/// median cost of one `read_shared_f32` of the same variable before it is
/// a regression. On a 2-core host the coalesced plan, reading each run
/// straight into the output, read 0.80–1.21 in 20 runs of this test; the
/// one-run-per-row plan it replaced read 10.1–14.9 in 10.
const STEP_SLABS_OVER_WHOLE_READ_BOUND: f64 = 3.0;

const STEPS: usize = 240;
const NLAT: usize = 48;
const NLON: usize = 72;

/// Gate (`scripts/check.sh`, release): over 21 interleaved reps, reading
/// all 240 `[1, 48, 72]` step slabs costs at most
/// [`STEP_SLABS_OVER_WHOLE_READ_BOUND`] times one whole-variable read.
#[test]
#[ignore = "timing gate: run in release by scripts/check.sh"]
fn step_slabs_cost_about_one_whole_variable_read() {
    let dir = std::env::temp_dir().join(format!("ncx-slab-timing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("steps.ncx");
    let data: Vec<f32> = (0..STEPS * NLAT * NLON).map(|i| (i % 977) as f32 * 0.25).collect();
    let mut w = Writer::create(&path).unwrap();
    w.add_dimension("time", STEPS).unwrap();
    w.add_dimension("lat", NLAT).unwrap();
    w.add_dimension("lon", NLON).unwrap();
    w.add_variable_f32("psl", &["time", "lat", "lon"], &data, vec![]).unwrap();
    w.finish().unwrap();
    let rd = Reader::open(&path).unwrap();

    let mut slabs = Vec::new();
    let mut whole = Vec::new();
    for _ in 0..21 {
        let start = Instant::now();
        for s in 0..STEPS {
            let step = rd.read_slab_f32("psl", &[s, 0, 0], &[1, NLAT, NLON]).unwrap();
            std::hint::black_box(&step);
        }
        slabs.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(rd.read_shared_f32("psl").unwrap());
        whole.push(start.elapsed().as_secs_f64());
    }
    std::fs::remove_dir_all(&dir).ok();
    let [slabs, whole] = [slabs, whole].map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    let ratio = slabs / whole;
    println!(
        "step slabs {:.3} ms, whole read {:.3} ms, ratio {ratio:.2} (bound {STEP_SLABS_OVER_WHOLE_READ_BOUND})",
        slabs * 1e3,
        whole * 1e3
    );
    assert!(
        ratio <= STEP_SLABS_OVER_WHOLE_READ_BOUND,
        "{STEPS} step slabs cost {ratio:.2}x one whole read, over the \
         {STEP_SLABS_OVER_WHOLE_READ_BOUND}x bound"
    );
}
