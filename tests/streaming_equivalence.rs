//! Streaming-equivalence suite: the in-memory data plane
//! (`--streaming`) must be a pure performance change. Every science
//! product of a streaming run — index maps, TC inputs, CNN and tracker
//! CSVs, rendered maps — must be byte-identical to the staged run over
//! the same parameters, the incremental record indices must match the
//! batch per-year pipeline, and a run killed mid-stream must resume
//! through the durable file fallback to the same bytes.
//!
//! `scripts/check.sh` runs this binary under `PAR_THREADS=1` and
//! `PAR_THREADS=4`: equivalence may not depend on pool width.
//!
//! Tests hold `SUITE_LOCK` for their whole body: the chaos hook is
//! process-wide, so an armed fault must never bleed into another test's
//! deliberately fault-free reference run.

use climate_workflows::{run_pipelined, run_sequential, WorkflowParams};
use dataflow::inject::{self, Fault};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static SUITE_LOCK: Mutex<()> = Mutex::new(());

fn suite_lock() -> MutexGuard<'static, ()> {
    SUITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("streaming-equivalence").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Small but non-trivial configuration: two years so the record state
/// crosses a year boundary, enough days for multi-day spells, a real
/// (seeded) CNN training run so the TC products are exercised.
fn params(dir: &Path, years: usize, streaming: bool) -> WorkflowParams {
    let mut p = WorkflowParams::test_scale(dir.to_path_buf());
    p.years = years;
    p.days_per_year = 10;
    p.train_samples = 120;
    p.train_epochs = 6;
    p.streaming = streaming;
    p
}

fn listing(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    v.sort();
    v
}

/// Asserts every file under `a` exists under `b` with identical bytes.
/// (`b` may carry extra files — the streaming run's record products.)
fn assert_superset_bitwise(a: &Path, b: &Path) {
    for name in listing(a) {
        let x = std::fs::read(a.join(&name)).unwrap();
        let y = std::fs::read(b.join(&name))
            .unwrap_or_else(|e| panic!("{name} missing from streaming run: {e}"));
        assert_eq!(x, y, "{name} differs between staged and streaming runs");
    }
}

/// Tentpole acceptance: a streaming run produces byte-identical science
/// to the staged (sequential) run — daily simulation output, all six
/// per-year index maps, the TC input bundle, the CNN CSV, the
/// tracker CSV and the rendered maps — plus the record-to-date products
/// only the streaming plane computes.
#[test]
fn streaming_products_bitwise_match_staged() {
    let _suite = suite_lock();
    let staged_dir = tmp("staged");
    let stream_dir = tmp("stream");
    run_sequential(params(&staged_dir, 2, false)).expect("staged run");
    let report = run_pipelined(params(&stream_dir, 2, true)).expect("streaming run");

    for sub in ["esm-out", "products"] {
        assert_superset_bitwise(&staged_dir.join(sub), &stream_dir.join(sub));
    }

    // The streaming run's extras are exactly the record products.
    let staged: std::collections::BTreeSet<String> =
        listing(&staged_dir.join("products")).into_iter().collect();
    let extras: Vec<String> =
        listing(&stream_dir.join("products")).into_iter().filter(|n| !staged.contains(n)).collect();
    assert_eq!(
        extras,
        [
            "record-cwd.ncx",
            "record-cwf.ncx",
            "record-cwn.ncx",
            "record-etccdi.ncx",
            "record-hwd.ncx",
            "record-hwf.ncx",
            "record-hwn.ncx"
        ],
        "unexpected streaming-only products"
    );

    let st = report.stream.expect("streaming report section");
    assert_eq!(st.years_streamed + st.fallback_years, 2);
    assert_eq!(st.record_years, 2, "record state must fold both years");

    // Task #16 is one body over files (staged) and blocks (streaming):
    // each year's CNN product must exist, carry rows, and match.
    for y in &report.years {
        let name = format!("products/tc-cnn-{}.csv", y.year);
        let staged = std::fs::read(staged_dir.join(&name)).expect("staged CNN CSV");
        assert!(staged.starts_with(b"day,step,lat,lon,confidence\n"), "{name} lacks its header");
        assert_eq!(staged, std::fs::read(stream_dir.join(&name)).expect("streaming CNN CSV"));
    }
}

/// Incremental-vs-batch at the product level: over a single year the
/// record-to-date wave maps are definitionally the year's own indices,
/// so the `record-*.ncx` files written by the incremental accumulators
/// must be byte-identical to the batch pipeline's per-year exports.
#[test]
fn record_indices_bitwise_match_batch_exports() {
    let _suite = suite_lock();
    let dir = tmp("record-batch");
    let report = run_pipelined(params(&dir, 1, true)).expect("streaming run");
    let year = report.years[0].year;
    let products = dir.join("products");
    for name in ["hwd", "hwn", "hwf", "cwd", "cwn", "cwf"] {
        let batch = std::fs::read(products.join(format!("{name}-{year}.ncx"))).unwrap();
        let record = std::fs::read(products.join(format!("record-{name}.ncx"))).unwrap();
        assert_eq!(record, batch, "record-{name} diverges from the batch export");
    }
}

/// Durability acceptance: a streaming run killed mid-simulation (the
/// second ESM year errors with no retries) resumes from its checkpoint;
/// the already-simulated year re-enters analytics through the directory
/// watcher fallback (its in-memory handoff died with the process), and
/// the final products are byte-identical to a staged run that never
/// failed.
#[test]
fn killed_stream_resumes_via_file_fallback_bitwise() {
    let _suite = suite_lock();
    let with_ckpt = |dir: &Path, years, streaming| {
        let mut p = params(dir, years, streaming);
        p.checkpoint = Some(dir.join("wf.ckpt"));
        p.task_retries = 0;
        p
    };

    // Reference: unfailed staged run (checkpointed too, for identical
    // parameters end to end).
    let clean_dir = tmp("kill-clean");
    run_sequential(with_ckpt(&clean_dir, 2, false)).expect("clean staged run");

    // Victim: streaming run killed at the SECOND ESM-year consult, so
    // year one is simulated (and checkpointed) before the crash.
    let dir = tmp("kill-victim");
    {
        let consults = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&consults);
        let _armed = obs::chaos::install(Arc::new(move |site: &str| {
            (site == inject::SITE_ESM && c2.fetch_add(1, Ordering::SeqCst) == 1)
                .then_some((Fault::Error, 1))
        }));
        let err = run_pipelined(with_ckpt(&dir, 2, true)).expect_err("year-2 fault must kill");
        assert!(err.to_string().contains("chaos"), "unexpected failure: {err}");
    }

    // Disarmed resume from the same checkpoint.
    let report = run_pipelined(with_ckpt(&dir, 2, true)).expect("resume run");
    let st = report.stream.expect("streaming report section");
    assert!(
        st.fallback_years >= 1,
        "the restored year must re-enter through the file fallback: {st:?}"
    );
    assert_eq!(st.record_years, 2, "record catch-up must fold the restored year");

    for sub in ["esm-out", "products"] {
        assert_superset_bitwise(&clean_dir.join(sub), &dir.join(sub));
    }
}
