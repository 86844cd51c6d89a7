//! Ingest of daily `(time, lat, lon)` files: `import_transposed` is a
//! plain transpose whatever the size (on both sides of its grain rule,
//! whatever the pool width — `scripts/check.sh` runs this crate under
//! `PAR_THREADS` 1, 2 and 4), and a file whose coordinates or payload
//! cannot be read yields an error, never a different cube.

use datacube::exec::ExecConfig;
use datacube::ops;
use ncformat::{Dataset, Reader};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("datacube-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Value at `(t, y, x)` of the test variable: unique per position.
fn value(t: usize, y: usize, x: usize) -> f32 {
    (t * 1_000_000 + y * 1_000 + x) as f32
}

/// Writes a `(time, lat, lon)` day file; `lat_coords` sets how many values
/// the `lat` coordinate variable holds (`None`: no `lat` variable at all).
fn day_file(name: &str, nt: usize, ny: usize, nx: usize, lat_coords: Option<usize>) -> PathBuf {
    let mut ds = Dataset::new();
    ds.add_dimension("time", nt).unwrap();
    ds.add_dimension("lat", ny).unwrap();
    ds.add_dimension("lon", nx).unwrap();
    ds.add_variable_f64("time", &["time"], (0..nt).map(|t| t as f64 * 6.0).collect()).unwrap();
    if let Some(n) = lat_coords {
        let dim = if n == ny { "lat" } else { "lat_short" };
        if n != ny {
            ds.add_dimension(dim, n).unwrap();
        }
        ds.add_variable_f64("lat", &[dim], (0..n).map(|y| y as f64 - 45.0).collect()).unwrap();
    }
    ds.add_variable_f64("lon", &["lon"], (0..nx).map(|x| x as f64 * 2.5).collect()).unwrap();
    let mut data = Vec::with_capacity(nt * ny * nx);
    for t in 0..nt {
        for y in 0..ny {
            for x in 0..nx {
                data.push(value(t, y, x));
            }
        }
    }
    ds.add_variable_f32("tas", &["time", "lat", "lon"], data).unwrap();
    let path = scratch(name);
    ds.write_to_path(&path).unwrap();
    path
}

/// `import_transposed` equals the naive `(t, y, x) -> (y, x, t)` transpose,
/// coordinates included, below and above the grain threshold (a 96×144
/// plane crosses it between 4 and 63 times) and for planes that are not
/// multiples of the 64-row tile.
#[test]
fn import_transposed_equals_naive_transpose() {
    for (ny, nx) in [(7, 9), (96, 144)] {
        for nt in [1, 4, 63, 64, 65, 130] {
            let path = day_file(&format!("t-{ny}x{nx}x{nt}.ncx"), nt, ny, nx, Some(ny));
            let rd = Reader::open(&path).unwrap();
            for nfrag in [1, 5] {
                let cube = ops::import_transposed(
                    &rd,
                    "tas",
                    "time",
                    "lat",
                    "lon",
                    nfrag,
                    ExecConfig::with_servers(2),
                )
                .unwrap();
                cube.validate().unwrap();
                let mut naive = Vec::with_capacity(nt * ny * nx);
                for y in 0..ny {
                    for x in 0..nx {
                        naive.extend((0..nt).map(|t| value(t, y, x)));
                    }
                }
                assert!(cube.to_dense() == naive, "{ny}x{nx}x{nt}, nfrag {nfrag}");
                let coords = |d: &str| cube.dim(d).unwrap().coords.to_vec();
                assert_eq!(coords("time"), (0..nt).map(|t| t as f64 * 6.0).collect::<Vec<_>>());
                assert_eq!(coords("lat"), (0..ny).map(|y| y as f64 - 45.0).collect::<Vec<_>>());
                assert_eq!(coords("lon"), (0..nx).map(|x| x as f64 * 2.5).collect::<Vec<_>>());
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A dimension without a coordinate variable gets indices; one whose
/// coordinate variable has the wrong length is an import error on both
/// import paths.
#[test]
fn coordinates_are_read_or_indexed_never_invented() {
    let cfg = ExecConfig::with_servers(2);
    let path = day_file("no-lat.ncx", 4, 6, 5, None);
    let rd = Reader::open(&path).unwrap();
    let cube = ops::import_transposed(&rd, "tas", "time", "lat", "lon", 2, cfg).unwrap();
    assert_eq!(cube.dim("lat").unwrap().coords.to_vec(), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);

    let path = day_file("short-lat.ncx", 4, 6, 5, Some(5));
    let rd = Reader::open(&path).unwrap();
    let transposed = ops::import_transposed(&rd, "tas", "time", "lat", "lon", 2, cfg);
    assert!(
        matches!(transposed, Err(datacube::Error::BadImport(ref m)) if m.contains("'lat'")),
        "{transposed:?}"
    );
    let direct = ops::importnc(&rd, "tas", &["time", "lat", "lon"], &[], 2, cfg);
    assert!(matches!(direct, Err(datacube::Error::BadImport(_))), "{direct:?}");
}

/// A file cut short inside the `tas` payload after it was opened (the
/// header was read whole) fails the import with the read error — in the
/// first time chunk and in a later one alike — and hands back no cube.
#[test]
fn payload_truncated_mid_variable_is_an_error() {
    let (nt, ny, nx) = (130, 7, 9);
    let path = day_file("torn.ncx", nt, ny, nx, Some(ny));
    let full = std::fs::read(&path).unwrap();
    // The payload starts with the f32 values 0, 1, 2, 3 (coordinates are f64).
    let head: Vec<u8> = (0..4).flat_map(|x| value(0, 0, x).to_le_bytes()).collect();
    let tas_offset = full.windows(head.len()).position(|w| w == head).unwrap();
    for keep_values in [10, 100 * ny * nx + 3] {
        std::fs::write(&path, &full).unwrap();
        let rd = Reader::open(&path).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((tas_offset + 4 * keep_values) as u64)
            .unwrap();
        let r = ops::import_transposed(&rd, "tas", "time", "lat", "lon", 3, ExecConfig::serial());
        assert!(matches!(r, Err(datacube::Error::Nc(_))), "cut after {keep_values} values: {r:?}");
    }
}
