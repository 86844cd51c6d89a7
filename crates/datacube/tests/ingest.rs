//! Ingest of daily `(time, lat, lon)` files: `import_transposed` is a
//! plain transpose whatever the size (on both sides of its grain rule,
//! whatever the pool width — `scripts/check.sh` runs this crate under
//! `PAR_THREADS` 1, 2 and 4); `Client::importnc_reduced` is the Client
//! chain import → reduce → stack by `to_bits` on hostile values; and a
//! file whose coordinates, shape or payload cannot be read yields an
//! error, never a different cube.

use datacube::exec::ExecConfig;
use datacube::model::Cube;
use datacube::{ops, Client, CubeHandle, ReduceOp};
use ncformat::{Reader, Writer};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("datacube-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Value at `(t, y, x)` of the test variable: unique per position.
fn value(t: usize, y: usize, x: usize) -> f32 {
    (t * 1_000_000 + y * 1_000 + x) as f32
}

/// Writes a `(time, lat, lon)` day file of [`value`]s; `lat_coords` sets
/// how many values the `lat` coordinate variable holds (`None`: no `lat`
/// variable at all).
fn day_file(name: &str, nt: usize, ny: usize, nx: usize, lat_coords: Option<usize>) -> PathBuf {
    day_file_of(name, nt, ny, nx, lat_coords, value)
}

/// [`day_file`] with `tas` at `(t, y, x)` given by `tas`; `tas` is the
/// file's last variable, so its payload ends where the header starts.
fn day_file_of(
    name: &str,
    nt: usize,
    ny: usize,
    nx: usize,
    lat_coords: Option<usize>,
    tas: impl Fn(usize, usize, usize) -> f32,
) -> PathBuf {
    let path = scratch(name);
    let mut w = Writer::create(&path).unwrap();
    w.add_dimension("time", nt).unwrap();
    w.add_dimension("lat", ny).unwrap();
    w.add_dimension("lon", nx).unwrap();
    w.add_variable_f64(
        "time",
        &["time"],
        &(0..nt).map(|t| t as f64 * 6.0).collect::<Vec<_>>(),
        vec![],
    )
    .unwrap();
    if let Some(n) = lat_coords {
        let dim = if n == ny { "lat" } else { "lat_short" };
        if n != ny {
            w.add_dimension(dim, n).unwrap();
        }
        w.add_variable_f64(
            "lat",
            &[dim],
            &(0..n).map(|y| y as f64 - 45.0).collect::<Vec<_>>(),
            vec![],
        )
        .unwrap();
    }
    w.add_variable_f64(
        "lon",
        &["lon"],
        &(0..nx).map(|x| x as f64 * 2.5).collect::<Vec<_>>(),
        vec![],
    )
    .unwrap();
    let mut data = Vec::with_capacity(nt * ny * nx);
    for t in 0..nt {
        for y in 0..ny {
            for x in 0..nx {
                data.push(tas(t, y, x));
            }
        }
    }
    w.add_variable_f32("tas", &["time", "lat", "lon"], &data, vec![]).unwrap();
    w.finish().unwrap();
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

/// Values every reduction must carry bit for bit: ordinary numbers, ±0,
/// ±inf, NaNs with payloads (quiet, negative, signalling) and a subnormal.
const HOSTILE: [u32; 10] = [
    0x3fc0_0000, // 1.5
    0xc010_0000, // -2.25
    0x438c_0000, // 280.0
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_1234, // quiet NaN with a payload
    0xffa0_0042, // negative signalling NaN with a payload
    0x0000_0001, // smallest subnormal
];

/// Grid of the hostile day files: 63 cells, enough for every hostile
/// value at every step position of a 5-step day.
const NY: usize = 7;
const NX: usize = 9;

/// `tas` of hostile day `d` at `(t, cell)`: cell `c` holds hostile value
/// `(c / nt + d) % 10` at step `c % nt`, so across the grid each value sits
/// at each step position; the other steps are hashed picks.
fn hostile(nt: usize, d: usize, t: usize, c: usize) -> f32 {
    let pick = if t == c % nt {
        c / nt + d
    } else {
        let h = ((c * 31 + t * 17 + d * 7 + 1) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 33) as usize
    };
    f32::from_bits(HOSTILE[pick % HOSTILE.len()])
}

fn hostile_year(tag: &str, nt: usize, days: usize) -> Vec<PathBuf> {
    (0..days)
        .map(|d| {
            let name = format!("hostile-{tag}-{nt}-{d}.ncx");
            day_file_of(&name, nt, NY, NX, Some(NY), |t, y, x| hostile(nt, d, t, y * NX + x))
        })
        .collect()
}

/// The year cube the Client chain builds: per day `importnc_transposed`,
/// `reduce` over `time`, a singleton `day` axis, then one `concat`.
fn client_chain(client: &Client, files: &[PathBuf], op: ReduceOp, nfrag: usize) -> Arc<Cube> {
    let days: Vec<CubeHandle> = files
        .iter()
        .enumerate()
        .map(|(d, f)| {
            let day = client.importnc_transposed(f, "tas", "time", "lat", "lon", nfrag).unwrap();
            let reduced = day.reduce(op, "time").unwrap().cube().unwrap();
            client.adopt(ops::add_singleton_implicit(&reduced, "day", d as f64).unwrap())
        })
        .collect();
    let refs: Vec<&CubeHandle> = days.iter().collect();
    datacube::server::concat(&refs, "day").unwrap().cube().unwrap()
}

const OPS: [ReduceOp; 5] =
    [ReduceOp::Max, ReduceOp::Min, ReduceOp::Sum, ReduceOp::Avg, ReduceOp::CountPositive];

/// `importnc_reduced` equals the Client chain bit for bit — values and the
/// `lat`/`lon`/`day` coordinates — for every reduction, on days with NaN
/// payloads, ±0 and ±inf at every step position, at any fragmentation.
#[test]
fn importnc_reduced_equals_the_client_chain_bitwise() {
    let client = Client::connect(2);
    let bits32 = |c: &Cube| c.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let coords = |c: &Cube| -> Vec<(String, Vec<u64>)> {
        c.dims
            .iter()
            .map(|d| (d.name.clone(), d.coords.iter().map(|v| v.to_bits()).collect()))
            .collect()
    };
    for nt in [1, 4, 5] {
        for days in [1, 7] {
            let files = hostile_year("eq", nt, days);
            for nfrag in [1, 5] {
                for op in OPS {
                    let want = client_chain(&client, &files, op, nfrag);
                    let got = client.importnc_reduced(&files, "tas", op, "tas", nfrag).unwrap();
                    let got = got.cube().unwrap();
                    got.validate().unwrap();
                    let case = format!("{op:?}, nt {nt}, {days} day(s), nfrag {nfrag}");
                    assert_eq!(got.measure, "tas", "{case}");
                    assert_eq!((got.rows(), got.implicit_len()), (NY * NX, days), "{case}");
                    assert_eq!(got.frags.len(), nfrag, "{case}");
                    assert_eq!(coords(&got), coords(&want), "{case}");
                    assert!(bits32(&got) == bits32(&want), "values differ: {case}");
                }
            }
        }
    }
}

/// A day whose grid (sizes or orientation) or step count is not day 0's is
/// a schema error, not a cube written through day 0's column layout.
#[test]
fn importnc_reduced_rejects_a_day_unlike_day_zero() {
    let client = Client::connect(2);
    let year = hostile_year("shape", 4, 4);
    let odd = [
        ("grid", day_file_of("odd-grid.ncx", 4, NY, NX - 1, Some(NY), |_, _, _| 1.0)),
        ("transposed grid", day_file_of("odd-t.ncx", 4, NX, NY, Some(NX), |_, _, _| 1.0)),
        ("step count", day_file_of("odd-steps.ncx", 5, NY, NX, Some(NY), |_, _, _| 1.0)),
    ];
    for (what, file) in odd {
        let mut files = year.clone();
        files[2] = file;
        let before = client.resident_cubes();
        let r = client.importnc_reduced(&files, "tas", ReduceOp::Max, "tasmax", 2);
        assert!(
            matches!(r, Err(datacube::Error::SchemaMismatch(ref m)) if m.contains("day 2")),
            "{what}: {:?}",
            r.map(|h| h.id())
        );
        assert_eq!(client.resident_cubes(), before, "{what}: a cube was stored");
    }
    let none = client.importnc_reduced(&[], "tas", ReduceOp::Max, "tasmax", 2);
    assert!(matches!(none, Err(datacube::Error::BadImport(_))), "{:?}", none.map(|h| h.id()));
}

/// A day file cut inside its `tas` payload — near its start and near its
/// end — fails the whole import with the read error and stores no cube.
#[test]
fn importnc_reduced_fails_on_a_day_cut_inside_tas() {
    let client = Client::connect(2);
    let (nt, days) = (4, 7);
    let year = hostile_year("torn", nt, days);
    let full = std::fs::read(&year[4]).unwrap();
    let header_offset = u64::from_le_bytes(full[5..13].try_into().unwrap()) as usize;
    let tas_bytes = 4 * nt * NY * NX;
    for keep_values in [2, nt * NY * NX - 3] {
        std::fs::write(&year[4], &full[..header_offset - tas_bytes + 4 * keep_values]).unwrap();
        let before = client.resident_cubes();
        let r = client.importnc_reduced(&year, "tas", ReduceOp::Min, "tasmin", 3);
        assert!(
            matches!(r, Err(datacube::Error::Nc(_))),
            "cut after {keep_values} values: {:?}",
            r.map(|h| h.id())
        );
        assert_eq!(client.resident_cubes(), before, "a partly filled cube was stored");
    }
}
