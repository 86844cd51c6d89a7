//! Property tests: any dataset we can build must round-trip bit-exactly
//! through the on-disk format, and hyperslab reads must agree with the
//! equivalent in-memory slicing.

use ncformat::{Reader, Value, Writer};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

static FILE_ID: AtomicU64 = AtomicU64::new(0);

fn tmp() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ncx-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("case-{}.ncx", FILE_ID.fetch_add(1, Ordering::Relaxed)))
}

/// In-memory reference implementation of a row-major hyperslab.
fn slab_reference(data: &[f32], shape: &[usize], start: &[usize], count: &[usize]) -> Vec<f32> {
    let rank = shape.len();
    let mut strides = vec![1usize; rank];
    for i in (0..rank.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    let total: usize = count.iter().product();
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; rank];
    for _ in 0..total {
        let mut off = 0;
        for a in 0..rank {
            off += (start[a] + idx[a]) * strides[a];
        }
        out.push(data[off]);
        for a in (0..rank).rev() {
            idx[a] += 1;
            if idx[a] < count[a] {
                break;
            }
            idx[a] = 0;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f32_roundtrip(data in proptest::collection::vec(-1e6f32..1e6, 1..200)) {
        let path = tmp();
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("n", data.len()).unwrap();
        w.add_variable_f32("v", &["n"], &data, vec![]).unwrap();
        w.finish().unwrap();
        let rd = Reader::open(&path).unwrap();
        prop_assert_eq!(rd.read_all_f32("v").unwrap(), data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn f64_roundtrip_preserves_bits(data in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 1..100)) {
        let path = tmp();
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("n", data.len()).unwrap();
        w.add_variable_f64("v", &["n"], &data, vec![]).unwrap();
        w.finish().unwrap();
        let rd = Reader::open(&path).unwrap();
        let back = rd.read_all_f64("v").unwrap();
        for (a, b) in back.iter().zip(&data) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn slab_matches_reference(
        (t, y, x) in (1usize..5, 1usize..6, 1usize..7),
        seed in any::<u64>(),
    ) {
        let shape = [t, y, x];
        let n = t * y * x;
        let data: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5 + (seed % 97) as f32).collect();

        // Derive a valid slab deterministically from the seed.
        let start = [
            (seed as usize) % t,
            (seed as usize / 7) % y,
            (seed as usize / 49) % x,
        ];
        let count = [
            1 + (seed as usize / 11) % (t - start[0]),
            1 + (seed as usize / 13) % (y - start[1]),
            1 + (seed as usize / 17) % (x - start[2]),
        ];

        let path = tmp();
        let mut w = Writer::create(&path).unwrap();
        w.add_dimension("t", t).unwrap();
        w.add_dimension("y", y).unwrap();
        w.add_dimension("x", x).unwrap();
        w.add_variable_f32("v", &["t", "y", "x"], &data, vec![]).unwrap();
        w.finish().unwrap();

        let rd = Reader::open(&path).unwrap();
        let got = rd.read_slab_f32("v", &start, &count).unwrap();
        let want = slab_reference(&data, &shape, &start, &count);
        prop_assert_eq!(got, want);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn slab_of_any_rank_picks_the_elements_of_read_all(
        shape in proptest::collection::vec(1usize..6, 1..=4),
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 4),
        oob_axis in any::<u32>(),
    ) {
        let rank = shape.len();
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|i| i as f32 - 7.25).collect();
        let dims: Vec<String> = (0..rank).map(|a| format!("d{a}")).collect();
        let path = tmp();
        let mut w = Writer::create(&path).unwrap();
        for (d, &len) in dims.iter().zip(&shape) {
            w.add_dimension(d, len).unwrap();
        }
        let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
        w.add_variable_f32("v", &dim_refs, &data, vec![]).unwrap();
        w.finish().unwrap();

        // Counts may be zero; starts and counts stay in bounds.
        let start: Vec<usize> = shape
            .iter()
            .zip(&picks)
            .map(|(&len, &(s, _))| s as usize % len)
            .collect();
        let count: Vec<usize> = shape
            .iter()
            .zip(&start)
            .zip(&picks)
            .map(|((&len, &s), &(_, c))| c as usize % (len - s + 1))
            .collect();

        let rd = Reader::open(&path).unwrap();
        let all = rd.read_all_f32("v").unwrap();
        let got = rd.read_slab_f32("v", &start, &count).unwrap();
        prop_assert_eq!(got, slab_reference(&all, &shape, &start, &count));

        // One element past the end of any axis is rejected.
        let axis = oob_axis as usize % rank;
        let mut bad = count.clone();
        bad[axis] = shape[axis] - start[axis] + 1;
        prop_assert!(matches!(
            rd.read_slab_f32("v", &start, &bad),
            Err(ncformat::Error::BadSlab(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn attributes_roundtrip(name in "[a-z]{1,12}", text in ".{0,40}", num in -1e9f64..1e9) {
        let path = tmp();
        let mut w = Writer::create(&path).unwrap();
        w.set_attribute(&name, Value::from(text.clone()));
        w.set_attribute("num", Value::from(num));
        w.finish().unwrap();
        let rd = Reader::open(&path).unwrap();
        prop_assert_eq!(rd.attribute(&name), Some(&Value::from(text)));
        prop_assert_eq!(rd.attribute("num").unwrap().as_f64(), Some(num));
        std::fs::remove_file(path).ok();
    }
}
