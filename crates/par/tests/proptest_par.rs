//! Property tests: every parallel primitive must agree exactly with its
//! serial counterpart for arbitrary inputs and pool sizes (including a
//! single worker), and output order must never depend on steal order.

use par::Pool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `par_map` equals serial `map` for any input and any pool width.
    #[test]
    fn par_map_matches_serial_map(
        items in proptest::collection::vec(any::<i64>(), 0..300),
        threads in 1usize..8,
    ) {
        let pool = Pool::with_name(threads, "adhoc");
        let f = |&x: &i64| x.wrapping_mul(31).wrapping_add(7);
        let parallel = pool.par_map(&items, f);
        let serial: Vec<i64> = items.iter().map(f).collect();
        prop_assert_eq!(parallel, serial);
    }

    /// Lane-scheduled map is order-deterministic for any width, even
    /// widths exceeding the item count or the worker count.
    #[test]
    fn par_map_lanes_matches_serial(
        items in proptest::collection::vec(any::<i32>(), 0..200),
        threads in 1usize..6,
        width in 0usize..12,
    ) {
        let pool = Pool::with_name(threads, "adhoc");
        let parallel = pool.par_map_lanes(width, &items, |_, i, &x| x.wrapping_add(i as i32));
        let serial: Vec<i32> =
            items.iter().enumerate().map(|(i, &x)| x.wrapping_add(i as i32)).collect();
        prop_assert_eq!(parallel, serial);
    }

    /// `par_chunks_mut` touches each element exactly once with the same
    /// chunk geometry as serial `chunks_mut`, for any pool width.
    #[test]
    fn par_chunks_mut_matches_serial(
        len in 0usize..400,
        chunk in 1usize..64,
        threads in 1usize..6,
    ) {
        let pool = Pool::with_name(threads, "adhoc");
        let mut parallel = vec![0u64; len];
        pool.par_chunks_mut(&mut parallel, chunk, |ci, c| {
            for (k, v) in c.iter_mut().enumerate() {
                *v = (ci * 1000 + k) as u64;
            }
        });
        let mut serial = vec![0u64; len];
        for (ci, c) in serial.chunks_mut(chunk).enumerate() {
            for (k, v) in c.iter_mut().enumerate() {
                *v = (ci * 1000 + k) as u64;
            }
        }
        prop_assert_eq!(parallel, serial);
    }
}
