//! The in-memory cube store.
//!
//! Ophidia "can store the datasets in memory between different operators'
//! execution", which is what lets the paper's pipeline load the long-term
//! baseline climatology **once** and reuse it for every simulated year
//! (Section 5.3). `CubeStore` is that container: cubes live here between
//! operator calls, addressed by id, with memory accounting and an explicit
//! delete (Listing 1 calls `Mask.delete()` mid-pipeline).

use crate::error::{Error, Result};
use crate::model::Cube;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a stored cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CubeId(pub u64);

/// Thread-safe in-memory cube container.
#[derive(Default)]
pub struct CubeStore {
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    cubes: BTreeMap<CubeId, Arc<Cube>>,
    next: u64,
    /// Incrementally maintained sum of `bytes()` over resident cubes,
    /// updated on put/delete so neither insertion nor `resident_bytes`
    /// walks the whole store (that walk made `put` O(n) per insert).
    resident: usize,
}

impl CubeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a cube, returning its id.
    pub fn put(&self, cube: Cube) -> CubeId {
        let mut inner = self.inner.write();
        inner.next += 1;
        let id = CubeId(inner.next);
        inner.resident += cube.bytes();
        inner.cubes.insert(id, Arc::new(cube));
        debug_assert_eq!(
            inner.resident,
            inner.cubes.values().map(|c| c.bytes()).sum::<usize>(),
            "incremental resident counter drifted from the full sum"
        );
        id
    }

    /// Fetches a cube by id (cheap: cubes are shared via `Arc`).
    pub fn get(&self, id: CubeId) -> Result<Arc<Cube>> {
        self.inner.read().cubes.get(&id).cloned().ok_or(Error::NoSuchCube(id.0))
    }

    /// Deletes a cube, freeing its memory once all handles drop.
    pub fn delete(&self, id: CubeId) -> Result<()> {
        let mut inner = self.inner.write();
        let cube = inner.cubes.remove(&id).ok_or(Error::NoSuchCube(id.0))?;
        inner.resident -= cube.bytes();
        Ok(())
    }

    /// Number of cubes currently stored.
    pub fn len(&self) -> usize {
        self.inner.read().cubes.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current resident bytes across all cubes (O(1): maintained
    /// incrementally on put/delete).
    pub fn resident_bytes(&self) -> usize {
        self.inner.read().resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dimension;

    impl CubeStore {
        /// Recomputes resident bytes by walking every cube: the oracle for the
        /// incremental counter.
        fn resident_bytes_full_scan(&self) -> usize {
            self.inner.read().cubes.values().map(|c| c.bytes()).sum()
        }
    }

    fn small_cube(v: f32) -> Cube {
        Cube::from_dense("m", vec![Dimension::explicit("x", vec![0.0, 1.0])], vec![v, v], 1, 1)
            .unwrap()
    }

    #[test]
    fn put_get_delete() {
        let s = CubeStore::new();
        let id = s.put(small_cube(1.0));
        assert_eq!(s.get(id).unwrap().to_dense(), vec![1.0, 1.0]);
        s.delete(id).unwrap();
        assert!(matches!(s.get(id), Err(Error::NoSuchCube(_))));
        assert!(matches!(s.delete(id), Err(Error::NoSuchCube(_))));
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let s = CubeStore::new();
        let a = s.put(small_cube(1.0));
        let b = s.put(small_cube(2.0));
        assert!(b > a);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn memory_accounting() {
        let s = CubeStore::new();
        assert_eq!(s.resident_bytes(), 0);
        let a = s.put(small_cube(1.0));
        let with_one = s.resident_bytes();
        assert_eq!(with_one, 8);
        let _b = s.put(small_cube(2.0));
        assert_eq!(s.resident_bytes(), 16);
        assert_eq!(s.resident_bytes(), s.resident_bytes_full_scan());
        s.delete(a).unwrap();
        assert_eq!(s.resident_bytes(), 8);
        assert_eq!(
            s.resident_bytes(),
            s.resident_bytes_full_scan(),
            "incremental counter must match the full walk after deletes"
        );
    }

    #[test]
    fn handles_survive_deletion() {
        // An Arc handed out before delete stays valid (memory is freed when
        // the last reader drops) — matching in-memory pipeline semantics.
        let s = CubeStore::new();
        let id = s.put(small_cube(7.0));
        let handle = s.get(id).unwrap();
        s.delete(id).unwrap();
        assert_eq!(handle.to_dense(), vec![7.0, 7.0]);
    }

    #[test]
    fn concurrent_access() {
        let s = Arc::new(CubeStore::new());
        let mut joins = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            joins.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let id = s.put(small_cube((t * 100 + i) as f32));
                    let c = s.get(id).unwrap();
                    assert_eq!(c.to_dense()[0], (t * 100 + i) as f32);
                    if i % 2 == 0 {
                        s.delete(id).unwrap();
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(s.len(), 8 * 25);
    }
}
