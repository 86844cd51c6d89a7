//! PyOphidia-style client façade.
//!
//! Ophidia is client–server: PyOphidia dispatches operator requests to the
//! Ophidia Server, which runs them on the in-memory I/O servers (Section
//! 4.2.2). This module mirrors that shape — a [`Client`] connected to an
//! in-process [`Server`] holding the cube store, and a chainable
//! [`CubeHandle`] whose methods correspond one-to-one with the calls in the
//! paper's Listing 1 (`reduce`, `apply`, `exportnc2`, `delete`). Every
//! operator execution is recorded in an audit trail with its wall time,
//! which wfbench's `cube_analytics` workload reads back.

use crate::error::{Error, Result};
use crate::exec::ExecConfig;
use crate::expr::Expr;
use crate::model::{Cube, Dimension};
use crate::ops::{self, InterOp, ReduceOp};
use crate::store::{CubeId, CubeStore};
use ncformat::Reader;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One audit-trail entry.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub operator: String,
    pub micros: u128,
}

/// The in-process Ophidia-server equivalent: cube store + execution config
/// + operator audit trail.
pub struct Server {
    store: CubeStore,
    cfg: ExecConfig,
    log: Mutex<Vec<OpRecord>>,
}

impl Server {
    fn record<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let micros = start.elapsed().as_micros();
        self.log.lock().push(OpRecord { operator: name.to_string(), micros });
        out
    }
}

/// Client session against an in-process [`Server`].
#[derive(Clone)]
pub struct Client {
    server: Arc<Server>,
}

impl Client {
    /// Connects a new client with `io_servers` simulated I/O servers.
    pub fn connect(io_servers: usize) -> Self {
        Client {
            server: Arc::new(Server {
                store: CubeStore::new(),
                cfg: ExecConfig::with_servers(io_servers),
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Imports a variable from an NCX file (`oph_importnc`).
    pub fn importnc(
        &self,
        path: &Path,
        var: &str,
        explicit: &[&str],
        implicit: &[&str],
        nfrag: usize,
    ) -> Result<CubeHandle> {
        let cfg = self.server.cfg;
        let cube = self.server.record("importnc", || -> Result<Cube> {
            let rd = Reader::open(path)?;
            ops::importnc(&rd, var, explicit, implicit, nfrag, cfg)
        })?;
        Ok(self.adopt(cube))
    }

    /// Imports a `(time, lat, lon)` variable as `(lat, lon | time)`.
    pub fn importnc_transposed(
        &self,
        path: &Path,
        var: &str,
        time_dim: &str,
        lat_dim: &str,
        lon_dim: &str,
        nfrag: usize,
    ) -> Result<CubeHandle> {
        let cfg = self.server.cfg;
        let cube = self.server.record("importnc_transposed", || -> Result<Cube> {
            let rd = Reader::open(path)?;
            ops::import_transposed(&rd, var, time_dim, lat_dim, lon_dim, nfrag, cfg)
        })?;
        Ok(self.adopt(cube))
    }

    /// Imports `var` from a year of daily `(time, lat, lon)` files as the
    /// `(lat, lon | day)` cube `measure` whose column `d` is `op` over day
    /// file `d`'s `time` axis: Ophidia's import, reduce and stack of a year
    /// (Sec. 4.2.2) as one operator, with no arithmetic of its own. Per
    /// day it runs [`ops::import_transposed`] (below its grain: this
    /// thread) and the engine's `reduce` with [`ExecConfig::serial`], so it
    /// submits no pool job and holds one day stack next to the output. A
    /// day whose grid, coordinates or step count differ from day 0's is
    /// [`Error::SchemaMismatch`], an unreadable one its read error; either
    /// way no cube is stored.
    pub fn importnc_reduced(
        &self,
        paths: &[PathBuf],
        var: &str,
        op: ReduceOp,
        measure: &str,
        nfrag: usize,
    ) -> Result<CubeHandle> {
        let io_servers = self.server.cfg.io_servers;
        let cube = self.server.record("importnc_reduced", || -> Result<Cube> {
            let (nday, serial) = (paths.len(), ExecConfig::serial());
            let first =
                paths.first().ok_or_else(|| Error::BadImport(format!("no '{var}' days")))?;
            let rows: usize = Reader::open(first)?.shape(var)?.iter().skip(1).product();
            // Filled in place, as `SharedData::from_fn` builds operator outputs.
            let mut data: Arc<[f32]> = std::iter::repeat_n(0.0f32, rows * nday).collect();
            let cols = Arc::get_mut(&mut data).expect("a fresh buffer is unique");
            let mut schema: Option<(Vec<Dimension>, usize)> = None;
            for (d, path) in paths.iter().enumerate() {
                let rd = Reader::open(path)?;
                let day = ops::import_transposed(&rd, var, "time", "lat", "lon", 1, serial)?;
                let shape =
                    (day.explicit_dims().into_iter().cloned().collect(), day.implicit_len());
                if *schema.get_or_insert_with(|| shape.clone()) != shape {
                    let msg = format!("day {d} of '{var}': grid or step count is not day 0's");
                    return Err(Error::SchemaMismatch(msg));
                }
                for (cell, v) in ops::reduce(&day, op, "time", serial)?.values().enumerate() {
                    cols[cell * nday + d] = v;
                }
            }
            let (mut dims, _) = schema.expect("paths is not empty");
            dims.push(Dimension::implicit("day", (0..nday).map(|d| d as f64).collect::<Vec<_>>()));
            let mut cube = Cube::from_shared(measure, dims, data.into(), nfrag, io_servers)?;
            cube.description = format!("importnc_reduced({var}, {op:?})");
            Ok(cube)
        })?;
        Ok(self.adopt(cube))
    }

    /// Wraps an existing in-memory cube into a handle (used by pipelines
    /// that build cubes directly).
    pub fn adopt(&self, cube: Cube) -> CubeHandle {
        let id = self.server.store.put(cube);
        CubeHandle { server: Arc::clone(&self.server), id }
    }

    /// Re-opens a handle to a stored cube by id (workflow tasks pass cube
    /// ids between each other as lightweight references).
    pub fn open(&self, id: CubeId) -> Result<CubeHandle> {
        self.server.store.get(id)?; // existence check
        Ok(CubeHandle { server: Arc::clone(&self.server), id })
    }

    /// Number of cubes currently resident.
    pub fn resident_cubes(&self) -> usize {
        self.server.store.len()
    }

    /// Resident bytes across all cubes.
    pub fn resident_bytes(&self) -> usize {
        self.server.store.resident_bytes()
    }

    /// The operator audit trail so far.
    pub fn audit(&self) -> Vec<OpRecord> {
        self.server.log.lock().clone()
    }
}

/// Handle to one stored cube; operator methods produce new handles,
/// mirroring PyOphidia's `cube.Cube` chaining.
#[derive(Clone)]
pub struct CubeHandle {
    server: Arc<Server>,
    id: CubeId,
}

impl CubeHandle {
    /// Stored cube id.
    pub fn id(&self) -> CubeId {
        self.id
    }

    /// Snapshot of the cube (shared, cheap).
    pub fn cube(&self) -> Result<Arc<Cube>> {
        self.server.store.get(self.id)
    }

    fn derive(&self, cube: Cube) -> CubeHandle {
        let id = self.server.store.put(cube);
        CubeHandle { server: Arc::clone(&self.server), id }
    }

    /// Reduction over an implicit dimension (`oph_reduce`).
    pub fn reduce(&self, op: ReduceOp, dim: &str) -> Result<CubeHandle> {
        let src = self.cube()?;
        let cfg = self.server.cfg;
        let out = self.server.record("reduce", || ops::reduce(&src, op, dim, cfg))?;
        Ok(self.derive(out))
    }

    /// Element-wise expression (`oph_apply` with `oph_predicate` etc.).
    pub fn apply(&self, expr_src: &str) -> Result<CubeHandle> {
        let src = self.cube()?;
        let cfg = self.server.cfg;
        let expr = Expr::parse(expr_src)?;
        let out = self.server.record("apply", || ops::apply(&src, &expr, cfg))?;
        Ok(self.derive(out))
    }

    /// Cube–cube arithmetic (`oph_intercube`), broadcasting per-row scalars.
    pub fn intercube(&self, other: &CubeHandle, op: InterOp) -> Result<CubeHandle> {
        let a = self.cube()?;
        let b = other.cube()?;
        let cfg = self.server.cfg;
        let out = self.server.record("intercube", || ops::intercube(&a, &b, op, cfg))?;
        Ok(self.derive(out))
    }

    /// Export to an NCX file (`exportnc2` in Listing 1).
    pub fn exportnc(&self, path: &Path) -> Result<()> {
        let src = self.cube()?;
        self.server.record("exportnc", || ops::exportnc(&src, path))
    }

    /// Drops the stored cube (`Mask.delete()` in Listing 1). The handle
    /// becomes unusable.
    pub fn delete(self) -> Result<()> {
        self.server.record("delete", || self.server.store.delete(self.id))
    }
}

/// Concatenates same-schema cubes along an implicit dimension, adopting the
/// result into the same server as the first handle.
pub fn concat(handles: &[&CubeHandle], dim: &str) -> Result<CubeHandle> {
    let first =
        handles.first().ok_or_else(|| Error::SchemaMismatch("no cubes to concat".into()))?;
    let cubes: Vec<Arc<Cube>> = handles.iter().map(|h| h.cube()).collect::<Result<_>>()?;
    let refs: Vec<&Cube> = cubes.iter().map(|c| c.as_ref()).collect();
    let out = first.server.record("concat", || ops::concat_implicit(&refs, dim))?;
    Ok(first.derive(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_with_cube() -> (Client, CubeHandle) {
        let client = Client::connect(2);
        let dims = vec![
            Dimension::explicit("cell", vec![0.0, 1.0, 2.0]),
            Dimension::implicit("time", vec![0.0, 1.0, 2.0, 3.0]),
        ];
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let h = client.adopt(Cube::from_dense("t", dims, data, 2, 2).unwrap());
        (client, h)
    }

    #[test]
    fn listing1_style_pipeline() {
        // The paper's IndexDurationNumber: mask = predicate(x>0), count,
        // delete mask, export count.
        let (client, duration) = client_with_cube();
        let mask = duration.apply("predicate(x > 5, 1, 0)").unwrap();
        let count = mask.reduce(ReduceOp::Sum, "time").unwrap();
        mask.delete().unwrap();

        let c = count.cube().unwrap();
        // Rows: [0..3], [4..7], [8..11] -> counts of values > 5: 0, 2, 4.
        assert_eq!(c.to_dense(), vec![0.0, 2.0, 4.0]);

        let dir = std::env::temp_dir().join("datacube-server");
        std::fs::create_dir_all(&dir).unwrap();
        count.exportnc(&dir.join("count.ncx")).unwrap();
        assert!(dir.join("count.ncx").exists());

        let audit = client.audit();
        for op in ["apply", "reduce", "delete", "exportnc"] {
            assert_eq!(audit.iter().filter(|r| r.operator == op).count(), 1, "{op}");
        }
    }

    #[test]
    fn chaining_keeps_intermediates_in_memory() {
        let (client, h) = client_with_cube();
        assert_eq!(client.resident_cubes(), 1);
        let a = h.apply("x * 2").unwrap();
        let _b = a.reduce(ReduceOp::Max, "time").unwrap();
        assert_eq!(client.resident_cubes(), 3);
        assert!(client.resident_bytes() > 0);
        a.delete().unwrap();
        assert_eq!(client.resident_cubes(), 2);
    }

    #[test]
    fn intercube_between_handles() {
        let (_client, h) = client_with_cube();
        let base = h.reduce(ReduceOp::Min, "time").unwrap();
        let anom = h.intercube(&base, InterOp::Sub).unwrap();
        let c = anom.cube().unwrap();
        for r in 0..3 {
            assert_eq!(c.row_series(r).unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn deleted_handle_operations_fail() {
        let (_client, h) = client_with_cube();
        let h2 = h.clone();
        h.delete().unwrap();
        assert!(h2.cube().is_err());
        assert!(h2.reduce(ReduceOp::Max, "time").is_err());
    }

    #[test]
    fn concat_handles() {
        let (_client, h) = client_with_cube();
        let other = h.apply("x + 100").unwrap();
        let y = concat(&[&h, &other], "time").unwrap();
        let c = y.cube().unwrap();
        assert_eq!(c.implicit_len(), 8);
        assert_eq!(c.row_series(0).unwrap(), &[0.0, 1.0, 2.0, 3.0, 100.0, 101.0, 102.0, 103.0]);
    }

    #[test]
    fn concat_of_no_handles_is_a_typed_error() {
        // Same error `ops::concat_implicit` returns for an empty list.
        assert!(matches!(concat(&[], "time"), Err(Error::SchemaMismatch(_))));
    }

    #[test]
    fn audit_records_timing() {
        let (client, h) = client_with_cube();
        h.apply("x").unwrap();
        let audit = client.audit();
        assert!(audit.iter().any(|r| r.operator == "apply"));
    }

    #[test]
    fn importnc_via_client() {
        let dir = std::env::temp_dir().join("datacube-server");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("import.ncx");
        let (_c0, h) = client_with_cube();
        h.exportnc(&path).unwrap();

        let client = Client::connect(2);
        let back = client.importnc(&path, "t", &["cell"], &["time"], 2).unwrap();
        assert_eq!(back.cube().unwrap().to_dense(), h.cube().unwrap().to_dense());
    }
}
