//! Map products (workflow step 6): render index maps as ASCII art (for
//! terminals and logs) and as PGM/PPM images — the Figure 4 deliverable.

use datacube::model::Cube;
use datacube::ops::to_grid_values;
use datacube::Result;
use std::io::Write;
use std::path::Path;

/// Renders a `(lat, lon)` cube as ASCII art, north up, one character per
/// cell column (rows are downsampled to `max_rows`).
pub fn ascii_map(cube: &Cube, max_rows: usize, max_cols: usize) -> Result<String> {
    let (nlat, nlon, vals) = to_grid_values(cube)?;
    let ramp: &[u8] = b" .:-=+*#%@";
    let lo = vals.iter().copied().filter(|v| v.is_finite()).fold(f32::INFINITY, f32::min);
    let hi = vals.iter().copied().filter(|v| v.is_finite()).fold(f32::NEG_INFINITY, f32::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let rows = nlat.min(max_rows.max(1));
    let cols = nlon.min(max_cols.max(1));
    let mut s = String::with_capacity((cols + 1) * rows);
    for r in 0..rows {
        // North at the top: flip latitude.
        let i = nlat - 1 - (r * nlat / rows);
        for c in 0..cols {
            let j = c * nlon / cols;
            let v = vals[i * nlon + j];
            let t = (((v - lo) / span) * (ramp.len() - 1) as f32).round();
            let idx = (t as usize).min(ramp.len() - 1);
            s.push(ramp[idx] as char);
        }
        s.push('\n');
    }
    Ok(s)
}

/// Writes a false-color PPM using a blue→white→red diverging ramp centered
/// on zero (suits anomaly maps) or a sequential yellow→red ramp otherwise.
pub fn write_ppm(cube: &Cube, path: &Path) -> Result<()> {
    let (nlat, nlon, vals) = to_grid_values(cube)?;
    let lo = vals.iter().copied().filter(|v| v.is_finite()).fold(f32::INFINITY, f32::min);
    let hi = vals.iter().copied().filter(|v| v.is_finite()).fold(f32::NEG_INFINITY, f32::max);
    let diverging = lo < 0.0 && hi > 0.0;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(ncformat::Error::Io)?);
    write!(f, "P6\n{nlon} {nlat}\n255\n").map_err(ncformat::Error::Io)?;
    for r in 0..nlat {
        let i = nlat - 1 - r;
        for j in 0..nlon {
            let v = vals[i * nlon + j];
            let rgb = if diverging {
                let m = lo.abs().max(hi.abs()).max(1e-9);
                let t = (v / m).clamp(-1.0, 1.0);
                if t < 0.0 {
                    let u = (-t * 255.0) as u8;
                    [255 - u, 255 - u, 255]
                } else {
                    let u = (t * 255.0) as u8;
                    [255, 255 - u, 255 - u]
                }
            } else {
                let span = if hi > lo { hi - lo } else { 1.0 };
                let t = ((v - lo) / span).clamp(0.0, 1.0);
                [255, (230.0 * (1.0 - t)) as u8, (80.0 * (1.0 - t)) as u8]
            };
            f.write_all(&rgb).map_err(ncformat::Error::Io)?;
        }
    }
    f.flush().map_err(ncformat::Error::Io)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacube::model::Dimension;

    fn map_cube() -> Cube {
        let dims = vec![
            Dimension::explicit("lat", (0..6).map(|i| -75.0 + 30.0 * i as f64).collect::<Vec<_>>()),
            Dimension::explicit("lon", (0..8).map(|j| 22.5 + 45.0 * j as f64).collect::<Vec<_>>()),
        ];
        // Gradient south->north so orientation is testable.
        let mut data = Vec::new();
        for i in 0..6 {
            for _ in 0..8 {
                data.push(i as f32);
            }
        }
        Cube::from_dense("hwn", dims, data, 2, 1).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("extremes-maps");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn ascii_map_has_requested_shape_and_orientation() {
        let s = ascii_map(&map_cube(), 6, 8).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|l| l.len() == 8));
        // North (max values) on top: densest ramp char on first line.
        assert!(lines[0].contains('@'));
        assert!(lines[5].contains(' '));
    }

    #[test]
    fn ascii_map_downsamples() {
        let s = ascii_map(&map_cube(), 3, 4).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == 4));
    }

    #[test]
    fn constant_map_renders_without_panic() {
        let dims = vec![
            Dimension::explicit("lat", vec![0.0, 1.0]),
            Dimension::explicit("lon", vec![0.0, 1.0]),
        ];
        let c = Cube::from_dense("x", dims, vec![3.0; 4], 1, 1).unwrap();
        let s = ascii_map(&c, 2, 2).unwrap();
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn ppm_diverging_and_sequential() {
        // Diverging for anomaly-like data.
        let dims = vec![
            Dimension::explicit("lat", vec![0.0, 1.0]),
            Dimension::explicit("lon", vec![0.0, 1.0]),
        ];
        let anom = Cube::from_dense("a", dims.clone(), vec![-1.0, 0.0, 0.5, 1.0], 1, 1).unwrap();
        let path = tmp("anom.ppm");
        write_ppm(&anom, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(bytes.len(), "P6\n2 2\n255\n".len() + 12);

        let seq = Cube::from_dense("s", dims, vec![0.0, 1.0, 2.0, 3.0], 1, 1).unwrap();
        write_ppm(&seq, &tmp("seq.ppm")).unwrap();
    }

    #[test]
    fn maps_reject_cubes_with_time_axis() {
        let dims = vec![
            Dimension::explicit("lat", vec![0.0]),
            Dimension::explicit("lon", vec![0.0]),
            Dimension::implicit("time", vec![0.0, 1.0]),
        ];
        let c = Cube::from_dense("x", dims, vec![0.0, 1.0], 1, 1).unwrap();
        assert!(ascii_map(&c, 4, 4).is_err());
        assert!(write_ppm(&c, &tmp("bad.ppm")).is_err());
    }
}
