//! Trajectory stitching: turn per-timestep detections into cyclone tracks.
//!
//! Greedy nearest-neighbour association with a maximum-displacement gate
//! (cyclones move well under 350 km per 6-hour step), a short coast
//! tolerance for missed timesteps, and a minimum-lifetime filter to drop
//! spurious one-off detections.

use crate::tc::detect::Detection;
use gridded::Grid;

/// Stitching parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrackParams {
    /// Maximum distance a center may move between consecutive timesteps, km.
    pub max_step_km: f64,
    /// Maximum consecutive missed timesteps before a track is closed.
    pub max_gap: usize,
    /// Minimum number of associated detections for a track to be kept.
    pub min_points: usize,
}

impl Default for TrackParams {
    fn default() -> Self {
        TrackParams { max_step_km: 400.0, max_gap: 2, min_points: 4 }
    }
}

/// A stitched cyclone track.
#[derive(Debug, Clone)]
pub struct Track {
    /// `(timestep index, detection)` samples in time order.
    pub points: Vec<(usize, Detection)>,
}

impl Track {
    /// First timestep of the track.
    fn start(&self) -> usize {
        self.points.first().map(|(t, _)| *t).unwrap_or(0)
    }
}

/// Stitches timestep-ordered detection batches into tracks.
/// `per_step[t]` holds the detections of timestep `t`.
pub fn stitch_tracks(per_step: &[Vec<Detection>], params: &TrackParams) -> Vec<Track> {
    struct Open {
        points: Vec<(usize, Detection)>,
        misses: usize,
    }
    let mut open: Vec<Open> = Vec::new();
    let mut closed: Vec<Track> = Vec::new();

    for (t, dets) in per_step.iter().enumerate() {
        let mut unclaimed: Vec<bool> = vec![true; dets.len()];

        // Greedy association: each open track claims its nearest compatible
        // detection, closest pairs first.
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for (oi, o) in open.iter().enumerate() {
            let (_, last) = o.points.last().expect("open track is never empty");
            for (di, d) in dets.iter().enumerate() {
                let dist = Grid::distance_km(last.lat, last.lon, d.lat, d.lon);
                let allowance = (o.misses + 1) as f64 * params.max_step_km;
                if dist <= allowance {
                    pairs.push((oi, di, dist));
                }
            }
        }
        pairs.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        let mut track_claimed = vec![false; open.len()];
        for (oi, di, _) in pairs {
            if track_claimed[oi] || !unclaimed[di] {
                continue;
            }
            open[oi].points.push((t, dets[di]));
            open[oi].misses = 0;
            track_claimed[oi] = true;
            unclaimed[di] = false;
        }

        // Unmatched open tracks accumulate misses; close the stale ones.
        let mut still_open = Vec::new();
        for (oi, mut o) in open.into_iter().enumerate() {
            if !track_claimed[oi] {
                o.misses += 1;
            }
            if o.misses > params.max_gap {
                if o.points.len() >= params.min_points {
                    closed.push(Track { points: o.points });
                }
            } else {
                still_open.push(o);
            }
        }
        open = still_open;

        // Unclaimed detections start new tracks.
        for (di, d) in dets.iter().enumerate() {
            if unclaimed[di] {
                open.push(Open { points: vec![(t, *d)], misses: 0 });
            }
        }
    }

    for o in open {
        if o.points.len() >= params.min_points {
            closed.push(Track { points: o.points });
        }
    }
    closed.sort_by_key(|t| t.start());
    closed
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Track {
        /// Lifetime in timesteps (inclusive).
        fn lifetime(&self) -> usize {
            self.points.last().map_or(0, |(t, _)| *t) - self.start() + 1
        }
    }

    fn det(lat: f64, lon: f64) -> Detection {
        Detection { lat, lon, min_psl_pa: 98_000.0, max_wind_ms: 30.0, depression_pa: 3000.0 }
    }

    /// A cyclone moving 1° west per step for `n` steps starting at (15, 140).
    fn moving(n: usize) -> Vec<Vec<Detection>> {
        (0..n).map(|t| vec![det(15.0, 140.0 - t as f64)]).collect()
    }

    #[test]
    fn single_moving_cyclone_is_one_track() {
        let tracks = stitch_tracks(&moving(8), &TrackParams::default());
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].points.len(), 8);
        assert_eq!(tracks[0].lifetime(), 8);
        assert_eq!(tracks[0].start(), 0);
    }

    #[test]
    fn short_lived_detections_filtered() {
        let mut steps = moving(3); // below min_points = 4
        steps.push(vec![]);
        steps.push(vec![]);
        steps.push(vec![]);
        let tracks = stitch_tracks(&steps, &TrackParams::default());
        assert!(tracks.is_empty());
    }

    #[test]
    fn gap_tolerance_bridges_missed_steps() {
        // Steps 0,1,2 then a 2-step gap, then 5,6,7.
        let mut steps: Vec<Vec<Detection>> = Vec::new();
        for t in 0..3 {
            steps.push(vec![det(15.0, 140.0 - t as f64)]);
        }
        steps.push(vec![]);
        steps.push(vec![]);
        for t in 5..8 {
            steps.push(vec![det(15.0, 140.0 - t as f64)]);
        }
        let tracks = stitch_tracks(&steps, &TrackParams::default());
        assert_eq!(tracks.len(), 1, "gap should be bridged: {tracks:?}");
        assert_eq!(tracks[0].points.len(), 6);
        assert_eq!(tracks[0].lifetime(), 8);
    }

    #[test]
    fn distant_jump_breaks_track() {
        // 5 steps here, 5 steps on the other side of the planet.
        let mut steps: Vec<Vec<Detection>> = Vec::new();
        for t in 0..5 {
            steps.push(vec![det(15.0, 140.0 - t as f64 * 0.5)]);
        }
        for t in 0..5 {
            steps.push(vec![det(-20.0, 320.0 + t as f64 * 0.5)]);
        }
        let tracks = stitch_tracks(&steps, &TrackParams::default());
        assert_eq!(tracks.len(), 2, "jump must split tracks: {tracks:?}");
    }

    #[test]
    fn two_simultaneous_cyclones_stay_separate() {
        let steps: Vec<Vec<Detection>> = (0..6)
            .map(|t| vec![det(15.0, 140.0 - t as f64), det(-12.0, 60.0 + t as f64)])
            .collect();
        let tracks = stitch_tracks(&steps, &TrackParams::default());
        assert_eq!(tracks.len(), 2);
        for tr in &tracks {
            assert_eq!(tr.points.len(), 6);
            // Latitudes must not mix.
            let lats: Vec<f64> = tr.points.iter().map(|(_, d)| d.lat).collect();
            assert!(lats.iter().all(|&l| l > 0.0) || lats.iter().all(|&l| l < 0.0));
        }
    }

    #[test]
    fn crossing_paths_associate_nearest() {
        // Two cyclones approach; nearest-first greedy keeps them coherent.
        let steps: Vec<Vec<Detection>> = (0..7)
            .map(|t| {
                vec![
                    det(10.0, 100.0 + t as f64), // eastbound
                    det(20.0, 112.0 - t as f64), // westbound, different lat
                ]
            })
            .collect();
        let tracks = stitch_tracks(&steps, &TrackParams::default());
        assert_eq!(tracks.len(), 2);
        for tr in &tracks {
            let first_lat = tr.points[0].1.lat;
            assert!(tr.points.iter().all(|(_, d)| (d.lat - first_lat).abs() < 1.0));
        }
    }

    #[test]
    fn track_statistics() {
        let mut steps = moving(5);
        steps[2][0].min_psl_pa = 95_000.0;
        steps[3][0].max_wind_ms = 55.0;
        let tracks = stitch_tracks(&steps, &TrackParams::default());
        assert!(tracks[0].points.iter().any(|(_, d)| d.min_psl_pa == 95_000.0));
        let max_wind = tracks[0].points.iter().map(|(_, d)| d.max_wind_ms).fold(0.0, f32::max);
        assert_eq!(max_wind, 55.0);
    }

    #[test]
    fn dateline_crossing_track_survives() {
        let steps: Vec<Vec<Detection>> =
            (0..6).map(|t| vec![det(15.0, (358.0 + t as f64 * 1.0) % 360.0)]).collect();
        let tracks = stitch_tracks(&steps, &TrackParams::default());
        assert_eq!(tracks.len(), 1, "dateline wrap must not split: {tracks:?}");
        assert_eq!(tracks[0].points.len(), 6);
    }
}
