//! Multi-tenant serving benchmark: seeded open-loop arrival sweeps.
//!
//! Drives the HPCWaaS serving layer (admission control, weighted
//! fair-share dispatch, request coalescing) with a synthetic traffic
//! generator: per sweep point, tenants submit a lightweight "probe"
//! workflow at a target aggregate arrival rate with exponential
//! inter-arrival gaps drawn from a seeded generator, so a given
//! `(seed, config)` always offers the same request schedule. The probe
//! loads one of a small pool of datacubes through a shared
//! [`CubeCache`], which is what makes the cross-tenant cache and the
//! coalescing path observable: overlapping tenants hit the same cubes.
//!
//! Each [`RatePoint`] records offered load, admissions, coalesced joins,
//! typed rejections, completion counts, queue-to-finish latency
//! percentiles (from the execution event log), goodput, rejection rate
//! and the shared-cache hit rate. [`ServeBenchReport::to_json`] renders
//! the whole sweep (`serve-bench --out`); the `[serve] stage=...` lines
//! summarize it on stdout. The recorded serving numbers are the
//! `serve_open_loop` workload of `benchmark/run.sh`.

use crate::error::WorkflowError;
use datacube::model::{Cube, Dimension};
use datacube::CubeCache;
use hpcwaas::tosca::{NodeTemplate, Topology};
use hpcwaas::{ExecutionApi, ExecutionStatus, ServeConfig, TenantQuota};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one serving sweep.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Number of tenants generating traffic (weights alternate 1/2).
    pub tenants: usize,
    /// Aggregate arrival rates to sweep (requests/second, all tenants).
    pub rates_hz: Vec<f64>,
    /// Open-loop generation window per rate point.
    pub duration_ms: u64,
    /// Seed of the arrival/tenant/cube draws.
    pub seed: u64,
    /// Executor pool size.
    pub workers: usize,
    /// Global admission queue bound.
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap (queued + running).
    pub max_in_flight: usize,
    /// Size of the shared cube pool the probes draw from.
    pub distinct_cubes: usize,
    /// Shared cube-cache budget.
    pub cache_budget_mb: usize,
    /// Busy-work per request after the cube is resident.
    pub work_spin_us: u64,
    /// Extra cost of a cache miss (the simulated cube build).
    pub load_spin_us: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            tenants: 4,
            rates_hz: vec![200.0, 800.0],
            duration_ms: 300,
            seed: 42,
            workers: 4,
            queue_capacity: 128,
            max_in_flight: 16,
            distinct_cubes: 3,
            cache_budget_mb: 64,
            work_spin_us: 200,
            load_spin_us: 2_000,
        }
    }
}

/// Measurements of one arrival-rate point.
#[derive(Debug, Clone)]
pub struct RatePoint {
    pub rate_hz: f64,
    /// Submissions attempted by the generator.
    pub offered: u64,
    /// Submissions past admission control (each runs once).
    pub admitted: u64,
    /// Submissions that joined an identical in-flight execution.
    pub coalesced: u64,
    /// Typed admission refusals (quota + rate + queue-full).
    pub rejected: u64,
    /// Handles that resolved `Completed`.
    pub completed: u64,
    /// Handles that resolved `Failed` or timed out.
    pub failed: u64,
    /// Queue-to-finish latency percentiles, microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Completed requests per second over the whole point (generation
    /// plus drain).
    pub goodput_hz: f64,
    /// rejected / offered.
    pub rejection_rate: f64,
    /// Shared cube-cache hit rate across all tenants of the point.
    pub cache_hit_rate: f64,
}

/// The full sweep: one [`RatePoint`] per configured rate.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    pub tenants: usize,
    pub workers: usize,
    pub queue_capacity: usize,
    pub distinct_cubes: usize,
    pub seed: u64,
    pub duration_ms: u64,
    pub points: Vec<RatePoint>,
}

impl ServeBenchReport {
    /// Renders the sweep as a JSON object (`serve-bench --out`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"tenants\": {},\n", self.tenants));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"queue_capacity\": {},\n", self.queue_capacity));
        s.push_str(&format!("  \"distinct_cubes\": {},\n", self.distinct_cubes));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"duration_ms\": {},\n", self.duration_ms));
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rate_hz\": {:.1}, \"offered\": {}, \"admitted\": {}, \
                 \"coalesced\": {}, \"rejected\": {}, \"completed\": {}, \"failed\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"goodput_hz\": {:.2}, \
                 \"rejection_rate\": {:.4}, \"cache_hit_rate\": {:.4}}}{}\n",
                p.rate_hz,
                p.offered,
                p.admitted,
                p.coalesced,
                p.rejected,
                p.completed,
                p.failed,
                p.p50_us,
                p.p99_us,
                p.goodput_hz,
                p.rejection_rate,
                p.cache_hit_rate,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// One `[serve] stage=sweep ...` line per point (the stdout summary).
    pub fn summary_lines(&self) -> Vec<String> {
        self.points
            .iter()
            .map(|p| {
                format!(
                    "[serve] stage=sweep rate_hz={:.1} offered={} admitted={} coalesced={} \
                     rejected={} completed={} failed={} p50_us={} p99_us={} goodput_hz={:.2} \
                     rejection_rate={:.4} cache_hit_rate={:.4}",
                    p.rate_hz,
                    p.offered,
                    p.admitted,
                    p.coalesced,
                    p.rejected,
                    p.completed,
                    p.failed,
                    p.p50_us,
                    p.p99_us,
                    p.goodput_hz,
                    p.rejection_rate,
                    p.cache_hit_rate
                )
            })
            .collect()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded generator for the arrival schedule and tenant/cube draws.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Deterministic busy-wait standing in for compute.
fn spin_for(us: u64) {
    let end = Instant::now() + Duration::from_micros(us);
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Builds the probe's synthetic datacube (48 x 48 cells, 16-day series;
/// the values depend on the pool key so distinct cubes are distinct).
fn probe_cube(key: &str, load_spin_us: u64) -> datacube::Result<Cube> {
    const NLAT: usize = 48;
    const NLON: usize = 48;
    const NDAY: usize = 16;
    spin_for(load_spin_us);
    let tag = key.bytes().fold(0u32, |a, b| a.wrapping_mul(31).wrapping_add(b as u32));
    let phase = (tag % 997) as f32 * 0.01;
    let data: Vec<f32> =
        (0..NLAT * NLON * NDAY).map(|i| (i as f32 * 0.001 + phase).sin()).collect();
    let dims = vec![
        Dimension::explicit("lat", (0..NLAT).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::explicit("lon", (0..NLON).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::implicit("day", (0..NDAY).map(|i| i as f64).collect::<Vec<_>>()),
    ];
    Cube::from_dense("serve_probe", dims, data, 8, 2)
}

/// The trivially-deployable topology behind the probe workflow.
fn probe_topology() -> Topology {
    Topology {
        name: "serve-probe".into(),
        inputs: BTreeMap::new(),
        templates: vec![NodeTemplate {
            name: "probe".into(),
            type_name: "bench.ServeProbe".into(),
            properties: BTreeMap::new(),
            requirements: Vec::new(),
        }],
    }
}

/// Builds an [`ExecutionApi`] serving the probe workflow against `cache`.
fn probe_api(cfg: &ServeBenchConfig, cache: Arc<CubeCache>) -> ExecutionApi {
    let api = ExecutionApi::with_config(ServeConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        default_quota: TenantQuota {
            max_in_flight: cfg.max_in_flight,
            weight: 1,
            ..TenantQuota::default()
        },
    });
    let work_spin_us = cfg.work_spin_us;
    let load_spin_us = cfg.load_spin_us;
    api.register(probe_topology(), move |inputs| {
        let key = inputs.get("cube").cloned().unwrap_or_else(|| "cube-0".to_string());
        let cube = cache
            .get_or_load(&key, || probe_cube(&key, load_spin_us))
            .map_err(|e| e.to_string())?;
        spin_for(work_spin_us);
        let sum: f64 = cube.to_dense().iter().map(|v| *v as f64).sum();
        Ok(format!("{key} sum={sum:.3}"))
    });
    api
}

/// Runs one rate point: a fresh serving stack (API, executor pool, shared
/// cache), the seeded open-loop generator, then a full drain.
fn run_point(cfg: &ServeBenchConfig, rate_hz: f64) -> Result<RatePoint, WorkflowError> {
    let cache = Arc::new(CubeCache::new(cfg.cache_budget_mb * 1024 * 1024));
    let api = probe_api(cfg, Arc::clone(&cache));
    let dep = api.deploy("serve-probe")?;
    for t in 0..cfg.tenants {
        // A heavy/light tenant mix: even tenants get twice the share.
        api.set_quota(
            &format!("tenant-{t}"),
            TenantQuota {
                max_in_flight: cfg.max_in_flight,
                weight: if t % 2 == 0 { 2 } else { 1 },
                ..TenantQuota::default()
            },
        );
    }

    let mut rng = Rng(cfg.seed ^ (rate_hz as u64).wrapping_mul(0x9E37_79B9));
    let start = Instant::now();
    let window = Duration::from_millis(cfg.duration_ms);
    let mut next_arrival = Duration::ZERO;
    let mut offered = 0u64;
    let mut rejected_local = 0u64;
    let mut handles = Vec::new();
    // Open loop: arrivals follow the schedule regardless of completions;
    // if the generator falls behind it bursts to catch up.
    loop {
        if next_arrival >= window {
            break;
        }
        let now = start.elapsed();
        if now < next_arrival {
            std::thread::sleep(next_arrival - now);
        }
        let tenant = format!("tenant-{}", rng.below(cfg.tenants));
        let cube = format!("cube-{}", rng.below(cfg.distinct_cubes));
        let mut inputs = BTreeMap::new();
        inputs.insert("cube".to_string(), cube);
        // A quarter of the requests carry no per-request tag, so identical
        // concurrent submissions exist for the coalescing path; the rest
        // are unique and must each run.
        if rng.next_f64() >= 0.25 {
            inputs.insert("req".to_string(), offered.to_string());
        }
        offered += 1;
        match api.submit_as(&tenant, dep, &inputs) {
            Ok(h) => handles.push(h),
            Err(hpcwaas::Error::Rejected(_)) => rejected_local += 1,
            Err(e) => return Err(WorkflowError::Serve(e)),
        }
        // Exponential inter-arrival gap at the target aggregate rate.
        let gap = -(1.0 - rng.next_f64()).ln() / rate_hz;
        next_arrival += Duration::from_secs_f64(gap);
    }

    // Drain: every admitted or coalesced handle must resolve.
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut latencies_us = Vec::with_capacity(handles.len());
    for h in &handles {
        match h.wait_timeout(Duration::from_secs(120)) {
            Some(ExecutionStatus::Completed { .. }) => {
                completed += 1;
                let events = h.events();
                let queued = events.iter().find_map(|e| {
                    matches!(e.kind, obs::EventKind::ExecutionQueued { .. }).then_some(e.ts_micros)
                });
                let finished = events.iter().find_map(|e| {
                    matches!(e.kind, obs::EventKind::ExecutionFinished { .. })
                        .then_some(e.ts_micros)
                });
                if let (Some(q), Some(f)) = (queued, finished) {
                    latencies_us.push(f.saturating_sub(q));
                }
            }
            _ => failed += 1,
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let idx = ((latencies_us.len() - 1) as f64 * p).round() as usize;
        latencies_us[idx]
    };
    let stats = api.serve_stats();
    let cache_stats = cache.stats();
    debug_assert_eq!(stats.rejected(), rejected_local);
    Ok(RatePoint {
        rate_hz,
        offered,
        admitted: stats.admitted,
        coalesced: stats.coalesced,
        rejected: stats.rejected(),
        completed,
        failed,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        goodput_hz: if elapsed > 0.0 { completed as f64 / elapsed } else { 0.0 },
        rejection_rate: if offered > 0 { stats.rejected() as f64 / offered as f64 } else { 0.0 },
        cache_hit_rate: cache_stats.hit_rate(),
    })
}

/// Runs the configured sweep, one fresh serving stack per rate point.
pub fn run(cfg: &ServeBenchConfig) -> Result<ServeBenchReport, WorkflowError> {
    let mut points = Vec::with_capacity(cfg.rates_hz.len());
    for &rate in &cfg.rates_hz {
        points.push(run_point(cfg, rate)?);
    }
    Ok(ServeBenchReport {
        tenants: cfg.tenants,
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        distinct_cubes: cfg.distinct_cubes,
        seed: cfg.seed,
        duration_ms: cfg.duration_ms,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ServeBenchConfig {
        ServeBenchConfig {
            tenants: 4,
            rates_hz: vec![400.0],
            duration_ms: 250,
            workers: 2,
            distinct_cubes: 3,
            work_spin_us: 100,
            load_spin_us: 1_500,
            ..ServeBenchConfig::default()
        }
    }

    /// Acceptance: with >= 4 tenants submitting overlapping workflows,
    /// the shared cache serves the overlap (> 50% hit rate) and the
    /// sweep produces nonzero goodput.
    #[test]
    fn four_tenant_sweep_shares_the_cache() {
        let report = run(&quick()).unwrap();
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert!(p.offered >= 20, "offered only {}", p.offered);
        assert!(p.completed > 0, "{p:?}");
        assert_eq!(p.failed, 0, "{p:?}");
        assert!(p.goodput_hz > 0.0, "{p:?}");
        assert!(p.cache_hit_rate > 0.5, "hit rate {} too low: {p:?}", p.cache_hit_rate);
        assert!(p.p99_us >= p.p50_us, "{p:?}");
        assert!(p.p50_us > 0, "{p:?}");
        // Conservation: every offered request was admitted, coalesced
        // onto an admitted one, or typed-rejected.
        assert_eq!(p.offered, p.admitted + p.coalesced + p.rejected, "{p:?}");
    }

    #[test]
    fn report_renders_json_and_summary_lines() {
        let report = ServeBenchReport {
            tenants: 4,
            workers: 2,
            queue_capacity: 8,
            distinct_cubes: 3,
            seed: 7,
            duration_ms: 100,
            points: vec![RatePoint {
                rate_hz: 250.0,
                offered: 25,
                admitted: 20,
                coalesced: 3,
                rejected: 2,
                completed: 23,
                failed: 0,
                p50_us: 900,
                p99_us: 4_200,
                goodput_hz: 88.5,
                rejection_rate: 0.08,
                cache_hit_rate: 0.91,
            }],
        };
        let json = report.to_json();
        for key in [
            "\"rate_hz\"",
            "\"p50_us\"",
            "\"p99_us\"",
            "\"goodput_hz\"",
            "\"rejection_rate\"",
            "\"cache_hit_rate\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let lines = report.summary_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("[serve] stage=sweep rate_hz=250.0"));
        assert!(lines[0].contains("cache_hit_rate=0.9100"));
    }

    /// The seeded generator offers the same schedule for the same seed.
    #[test]
    fn same_seed_offers_identical_load() {
        let cfg = ServeBenchConfig { duration_ms: 120, rates_hz: vec![300.0], ..quick() };
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.points[0].offered, b.points[0].offered);
    }
}
