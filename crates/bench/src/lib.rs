//! Paper-claim experiments that `benchmark/run.sh` (wfbench) does not cover.
//!
//! wfbench is the repository's one timing harness for the product: the
//! whole workflow, the serving layer and every per-layer probe are its
//! metrics (`BENCHMARK.json`). What lives under `benches/` is the rest of
//! the DESIGN.md experiment index — overlap, reuse, worker and I/O-server
//! scaling, image cache, checkpointing, the policy/DLS/container
//! ablations, Figure 3 — plus `obs_overhead`, `scripts/check.sh`'s budget
//! gate. Each bench is a plain `main` that collects its samples into one
//! [`Record`] and ends by printing it: a single host-stamped JSON line, the
//! only result format of this crate.

pub mod alloc;

use datacube::model::{Cube, Dimension, SharedData};
use gridded::Grid;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Where and on what a record was taken (wfbench's header, same meaning).
struct Host {
    nproc: usize,
    rustc: Option<String>,
    /// `git rev-parse HEAD`, with `+dirty` when the tree has local edits;
    /// `None` outside a git checkout.
    commit: Option<String>,
    /// Lanes of the global `par` pool, i.e. `PAR_THREADS` as applied.
    par_threads: usize,
}

impl Host {
    fn probe() -> Host {
        let stdout_of = |program: &str, args: &[&str]| {
            let out = Command::new(program).args(args).output().ok()?;
            out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let dirty = stdout_of("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: stdout_of("rustc", &["-V"]),
            commit: stdout_of("git", &["rev-parse", "HEAD"]).map(|c| {
                if dirty {
                    c + "+dirty"
                } else {
                    c
                }
            }),
            par_threads: par::global().threads(),
        }
    }
}

/// `(q1, median, q3)` of `samples`, by the same rule as
/// `benchmark/wfbench/src/stats.rs` — Python's `statistics.quantiles(v,
/// n=4)`, exclusive method; a single sample is its own quartiles — because
/// that is the spread the acceptance runs are judged by, and a bench record
/// has to be comparable with a wfbench record without converting.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

struct Metric {
    name: String,
    unit: &'static str,
    /// `(q1, median, q3)` of the `n` samples.
    quartiles: (f64, f64, f64),
    n: usize,
}

/// The measurements of one experiment. [`Record::finish`] prints them as
/// the bench's last stdout line; progress goes to stderr.
pub struct Record {
    experiment: &'static str,
    smoke: bool,
    metrics: Vec<Metric>,
}

impl Record {
    /// Starts the record of `experiment`. Under `-- --test` (how
    /// `scripts/check.sh` smokes every bench) each metric takes one sample.
    pub fn new(experiment: &'static str) -> Record {
        Record { experiment, smoke: std::env::args().any(|a| a == "--test"), metrics: Vec::new() }
    }

    /// How many samples a metric sized for `n` takes in this run.
    pub fn samples(&self, n: usize) -> usize {
        if self.smoke {
            1
        } else {
            n
        }
    }

    /// Wall time of `routine` in ms: one discarded warm-up call, then `n`
    /// timed ones.
    pub fn time<O>(&mut self, metric: impl Into<String>, n: usize, mut routine: impl FnMut() -> O) {
        self.time_batched(metric, n, || (), |()| routine());
    }

    /// As [`Record::time`] with a fresh untimed `setup()` input per call.
    pub fn time_batched<I, O>(
        &mut self,
        metric: impl Into<String>,
        n: usize,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        if !self.smoke {
            black_box(routine(setup()));
        }
        let samples: Vec<f64> = (0..self.samples(n))
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        self.value(metric, "ms", samples);
    }

    /// Samples the bench took itself: virtual cost-model times, bytes
    /// moved, graph sizes, per-operation costs.
    pub fn value(
        &mut self,
        metric: impl Into<String>,
        unit: &'static str,
        samples: impl IntoIterator<Item = f64>,
    ) {
        let name = metric.into();
        let samples: Vec<f64> = samples.into_iter().collect();
        assert!(!samples.is_empty(), "{name}: a metric needs at least one sample");
        let (q1, median, q3) = quartiles(&samples);
        let n = samples.len();
        eprintln!(
            "{}/{name:<40} {median:>12.4} {unit} [{q1:.4} .. {q3:.4}] n={n}",
            self.experiment
        );
        self.metrics.push(Metric { name, unit, quartiles: (q1, median, q3), n });
    }

    /// The record as one JSON object on one line.
    fn to_json(&self, host: &Host) -> String {
        let text = |v: &Option<String>| v.as_ref().map_or("null".into(), |s| format!("{s:?}"));
        let mut s = format!(
            "{{\"experiment\":{:?},\"smoke\":{},\"host\":{{\"nproc\":{},\"rustc\":{},\
             \"commit\":{},\"par_threads\":{}}},\"metrics\":{{",
            self.experiment,
            self.smoke,
            host.nproc,
            text(&host.rustc),
            text(&host.commit),
            host.par_threads
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let (q1, median, q3) = m.quartiles;
            let sep = if i == 0 { "" } else { "," };
            write!(
                s,
                "{sep}{:?}:{{\"unit\":{:?},\"median\":{median},\"q1\":{q1},\"q3\":{q3},\"n\":{}}}",
                m.name, m.unit, m.n
            )
            .unwrap();
        }
        s.push_str("}}");
        s
    }

    /// Prints the record: the bench's final stdout line.
    pub fn finish(self) {
        println!("{}", self.to_json(&Host::probe()));
    }
}

/// A deterministic `(lat, lon | day)` cube shaped like one analysis year.
pub fn year_cube(nlat: usize, nlon: usize, days: usize, nfrag: usize, seed: u64) -> Cube {
    let g = Grid::global(nlat, nlon);
    let data = SharedData::from_fn(g.len() * days, |data| {
        for (i, v) in data.iter_mut().enumerate() {
            *v = 290.0 + (((i as u64).wrapping_mul(seed | 1) >> 17) % 400) as f32 / 20.0;
        }
    });
    Cube::from_shared(
        "tasmax",
        vec![
            Dimension::explicit("lat", g.lats()),
            Dimension::explicit("lon", g.lons()),
            Dimension::implicit("day", (0..days).map(|d| d as f64).collect::<Vec<_>>()),
        ],
        data,
        nfrag,
        nfrag,
    )
    .unwrap()
}

/// A `(lat, lon)` baseline matching [`year_cube`]'s grid.
pub fn baseline_cube(nlat: usize, nlon: usize, nfrag: usize) -> Cube {
    let g = Grid::global(nlat, nlon);
    Cube::from_shared(
        "tasmax",
        vec![Dimension::explicit("lat", g.lats()), Dimension::explicit("lon", g.lons())],
        SharedData::from_fn(g.len(), |d| d.fill(295.0)),
        nfrag,
        nfrag,
    )
    .unwrap()
}

/// A synthetic busy-work task body with a calibrated duration, used by the
/// scheduler-scaling benches so task cost is controlled.
pub fn spin_for_micros(us: u64) -> u64 {
    let start = std::time::Instant::now();
    let mut acc = 0u64;
    while start.elapsed().as_micros() < us as u128 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        std::hint::black_box(acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to prove the record line is JSON and read it back.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
                other => panic!("{key}: not an object: {other:?}"),
            }
        }

        fn num(&self, key: &str) -> f64 {
            match self.get(key) {
                Json::Num(x) => *x,
                other => panic!("{key}: not a number: {other:?}"),
            }
        }
    }

    /// Parses one value off the front of `s`, returning the rest.
    fn parse(s: &str) -> (Json, &str) {
        let s = s.trim_start();
        if let Some(rest) = s.strip_prefix('{') {
            let mut fields = Vec::new();
            let mut rest = rest.trim_start();
            while !rest.starts_with('}') {
                let (key, after) = parse(rest);
                let Json::Str(key) = key else { panic!("object key is not a string") };
                let (value, after) = parse(after.trim_start().strip_prefix(':').expect("colon"));
                fields.push((key, value));
                rest = after.trim_start();
                rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
            }
            (Json::Obj(fields), &rest[1..])
        } else if let Some(rest) = s.strip_prefix('"') {
            let end = rest.find('"').expect("closing quote");
            assert!(!rest[..end].contains('\\'), "escapes are not needed by any record field");
            (Json::Str(rest[..end].to_string()), &rest[end + 1..])
        } else if let Some(rest) = s.strip_prefix("null") {
            (Json::Null, rest)
        } else if let Some(rest) = s.strip_prefix("true") {
            (Json::Bool(true), rest)
        } else if let Some(rest) = s.strip_prefix("false") {
            (Json::Bool(false), rest)
        } else {
            let end = s.find(|c: char| !"+-.eE0123456789".contains(c)).unwrap_or(s.len());
            (Json::Num(s[..end].parse().expect("number")), &s[end..])
        }
    }

    fn host() -> Host {
        Host {
            nproc: 2,
            rustc: Some("rustc 1.0.0 (abc 2026-01-01)".into()),
            commit: None,
            par_threads: 4,
        }
    }

    fn record_of(samples: &[f64]) -> Json {
        let mut rec = Record { experiment: "unit", smoke: false, metrics: Vec::new() };
        rec.value("case/1", "ms", samples.to_vec());
        rec.value("moved", "MB", [0.0]);
        let line = rec.to_json(&host());
        assert!(!line.contains('\n'), "one line: {line}");
        let (json, rest) = parse(&line);
        assert_eq!(rest, "", "one object and nothing after it");
        json
    }

    #[test]
    fn record_line_is_one_json_object_with_a_host_stamp() {
        let json = record_of(&[3.0, 1.0, 2.0]);
        assert_eq!(json.get("experiment"), &Json::Str("unit".into()));
        assert_eq!(json.get("smoke"), &Json::Bool(false));
        let host = json.get("host");
        assert_eq!(host.num("nproc"), 2.0);
        assert_eq!(host.num("par_threads"), 4.0);
        assert_eq!(host.get("rustc"), &Json::Str("rustc 1.0.0 (abc 2026-01-01)".into()));
        assert_eq!(host.get("commit"), &Json::Null, "outside a checkout the commit is unknown");
        assert_eq!(json.get("metrics").get("moved").get("unit"), &Json::Str("MB".into()));
    }

    #[test]
    fn probed_host_is_stamped_with_this_checkout() {
        let rec = Record { experiment: "unit", smoke: true, metrics: Vec::new() };
        let (json, _) = parse(&rec.to_json(&Host::probe()));
        let host = json.get("host");
        assert!(host.num("nproc") >= 1.0 && host.num("par_threads") >= 1.0);
        assert!(matches!(host.get("rustc"), Json::Str(v) if v.starts_with("rustc ")));
        // Outside a git checkout (an exported copy of the tree) there is none.
        assert!(matches!(host.get("commit"), Json::Null | Json::Str(_)));
    }

    /// Odd, even and single-sample inputs, against the values Python's
    /// `statistics.quantiles(v, n=4)` gives (wfbench's own test vectors).
    #[test]
    fn median_and_quartiles_follow_the_wfbench_convention() {
        let stats = |samples: &[f64]| {
            let json = record_of(samples);
            let m = json.get("metrics").get("case/1");
            (m.num("q1"), m.num("median"), m.num("q3"), m.num("n"))
        };
        assert_eq!(stats(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 4.0, 12.0, 5.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(stats(&ten), (2.75, 5.5, 8.25, 10.0));
        assert_eq!(stats(&[1.0, 2.0]), (0.75, 1.5, 2.25, 2.0));
        assert_eq!(stats(&[7.5]), (7.5, 7.5, 7.5, 1.0));
    }

    #[test]
    fn smoke_mode_takes_one_sample_and_skips_the_warm_up() {
        let mut calls = 0;
        let mut rec = Record { experiment: "unit", smoke: true, metrics: Vec::new() };
        rec.time("f", 20, || calls += 1);
        assert_eq!((calls, rec.metrics[0].n), (1, 1));
        let (mut setups, mut calls) = (0, 0);
        let mut rec = Record { experiment: "unit", smoke: false, metrics: Vec::new() };
        rec.time_batched("g", 5, || setups += 1, |()| calls += 1);
        assert_eq!((setups, calls, rec.metrics[0].n), (6, 6, 5));
    }

    #[test]
    fn year_cube_shape() {
        let c = year_cube(12, 24, 30, 4, 1);
        assert_eq!(c.rows(), 288);
        assert_eq!(c.implicit_len(), 30);
        c.validate().unwrap();
    }

    #[test]
    fn spin_is_roughly_calibrated() {
        let t = std::time::Instant::now();
        spin_for_micros(2000);
        let took = t.elapsed().as_micros();
        assert!((1800..20_000).contains(&took), "spin took {took} us");
    }
}
