//! Minimal `criterion`-compatible benchmark harness for the offline
//! build.
//!
//! Supports the surface the workspace benches use — `criterion_group!` /
//! `criterion_main!`, `Criterion::bench_function`, `benchmark_group`
//! with `sample_size` / `measurement_time` / `bench_with_input` /
//! `iter_custom` — and reports mean / min / max wall-clock per
//! iteration. Statistical rigor (outlier analysis, regression
//! detection) is out of scope; swap in the real criterion by editing
//! `crates/bench/Cargo.toml` when a registry is available.
//!
//! ## CLI quick mode
//!
//! `--test` runs every benchmark exactly once, and
//! `--measurement-time <secs>` / `--sample-size <n>` *override* the
//! benches' programmatic settings (real criterion has the same flags
//! but treats them as defaults) — e.g.
//! `cargo bench --bench poller_scale -- --measurement-time 1`.
//! Unknown flags are ignored.

use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark id combining a function name and a parameter, printed as
/// `name/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id from a name and a displayable parameter.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{}/{param}", name.into()) }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    target_samples: usize,
    target_time: Duration,
}

impl Bencher {
    /// Times `routine` repeatedly, recording per-iteration wall clock.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One warm-up iteration outside the measurement.
        black_box(routine());
        let budget_start = Instant::now();
        for _ in 0..self.target_samples {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
            if budget_start.elapsed() > self.target_time {
                break;
            }
        }
    }

    /// Lets the routine time itself (excluding per-sample setup), as
    /// `criterion::Bencher::iter_custom`: the closure receives an
    /// iteration count and returns the measured duration for that many
    /// iterations. The shim always asks for one iteration per sample.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        // One warm-up iteration outside the measurement.
        black_box(routine(1));
        let budget_start = Instant::now();
        for _ in 0..self.target_samples {
            let d = routine(1);
            self.samples.push(d);
            if budget_start.elapsed() > self.target_time {
                break;
            }
        }
    }
}

fn report(label: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{label:<40} (no samples)");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().expect("non-empty");
    let max = samples.iter().max().expect("non-empty");
    println!(
        "{label:<40} mean {mean:>12.3?}  min {min:>12.3?}  max {max:>12.3?}  ({} samples)",
        samples.len()
    );
}

/// CLI-driven overrides of the benches' programmatic settings (quick
/// mode for CI smoke runs).
#[derive(Debug, Clone, Copy, Default)]
struct Overrides {
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
    test_mode: bool,
}

impl Overrides {
    /// Parses the bench binary's arguments, ignoring flags it does not
    /// know (cargo passes `--bench` etc.).
    fn from_args() -> Self {
        let mut o = Overrides::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--test" => o.test_mode = true,
                "--sample-size" => {
                    o.sample_size = it.next().and_then(|v| v.parse().ok());
                }
                "--measurement-time" => {
                    o.measurement_time =
                        it.next().and_then(|v| v.parse::<f64>().ok()).map(Duration::from_secs_f64);
                }
                _ => {}
            }
        }
        o
    }

    /// Effective settings given the bench's programmatic values.
    fn apply(&self, sample_size: usize, measurement_time: Duration) -> (usize, Duration) {
        if self.test_mode {
            return (1, Duration::from_millis(1));
        }
        (self.sample_size.unwrap_or(sample_size), self.measurement_time.unwrap_or(measurement_time))
    }
}

/// A named group of related benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    overrides: Overrides,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Caps the total measurement time per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (samples, time) = self.overrides.apply(self.sample_size, self.measurement_time);
        let mut b = Bencher { samples: Vec::new(), target_samples: samples, target_time: time };
        f(&mut b);
        report(&format!("{}/{id}", self.name), &b.samples);
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let (samples, time) = self.overrides.apply(self.sample_size, self.measurement_time);
        let mut b = Bencher { samples: Vec::new(), target_samples: samples, target_time: time };
        f(&mut b, input);
        report(&format!("{}/{id}", self.name), &b.samples);
        self
    }

    /// Finishes the group (printing is incremental, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// Benchmark driver, mirroring `criterion::Criterion`. `Default`
/// construction reads the process arguments for the shim's quick-mode
/// flags (see the [module docs](self)).
pub struct Criterion {
    overrides: Overrides,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { overrides: Overrides::from_args() }
    }
}

impl Criterion {
    /// Runs one standalone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (samples, time) = self.overrides.apply(20, Duration::from_secs(3));
        let mut b = Bencher { samples: Vec::new(), target_samples: samples, target_time: time };
        f(&mut b);
        report(name, &b.samples);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let overrides = self.overrides;
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
            measurement_time: Duration::from_secs(3),
            overrides,
            _criterion: self,
        }
    }
}

/// Declares a benchmark group function, as `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, as `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3).measurement_time(Duration::from_millis(50));
        group.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, &n| {
            b.iter(|| black_box(n) * black_box(n))
        });
        group.bench_function("noop", |b| b.iter(|| black_box(1)));
        group.finish();
    }

    criterion_group!(benches, quick_bench);

    #[test]
    fn group_macro_compiles_and_runs() {
        benches();
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("conv", 32).to_string(), "conv/32");
    }

    #[test]
    fn iter_custom_records_the_reported_durations() {
        let mut b =
            Bencher { samples: Vec::new(), target_samples: 4, target_time: Duration::from_secs(1) };
        b.iter_custom(|iters| {
            assert_eq!(iters, 1);
            Duration::from_millis(2)
        });
        assert_eq!(b.samples.len(), 4);
        assert!(b.samples.iter().all(|d| *d == Duration::from_millis(2)));
    }

    #[test]
    fn overrides_apply_in_priority_order() {
        let none = Overrides::default();
        assert_eq!(none.apply(20, Duration::from_secs(3)), (20, Duration::from_secs(3)));
        let quick = Overrides {
            sample_size: Some(3),
            measurement_time: Some(Duration::from_secs(1)),
            test_mode: false,
        };
        assert_eq!(quick.apply(20, Duration::from_secs(3)), (3, Duration::from_secs(1)));
        let test = Overrides { test_mode: true, ..quick };
        assert_eq!(test.apply(20, Duration::from_secs(3)), (1, Duration::from_millis(1)));
    }
}
