//! The repository benchmark's measuring process.
//!
//! ```text
//! perfbench --workload spec-shootout|parsec-sweep|report-regen \
//!           --seed N --seconds S --trace 0|1 --work DIR
//! ```
//!
//! It builds the workload's figure sessions (set-up), runs them through the
//! public session, store, render and census entry points for about `S`
//! seconds, checks every pass against a reference pass, and writes
//! `DIR/result.json` plus the reference cells for the golden comparison
//! that `run.py` performs. With `--trace 1` it instead runs the work once
//! untraced and once through [`traced`]'s timing wrappers, and reports the
//! per-layer metrics. See README.md for the workloads and metrics.

mod traced;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use simkit::config::SystemConfig;
use simkit::json::{Json, ToJson};
use simkit::rng::SimRng;
use simsys::runner::{self, RunEvent};
use simsys::session::{CellResult, ExperimentSession, RunReport};
use simsys::store::ResultStore;
use speclint::{AnalyzerConfig, Census};
use workloads::{domain_switch_suite, parsec_suite, spec_suite, Scale, Workload};

use traced::{Totals, Tracer, CALLS};

/// Every grid runs at the scale that has committed goldens for all nine.
const SCALE: Scale = Scale::Tiny;
/// The run id stamped into rendered provenance lines.
const RUN_ID: &str = "perfbench";
/// Minimum measuring rounds per run (see [`measured_run`]).
const MIN_ROUNDS: usize = 5;
/// Warm samples per round; `report_warm_s` is their median.
const WARM_PER_ROUND: usize = 2;
/// Minimum wall seconds of one set-up sample and of one warm sample: each
/// averages many back-to-back repetitions, so one slow repetition moves it
/// little.
const SETUP_SAMPLE_S: f64 = 0.25;
const WARM_SAMPLE_S: f64 = 0.5;
/// Environment variables that silently change what is measured.
const REFUSED_ENV: [&str; 2] = ["MUONTRAP_NAIVE_LOOP", "MUONTRAP_STORE"];
/// Defense labels with a per-model memory self-time column.
const MODEL_LABELS: [&str; 11] = [
    "unprotected",
    "insecure-l0",
    "fence",
    "delay-loads",
    "safebet",
    "muontrap",
    "muontrap-custom",
    "invisispec-spectre",
    "invisispec-future",
    "stt-spectre",
    "stt-future",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SpecShootout,
    ParsecSweep,
    ReportRegen,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "spec-shootout" => Some(Kind::SpecShootout),
            "parsec-sweep" => Some(Kind::ParsecSweep),
            "report-regen" => Some(Kind::ReportRegen),
            _ => None,
        }
    }

    /// The figure grids the workload regenerates, in report order.
    fn grids(self) -> &'static [&'static str] {
        match self {
            Kind::SpecShootout => &["shootout"],
            Kind::ParsecSweep => &["fig5"],
            Kind::ReportRegen => &bench::FIGURE_NAMES,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work: work.ok_or("--work is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set: it changes what is measured");
            std::process::exit(2);
        }
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut out = Output::default();
    if args.trace {
        trace_run(&args, threads, &mut out);
    } else {
        measured_run(&args, threads, &mut out);
    }
    out.write(&args, threads).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot write results: {e}");
        std::process::exit(1);
    });
}

// ---------------------------------------------------------------------------
// Set-up and passes

/// The workload's suite for one figure grid, in the figure's own order.
fn suite(grid: &str, config: &SystemConfig) -> Vec<Workload> {
    match grid {
        "fig4" | "fig5" | "fig6" | "fig8" => parsec_suite(SCALE, config.cores),
        "domain" => domain_switch_suite(SCALE),
        _ => spec_suite(SCALE),
    }
}

struct Setup {
    grids: Vec<(&'static str, ExperimentSession)>,
    gen_s: f64,
    units: usize,
}

/// Generates every grid's suite, permutes it by `seed` (0 keeps the
/// figure's order), builds the sessions and plans them.
fn setup(kind: Kind, seed: u64, threads: usize) -> Setup {
    let config = SystemConfig::paper_default();
    let mut out = Setup {
        grids: Vec::new(),
        gen_s: 0.0,
        units: 0,
    };
    for &name in kind.grids() {
        let t = Instant::now();
        let mut workloads = suite(name, &config);
        if seed != 0 {
            SimRng::seed_from(seed).shuffle(&mut workloads);
        }
        out.gen_s += t.elapsed().as_secs_f64();
        let session = bench::figure_session(name, SCALE, &config, threads, None)
            .expect("every grid name is a registered figure")
            .workloads(workloads);
        let plan = session.plan();
        out.units += plan.baselines.len() + plan.cells.len();
        black_box(plan);
        out.grids.push((name, session));
    }
    out
}

/// CPU seconds this process has used so far, summed over its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`). Neither the time a hypervisor steals from
/// the machine nor the time other processes hold its CPUs is in it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_secs() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the benchmark falls back to wall time since the first call;
/// the host fingerprint's `clock` says which clock a result used.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_secs() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

const CLOCK: &str = if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
    "process-cpu"
} else {
    "wall"
};

/// A timed interval in process CPU seconds ([`process_cpu_secs`]). On a
/// shared host, hypervisor steal and other tenants' processes inflate wall
/// time by up to half, in bursts of seconds to minutes, and dominate the
/// run-to-run spread of any wall clock; CPU time counts only this process's
/// own work. Sim passes run `threads` session threads, so their CPU time is
/// the work of every thread together.
struct CpuClock {
    started: Instant,
    cpu: f64,
}

impl CpuClock {
    fn start() -> CpuClock {
        CpuClock {
            started: Instant::now(),
            cpu: process_cpu_secs(),
        }
    }

    fn secs(&self) -> f64 {
        process_cpu_secs() - self.cpu
    }

    /// Wall seconds since the start, which only bound sample lengths.
    fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// One regeneration of the workload's reports and page.
struct Pass {
    reports: Vec<(String, RunReport)>,
    html: String,
    census: Option<Census>,
    /// Process CPU seconds ([`CpuClock`]).
    secs: f64,
}

/// Time split of [`render`]: (census seconds, render seconds).
type RenderSplit = (f64, f64);

/// Renders the workload's page: the full evaluation (with the census) for
/// `report-regen`, the figure's own page otherwise.
fn render(kind: Kind, reports: &[(String, RunReport)]) -> (String, Option<Census>, RenderSplit) {
    if kind == Kind::ReportRegen {
        let t = Instant::now();
        let census = bench::lint::corpus_census(SCALE, &AnalyzerConfig::default());
        let census_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let html = bench::render::evaluation_document(reports, RUN_ID, SCALE.name(), Some(&census));
        (html, Some(census), (census_s, t.elapsed().as_secs_f64()))
    } else {
        let (name, report) = &reports[0];
        let t = Instant::now();
        let html = bench::render::figure_document(name, report, RUN_ID)
            .expect("every grid name is a registered figure");
        (html, None, (0.0, t.elapsed().as_secs_f64()))
    }
}

/// One untraced pass through `ExperimentSession::run_with_events`, streaming
/// events into `events` when given.
fn pass(
    kind: Kind,
    grids: &[(&'static str, ExperimentSession)],
    store: Option<&ResultStore>,
    mut events: Option<&mut Vec<u8>>,
) -> Pass {
    let sessions: Vec<_> = grids
        .iter()
        .map(|(name, session)| (*name, session.clone().store(store.cloned())))
        .collect();
    let t = CpuClock::start();
    let reports: Vec<(String, RunReport)> = sessions
        .into_iter()
        .map(|(name, session)| {
            let sink = events.as_deref_mut().map(|v| v as &mut (dyn Write + Send));
            (name.to_string(), session.run_with_events(sink))
        })
        .collect();
    let (html, census, _) = render(kind, &reports);
    Pass {
        reports,
        html,
        census,
        secs: t.secs(),
    }
}

/// Spans the traced pass adds on top of the tracer's own totals.
#[derive(Default)]
struct PassSpans {
    passes: usize,
    census_s: f64,
    render_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// The traced twin of [`pass`].
fn traced_pass(
    kind: Kind,
    grids: &[(&'static str, ExperimentSession)],
    tracer: &Tracer,
    store: Option<&ResultStore>,
    threads: usize,
    spans: &mut PassSpans,
) -> Pass {
    let t = CpuClock::start();
    let reports: Vec<(String, RunReport)> = grids
        .iter()
        .map(|(name, session)| (name.to_string(), tracer.run(session, store, threads)))
        .collect();
    let (html, census, (census_s, render_s)) = render(kind, &reports);
    let secs = t.secs();
    spans.passes += 1;
    spans.census_s += census_s;
    spans.render_s += render_s;
    spans.wall_s += t.wall();
    spans.cpu_s += secs;
    Pass {
        reports,
        html,
        census,
        secs,
    }
}

// ---------------------------------------------------------------------------
// Checks

#[derive(Default)]
struct Output {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// The reference pass, compared with the goldens by `run.py`.
    reference: Option<Pass>,
    /// Passes that resolved every grid once (the golden multiplier).
    resolutions: u64,
}

/// Equal simulated results; store provenance (`cached`) may differ.
fn same_payload(a: &CellResult, b: &CellResult) -> bool {
    CellResult {
        cached: b.cached,
        ..a.clone()
    } == *b
}

impl Output {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    fn problem(&mut self, message: String) {
        eprintln!("perfbench: FAILED CHECK: {message}");
        self.problems.push(message);
    }

    /// Checks one pass cell by cell against the reference pass (the
    /// reference itself only for completeness), and that a warm pass
    /// simulated nothing: every re-simulated unit counts as a failure.
    fn check(&mut self, kind: Kind, pass: &Pass, warm: bool) {
        self.resolutions += 1;
        let reference = self.reference.as_ref().unwrap_or(pass);
        let mut failed = 0;
        let mut attempted = 0;
        let mut problems = Vec::new();
        for ((name, expect), (_, got)) in reference.reports.iter().zip(&pass.reports) {
            if expect.cells.len() != got.cells.len() {
                problems.push(format!(
                    "{name}: pass resolved {} cells, reference {}",
                    got.cells.len(),
                    expect.cells.len()
                ));
            }
            for (a, b) in expect.cells.iter().zip(&got.cells) {
                attempted += 1;
                if !b.completed || !same_payload(a, b) {
                    failed += 1;
                }
            }
            if warm && got.sims_executed > 0 {
                failed += got.sims_executed as u64;
                problems.push(format!(
                    "{name}: warm pass re-simulated {} units",
                    got.sims_executed
                ));
            }
        }
        if failed > 0 {
            problems.push(format!(
                "{failed} cells incomplete or differing from the reference pass"
            ));
        }
        let charts = pass.html.matches("<svg ").count();
        if charts != kind.grids().len() {
            failed += 1;
            problems.push(format!(
                "page has {charts} charts, expected {}",
                kind.grids().len()
            ));
        }
        self.attempted += attempted;
        self.failed += failed.min(attempted);
        for p in problems {
            self.problem(p);
        }
    }

    /// Stores the run's reference pass after checking it.
    fn set_reference(&mut self, kind: Kind, pass: Pass) {
        self.check(kind, &pass, false);
        self.reference = Some(pass);
    }

    /// Writes `result.json` and the reference cells under the work dir.
    fn write(&self, args: &Args, threads: usize) -> std::io::Result<()> {
        let mut grids = Vec::new();
        if let Some(reference) = &self.reference {
            for (name, report) in &reference.reports {
                let file = format!("cells-{name}.json");
                std::fs::write(args.work.join(&file), report.to_json().to_string_compact())?;
                grids.push(Json::obj([
                    ("name", Json::Str(name.clone())),
                    ("golden", Json::Str(format!("{name}-{}.json", SCALE.name()))),
                    ("cells", Json::Str(file)),
                    ("resolutions", Json::UInt(self.resolutions)),
                ]));
            }
            if let Some(census) = &reference.census {
                std::fs::write(
                    args.work.join("census.json"),
                    census.to_json().to_string_compact(),
                )?;
            }
        }
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(name, (value, unit))| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let result = Json::obj([
            ("host", host_fingerprint(args, threads)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("grids", Json::Arr(grids)),
            ("metrics", metrics),
        ]);
        std::fs::write(args.work.join("result.json"), result.to_string_pretty())
    }
}

/// What a number was measured on: results from different fingerprints are
/// not comparable.
fn host_fingerprint(args: &Args, threads: usize) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loop_mode = if simsys::system::naive_loop_requested() {
        "naive"
    } else {
        "event-driven"
    };
    Json::obj([
        ("cpus", Json::UInt(cpus as u64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("session_threads", Json::UInt(threads as u64)),
        ("scale", Json::Str(SCALE.name().to_string())),
        ("loop_mode", Json::Str(loop_mode.to_string())),
        ("clock", Json::Str(CLOCK.to_string())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
    ])
}

// ---------------------------------------------------------------------------
// Measured (untraced) run

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The mean without the lowest and the highest value (a plain mean of
/// fewer than three). Host speed drifts in phases of seconds to minutes, so
/// a run's cold passes are a mixture of fast and slow ones; their mean
/// follows the mixture where a median of a few jumps between its modes.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cells_and_kinsts(pass: &Pass) -> (f64, f64) {
    let cells = pass
        .reports
        .iter()
        .map(|(_, r)| r.cells.len())
        .sum::<usize>();
    let committed = pass
        .reports
        .iter()
        .flat_map(|(_, r)| &r.cells)
        .map(|c| c.committed)
        .sum::<u64>();
    (cells as f64, committed as f64 / 1e3)
}

fn fresh_store(path: &Path) -> ResultStore {
    let _ = std::fs::remove_dir_all(path);
    ResultStore::open(path)
        .unwrap_or_else(|e| panic!("cannot open result store at {}: {e}", path.display()))
}

/// Warm regenerations of the workload, back to back for at least
/// [`WARM_SAMPLE_S`]; returns their mean CPU seconds, the checks between
/// passes left out.
fn warm_sample(
    kind: Kind,
    grids: &[(&'static str, ExperimentSession)],
    store: &ResultStore,
    out: &mut Output,
) -> f64 {
    let started = Instant::now();
    let (mut passes, mut secs) = (0, 0.0);
    while passes == 0 || started.elapsed().as_secs_f64() < WARM_SAMPLE_S {
        let p = pass(kind, grids, Some(store), None);
        out.check(kind, &p, true);
        secs += p.secs;
        passes += 1;
    }
    secs / passes as f64
}

/// Set-ups back to back for at least [`SETUP_SAMPLE_S`]; returns their mean
/// CPU seconds and the last set-up.
fn setup_sample(kind: Kind, seed: u64, threads: usize) -> (f64, Setup) {
    let clock = CpuClock::start();
    let mut setups = 1;
    let mut last = setup(kind, seed, threads);
    while clock.wall() < SETUP_SAMPLE_S {
        last = setup(kind, seed, threads);
        setups += 1;
    }
    (clock.secs() / setups as f64, last)
}

/// The untraced run. One set-up sample, then one pass against a fresh
/// on-disk store (it fills the store; for `report-regen` it is the cold
/// phase, run twice), then rounds until `seconds` more have passed and at least
/// [`MIN_ROUNDS`] ran. A round is a set-up sample, a cold storeless pass
/// (sim grids only) and [`WARM_PER_ROUND`] warm samples against the store.
/// Rounds spread every kind of sample over the whole run, away from any one
/// burst of host noise.
fn measured_run(args: &Args, threads: usize, out: &mut Output) {
    let kind = args.kind;
    let (secs, prepared) = setup_sample(kind, args.seed, threads);
    let mut setup_s = vec![secs];
    let grids = prepared.grids;
    let store = fresh_store(&args.work.join("store"));

    let mut cold = Vec::new();
    let first = pass(kind, &grids, Some(&store), None);
    if kind == Kind::ReportRegen {
        cold.push(first.secs);
    }
    out.set_reference(kind, first);
    // What one regeneration holds at its peak, as in a one-shot `report`
    // or figure process; later passes only add allocator fragmentation,
    // which varies from run to run.
    let peak_rss = peak_rss_mb();
    // A `report-regen` cold phase needs an empty store, so it cannot repeat
    // in rounds; a second one into a second fresh store halves the weight
    // of any one burst of host noise. The warm samples read that store.
    let store = if kind == Kind::ReportRegen {
        let second = fresh_store(&args.work.join("store-2"));
        let p = pass(kind, &grids, Some(&second), None);
        out.check(kind, &p, false);
        cold.push(p.secs);
        second
    } else {
        store
    };
    let started = Instant::now();
    let mut warm = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        setup_s.push(setup_sample(kind, args.seed, threads).0);
        if kind != Kind::ReportRegen {
            let p = pass(kind, &grids, None, None);
            out.check(kind, &p, false);
            cold.push(p.secs);
        }
        for _ in 0..WARM_PER_ROUND {
            warm.push(warm_sample(kind, &grids, &store, out));
        }
        rounds += 1;
    }

    let cold_s = trimmed_mean(&cold);
    let (cells, kinsts) = cells_and_kinsts(out.reference.as_ref().expect("reference pass"));
    out.metric("cells_per_s", cells / cold_s, "1/s");
    out.metric("sim_kips", kinsts / cold_s, "kinst/s");
    out.metric("report_cold_s", cold_s, "s");
    out.metric("report_warm_s", median(&warm), "s");
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    eprintln!(
        "perfbench: {rounds} rounds: {} cold pass(es), {} warm and {} set-up samples",
        cold.len(),
        warm.len(),
        setup_s.len()
    );
    eprintln!("perfbench: cold CPU seconds {cold:.4?}");
    eprintln!("perfbench: warm CPU seconds {warm:.5?}");
}

// ---------------------------------------------------------------------------
// Traced run

/// The traced run: the work of one measured run (with one pass per phase)
/// executed untraced, then again through the timing wrappers; every traced
/// cell must equal the untraced one.
fn trace_run(args: &Args, threads: usize, out: &mut Output) {
    let kind = args.kind;
    let setup = setup(kind, args.seed, threads);
    let grids = &setup.grids;

    // Untraced: the same phases as a measured run, one pass each. The pass
    // in which every unit simulates streams its runner events.
    let mut events = Vec::new();
    let store = fresh_store(&args.work.join("store"));
    let mut untraced_s = 0.0;
    let sims_pass = if kind == Kind::ReportRegen {
        let cold = pass(kind, grids, Some(&store), Some(&mut events));
        untraced_s += cold.secs;
        out.set_reference(kind, cold);
        None
    } else {
        let warmup = pass(kind, grids, Some(&store), None);
        untraced_s += warmup.secs;
        out.set_reference(kind, warmup);
        let cold = pass(kind, grids, None, Some(&mut events));
        untraced_s += cold.secs;
        out.check(kind, &cold, false);
        Some(cold)
    };
    let warm = pass(kind, grids, Some(&store), None);
    untraced_s += warm.secs;
    out.check(kind, &warm, true);
    let busy_pass = sims_pass
        .as_ref()
        .or(out.reference.as_ref())
        .expect("a pass ran");
    let busy_frac = busy_fraction(&events, busy_pass, threads);

    // Traced: the same phases through the decorators.
    let tracer = Tracer::default();
    let traced_store = {
        let root = args.work.join("traced-store");
        let _ = std::fs::remove_dir_all(&root);
        tracer
            .store(&root)
            .unwrap_or_else(|e| panic!("cannot open traced store at {}: {e}", root.display()))
    };
    let mut spans = PassSpans::default();
    let mut traced = vec![traced_pass(
        kind,
        grids,
        &tracer,
        Some(&traced_store),
        threads,
        &mut spans,
    )];
    if kind != Kind::ReportRegen {
        traced.push(traced_pass(kind, grids, &tracer, None, threads, &mut spans));
    }
    let warm_traced = traced_pass(
        kind,
        grids,
        &tracer,
        Some(&traced_store),
        threads,
        &mut spans,
    );
    for p in &traced {
        out.check(kind, p, false);
    }
    out.check(kind, &warm_traced, true);
    let backend = tracer.backend.totals();
    let totals = tracer.into_totals();

    out.metric("workloads.gen_ms", setup.gen_s * 1e3, "ms");
    out.metric("session.units", setup.units as f64, "count");
    layer_metrics(out, &totals, backend, &spans);
    out.metric("runner.busy_frac", busy_frac, "fraction");
    sim_metrics(out);
    out.metric(
        "trace.overhead_frac",
        spans.cpu_s / untraced_s - 1.0,
        "fraction",
    );
}

/// Σ simulation time / (threads × wall) over the pass in which every unit
/// simulated, from the runner's own `completed` events.
fn busy_fraction(events: &[u8], pass: &Pass, threads: usize) -> f64 {
    let events = runner::read_events(events).expect("runner events parse");
    let sim_ms: u64 = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::Completed { sim_ms, .. } => *sim_ms,
            _ => None,
        })
        .sum();
    let wall_ms: f64 = pass.reports.iter().map(|(_, r)| r.wall_clock_ms).sum();
    sim_ms as f64 / (threads as f64 * wall_ms)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics(
    out: &mut Output,
    totals: &Totals,
    (read_ns, write_ns, bytes_written): (u64, u64, u64),
    spans: &PassSpans,
) {
    let passes = spans.passes as f64;
    out.metric(
        "session.plan_ms",
        totals.plan_ns as f64 / 1e6 / passes,
        "ms",
    );
    out.metric(
        "runner.merge_ms",
        totals.merge_ns as f64 / 1e6 / passes,
        "ms",
    );
    let mut units = totals.unit_ms.clone();
    units.sort_by(f64::total_cmp);
    out.metric("runner.unit_ms_p50", median(&units), "ms");
    // The highest percentile with at least ten units beyond it.
    let tail = units[units.len().saturating_sub(11).min(units.len() - 1)];
    out.metric("runner.unit_ms_tail", tail, "ms");

    let run_ns: u64 = totals.by_model.values().map(|m| m.run_ns).sum();
    let mem_ns: u64 = totals.by_model.values().map(|m| m.mem_ns).sum();
    let core_ns = run_ns.saturating_sub(mem_ns) as f64;
    out.metric("core.ticks", totals.ticks as f64, "count");
    out.metric(
        "core.sim_cycles_per_tick",
        ratio(totals.sim_cycles as f64, totals.ticks as f64),
        "cycles",
    );
    out.metric("core.self_frac", ratio(core_ns, run_ns as f64), "fraction");
    out.metric(
        "core.ns_per_tick",
        ratio(core_ns, totals.ticks as f64),
        "ns",
    );
    out.metric(
        "mem.self_frac",
        ratio(mem_ns as f64, run_ns as f64),
        "fraction",
    );
    for label in MODEL_LABELS {
        let time = totals.by_model.get(label).copied().unwrap_or_default();
        out.metric(
            format!("mem.{label}.self_frac"),
            ratio(time.mem_ns as f64, time.run_ns as f64),
            "fraction",
        );
    }
    for (i, call) in CALLS.iter().enumerate() {
        out.metric(format!("mem.{call}.calls"), totals.calls[i] as f64, "count");
        out.metric(format!("mem.{call}.ns"), totals.call_ns[i] as f64, "ns");
    }
    out.metric(
        "mem.load_retry_ratio",
        ratio(totals.load_retries as f64, totals.calls[0] as f64),
        "fraction",
    );

    out.metric("store.gets", totals.gets as f64, "count");
    out.metric("store.get_us", totals.get_ns as f64 / 1e3, "us");
    out.metric("store.read_us", read_ns as f64 / 1e3, "us");
    out.metric("store.puts", totals.puts as f64, "count");
    out.metric("store.put_us", totals.put_ns as f64 / 1e3, "us");
    out.metric("store.write_us", write_ns as f64 / 1e3, "us");
    out.metric("store.bytes_written", bytes_written as f64, "bytes");
    out.metric("render.ms", spans.render_s * 1e3 / passes, "ms");
    out.metric(
        "speclint.census_frac",
        ratio(spans.census_s, spans.wall_s),
        "fraction",
    );
}

/// Modelled-design totals over the reference pass's cells (exact counts).
fn sim_metrics(out: &mut Output) {
    let reference = out.reference.as_ref().expect("reference pass");
    let sum = |prefix: &str, suffix: &str| -> u64 {
        reference
            .reports
            .iter()
            .flat_map(|(_, r)| &r.cells)
            .flat_map(|c| c.stats.iter_counters())
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let mem_retries = sum("core", ".mem_retries");
    let l1d_hits = sum("hierarchy.l1d_hits", "");
    let l1d_misses = sum("hierarchy.l1d_misses", "");
    let l0d_hits = sum("muontrap.l0d_hits", "");
    let l0d_misses = sum("muontrap.l0d_misses", "");
    let cycles: u64 = reference
        .reports
        .iter()
        .flat_map(|(_, r)| &r.cells)
        .map(|c| c.cycles)
        .sum();
    let committed: u64 = reference
        .reports
        .iter()
        .flat_map(|(_, r)| &r.cells)
        .map(|c| c.committed)
        .sum();
    out.metric("sim.cycles", cycles as f64, "cycles");
    out.metric("sim.committed", committed as f64, "count");
    out.metric("sim.mem_retries", mem_retries as f64, "count");
    out.metric(
        "sim.l1d_hit_ratio",
        ratio(l1d_hits as f64, (l1d_hits + l1d_misses) as f64),
        "fraction",
    );
    out.metric(
        "sim.l0d_hit_ratio",
        ratio(l0d_hits as f64, (l0d_hits + l0d_misses) as f64),
        "fraction",
    );
}
