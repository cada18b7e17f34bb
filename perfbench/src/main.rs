//! grid3-sim benchmark: end-to-end and per-layer metrics of three
//! workloads, measured through the program's public API in one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale_out|paper_windows|campaign_resume> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload is a batch job with one
//! waiting caller, repeated for about `--seconds`; end-to-end metrics
//! are medians over the repeats. `--trace 1` adds one traced repeat and
//! prints the per-layer metrics instead. The last line of standard
//! output is the result object; the line before it is the run manifest.
//! See `perfbench/README.md` for the metric definitions.

mod campaign;
mod json;
mod manifest;
mod metrics;
mod probes;
mod single;
mod stats;
mod trace;
mod window;

use std::path::PathBuf;
use std::time::Instant;

use grid3_core::scenario::ScenarioConfig;

use metrics::Metrics;

/// The sc2003 golden of `tests/determinism.rs`: seed 2003, scale 0.02.
const GOLDEN_SC2003: u64 = 0x9a81_fc63_ba6a_b37f;

/// Largest share of a traced workload's wall time its spans may leave
/// unaccounted before the balance check fails.
pub const MAX_WALL_GAP_PCT: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScaleOut,
    PaperWindows,
    CampaignResume,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ScaleOut,
        Workload::PaperWindows,
        Workload::CampaignResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleOut => "scale_out",
            Workload::PaperWindows => "paper_windows",
            Workload::CampaignResume => "campaign_resume",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <scale_out|paper_windows|campaign_resume> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operations attempted and failed. An operation is one simulation run,
/// one campaign run, or one check of a merged result; it fails when it
/// panics, returns an error, or its output does not match.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: FAILED {failed}/{attempted}: {what}");
        }
    }

    pub fn op(&mut self, ok: bool, what: &str) {
        self.ops(1, u64::from(!ok), what);
    }
}

/// Everything a workload reads and fills in.
pub struct Ctx {
    /// The repository checkout the benchmark runs in.
    pub root: PathBuf,
    /// This run's scratch directory inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub ledger: Ledger,
    pub metrics: Metrics,
    /// Manifest `inputs` fields, values already rendered as JSON.
    pub inputs: Vec<(&'static str, String)>,
    /// The traced run's spans and profile, rendered as JSON.
    pub trace_json: Option<String>,
    /// Peak resident memory once the first repeat has finished, in MB.
    pub peak_rss_mb: f64,
}

/// Whether to start another repeat: always a first one, then another
/// while a median-length repeat would end closer to the budget than
/// stopping now does. `durations` holds the repeats already made.
pub fn another_repeat(start: Instant, durations: &[f64], budget_s: f64) -> bool {
    durations.is_empty()
        || start.elapsed().as_secs_f64() + stats::median(durations) / 2.0 <= budget_s
}

/// Print each repeat's wall time and their median and quartiles.
pub fn log_walls(workload: &str, walls: &[f64]) {
    let s = stats::Summary::of(walls);
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!(
        "perfbench: {workload} x{}: wall median {:.3} s, quartiles {:.3}..{:.3} s [{}]",
        s.n,
        s.median,
        s.q1,
        s.q3,
        each.join(" ")
    );
}

/// Run `f`, turning a panic into `None` (the panic message still
/// reaches standard error through the default hook).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Peak resident set of this process so far, in MB (VmHWM). Workloads
/// read it after their first repeat: later repeats reuse memory the
/// allocator kept, so the peak would grow with the repeat count.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reproduce the sc2003 golden before timing anything.
fn golden_gate(ctx: &mut Ctx) {
    let hash = guarded(|| {
        let json = ScenarioConfig::sc2003()
            .with_scale(0.02)
            .with_seed(2003)
            .run()
            .to_json();
        manifest::fnv1a64(json.as_bytes())
    });
    ctx.ledger.op(
        hash == Some(GOLDEN_SC2003),
        "golden sc2003 seed 2003 scale 0.02 (want 0x9a81fc63ba6ab37f)",
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    if !root.join("scenarios").is_dir() {
        eprintln!("perfbench: run from the repository root (no scenarios/ here)");
        std::process::exit(2);
    }
    let bench_dir = root.join(".bench_work");
    let work = bench_dir.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).expect("create the benchmark work directory");
    let mut ctx = Ctx {
        root,
        work,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        ledger: Ledger::default(),
        metrics: Metrics::default(),
        inputs: vec![
            ("workload", json::string(args.workload.name())),
            ("seed", args.seed.to_string()),
            ("seconds", json::number(args.seconds)),
            ("trace", args.trace.to_string()),
        ],
        trace_json: None,
        peak_rss_mb: 0.0,
    };

    golden_gate(&mut ctx);
    match args.workload {
        Workload::ScaleOut | Workload::PaperWindows => single::measure(&mut ctx, args.workload),
        Workload::CampaignResume => campaign::measure(&mut ctx),
    }

    let Ledger { attempted, failed } = ctx.ledger;
    let ok_frac = (attempted - failed) as f64 / attempted as f64;
    let declared = if ctx.traced {
        ctx.metrics.set("failed_frac", 1.0 - ok_frac);
        // Layers this workload never runs did no work.
        for (name, _) in metrics::per_layer() {
            ctx.metrics.set_default(&name, 0.0);
        }
        metrics::per_layer()
    } else {
        ctx.metrics.set("peak_rss_mb", ctx.peak_rss_mb);
        ctx.metrics.set("ok_frac", ok_frac);
        if failed > 0 {
            // A failed repeat can leave metrics unmeasured: report them as
            // 0 beside `correct: false` rather than print no result.
            for (name, _) in metrics::end_to_end() {
                ctx.metrics.set_default(&name, 0.0);
            }
        }
        metrics::end_to_end()
    };

    let (host, build) = manifest::host_and_build(&ctx.root, &ctx.work);
    let inputs = json::object(ctx.inputs.iter().map(|(k, v)| (*k, v.clone())));
    let manifest = json::object([("host", host), ("build", build), ("inputs", inputs)]);
    if let Some(trace) = &ctx.trace_json {
        let path = bench_dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let doc = format!("{{\"manifest\":{manifest},{}", &trace[1..]);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        } else {
            eprintln!("perfbench: spans written to {}", path.display());
        }
    }
    std::fs::remove_dir_all(&ctx.work).ok();
    // Leaves `.bench_work` in place when it holds a trace file.
    std::fs::remove_dir(&bench_dir).ok();

    println!("{}", json::object([("manifest", manifest)]));
    println!(
        "{}",
        json::object([
            ("correct", (failed == 0).to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", ctx.metrics.render(&declared)),
        ])
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(
            "--workload paper_windows --seed 7 --seconds 25 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::PaperWindows,
                seed: 7,
                seconds: 25.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload scale_out --seed x --seconds 1 --trace 0",
            "--workload scale_out --seed 1 --seconds 0 --trace 0",
            "--workload scale_out --seed 1 --seconds 1 --trace 2",
            "--workload scale_out --seed 1 --seconds 1",
            "--workload scale_out --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
