//! Whole-run campaigns: fan a scenario across seeds and parameter
//! variants in parallel, then merge the per-run [`Grid3Report`]s into a
//! campaign summary with percentile bands.
//!
//! The discrete-event core is strictly sequential per run — a run is a
//! pure function of `(config, seed)` — so parallelism lives *across*
//! runs, over a grid of `variants × seeds`. [`run_campaign`] is the one
//! worker pool; [`run_campaign_serial`] is the plain-loop reference it is
//! tested against, and [`run_campaign_resumable`] the crash-safe serial
//! executor. All three produce the identical [`CampaignOutcome`]:
//! reports are collected in plan order no matter which worker finished
//! first, so the merged summary is independent of thread count and
//! scheduling.

pub mod resume;

pub use resume::{
    plan_fingerprint, run_campaign_resumable, CampaignJournal, FailedRun, ResumableOptions,
    ResumableOutcome, RunFailure, WalError, WalRecord,
};

use crate::dsl::DslError;
use crate::report::Grid3Report;
use crate::scenario::ScenarioConfig;
use grid3_simkit::profiler::CostProfiler;
use grid3_simkit::stats::{percentile, Summary};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One named configuration variant of a campaign (e.g. the SRM ablation
/// or a resilience-layer overlay of the same window).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignVariant {
    /// Label carried into the summary.
    pub name: String,
    /// The configuration to sweep (its seed is replaced per run).
    pub cfg: ScenarioConfig,
}

/// A campaign plan: the cross product of variants and seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignPlan {
    /// The configuration variants to sweep.
    pub variants: Vec<CampaignVariant>,
    /// The seeds each variant runs under.
    pub seeds: Vec<u64>,
}

impl CampaignPlan {
    /// A single-variant plan: one configuration across `seeds`.
    pub fn single(name: impl Into<String>, cfg: ScenarioConfig, seeds: Vec<u64>) -> Self {
        CampaignPlan {
            variants: vec![CampaignVariant {
                name: name.into(),
                cfg,
            }],
            seeds,
        }
    }

    /// Add a variant to the sweep.
    pub fn with_variant(mut self, name: impl Into<String>, cfg: ScenarioConfig) -> Self {
        self.variants.push(CampaignVariant {
            name: name.into(),
            cfg,
        });
        self
    }

    /// Total runs in the plan.
    pub fn len(&self) -> usize {
        self.variants.len() * self.seeds.len()
    }

    /// True when the plan has no runs.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty() || self.seeds.is_empty()
    }

    /// The runs in plan order: variants outermost, seeds innermost.
    fn runs(&self) -> Vec<(usize, u64, ScenarioConfig)> {
        let mut out = Vec::with_capacity(self.len());
        for (vi, v) in self.variants.iter().enumerate() {
            for &seed in &self.seeds {
                out.push((vi, seed, v.cfg.clone().with_seed(seed)));
            }
        }
        out
    }
}

/// A percentile band of one metric across a variant's runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PercentileBand {
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Mean across runs.
    pub mean: f64,
    /// Smallest run value.
    pub min: f64,
    /// Largest run value.
    pub max: f64,
}

impl PercentileBand {
    /// Band a sample set (empty samples give an all-zero band).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in samples {
            s.record(v);
        }
        PercentileBand {
            p5: percentile(samples, 5.0),
            p25: percentile(samples, 25.0),
            p50: percentile(samples, 50.0),
            p75: percentile(samples, 75.0),
            p95: percentile(samples, 95.0),
            mean: if samples.is_empty() { 0.0 } else { s.mean() },
            min: if samples.is_empty() { 0.0 } else { s.min() },
            max: if samples.is_empty() { 0.0 } else { s.max() },
        }
    }
}

/// One cost center's band across a variant's profiled runs: which
/// `(subsystem, event-type)` the engine spent its time in, and how
/// stable that cost was across seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CenterBand {
    /// Subsystem the events were routed to.
    pub subsystem: String,
    /// Event-type label within the subsystem.
    pub event: String,
    /// Events dispatched to this center, summed across runs.
    pub events: u64,
    /// Handler self-time per event, nanoseconds, banded across runs.
    pub ns_per_event: PercentileBand,
}

/// The merged statistics of one variant across every seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantSummary {
    /// The variant's label.
    pub name: String,
    /// Seeds run, in plan order.
    pub seeds: Vec<u64>,
    /// Completion-efficiency band.
    pub efficiency: PercentileBand,
    /// Peak-concurrent-jobs band.
    pub peak_concurrent: PercentileBand,
    /// Site-problem failure-fraction band.
    pub site_problem_fraction: PercentileBand,
    /// Total delivered data band, TB.
    pub total_data_tb: PercentileBand,
    /// Total terminal job records band.
    pub total_jobs: PercentileBand,
    /// Per-cost-center ns/event bands, ranked most expensive first.
    /// Empty unless the variant's config ran with profiling enabled.
    pub cost_bands: Vec<CenterBand>,
}

/// A scenario file a directory sweep skipped, with the rendered load
/// error (see [`plan_from_dir_graceful`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkippedScenario {
    /// The offending file.
    pub path: String,
    /// The typed load error, rendered.
    pub error: String,
}

/// The merged campaign summary: one [`VariantSummary`] per variant, in
/// plan order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Per-variant bands, in plan order.
    pub variants: Vec<VariantSummary>,
    /// Total runs merged.
    pub runs: usize,
    /// Scenario files the sweep skipped as malformed (directory sweeps
    /// only; always empty for plan-built campaigns).
    #[serde(default)]
    pub skipped: Vec<SkippedScenario>,
}

/// A finished campaign: every per-run report (grouped by variant, seeds
/// in plan order) plus the merged summary.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// `reports[v][s]` is variant `v` under the `s`-th seed.
    pub reports: Vec<Vec<Grid3Report>>,
    /// Per-variant cost profiles merged across seeds; `None` for
    /// variants whose config ran without profiling.
    pub profiles: Vec<Option<CostProfiler>>,
    /// The merged percentile-band summary.
    pub summary: CampaignSummary,
}

/// Per-center ns/event bands across one variant's profiled runs, ranked
/// by mean ns/event descending. Centers a run never dispatched to
/// contribute no sample; centers no run dispatched to are dropped.
fn cost_bands(group: &[(Grid3Report, Option<CostProfiler>)]) -> Vec<CenterBand> {
    let Some(first) = group.iter().find_map(|(_, p)| p.as_ref()) else {
        return Vec::new();
    };
    let mut bands: Vec<CenterBand> = first
        .centers()
        .iter()
        .enumerate()
        .filter_map(|(ci, c)| {
            let samples: Vec<f64> = group
                .iter()
                .filter_map(|(_, p)| p.as_ref())
                .filter_map(|p| {
                    let s = &p.stats()[ci];
                    (s.events > 0).then(|| s.total_ns as f64 / s.events as f64)
                })
                .collect();
            let events: u64 = group
                .iter()
                .filter_map(|(_, p)| p.as_ref())
                .map(|p| p.stats()[ci].events)
                .sum();
            (events > 0).then(|| CenterBand {
                subsystem: c.subsystem.to_string(),
                event: c.event.to_string(),
                events,
                ns_per_event: PercentileBand::from_samples(&samples),
            })
        })
        .collect();
    bands.sort_by(|a, b| {
        b.ns_per_event
            .mean
            .partial_cmp(&a.ns_per_event.mean)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    bands
}

fn merge(plan: &CampaignPlan, flat: Vec<(Grid3Report, Option<CostProfiler>)>) -> CampaignOutcome {
    merge_partial(plan, flat.into_iter().map(Some).collect())
}

/// [`merge`] over a possibly gappy run set: `None` marks a run that
/// failed or was skipped, and contributes nothing to its variant's
/// bands (the variant's `seeds` list only the runs actually merged).
/// With every slot present this is exactly [`merge`] — the resumable
/// executor's uninterrupted path is byte-identical to the plain one.
fn merge_partial(
    plan: &CampaignPlan,
    flat: Vec<Option<(Grid3Report, Option<CostProfiler>)>>,
) -> CampaignOutcome {
    let per = plan.seeds.len();
    let mut groups: Vec<Vec<(Grid3Report, Option<CostProfiler>)>> =
        Vec::with_capacity(plan.variants.len());
    let mut group_seeds: Vec<Vec<u64>> = Vec::with_capacity(plan.variants.len());
    let mut it = flat.into_iter();
    for _ in &plan.variants {
        let mut group = Vec::with_capacity(per);
        let mut seeds = Vec::with_capacity(per);
        for (slot, &seed) in it.by_ref().take(per).zip(&plan.seeds) {
            if let Some(pair) = slot {
                group.push(pair);
                seeds.push(seed);
            }
        }
        groups.push(group);
        group_seeds.push(seeds);
    }
    let variants = plan
        .variants
        .iter()
        .zip(&groups)
        .zip(group_seeds)
        .map(|((v, group), seeds)| {
            let metric = |f: &dyn Fn(&Grid3Report) -> f64| {
                let samples: Vec<f64> = group.iter().map(|(r, _)| f(r)).collect();
                PercentileBand::from_samples(&samples)
            };
            VariantSummary {
                name: v.name.clone(),
                seeds,
                efficiency: metric(&|r| r.metrics.overall_efficiency),
                peak_concurrent: metric(&|r| r.metrics.peak_concurrent_jobs),
                site_problem_fraction: metric(&|r| r.metrics.site_problem_fraction),
                total_data_tb: metric(&|r| r.metrics.total_data.as_tb_f64()),
                total_jobs: metric(&|r| r.total_jobs as f64),
                cost_bands: cost_bands(group),
            }
        })
        .collect();
    let mut reports: Vec<Vec<Grid3Report>> = Vec::with_capacity(groups.len());
    let mut profiles: Vec<Option<CostProfiler>> = Vec::with_capacity(groups.len());
    for group in groups {
        let mut merged: Option<CostProfiler> = None;
        let mut group_reports = Vec::with_capacity(group.len());
        for (report, profile) in group {
            if let Some(p) = profile {
                match &mut merged {
                    Some(m) => m.merge(&p),
                    None => merged = Some(p),
                }
            }
            group_reports.push(report);
        }
        reports.push(group_reports);
        profiles.push(merged);
    }
    CampaignOutcome {
        summary: CampaignSummary {
            variants,
            runs: reports.iter().map(Vec::len).sum(),
            skipped: Vec::new(),
        },
        reports,
        profiles,
    }
}

/// Execute one planned run, keeping its report and cost profile.
fn run_one((_, _, cfg): &(usize, u64, ScenarioConfig)) -> (Grid3Report, Option<CostProfiler>) {
    let artifacts = cfg.run_full();
    (artifacts.report, artifacts.profile)
}

/// Run the whole plan on `threads` OS threads (clamped to one per run)
/// and merge the summary. Workers pull runs from a shared cursor and
/// write each report into its plan-order slot, so the outcome is
/// identical for any thread count — and to [`run_campaign_serial`]'s.
pub fn run_campaign(plan: &CampaignPlan, threads: usize) -> CampaignOutcome {
    let runs = plan.runs();
    let n = runs.len();
    let threads = threads.max(1).min(n.max(1));
    type Slot = parking_lot::Mutex<Option<(Grid3Report, Option<CostProfiler>)>>;
    let slots: Vec<Slot> = (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock() = Some(run_one(&runs[i]));
            });
        }
    });
    let flat: Vec<(Grid3Report, Option<CostProfiler>)> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("every slot filled"))
        .collect();
    merge(plan, flat)
}

/// Run the whole plan in a plain serial loop: the reference executor
/// [`run_campaign`] and [`run_campaign_resumable`] are tested against.
pub fn run_campaign_serial(plan: &CampaignPlan) -> CampaignOutcome {
    merge(plan, plan.runs().iter().map(run_one).collect())
}

/// A directory-built campaign plan plus the files it had to skip, each
/// with its typed load error.
#[derive(Debug, Clone)]
pub struct DirPlan {
    /// The plan over the valid scenario files.
    pub plan: CampaignPlan,
    /// Malformed files, in filename order, with their typed errors.
    pub skipped: Vec<(std::path::PathBuf, DslError)>,
}

/// Build a campaign plan from a directory of scenario files: every
/// `*.json` in `dir` becomes one variant, named by file stem, in
/// filename order (sorted, so the plan — and therefore the outcome —
/// is independent of directory-listing order).
///
/// Malformed files do **not** abort the sweep: each is recorded in
/// [`DirPlan::skipped`] with its typed [`DslError`] and the remaining
/// valid scenarios proceed. The whole directory is an error only when
/// it cannot be read, holds no `*.json` files at all, or every file is
/// malformed (an all-invalid directory is a configuration mistake, not
/// a partial one — the first file's error is returned).
pub fn plan_from_dir_graceful(dir: &std::path::Path, seeds: Vec<u64>) -> Result<DirPlan, DslError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| DslError::Io {
            path: dir.display().to_string(),
            msg: e.to_string(),
        })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(DslError::Io {
            path: dir.display().to_string(),
            msg: "no *.json scenario files found".to_string(),
        });
    }
    let mut plan = CampaignPlan {
        variants: Vec::with_capacity(paths.len()),
        seeds,
    };
    let mut skipped = Vec::new();
    for path in paths {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        match crate::dsl::load_config(&path) {
            Ok(cfg) => plan.variants.push(CampaignVariant { name, cfg }),
            Err(err) => skipped.push((path, err)),
        }
    }
    if plan.variants.is_empty() {
        let (_, err) = skipped.swap_remove(0);
        return Err(err);
    }
    Ok(DirPlan { plan, skipped })
}

/// [`plan_from_dir_graceful`] without the skip report: just the plan
/// over the valid files.
pub fn plan_from_dir(dir: &std::path::Path, seeds: Vec<u64>) -> Result<CampaignPlan, DslError> {
    Ok(plan_from_dir_graceful(dir, seeds)?.plan)
}

/// Sweep a directory of scenario files: load each `*.json` as a variant
/// (via [`plan_from_dir_graceful`]) and run the cross product with
/// `seeds` on one worker per available core. The scenario files are
/// data — a sweep needs no code. Malformed files are recorded in the
/// summary's [`skipped`](CampaignSummary::skipped) list and the valid
/// scenarios still run.
pub fn run_campaign_dir(
    dir: &std::path::Path,
    seeds: Vec<u64>,
) -> Result<CampaignOutcome, DslError> {
    let DirPlan { plan, skipped } = plan_from_dir_graceful(dir, seeds)?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut outcome = run_campaign(&plan, threads);
    outcome.summary.skipped = skipped
        .into_iter()
        .map(|(path, err)| SkippedScenario {
            path: path.display().to_string(),
            error: err.to_string(),
        })
        .collect();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig::sc2003()
            .with_scale(0.004)
            .with_days(5)
            .with_demo(false)
    }

    #[test]
    fn band_percentiles_are_ordered() {
        let b = PercentileBand::from_samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(b.p5 <= b.p25 && b.p25 <= b.p50 && b.p50 <= b.p75 && b.p75 <= b.p95);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.p50, 3.0);
        assert!((b.mean - 3.0).abs() < 1e-12);
        let empty = PercentileBand::from_samples(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.p50, 0.0);
    }

    #[test]
    fn empty_plans_merge_to_empty_summaries() {
        // No seeds: every variant is present but carries zeroed bands.
        let no_seeds = CampaignPlan::single("base", tiny(), vec![]);
        assert!(no_seeds.is_empty());
        assert_eq!(no_seeds.len(), 0);
        let outcome = run_campaign_serial(&no_seeds);
        assert_eq!(outcome.summary.runs, 0);
        assert_eq!(outcome.summary.variants.len(), 1);
        let v = &outcome.summary.variants[0];
        assert_eq!(v.efficiency.mean, 0.0);
        assert_eq!(v.efficiency.p50, 0.0);
        assert_eq!(v.total_jobs.max, 0.0);
        assert!(outcome.reports[0].is_empty());

        // No variants: nothing to summarise at all.
        let no_variants = CampaignPlan {
            variants: vec![],
            seeds: vec![1, 2],
        };
        assert!(no_variants.is_empty());
        let outcome = run_campaign_serial(&no_variants);
        assert_eq!(outcome.summary.runs, 0);
        assert!(outcome.summary.variants.is_empty());
        assert!(outcome.reports.is_empty());
    }

    #[test]
    fn single_run_bands_degenerate_to_that_run() {
        let plan = CampaignPlan::single("solo", tiny(), vec![7]);
        let outcome = run_campaign_serial(&plan);
        assert_eq!(outcome.summary.runs, 1);
        let v = &outcome.summary.variants[0];
        // Every percentile of a one-sample band reads the same value.
        for band in [&v.efficiency, &v.peak_concurrent, &v.total_jobs] {
            assert_eq!(band.p5, band.p95, "one-sample band is flat");
            assert_eq!(band.p50, band.mean);
            assert_eq!(band.min, band.max);
            assert_eq!(band.min, band.p50);
        }
        assert_eq!(
            v.efficiency.p50,
            outcome.reports[0][0].metrics.overall_efficiency
        );
    }

    #[test]
    fn nan_metrics_flow_through_bands_without_panicking() {
        // A poisoned per-run metric (upstream 0/0) must not panic the
        // merge, and — per the cmp_f64_asc NaN-last contract — must not
        // masquerade as the sample minimum even when negatively signed.
        let neg_nan = f64::NAN.copysign(-1.0);
        let band = PercentileBand::from_samples(&[0.9, neg_nan, 0.1, f64::NAN, 0.5]);
        assert_eq!(band.p5, 0.1, "NaN stays out of the low percentiles");
        assert_eq!(band.p50, 0.9);
        assert!(band.p95.is_nan(), "NaN pools at the top rank");
        assert!(band.mean.is_nan(), "the mean honestly reports poison");
        // All-NaN samples: nothing to rank, nothing to panic over.
        let poisoned = PercentileBand::from_samples(&[f64::NAN, neg_nan]);
        assert!(poisoned.p50.is_nan());
        assert!(poisoned.mean.is_nan());
    }

    #[test]
    fn plan_enumerates_variants_times_seeds() {
        let plan = CampaignPlan::single("base", tiny(), vec![1, 2, 3])
            .with_variant("srm", tiny().with_srm(true));
        assert_eq!(plan.len(), 6);
        let runs = plan.runs();
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[3].0, 1);
        assert_eq!(runs[4].1, 2);
    }

    #[test]
    fn profiled_campaigns_merge_cost_bands() {
        let plan = CampaignPlan::single("profiled", tiny().with_profile(true), vec![1, 2]);
        let outcome = run_campaign_serial(&plan);
        let merged = outcome.profiles[0].as_ref().expect("merged profile");
        assert!(merged.stats().iter().any(|s| s.events > 0));
        let bands = &outcome.summary.variants[0].cost_bands;
        assert!(!bands.is_empty(), "profiled variant has cost bands");
        // Ranked most expensive first by mean ns/event.
        for pair in bands.windows(2) {
            assert!(pair[0].ns_per_event.mean >= pair[1].ns_per_event.mean);
        }
        for band in bands {
            assert!(band.events > 0);
            assert!(band.ns_per_event.min <= band.ns_per_event.max);
        }
        // An unprofiled plan carries no profile and no bands.
        let plain = run_campaign_serial(&CampaignPlan::single("plain", tiny(), vec![1]));
        assert!(plain.profiles[0].is_none());
        assert!(plain.summary.variants[0].cost_bands.is_empty());
    }

    #[test]
    fn variant_bands_reflect_their_configs() {
        let plan = CampaignPlan::single("base", tiny(), vec![1, 2])
            .with_variant("srm", tiny().with_srm(true));
        let outcome = run_campaign(&plan, 2);
        assert_eq!(outcome.summary.variants.len(), 2);
        assert_eq!(outcome.summary.runs, 4);
        for v in &outcome.summary.variants {
            assert!(v.efficiency.mean > 0.0 && v.efficiency.mean <= 1.0);
            assert!(v.total_jobs.min > 0.0);
        }
    }

    #[test]
    fn parallel_and_serial_summaries_are_byte_identical() {
        // The worker pool is a pure reordering of the serial loop: the
        // serialized summary is the same byte stream.
        let plan = CampaignPlan::single("base", tiny(), vec![1, 2])
            .with_variant("srm", tiny().with_srm(true));
        let parallel = run_campaign(&plan, 3);
        let serial = run_campaign_serial(&plan);
        let parallel_json = serde_json::to_string(&parallel.summary).expect("serializes");
        let serial_json = serde_json::to_string(&serial.summary).expect("serializes");
        assert_eq!(parallel_json.as_bytes(), serial_json.as_bytes());
    }
}
