//! Snapshot/restore cost measurements (custom harness).
//!
//! Crash safety is only worth its keep if checkpoints are cheap next to
//! the simulation they protect. This harness prices every leg of the
//! snapshot lifecycle on a mid-flight sc2003 engine and writes the
//! machine-readable `BENCH_snapshot.json` at the repo root:
//!
//! * capture: `engine.snapshot()` (deep copy of the live state),
//! * encode/decode: `to_bytes` / `from_bytes` plus the snapshot size,
//! * restore: snapshot → runnable engine,
//! * warm-start speedup: resuming the second half of a run from a
//!   checkpoint versus re-running it cold from time zero, with a
//!   byte-identity check that the two finish in the same state.

use grid3_core::scenario::ScenarioConfig;
use grid3_core::{EngineSnapshot, Grid3Engine, Grid3Report};
use grid3_simkit::time::SimTime;
use std::time::Instant;

const SCALE: f64 = 0.02;
const SEED: u64 = 2003;
const CUT_DAYS: u64 = 15;

fn cfg() -> ScenarioConfig {
    ScenarioConfig::sc2003().with_scale(SCALE).with_seed(SEED)
}

/// The measuring host: logical CPUs and CPU model (Linux
/// `/proc/cpuinfo`; "unknown model" elsewhere).
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown model".to_string());
    format!("{cpus} x {model}")
}

/// Best-of-`reps` wall-clock seconds for `run`, returning its last value.
fn timed<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(run());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, last.expect("reps >= 1"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = args.iter().any(|a| "snapshot".contains(a.as_str()));
    if !args.is_empty() && !args.iter().all(|a| a.starts_with("--")) && !named {
        return;
    }
    let reps = 5;

    eprintln!("[snapshot] running sc2003 to day {CUT_DAYS}…");
    let mut engine = Grid3Engine::new(cfg());
    engine.run_until(SimTime::from_days(CUT_DAYS));

    let (capture_secs, snap) = timed(reps, || engine.snapshot());
    let pending = snap.pending_events();
    let processed = snap.events_processed();
    let (encode_secs, bytes) = timed(reps, || snap.to_bytes());
    let snapshot_bytes = bytes.len();
    let (decode_secs, decoded) = timed(reps, || {
        EngineSnapshot::from_bytes(&bytes).expect("decodes")
    });
    let (restore_secs, _) = timed(reps, || Grid3Engine::restore(decoded.clone()));

    // Warm-start speedup: finish the run from the checkpoint versus
    // replaying the whole horizon cold.
    eprintln!("[snapshot] warm vs cold finish…");
    let (warm_secs, warm_report) = timed(reps, || {
        let mut resumed = Grid3Engine::restore(snap.clone());
        resumed.run();
        Grid3Report::extract(&resumed).to_json()
    });
    let (cold_secs, cold_report) = timed(reps, || {
        let mut fresh = Grid3Engine::new(cfg());
        fresh.run();
        Grid3Report::extract(&fresh).to_json()
    });
    let identical = warm_report == cold_report;
    let speedup = cold_secs / warm_secs;

    println!("snapshot lifecycle (sc2003 scale={SCALE} seed={SEED}, cut at day {CUT_DAYS}, best of {reps}):");
    println!("  state at cut:    {processed} events processed, {pending} pending");
    println!("  capture:         {:>9.3} ms", capture_secs * 1e3);
    println!(
        "  encode:          {:>9.3} ms  ({:.1} KiB)",
        encode_secs * 1e3,
        snapshot_bytes as f64 / 1024.0
    );
    println!("  decode:          {:>9.3} ms", decode_secs * 1e3);
    println!("  restore:         {:>9.3} ms", restore_secs * 1e3);
    println!("  warm finish:     {:>9.3} ms", warm_secs * 1e3);
    println!(
        "  cold full run:   {:>9.3} ms  ({speedup:.2}x warm-start speedup)",
        cold_secs * 1e3
    );
    println!("  warm == cold report bytes: {identical}");

    let json = format!(
        concat!(
            "{{\n",
            "  \"host\": \"{}\",\n",
            "  \"scenario\": \"sc2003 scale={} seed={} cut=day{}\",\n",
            "  \"events_processed_at_cut\": {},\n",
            "  \"pending_events_at_cut\": {},\n",
            "  \"snapshot_bytes\": {},\n",
            "  \"capture_secs\": {:.6},\n",
            "  \"encode_secs\": {:.6},\n",
            "  \"decode_secs\": {:.6},\n",
            "  \"restore_secs\": {:.6},\n",
            "  \"warm_finish_secs\": {:.4},\n",
            "  \"cold_full_run_secs\": {:.4},\n",
            "  \"warm_start_speedup\": {:.3},\n",
            "  \"reports_identical\": {}\n",
            "}}\n"
        ),
        host(),
        SCALE,
        SEED,
        CUT_DAYS,
        processed,
        pending,
        snapshot_bytes,
        capture_secs,
        encode_secs,
        decode_secs,
        restore_secs,
        warm_secs,
        cold_secs,
        speedup,
        identical
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
    std::fs::write(path, json).expect("write BENCH_snapshot.json");
    eprintln!("[snapshot] wrote BENCH_snapshot.json");
}
