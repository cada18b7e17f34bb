//! Layers timed in isolation after a traced workload: broker selection
//! and directory refresh on the workload's topology, and the snapshot
//! codec on the interrupted run's checkpoint.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use grid3_core::broker::{Broker, SelectScratch, SiteTable};
use grid3_core::{EngineSnapshot, Grid3Engine, Grid3Report};
use grid3_middleware::mds::{GlueRecord, MdsDirectory};
use grid3_simkit::ids::UserId;
use grid3_simkit::profiler::CostProfiler;
use grid3_simkit::rng::SimRng;
use grid3_simkit::time::SimDuration;
use grid3_simkit::units::Bytes;
use grid3_site::job::JobSpec;
use grid3_site::vo::UserClass;

use crate::manifest::fnv1a64;
use crate::metrics::Metrics;
use crate::trace::Tracer;

/// Selections timed per topology.
const SELECTIONS: u64 = 100_000;
/// Directory re-scores timed per topology.
const REFRESHES: u64 = 2_000;

/// One job spec per user class, sized like the Table 1 workloads.
fn specs() -> Vec<JobSpec> {
    UserClass::ALL
        .iter()
        .enumerate()
        .map(|(i, &class)| JobSpec {
            class,
            user: UserId(i as u32 + 1),
            reference_runtime: SimDuration::from_hours(2 + i as u64),
            requested_walltime: SimDuration::from_hours(8 + 2 * i as u64),
            input_bytes: Bytes::from_gb(1 + i as u64),
            output_bytes: Bytes::from_gb(1),
            scratch_bytes: Bytes::from_gb(2),
            needs_outbound: i % 3 == 0,
            staged_files: 1 + i as u32,
            registers_output: true,
        })
        .collect()
}

/// `broker.select_ns` and `broker.refresh_us` over a directory holding
/// one fresh record per site of `engine`'s topology.
pub fn broker(engine: &Grid3Engine, seed: u64, tracer: &mut Tracer, m: &mut Metrics) {
    let span = tracer.begin("probe.broker");
    let now = engine.now();
    let mut mds = MdsDirectory::with_default_ttl();
    for site in engine.sites() {
        mds.publish(GlueRecord::from_site(site, "VDT-1.1.8", now));
    }
    let mut table = SiteTable::new();
    let t = Instant::now();
    for _ in 0..REFRESHES {
        // Re-setting the TTL bumps the directory epoch, so every
        // refresh re-scores the whole table.
        mds.set_ttl(MdsDirectory::DEFAULT_TTL);
        table.refresh(black_box(&mds));
    }
    m.set(
        "broker.refresh_us",
        t.elapsed().as_secs_f64() * 1e6 / REFRESHES as f64,
    );

    let broker = Broker::default();
    let specs = specs();
    let mut scratch = SelectScratch::default();
    let mut rng = SimRng::for_entity(seed, 0xB0);
    let mut placed = 0u64;
    let t = Instant::now();
    for i in 0..SELECTIONS {
        let spec = &specs[i as usize % specs.len()];
        let pick = broker.select_table(
            spec,
            0.5,
            &table,
            now,
            |_| true,
            |_| false,
            &mut scratch,
            &mut rng,
        );
        placed += u64::from(black_box(pick).is_some());
    }
    let select_ns = t.elapsed().as_secs_f64() * 1e9 / SELECTIONS as f64;
    assert!(
        placed > 0,
        "the broker placed no job on the workload topology"
    );
    m.set("broker.select_ns", select_ns);
    tracer.end(span);
}

/// Encode, write, read, decode and restore the checkpoint `snap`, then
/// run the restored engine to its horizon. Returns whether its report
/// hashes to `want`, the uninterrupted run's report hash.
pub fn snapshot(
    snap: &EngineSnapshot,
    want: u64,
    dir: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> bool {
    let span = tracer.begin("probe.snapshot");
    let path = dir.join("probe.snap");
    let tmp = dir.join("probe.tmp");
    let (bytes, encode_s) = tracer.time("snapshot.encode", || snap.to_bytes());
    let (written, write_s) = tracer.time("snapshot.write", || {
        std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path))
    });
    let (read, read_s) = tracer.time("snapshot.read", || std::fs::read(&path));
    let read = match (written, read) {
        (Ok(()), Ok(r)) => r,
        (w, r) => {
            eprintln!("perfbench: snapshot probe i/o failed: {w:?} {:?}", r.err());
            tracer.end(span);
            return false;
        }
    };
    let (decoded, decode_s) = tracer.time("snapshot.decode", || EngineSnapshot::from_bytes(&read));
    let Ok(decoded) = decoded else {
        tracer.end(span);
        return false;
    };
    let (mut restored, restore_s) =
        tracer.time("snapshot.restore", || Grid3Engine::restore(decoded));
    restored.run();
    let report = Grid3Report::extract(&restored).to_json();
    let round_trip = fnv1a64(report.as_bytes()) == want;
    let mb = bytes.len() as f64 / 1e6;
    m.set("snapshot.encode_ms", encode_s * 1e3);
    m.set("snapshot.write_ms", write_s * 1e3);
    m.set("snapshot.read_ms", read_s * 1e3);
    m.set("snapshot.decode_ms", decode_s * 1e3);
    m.set("snapshot.restore_ms", restore_s * 1e3);
    m.set("snapshot.bytes", bytes.len() as f64);
    m.set("snapshot.encode_mb_per_s", mb / encode_s);
    m.set("snapshot.decode_mb_per_s", mb / decode_s);
    tracer.end(span);
    round_trip
}

/// The traced run's spans and cost profile as one JSON document.
pub fn trace_document(tracer: &Tracer, profile: Option<&CostProfiler>) -> String {
    let profile = profile.map_or("null".to_string(), CostProfiler::to_json);
    format!("{{\"trace\":{},\"profile\":{profile}}}", tracer.to_json())
}
