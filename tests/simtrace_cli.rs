//! Integration tests for the `simtrace` binary, driving the real
//! executable via `CARGO_BIN_EXE_simtrace`.

use dvf_cachesim::{simulate_with_policy, AccessKind, MemRef, PolicyKind, SimJob, Trace};
use std::process::Command;

/// A small mixed trace over two structures.
fn sample_trace() -> Trace {
    let mut t = Trace::new();
    let a = t.registry.register("A");
    let b = t.registry.register("B");
    for i in 0..2000u64 {
        t.push(MemRef::new(a, i * 8, AccessKind::Read));
        if i % 3 == 0 {
            t.push(MemRef::new(b, (i % 128) * 8, AccessKind::Write));
        }
    }
    t
}

fn simtrace(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simtrace"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, bytes: &[u8]) -> TempFile {
    let path = std::env::temp_dir().join(format!("simtrace-test-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).expect("write trace");
    TempFile(path)
}

struct TempFile(std::path::PathBuf);

impl TempFile {
    fn as_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn text_and_binary_replay_agree() {
    let trace = sample_trace();
    let text = write_temp("t.trace", trace.to_text().as_bytes());
    let mut bin_bytes = Vec::new();
    dvf_cachesim::binio::write_binary(&trace, &mut bin_bytes).unwrap();
    let bin = write_temp("t.dvft", &bin_bytes);

    let args = [
        "--assoc", "4", "--sets", "64", "--line", "32", "--json", "--quiet",
    ];
    let from_text = simtrace(&[&[text.as_str()], &args[..]].concat());
    let from_bin = simtrace(&[&[bin.as_str()], &args[..]].concat());
    assert!(from_text.status.success(), "{from_text:?}");
    assert!(from_bin.status.success(), "{from_bin:?}");
    // The binary path streams chunk-by-chunk from disk; results must be
    // byte-identical to the in-memory text replay.
    assert_eq!(from_text.stdout, from_bin.stdout);

    let doc = String::from_utf8(from_bin.stdout).unwrap();
    let expected = simulate_with_policy(
        &trace,
        dvf_cachesim::CacheConfig::new(4, 64, 32).unwrap(),
        PolicyKind::Lru,
    );
    assert!(doc.contains("\"schema\":\"dvf-cachesim/1\""), "{doc}");
    assert!(doc.contains(&format!("\"refs\":{}", trace.len())), "{doc}");
    assert!(
        doc.contains(&format!(
            "\"mem_accesses\":{}",
            expected.total().mem_accesses()
        )),
        "{doc}"
    );
}

#[test]
fn multi_config_jobs_reports_every_geometry() {
    let trace = sample_trace();
    let text = write_temp("m.trace", trace.to_text().as_bytes());

    let out = simtrace(&[
        text.as_str(),
        "--assoc",
        "4",
        "--sets",
        "64",
        "--line",
        "32",
        "--config",
        "2:16:32",
        "--config",
        "8:128:64",
        "--jobs",
        "2",
        "--json",
        "--quiet",
    ]);
    assert!(out.status.success(), "{out:?}");
    let doc = String::from_utf8(out.stdout).unwrap();
    assert!(doc.contains("\"schema\":\"dvf-cachesim/1\""), "{doc}");
    // `--jobs` is clamped to available parallelism; the report shows the
    // effective worker count.
    let expected_jobs = 2usize.min(dvf_obs::par::available());
    assert!(doc.contains(&format!("\"jobs\":{expected_jobs}")), "{doc}");
    assert!(doc.contains("\"runs\":["), "{doc}");

    // One run per geometry: the default plus both --config specs, in order.
    for cap in [64 * 4 * 32, 16 * 2 * 32, 128 * 8 * 64] {
        assert!(doc.contains(&format!("\"capacity_bytes\":{cap}")), "{doc}");
    }

    // Totals must match the library fan-out exactly.
    let jobs: Vec<SimJob> = [(4, 64, 32), (2, 16, 32), (8, 128, 64)]
        .iter()
        .map(|&(a, s, l)| SimJob::lru(dvf_cachesim::CacheConfig::new(a, s, l).unwrap()))
        .collect();
    for report in dvf_obs::par::map(&jobs, 2, |j| {
        simulate_with_policy(&trace, j.config, j.policy)
    }) {
        assert!(
            doc.contains(&format!(
                "\"mem_accesses\":{}",
                report.total().mem_accesses()
            )),
            "missing mem_accesses for {}: {doc}",
            report.config
        );
    }
}

#[test]
fn bad_config_spec_is_a_usage_error() {
    let trace = sample_trace();
    let text = write_temp("b.trace", trace.to_text().as_bytes());
    for spec in ["4:64", "nope", "3:63:32", "2:1:1"] {
        let out = simtrace(&[text.as_str(), "--config", spec]);
        assert_eq!(out.status.code(), Some(2), "spec `{spec}` should fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("bad --config"), "{stderr}");
    }
}

/// Where the checked-in golden files for `--convert` live.
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Regenerate the golden fixtures. Normally inert; run
/// `REGEN_GOLDEN=1 cargo test -p dvf --test simtrace_cli regen` after an
/// intentional format change, then commit the updated files.
#[test]
fn regen_golden_files() {
    if std::env::var_os("REGEN_GOLDEN").is_none() {
        return;
    }
    let trace = sample_trace();
    std::fs::create_dir_all(GOLDEN_DIR).unwrap();
    let mut v1 = Vec::new();
    dvf_cachesim::binio::write_binary(&trace, &mut v1).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/convert_input_v1.dvft"), v1).unwrap();
    let mut v2 = Vec::new();
    dvf_cachesim::binio::write_binary_v2(&trace, &mut v2).unwrap();
    std::fs::write(format!("{GOLDEN_DIR}/convert_output_v2.dvft"), v2).unwrap();
}

#[test]
fn convert_v1_to_v2_matches_golden() {
    let input = format!("{GOLDEN_DIR}/convert_input_v1.dvft");
    let golden = std::fs::read(format!("{GOLDEN_DIR}/convert_output_v2.dvft")).unwrap();
    let out = std::env::temp_dir().join(format!("simtrace-conv-{}.dvft", std::process::id()));
    let out_path = TempFile(out);

    let run = simtrace(&[&input, "--convert", out_path.as_str()]);
    assert!(run.status.success(), "{run:?}");
    let converted = std::fs::read(&out_path.0).unwrap();
    // The conversion is deterministic: byte-exact against the checked-in
    // golden DVFT2 file.
    assert_eq!(converted, golden, "conversion drifted from the golden file");

    // And the v1 input still decodes to the same trace the goldens encode
    // (backward compatibility of the reader).
    let v1 = dvf_cachesim::binio::read_binary(&std::fs::read(&input).unwrap()[..]).unwrap();
    let v2 = dvf_cachesim::binio::read_binary(&converted[..]).unwrap();
    assert_eq!(v1.refs, v2.refs);
    assert_eq!(v1.refs, sample_trace().refs);
}

#[test]
fn record_fused_matches_buffered_replay() {
    // The fused `--record` path must agree with recording a trace in
    // memory and replaying it through the same geometry.
    let out = simtrace(&[
        "--record", "vm", "--assoc", "4", "--sets", "64", "--line", "32", "--json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let doc = String::from_utf8(out.stdout).unwrap();

    let rec = dvf_kernels::Recorder::new();
    dvf_kernels::vm::run_traced(dvf_kernels::vm::VmParams::verification(), &rec);
    let trace = rec.into_trace();
    let expected = simulate_with_policy(
        &trace,
        dvf_cachesim::CacheConfig::new(4, 64, 32).unwrap(),
        PolicyKind::Lru,
    );
    assert!(doc.contains("\"kernel\":\"vm\""), "{doc}");
    assert!(doc.contains(&format!("\"refs\":{}", trace.len())), "{doc}");
    assert!(
        doc.contains(&format!(
            "\"mem_accesses\":{}",
            expected.total().mem_accesses()
        )),
        "{doc}"
    );
}

#[test]
fn record_fused_hierarchy_matches_buffered_replay() {
    // The fused `--record` hierarchy path must charge every structure the
    // main-memory accesses of recording a trace in memory and replaying
    // it through the same hierarchy. Barnes-Hut's verification input
    // records about 227 k references, several fan-out chunks, so the
    // replay thread runs with a chunk queued behind the one it replays.
    use dvf_cachesim::{simulate_hierarchy_config, CacheConfig, HierarchyConfig, LevelSpec};

    let out = simtrace(&[
        "--record",
        "nb",
        "--levels",
        "4:16:32",
        "--levels",
        "8:128:64:fifo",
        "--prefetch",
        "1:2",
        "--json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let doc = dvf_obs::Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("JSON report");

    let rec = dvf_kernels::Recorder::new();
    dvf_kernels::barnes_hut::run_traced(dvf_kernels::barnes_hut::NbParams::verification(), &rec);
    let trace = rec.into_trace();
    let config = HierarchyConfig::new(vec![
        LevelSpec::new(CacheConfig::new(4, 16, 32).unwrap()),
        LevelSpec::new(CacheConfig::new(8, 128, 64).unwrap())
            .with_policy(PolicyKind::Fifo)
            .with_prefetch(2),
    ])
    .unwrap();
    let expected = simulate_hierarchy_config(&trace, &config);

    assert_eq!(doc.get("kernel").and_then(|k| k.as_str()), Some("nb"));
    assert_eq!(
        doc.get("refs").and_then(|r| r.as_u64()),
        Some(trace.len() as u64)
    );
    assert!(trace.len() > 3 * 65_536, "{} refs", trace.len());
    let data = doc
        .get("dram")
        .and_then(|d| d.get("data"))
        .and_then(|d| d.as_arr())
        .expect("per-structure DRAM rows");
    let fused: Vec<(String, u64)> = data
        .iter()
        .map(|row| {
            let name = row.get("name").and_then(|n| n.as_str()).unwrap();
            let mem = row.get("mem_accesses").and_then(|m| m.as_u64()).unwrap();
            (name.to_owned(), mem)
        })
        .collect();
    let buffered: Vec<(String, u64)> = expected
        .dram
        .iter()
        .map(|(id, _)| {
            (
                trace.registry.name(id).to_owned(),
                expected.mem_accesses(id),
            )
        })
        .collect();
    assert!(buffered.iter().any(|&(_, mem)| mem > 0), "{buffered:?}");
    assert_eq!(fused, buffered);
    assert_eq!(
        doc.get("mem_accesses").and_then(|m| m.as_u64()),
        Some(expected.total_mem_accesses())
    );
}

#[test]
fn truncated_binary_trace_fails_cleanly() {
    let trace = sample_trace();
    let mut bin_bytes = Vec::new();
    dvf_cachesim::binio::write_binary(&trace, &mut bin_bytes).unwrap();
    bin_bytes.truncate(bin_bytes.len() - 5);
    let bin = write_temp("trunc.dvft", &bin_bytes);
    let out = simtrace(&[bin.as_str(), "--quiet"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("truncated"), "{stderr}");
}
