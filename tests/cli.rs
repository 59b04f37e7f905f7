//! Integration tests for the `dvf` command-line front-end, driving the
//! real binary via `CARGO_BIN_EXE_dvf`.

use std::io::Write as _;
use std::process::Command;

const MODEL: &str = r#"
machine small {
  cache { associativity = 4  sets = 64  line = 32 }
  memory { ecc = secded }
}
model vm {
  param n = 1000
  data A { size = n * 8  element = 8 }
  data B { size = n * 8  element = 8 }
  kernel main {
    flops = 2 * n
    access A as streaming(stride = 4)
    access B as streaming()
  }
}
"#;

fn write_model(contents: &str) -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    f.write_all(contents.as_bytes()).expect("write model");
    f.into_temp_path()
}

fn dvf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn check_accepts_valid_model() {
    let path = write_model(MODEL);
    let out = dvf(&["check", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 machine(s), 1 model(s)"), "{stdout}");
}

#[test]
fn check_reports_parse_errors_with_location() {
    let path = write_model("model vm { data A }");
    let out = dvf(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("line 1"), "{stderr}");
}

#[test]
fn fmt_roundtrips() {
    let path = write_model(MODEL);
    let out = dvf(&["fmt", path.to_str().unwrap()]);
    assert!(out.status.success());
    let pretty = String::from_utf8(out.stdout).unwrap();
    // The pretty output is itself valid input.
    let path2 = write_model(&pretty);
    let out2 = dvf(&["check", path2.to_str().unwrap()]);
    assert!(out2.status.success());
}

#[test]
fn eval_prints_report_and_honors_params() {
    let path = write_model(MODEL);
    let out = dvf(&["eval", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FIT 1300"), "{stdout}"); // SECDED
    assert!(stdout.contains("A"), "{stdout}");

    let big = dvf(&["eval", path.to_str().unwrap(), "--param", "n=100000"]);
    assert!(big.status.success());
    let big_out = String::from_utf8(big.stdout).unwrap();
    assert_ne!(stdout, big_out, "override must change the report");
}

#[test]
fn eval_profile_prints_phase_report() {
    let path = write_model(MODEL);
    let out = dvf(&["eval", path.to_str().unwrap(), "--profile"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("DVF"),
        "normal report still prints: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("== dvf-obs profile =="), "{stderr}");
    // Every pipeline phase shows up, and the per-structure + counter
    // detail is there too.
    for phase in [
        "eval",
        "parse",
        "resolve",
        "patterns",
        "time-model",
        "report",
    ] {
        assert!(stderr.contains(phase), "missing phase `{phase}`: {stderr}");
    }
    assert!(stderr.contains("pattern.streaming"), "{stderr}");
}

#[test]
fn eval_profile_json_is_valid_and_versioned() {
    let path = write_model(MODEL);
    let out = dvf(&["eval", path.to_str().unwrap(), "--profile=json"]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let doc = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON line on stderr");
    assert!(doc.starts_with("{\"schema\":\"dvf-obs/1\""), "{doc}");
    assert!(doc.ends_with('}'), "{doc}");
    assert!(doc.contains("\"path\":\"eval/parse\""), "{doc}");
    assert!(
        doc.contains("\"name\":\"pattern.streaming\",\"value\":2"),
        "{doc}"
    );
}

#[test]
fn profile_env_var_enables_profiling() {
    let path = write_model(MODEL);
    let out = Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args(["eval", path.to_str().unwrap()])
        .env("DVF_PROFILE", "1")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("== dvf-obs profile =="), "{stderr}");
}

/// A random pattern over 10⁹ elements: `X_E` is the exact hypergeometric
/// mean (99 895 142.4), not the log-gamma sum (99 895 370.6, DVF
/// 7.193305e4) that loses digits to cancellation at this size.
#[test]
fn eval_large_random_structure_prints_exact_dvf() {
    let path = write_model(
        r#"
machine big {
  cache { associativity = 16  sets = 8192  line = 64 }
  memory { fit = 5000 }
  core { flops = 1e9  bandwidth = 4e9 }
}
model big {
  data X { size = 1e9 * 8  element = 8 }
  kernel main {
    flops = 1e9
    access X as random(k = 1e8, iters = 1)
  }
}
"#,
    );
    let out = dvf(&["eval", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let app = stdout
        .lines()
        .find(|l| l.starts_with("big "))
        .unwrap_or_else(|| panic!("no application row: {stdout}"));
    assert!(app.ends_with("7.193291e4"), "{stdout}");
}

#[test]
fn timed_mode_runs() {
    let path = write_model(MODEL);
    let out = dvf(&["timed", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("time-resolved"), "{stdout}");
}

/// Train the smoke-grid learned model into a temp file.
fn smoke_model() -> tempfile::TempPath {
    let path = write_model("");
    let out = dvf(&[
        "learn",
        "train",
        "--smoke",
        "--seed",
        "1",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn timed_mode_accepts_predict() {
    let path = write_model(MODEL);
    let model = smoke_model();
    let out = dvf(&[
        "timed",
        path.to_str().unwrap(),
        "--predict",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("time-resolved"), "{stdout}");
}

/// The application-level DVF column of `dvf eval` output (the row
/// named after the model, `vm`).
fn eval_dvf_app(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("vm "))
        .and_then(|l| l.split_whitespace().last())
        .unwrap_or_else(|| panic!("no application row: {stdout}"))
        .to_owned()
}

#[test]
fn predict_sweep_rows_match_per_point_eval() {
    let path = write_model(MODEL);
    let model = smoke_model();
    let (path, model) = (path.to_str().unwrap(), model.to_str().unwrap());

    let sweep = dvf(&[
        "sweep",
        path,
        "--sweep",
        "n=500,1000,4000",
        "--predict",
        model,
    ]);
    assert!(sweep.status.success());
    let stdout = String::from_utf8(sweep.stdout).unwrap();
    let rows: Vec<(String, String)> = stdout
        .lines()
        .filter_map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            match cols.as_slice() {
                [n, _time, dvf_app] if n.parse::<f64>().is_ok() => {
                    Some((n.to_string(), dvf_app.to_string()))
                }
                _ => None,
            }
        })
        .collect();
    assert_eq!(rows.len(), 3, "{stdout}");

    for (n, dvf_app) in &rows {
        let param = format!("n={n}");
        let eval = dvf(&["eval", path, "--param", &param, "--predict", model]);
        assert!(eval.status.success());
        let eval_out = String::from_utf8(eval.stdout).unwrap();
        assert_eq!(&eval_dvf_app(&eval_out), dvf_app, "n = {n}");
    }

    // The learned path really replaces the closed forms.
    let closed = String::from_utf8(dvf(&["eval", path]).stdout).unwrap();
    let learned = String::from_utf8(dvf(&["eval", path, "--predict", model]).stdout).unwrap();
    assert_ne!(eval_dvf_app(&closed), eval_dvf_app(&learned));
}

#[test]
fn protect_requires_budget() {
    let path = write_model(MODEL);
    let out = dvf(&["protect", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    let ok = dvf(&[
        "protect",
        path.to_str().unwrap(),
        "--budget",
        "100000",
        "--residual",
        "0.01",
    ]);
    assert!(ok.status.success());
    let stdout = String::from_utf8(ok.stdout).unwrap();
    assert!(stdout.contains("protection plan"), "{stdout}");
    assert!(stdout.contains("% reduction"), "{stdout}");
}

#[test]
fn check_json_emits_machine_readable_document() {
    let path = write_model(MODEL);
    let out = dvf(&["check", path.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"ok\":true"), "{stdout}");
    assert!(stdout.contains("\"machines\":1"), "{stdout}");
    assert!(stdout.contains("\"params\":[\"n\"]"), "{stdout}");
    assert!(stdout.contains("\"diagnostics\":[]"), "{stdout}");
}

#[test]
fn check_json_reports_structured_diagnostics() {
    let path = write_model("model vm { data A }");
    let out = dvf(&["check", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"ok\":false"), "{stdout}");
    assert!(stdout.contains("\"code\":\"parse\""), "{stdout}");
    assert!(stdout.contains("\"line\":1"), "{stdout}");
    assert!(stdout.contains("\"span\":{"), "{stdout}");
}

/// `check` resolves as well as parses: a model that parses but cannot
/// resolve (here a `param` shadowing a built-in) fails with a spanned
/// diagnostic, just as `dvf eval` on it does.
#[test]
fn check_reports_resolve_errors_with_location() {
    let source = format!("param KB = 5\n{MODEL}");
    let path = write_model(&source);
    let out = dvf(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    // Every machine and model fails on the global; it is reported once.
    assert_eq!(stderr.matches("error:").count(), 1, "{stderr}");
    assert!(
        stderr.contains("would shadow the built-in constant `KB`"),
        "{stderr}"
    );
    assert!(stderr.contains("line 1, column 7"), "{stderr}");
    let eval = dvf(&["eval", path.to_str().unwrap()]);
    assert_eq!(eval.status.code(), Some(1));

    let out = dvf(&["check", path.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"ok\":false"), "{stdout}");
    assert!(stdout.contains("\"code\":\"resolve\""), "{stdout}");
    assert!(stdout.contains("\"line\":1"), "{stdout}");

    // A model-level fault is attributed to the model's own line.
    let path = write_model(&MODEL.replace(
        "size = n * 8  element = 8 }\n  data B",
        "size = m * 8  element = 8 }\n  data B",
    ));
    let out = dvf(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("undefined parameter `m`"), "{stderr}");
    assert!(stderr.contains("line 8, column 19"), "{stderr}");
}

/// Every repro model passes `check`, alone and behind the machines file.
#[test]
fn check_accepts_every_repro_model() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let machines = read("crates/repro/models/machines.aspen");
    for model in ["cg", "ft", "mc", "mg", "nb", "vm"] {
        let source = read(&format!("crates/repro/models/{model}.aspen"));
        for text in [source.clone(), format!("{machines}{source}")] {
            let path = write_model(&text);
            let out = dvf(&["check", path.to_str().unwrap()]);
            assert!(
                out.status.success(),
                "{model}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn sweep_runs_a_grid() {
    let path = write_model(MODEL);
    let out = dvf(&["sweep", path.to_str().unwrap(), "--sweep", "n=100:1000:4"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("sweep `n` over 4 point(s)"), "{stdout}");
}

#[test]
fn sweep_cross_product_grid_from_repeated_flags() {
    // Two dimensions whose model both declares: a machine-param model.
    let path = write_model(
        r#"
machine m {
  param fit = 5000
  cache { associativity = 4  sets = 64  line = 32 }
  memory { fit = fit }
  core { flops = 1e9  bandwidth = 4e9 }
}
model app {
  param n = 200
  data A { size = n * 8  element = 8 }
  kernel k { access A as streaming() }
}
"#,
    );
    let out = dvf(&[
        "sweep",
        path.to_str().unwrap(),
        "--sweep",
        "fit=1000,2000",
        "--sweep",
        "n=100:300:3",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // 2 x 3 cross product, last dimension fastest, comma-joined labels.
    assert!(stdout.contains("sweep `fit,n` over 6 point(s)"), "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("1000,") || l.starts_with("2000,"))
        .collect();
    assert_eq!(rows.len(), 6, "{stdout}");
    assert!(rows[0].starts_with("1000,100"), "{stdout}");
    assert!(rows[1].starts_with("1000,200"), "{stdout}");
    assert!(rows[3].starts_with("2000,100"), "{stdout}");
}

#[test]
fn sweep_progress_emits_structured_lines_on_stderr() {
    let path = write_model(MODEL);
    let out = dvf(&[
        "sweep",
        path.to_str().unwrap(),
        "--sweep",
        "n=100:1000:10",
        "--progress",
        "--chunk-points",
        "2",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("\"event\":\"sweep_progress\""))
        .collect();
    assert!(!lines.is_empty(), "no progress lines in: {stderr}");
    // The final line reports the whole grid done, with throughput and
    // memo-cache telemetry.
    let last = lines.last().unwrap();
    assert!(last.contains("\"points_done\":10"), "{last}");
    assert!(last.contains("\"points_total\":10"), "{last}");
    assert!(last.contains("\"chunks_done\":5"), "{last}");
    assert!(last.contains("\"chunks_total\":5"), "{last}");
    assert!(last.contains("\"points_per_s\":"), "{last}");
    assert!(last.contains("\"memo_hit_rate\":"), "{last}");
    // Progress is telemetry, not output: stdout stays byte-identical to
    // a run without the flag.
    let plain = dvf(&["sweep", path.to_str().unwrap(), "--sweep", "n=100:1000:10"]);
    assert_eq!(out.stdout, plain.stdout);
    assert!(!String::from_utf8(plain.stderr)
        .unwrap()
        .contains("sweep_progress"));
}

#[test]
fn sweep_of_unknown_param_is_a_diagnostic_not_a_flat_line() {
    let path = write_model(MODEL);
    let out = dvf(&["sweep", path.to_str().unwrap(), "--sweep", "nn=100:1000:4"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown parameter `nn`"), "{stderr}");
    assert!(stderr.contains("declared parameters: n"), "{stderr}");
    // No grid output was produced.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("sweep `nn`"), "{stdout}");
}

#[test]
fn sweep_validates_override_params_too() {
    let path = write_model(MODEL);
    let out = dvf(&[
        "sweep",
        path.to_str().unwrap(),
        "--sweep",
        "n=100:1000:4",
        "--param",
        "bogus=1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown parameter `bogus`"), "{stderr}");
}

/// `flops = 1e307 * n` overflows to infinity at `n = 200`, so that row's
/// time and DVF are `inf`. The row must cross the shard wire and print
/// exactly as the local sweep prints it.
#[cfg(unix)]
#[test]
fn sharded_sweep_prints_non_finite_rows_like_local() {
    use std::io::{BufRead, BufReader};

    let path = write_model(&MODEL.replace("flops = 2 * n", "flops = 1e307 * n"));
    let grid = ["sweep", path.to_str().unwrap(), "--sweep", "n=1:200:2"];
    let local = dvf(&grid);
    assert!(local.status.success());
    let local_stdout = String::from_utf8(local.stdout).unwrap();
    assert!(
        local_stdout.lines().last().unwrap().ends_with(" inf"),
        "{local_stdout}"
    );

    let mut shard = Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("shard starts");
    let mut line = String::new();
    BufReader::new(shard.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("announce line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split("/v1/").next())
        .unwrap_or_else(|| panic!("no address in announce line: {line:?}"))
        .to_owned();
    let sharded = dvf(&[&grid[..], &["--shards", &addr, "--chunk-points", "1"]].concat());
    let _ = shard.kill();
    let _ = shard.wait();
    assert!(
        sharded.status.success(),
        "{}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    assert_eq!(String::from_utf8(sharded.stdout).unwrap(), local_stdout);
}

#[cfg(unix)]
#[test]
fn serve_boots_answers_and_drains_on_sigterm() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("server starts");

    // First stdout line announces the bound address.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("announce line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split("/v1/").next())
        .unwrap_or_else(|| panic!("no address in announce line: {line:?}"))
        .to_owned();

    // One real request through the live server.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("\"dvf-serve/1\""), "{reply}");

    // SIGTERM drains cleanly: exit code 0.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = child.wait().expect("server exits");
    assert!(status.success(), "serve exited with {status:?}");
}

#[cfg(unix)]
#[test]
fn serve_slow_ms_logs_structured_lines() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--slow-ms",
            "0",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");

    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("announce line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split("/v1/").next())
        .unwrap_or_else(|| panic!("no address in announce line: {line:?}"))
        .to_owned();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("X-Dvf-Trace-Id:"), "{reply}");

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success());
    // --slow-ms 0: every request crosses the threshold, so the healthz
    // round-trip produced one structured line naming its trace.
    let stderr = String::from_utf8(out.stderr).unwrap();
    let slow = stderr
        .lines()
        .find(|l| l.contains("\"event\":\"slow_request\""))
        .unwrap_or_else(|| panic!("no slow_request line in stderr: {stderr}"));
    assert!(slow.contains("\"route\":\"GET /v1/healthz\""), "{slow}");
    assert!(slow.contains("\"trace_id\":\""), "{slow}");
    assert!(slow.contains("\"total_us\":"), "{slow}");
}

#[test]
fn unknown_command_is_usage_error() {
    let out = dvf(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_is_an_error() {
    let out = dvf(&["eval", "/nonexistent/model.aspen"]);
    assert_eq!(out.status.code(), Some(1));
}

// Minimal inline replacement for the tempfile crate (not a dependency):
// a named file in std::env::temp_dir that deletes itself on drop.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    pub struct NamedTempFile {
        file: std::fs::File,
        path: PathBuf,
    }

    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<Self> {
            let path = std::env::temp_dir().join(format!(
                "dvf-cli-test-{}-{}.aspen",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            Ok(Self {
                file: std::fs::File::create(&path)?,
                path,
            })
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.file, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.file)
        }
    }

    impl TempPath {
        pub fn to_str(&self) -> Option<&str> {
            self.0.to_str()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// The MG stencil template (four `starts/step/ends` lanes) at 64³ on the
/// 8 MiB profile machine prints exactly the pinned report.
#[test]
fn mg_lane_template_report_is_pinned() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let path = write_model(&format!(
        "{}{}",
        read("crates/repro/models/machines.aspen"),
        read("crates/repro/models/mg.aspen")
    ));
    let out = dvf(&[
        "eval",
        path.to_str().unwrap(),
        "--machine",
        "profile_8mb",
        "--param",
        "n1=64",
        "--param",
        "n2=64",
        "--param",
        "n3=64",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        read("tests/golden/mg_n64_profile_8mb.out")
    );
}

/// `dvf sweep` over a 2-D grid of each repro model on the 8 MiB profile
/// machine prints exactly the pinned table. Each point re-resolves the
/// model, so these pin the resolver's per-point output.
#[test]
fn repro_model_sweeps_are_pinned() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let cases: [(&str, [&str; 2]); 6] = [
        ("cg", ["n=400:800:3", "iters=50,100"]),
        ("ft", ["n=1024,2048", "transforms=2:4:3"]),
        (
            "mc",
            ["grid_points=250000,500000", "lookups=50000:100000:3"],
        ),
        ("mg", ["n1=16,32", "cycles=2:4:3"]),
        ("nb", ["nodes=1000,2000", "k=100:200:3"]),
        ("vm", ["n=50000:100000:3", "stride=1,4"]),
    ];
    for (model, [a, b]) in cases {
        let path = write_model(&format!(
            "{}{}",
            read("crates/repro/models/machines.aspen"),
            read(&format!("crates/repro/models/{model}.aspen"))
        ));
        let out = dvf(&[
            "sweep",
            path.to_str().unwrap(),
            "--machine",
            "profile_8mb",
            "--sweep",
            a,
            "--sweep",
            b,
        ]);
        assert!(
            out.status.success(),
            "{model}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            read(&format!("tests/golden/sweep_{model}_profile_8mb.out")),
            "{model}"
        );
    }
}

/// `dvf timed` of the multi-phase and order-group repro models on the
/// 8 MiB profile machine prints exactly the pinned phase-weighted table.
#[test]
fn repro_model_timed_reports_are_pinned() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    for model in ["cg", "mc", "mg"] {
        let path = write_model(&format!(
            "{}{}",
            read("crates/repro/models/machines.aspen"),
            read(&format!("crates/repro/models/{model}.aspen"))
        ));
        let out = dvf(&["timed", path.to_str().unwrap(), "--machine", "profile_8mb"]);
        assert!(
            out.status.success(),
            "{model}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            read(&format!("tests/golden/timed_{model}_profile_8mb.out")),
            "{model}"
        );
    }
}

/// A kernel called only from a zero-trip `iterate` is a callee, not a
/// root: at `extra = 0` the caller runs alone and `B` is never touched.
#[test]
fn zero_trip_call_adds_nothing_to_its_caller() {
    let path = write_model(
        "machine m {\n  cache { associativity = 4  sets = 64  line = 32 }\n  \
         memory { fit = 5000 }\n  core { flops = 1e9  bandwidth = 4e9 }\n}\n\
         model zt {\n  param extra = 0\n  data A { size = 8000  element = 8 }\n  \
         data B { size = 80000  element = 8 }\n  \
         kernel smooth { access B as streaming() }\n  \
         kernel main {\n    access A as streaming()\n    iterate extra { call smooth }\n  }\n}\n",
    );
    let out = dvf(&["sweep", path.to_str().unwrap(), "--sweep", "extra=0:2:3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "sweep `extra` over 3 point(s):\n\n\
         extra                time (s)        DVF_app\n\
         0                 2.000000e-6   4.444444e-14\n\
         1                 2.200000e-5   4.937778e-11\n\
         2                 4.200000e-5   1.876000e-10\n"
    );
}
