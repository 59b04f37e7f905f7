//! `dump_trace` end to end: the binary output is DVFT2 and decodes to the
//! very trace a buffering recorder keeps, the text output is that trace's
//! text form, and an unknown kernel is a usage error.

use dvf_cachesim::binio::{read_binary, TraceReader};
use dvf_kernels::{vm, Recorder};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A per-process output path for one test.
fn out_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dump-trace-test-{}-{name}", std::process::id()))
}

fn dump_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dump_trace"))
        .args(args)
        .output()
        .expect("dump_trace runs")
}

fn buffered_vm() -> dvf_cachesim::Trace {
    let rec = Recorder::new();
    vm::run_traced(vm::VmParams::verification(), &rec);
    rec.into_trace()
}

#[test]
fn binary_output_is_dvft2_and_decodes_to_the_buffered_trace() {
    let path = out_path("vm.dvft");
    let out = dump_trace(&["vm", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");

    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(TraceReader::new(&bytes[..]).unwrap().version(), 2);
    let decoded = read_binary(&bytes[..]).unwrap();
    let expected = buffered_vm();
    assert!(!expected.is_empty());
    assert_eq!(decoded.refs, expected.refs);
    let names = |t: &dvf_cachesim::Trace| -> Vec<String> {
        t.registry.iter().map(|(_, n)| n.to_owned()).collect()
    };
    assert_eq!(names(&decoded), names(&expected));
}

#[test]
fn text_output_is_the_trace_text_form() {
    let path = out_path("vm.txt");
    let out = dump_trace(&["vm", path.to_str().unwrap(), "--format", "text"]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(text, buffered_vm().to_text());
}

#[test]
fn unknown_kernel_exits_2() {
    let path = out_path("none");
    let out = dump_trace(&["lu", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown kernel `lu`"), "{stderr}");
    assert!(!path.exists());
}
