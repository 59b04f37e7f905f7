//! `dump_trace` — export a kernel's reference trace to a file.
//!
//! ```text
//! dump_trace <kernel> <out-file> [--format binary|text]
//! ```
//!
//! Kernels: vm, cg, nb, mg, ft, mc (verification input sizes). The binary
//! format is the compressed, block-indexed DVFT2; `--format text` writes
//! one `name kind addr` line per reference. The output feeds `simtrace`
//! or any external cache model.

use dvf_cachesim::binio;
use dvf_kernels::{verification_kernel, Recorder};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: dump_trace <vm|cg|nb|mg|ft|mc> <out-file> [--format binary|text]\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(kernel), Some(out)) = (args.first(), args.get(1)) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut format = "binary".to_owned();
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--format", Some(v)) if v == "binary" || v == "text" => format = v.clone(),
            _ => {
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let Some(run) = verification_kernel(kernel) else {
        eprintln!("unknown kernel `{kernel}`\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rec = Recorder::new();
    run(&rec);
    let trace = rec.into_trace();

    let result = if format == "binary" {
        std::fs::File::create(out).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            binio::write_binary_v2(&trace, &mut w)?;
            w.flush()
        })
    } else {
        std::fs::write(out, trace.to_text())
    };
    match result {
        Ok(()) => {
            println!(
                "wrote {} references over {} structures to {out} ({format})",
                trace.len(),
                trace.registry.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
