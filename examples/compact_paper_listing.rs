//! Parse the paper's own listing syntax.
//!
//! The DVF paper writes its example programs in a compact line form
//! (`Data structure : {A}` …). This example feeds those listings —
//! verbatim from §III-D — through the compact front-end, lowers them to
//! the block AST, and evaluates DVF on a Table IV machine.
//!
//! ```sh
//! cargo run --release --example compact_paper_listing
//! ```

use dvf::aspen::expr::Env;
use dvf::aspen::model::resolve_model_def;
use dvf::aspen::{parse, parse_compact, Resolver};
use dvf::core::workflow::evaluate;

const MACHINE: &str = r#"
machine small {
  cache { associativity = 4  sets = 64  line = 32 }
  memory { fit = 5000 }
  core { flops = 1e9  bandwidth = 4e9 }
}
"#;

/// Paper §III-D, first listing (vector multiplication).
const VM_LISTING: &str = "\
Data structure : {A}
Access Pattern : {s}
Parameters : {(8,200,4)}";

/// Paper §III-D, second listing (Barnes-Hut).
const NB_LISTING: &str = "\
Data structure : {T}
Access Pattern : {r}
Parameters : {(1000,32,200,1000,1.0)}";

fn main() {
    let machine_doc = parse(MACHINE).expect("machine parses");
    let machine = Resolver::new(&machine_doc)
        .machine(None)
        .expect("machine resolves");

    for (name, listing) in [("vm", VM_LISTING), ("nb", NB_LISTING)] {
        println!("=== paper listing `{name}` ===");
        println!("{listing}\n");
        let program = parse_compact(listing).expect("compact listing parses");
        let model = program.to_model(name).expect("lowers to the block AST");
        let app = resolve_model_def(&model, &mut Env::default()).expect("model resolves");
        let report = evaluate(&app, &machine).expect("evaluates");
        print!("{}", report.render());
        println!();
    }

    println!("Same parser family, same models, same DVF pipeline — the listings in");
    println!("the paper are directly executable against this implementation.");
}
