//! The six paper kernels expressed in the Aspen DSL itself
//! (`crates/repro/models/*.aspen`): every fixture must parse, resolve,
//! pretty-print round-trip, and evaluate to DVF reports whose shapes
//! match the paper's observations.

use dvf_aspen::{parse, pretty, Resolver};
use dvf_core::workflow::{evaluate, evaluate_source};

const MACHINES: &str = include_str!("../models/machines.aspen");
const VM: &str = include_str!("../models/vm.aspen");
const NB: &str = include_str!("../models/nb.aspen");
const MC: &str = include_str!("../models/mc.aspen");
const CG: &str = include_str!("../models/cg.aspen");
const MG: &str = include_str!("../models/mg.aspen");
const FT: &str = include_str!("../models/ft.aspen");

fn with_machines(model: &str) -> String {
    format!("{MACHINES}\n{model}")
}

#[test]
fn all_fixtures_parse_and_roundtrip() {
    for (name, src) in [
        ("machines", MACHINES),
        ("vm", VM),
        ("nb", NB),
        ("mc", MC),
        ("cg", CG),
        ("mg", MG),
        ("ft", FT),
    ] {
        let doc = parse(src).unwrap_or_else(|e| panic!("{name}: {}", e.render(src)));
        let printed = pretty(&doc);
        parse(&printed).unwrap_or_else(|e| panic!("{name} round-trip: {}", e.render(&printed)));
    }
}

#[test]
fn machines_resolve_to_table4_capacities() {
    let doc = parse(MACHINES).unwrap();
    let r = Resolver::new(&doc);
    assert_eq!(
        r.machine(Some("small_verification"))
            .unwrap()
            .cache
            .capacity(),
        8 * 1024
    );
    assert_eq!(
        r.machine(Some("large_verification"))
            .unwrap()
            .cache
            .capacity(),
        4 << 20
    );
    assert_eq!(
        r.machine(Some("profile_8mb")).unwrap().cache.capacity(),
        8 << 20
    );
}

#[test]
fn vm_fixture_reproduces_a_dominance() {
    let src = with_machines(VM);
    let report = evaluate_source(&src, Some("profile_8mb"), Some("vm"), &[]).unwrap();
    let a = report.dvf_of("A").unwrap();
    let b = report.dvf_of("B").unwrap();
    let c = report.dvf_of("C").unwrap();
    assert!(a > b, "A must dominate: {a} vs {b}");
    assert_eq!(b, c);
}

#[test]
fn nb_fixture_matches_paper_example_numbers() {
    // On the small verification cache the paper's NB example predicts
    // 1000 initial loads + 148.8 reloads/iteration (see the random-model
    // unit test); the DSL route must reproduce the same N_ha.
    let src = with_machines(NB);
    let doc = parse(&src).unwrap();
    let r = Resolver::new(&doc);
    let app = r.model(Some("nb")).unwrap();
    let machine = r.machine(Some("small_verification")).unwrap();
    let acc = dvf_core::workflow::account_accesses(&app, &machine).unwrap();
    let t = acc.n_ha[0]; // T, the first declared structure
    assert!((t - (1000.0 + 148.8 * 1000.0)).abs() < 1.0, "T N_ha = {t}");
}

#[test]
fn mc_fixture_shares_cache_by_size() {
    let src = with_machines(MC);
    let doc = parse(&src).unwrap();
    let r = Resolver::new(&doc);
    let app = r.model(Some("mc")).unwrap();
    // Removing the concurrent order must reduce (or keep) the miss count:
    // exclusive cache is strictly easier.
    let machine = r.machine(Some("profile_8mb")).unwrap();
    let shared = dvf_core::workflow::account_accesses(&app, &machine).unwrap();
    let mut exclusive = app.clone();
    exclusive.kernels[0].order = None;
    let excl = dvf_core::workflow::account_accesses(&exclusive, &machine).unwrap();
    // `n_ha` is in declaration order: G, E.
    assert!(shared.n_ha[0] >= excl.n_ha[0]);
    assert!(shared.n_ha[1] >= excl.n_ha[1]);
    // And with an 8 MB cache against a 12.8 MB working set, sharing must
    // actually bite for at least one structure.
    let total = |n_ha: &[f64]| n_ha.iter().sum::<f64>();
    assert!(
        total(&shared.n_ha) > total(&excl.n_ha),
        "sharing changed nothing: {:?} vs {:?}",
        shared.n_ha,
        excl.n_ha
    );
}

#[test]
fn cg_fixture_evaluates_with_reuse_and_order() {
    let src = with_machines(CG);
    let report = evaluate_source(&src, Some("profile_8mb"), Some("cg"), &[]).unwrap();
    // A dominates the application DVF (footprint x traffic).
    let a = report.dvf_of("A").unwrap();
    assert!(a > 0.9 * report.dvf_app());
    // Problem-size override flows through to every structure.
    let big = evaluate_source(&src, Some("profile_8mb"), Some("cg"), &[("n", 1600.0)]).unwrap();
    assert!(big.dvf_app() > report.dvf_app());
}

#[test]
fn mg_fixture_expands_the_paper_template() {
    let src = with_machines(MG);
    let doc = parse(&src).unwrap();
    let r = Resolver::new(&doc)
        .set_param("n1", 8.0)
        .set_param("n2", 8.0)
        .set_param("n3", 8.0);
    let app = r.model(Some("mg")).unwrap();
    match &app.kernels[0].accesses[0].access.pattern {
        dvf_aspen::PatternSpec::Template { refs, repeat, .. } => {
            assert_eq!(*repeat, 2);
            assert_eq!(refs.len() % 4, 0, "4 lanes");
            assert!(!refs.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
    // Evaluates end to end.
    let machine = Resolver::new(&doc)
        .machine(Some("small_verification"))
        .unwrap();
    let app_full = Resolver::new(&doc).model(Some("mg")).unwrap();
    let report = evaluate(&app_full, &machine).unwrap();
    assert!(report.dvf_of("R").unwrap() > 0.0);
}

#[test]
fn ft_fixture_shows_capacity_threshold() {
    // The FT array (32 KiB) thrashes an 8 KB cache and fits a 4 MB one:
    // N_ha must jump by roughly the pass count.
    let src = with_machines(FT);
    let doc = parse(&src).unwrap();
    let r = Resolver::new(&doc);
    let app = r.model(Some("ft")).unwrap();
    let small =
        dvf_core::workflow::account_accesses(&app, &r.machine(Some("small_verification")).unwrap())
            .unwrap();
    let large =
        dvf_core::workflow::account_accesses(&app, &r.machine(Some("large_verification")).unwrap())
            .unwrap();
    let ratio = small.n_ha[0] / large.n_ha[0]; // X, the only structure
    assert!(ratio > 5.0, "threshold jump missing: ratio {ratio}");
}
