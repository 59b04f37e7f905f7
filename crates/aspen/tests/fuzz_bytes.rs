//! Byte-level fuzzing of the Aspen front-end.
//!
//! The lexer, parser and resolver consume untrusted model source (the
//! inline `source` of `POST /v1/dvf`). These properties drive
//! byte-mutation corpora (flips, inserts, deletes, truncations, splices
//! of known-good sources) and raw byte soup through `parse`, then resolve
//! every machine and model of each document that parses, as written and
//! under drawn overrides, rendering every diagnostic: arbitrary input may
//! *error* but must never panic, overflow the stack, or hang.

use dvf_aspen::ast::Item;
use dvf_aspen::{parse, parse_expr, Document, Resolver};
use proptest::prelude::*;

/// Known-good sources covering every grammar production: machine
/// sections, model data/kernel/params, order groups, template accesses
/// with index calls, and nested `iterate` bodies.
const CORPUS: &[&str] = &[
    r#"
machine small {
  param x = 1
  cache { associativity = 4  sets = 64  line = 32 }
  memory { fit = 5000 }
  core { flops = 1e9  bandwidth = 4e9 }
}
"#,
    r#"
model vm {
  param n = 200
  data A { size = n * 8  element = 8 }
  kernel main {
    flops = 2 * n
    access A as streaming(element = 8, count = n, stride = 4)
  }
}
"#,
    r#"
model cg {
  data A { size = 1 element = 1 }
  kernel iter {
    order { r (A p) p (x p) (A p) r (r p) }
  }
}
"#,
    r#"
model mg {
  param n1 = 8  param n2 = 8
  data R { size = n1*n2*16  element = 16  dims = (n2, n1) }
  kernel smooth {
    access R as template(
      element = 8,
      starts = (R(2,1), R(1,2)),
      step = 1,
      ends = (R(n1-1,n2-2), R(n1,n2-1))
    )
  }
}
"#,
    r#"
model loops {
  param n = 4
  data A { size = n * 8  element = 8 }
  kernel main {
    iterate n {
      iterate n - 1 {
        access A as random(element = 8, count = n, k = 2, iterations = n^2)
      }
      call main
    }
  }
}
"#,
    r#"
param scale = 2
machine full {
  param ways = 4 * scale
  cache { associativity = ways  sets = 64  line = 32  capacity = 16 * KiB }
  memory { fit = 5000  ecc = secded }
  core { flops = 1e9  bandwidth = 4 * GB }
}
model all {
  param n = 16 * scale
  data A { size = n * n * 8  element = 8  dims = (n, n) }
  data B { size = n * 8  element = 8 }
  data T { size = 1000 * 32  element = 32 }
  kernel inner {
    iters = 2
    access A as template(starts = (A(1,0), A(0,1)), step = n, ends = (A(n-1,0), A(n-2,1)))
    access B as template(refs = (0, 2, 1, 3), repeat = 4)
  }
  kernel outer {
    flops = PI * n  loads = 8 * n  stores = 8 * n
    iterate n { access B as streaming(stride = 2) call inner }
    access T as random(k = 200, iters = 1000, ratio = 0.5)
    access B as reuse(reuses = 8, scenario = concurrent)
    order { A (B T) B }
  }
}
"#,
];

/// Override names drawn besides the document's own params: every
/// built-in constant, and a name resolve once kept internal state under.
const EXTRA_NAMES: &[&str] = &[
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "PI",
    "__declared_capacity",
];

/// Override values, hostile ones included.
const VALUES: &[f64] = &[
    0.0,
    1.0,
    -1.0,
    0.5,
    3.0,
    64.0,
    1e6,
    1e18,
    1e300,
    -1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Apply a mutation script to `base` and re-validate as (lossy) UTF-8,
/// so multi-byte sequences get corrupted into replacement characters —
/// exactly the hostile shapes a byte-oriented lexer mishandles.
fn mutate(base: &[u8], ops: &[(u8, u16, u8)]) -> String {
    let mut bytes = base.to_vec();
    for &(kind, pos, byte) in ops {
        if bytes.is_empty() {
            bytes.push(byte);
            continue;
        }
        let i = pos as usize % bytes.len();
        match kind {
            0 => bytes[i] = byte,
            1 => bytes.insert(i, byte),
            2 => {
                bytes.remove(i);
            }
            3 => bytes.truncate(i),
            _ => {
                // Duplicate a short slice in place (structure-aware-ish:
                // repeats delimiters, keywords, operators).
                let j = (i + 1 + byte as usize % 16).min(bytes.len());
                let slice: Vec<u8> = bytes[i..j].to_vec();
                for (k, b) in slice.into_iter().enumerate() {
                    bytes.insert(i + k, b);
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parse, resolve what parses, and render every diagnostic against the
/// same source — rendering slices the source with the error span, which
/// is where the byte-offset/char-boundary bugs live. `picks` draws
/// overrides: `(name, value)` indices into the document's params plus
/// [`EXTRA_NAMES`], and [`VALUES`].
fn parse_and_render(src: &str, picks: &[(u8, u8)]) {
    match parse(src) {
        Ok(doc) => resolve_and_render(&doc, src, picks),
        Err(d) => {
            let _ = d.render(src);
        }
    }
}

/// Resolve every machine and model of `doc` by name, without overrides
/// and with the overrides `picks` draws.
fn resolve_and_render(doc: &Document, src: &str, picks: &[(u8, u8)]) {
    let mut names = doc.param_names();
    names.extend_from_slice(EXTRA_NAMES);
    let overridden = picks.iter().fold(Resolver::new(doc), |r, &(n, v)| {
        r.set_param(
            names[n as usize % names.len()],
            VALUES[v as usize % VALUES.len()],
        )
    });
    for resolver in [Resolver::new(doc), overridden] {
        for item in &doc.items {
            let resolved = match item {
                Item::Param(_) => continue,
                Item::Machine(m) => resolver.machine(Some(&m.name.node)).map(drop),
                Item::Model(m) => resolver.model(Some(&m.name.node)).map(drop),
            };
            if let Err(d) = resolved {
                let _ = d.render(src);
            }
        }
    }
}

/// Override picks for one case.
fn picks() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..=255u8, 0u8..=255u8), 0..6)
}

proptest! {
    /// Mutated corpus: near-valid input with localized damage.
    #[test]
    fn parser_never_panics_on_mutated_corpus(
        base in prop::sample::select(CORPUS.to_vec()),
        ops in prop::collection::vec((0u8..5, 0u16..2048, 0u8..=255u8), 1..24),
        picks in picks(),
    ) {
        let src = mutate(base.as_bytes(), &ops);
        parse_and_render(&src, &picks);
    }

    /// Raw byte soup, including invalid UTF-8 turned into replacement
    /// characters and interior NULs.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255u8, 0..512),
        picks in picks(),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        parse_and_render(&src, &picks);
    }

    /// Splices of two corpus entries at arbitrary byte offsets.
    #[test]
    fn parser_never_panics_on_corpus_splices(
        a in prop::sample::select(CORPUS.to_vec()),
        b in prop::sample::select(CORPUS.to_vec()),
        cut_a in 0u16..2048,
        cut_b in 0u16..2048,
        picks in picks(),
    ) {
        let abytes = a.as_bytes();
        let bbytes = b.as_bytes();
        let i = cut_a as usize % (abytes.len() + 1);
        let j = cut_b as usize % (bbytes.len() + 1);
        let mut spliced = abytes[..i].to_vec();
        spliced.extend_from_slice(&bbytes[j..]);
        let src = String::from_utf8_lossy(&spliced).into_owned();
        parse_and_render(&src, &picks);
    }
}

/// The corpus resolves, so the mutations above start from documents
/// that reach every resolve path, not just the first error.
#[test]
fn corpus_documents_resolve() {
    let doc = parse(CORPUS[CORPUS.len() - 1]).unwrap();
    let resolver = Resolver::new(&doc);
    assert_eq!(resolver.machine(None).unwrap().cache.capacity(), 16 * 1024);
    let app = resolver.model(None).unwrap();
    assert_eq!(app.kernels.len(), 2);
}

#[test]
fn multibyte_error_spans_render_without_panicking() {
    // The lexer flags the first byte of a multi-byte character with a
    // one-byte span; rendering used to slice the source mid-character.
    for src in ["é", "model é {}", "漢字", "a = \u{00A0}1", "\u{1F980}"] {
        let err = parse(src).unwrap_err();
        let _ = err.render(src);
    }
}

#[test]
fn deep_nesting_errors_instead_of_overflowing() {
    // 100k-deep recursion would abort with a stack overflow if the
    // parser had no depth bound; it must surface a diagnostic instead.
    let deep_parens = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
    let err = parse_expr(&deep_parens).unwrap_err();
    assert!(err.message.contains("nesting too deep"), "{}", err.message);

    let deep_minus = format!("{}1", "-".repeat(100_000));
    let err = parse_expr(&deep_minus).unwrap_err();
    assert!(err.message.contains("nesting too deep"), "{}", err.message);

    let deep_pow = format!("1{}", "^2".repeat(100_000));
    let err = parse_expr(&deep_pow).unwrap_err();
    assert!(err.message.contains("nesting too deep"), "{}", err.message);

    let mut deep_iterate = String::from("model m { data A { size = 1 element = 1 } kernel k {");
    deep_iterate.push_str(&"iterate 1 {".repeat(100_000));
    deep_iterate.push_str("access A as streaming(element = 1, count = 1, stride = 1)");
    deep_iterate.push_str(&"}".repeat(100_000));
    deep_iterate.push_str("}}");
    let err = parse(&deep_iterate).unwrap_err();
    assert!(err.message.contains("nesting too deep"), "{}", err.message);
}

#[test]
fn shallow_nesting_still_parses() {
    // The depth bound must not reject realistic expressions.
    let nested = format!("{}1{}", "(".repeat(48), ")".repeat(48));
    assert!(parse_expr(&nested).is_ok());
    assert!(parse_expr("-(-(-(1)))").is_ok());
    assert!(parse_expr("2^2^2^2^2").is_ok());
}
