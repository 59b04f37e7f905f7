//! Canonical pretty-printer: AST → source text.
//!
//! Useful for normalizing models, producing test fixtures, and verifying
//! the parser via round-trips (`parse(pretty(parse(src))) == parse(src)`).

use crate::ast::*;
use crate::span::Spanned;
use std::fmt::Write;

/// Render a document in canonical form.
pub fn pretty(doc: &Document) -> String {
    let mut out = String::new();
    for (i, item) in doc.items.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        match item {
            Item::Param(p) => {
                let _ = writeln!(out, "param {} = {}", p.name.node, pretty_expr(&p.value));
            }
            Item::Machine(m) => pretty_machine(&mut out, m),
            Item::Model(m) => pretty_model(&mut out, m),
        }
    }
    out
}

fn pretty_machine(out: &mut String, m: &MachineDef) {
    let _ = writeln!(out, "machine {} {{", m.name.node);
    for p in &m.params {
        let _ = writeln!(out, "  param {} = {}", p.name.node, pretty_expr(&p.value));
    }
    for s in &m.sections {
        let _ = writeln!(out, "  {} {{", s.kind.node);
        for f in &s.fields {
            let _ = writeln!(out, "    {} = {}", f.name.node, pretty_expr(&f.value));
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
}

fn pretty_model(out: &mut String, m: &ModelDef) {
    let _ = writeln!(out, "model {} {{", m.name.node);
    for p in &m.params {
        let _ = writeln!(out, "  param {} = {}", p.name.node, pretty_expr(&p.value));
    }
    for d in &m.datas {
        let _ = writeln!(out, "  data {} {{", d.name.node);
        for f in &d.fields {
            let _ = writeln!(out, "    {} = {}", f.name.node, pretty_expr(&f.value));
        }
        let _ = writeln!(out, "  }}");
    }
    for k in &m.kernels {
        let _ = writeln!(out, "  kernel {} {{", k.name.node);
        for f in &k.fields {
            let _ = writeln!(out, "    {} = {}", f.name.node, pretty_expr(&f.value));
        }
        for stmt in &k.body {
            pretty_stmt(out, stmt, 2);
        }
        if let Some(order) = &k.order {
            let steps: Vec<String> = order
                .iter()
                .map(|s| match s {
                    OrderStep::Single(n) => n.node.clone(),
                    OrderStep::Group(g) => format!(
                        "({})",
                        g.iter()
                            .map(|n| n.node.as_str())
                            .collect::<Vec<_>>()
                            .join(" ")
                    ),
                })
                .collect();
            let _ = writeln!(out, "    order {{ {} }}", steps.join(" "));
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
}

fn pretty_stmt(out: &mut String, stmt: &KernelStmt, depth: usize) {
    let pad = "  ".repeat(depth);
    match stmt {
        KernelStmt::Access(a) => {
            let args: Vec<String> = a
                .args
                .iter()
                .map(|f| format!("{} = {}", f.name.node, pretty_expr(&f.value)))
                .collect();
            let _ = writeln!(
                out,
                "{pad}access {} as {}({})",
                a.data.node,
                a.pattern.node,
                args.join(", ")
            );
        }
        KernelStmt::Call { name } => {
            let _ = writeln!(out, "{pad}call {}", name.node);
        }
        KernelStmt::Iterate { count, body } => {
            let _ = writeln!(out, "{pad}iterate {} {{", pretty_expr(count));
            for s in body {
                pretty_stmt(out, s, depth + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

/// Render an expression with minimal but unambiguous parenthesization
/// (children of tighter-binding parents get parens when needed; we simply
/// parenthesize every binary child, which is always safe and canonical).
pub fn pretty_expr(e: &Spanned<Expr>) -> String {
    match &e.node {
        Expr::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Expr::Ident(s) => s.clone(),
        Expr::Neg(inner) => format!("-{}", pretty_atom(inner)),
        Expr::Binary { op, lhs, rhs } => {
            format!("{} {} {}", pretty_atom(lhs), op.symbol(), pretty_atom(rhs))
        }
        Expr::Call { name, args } => {
            let args: Vec<String> = args.iter().map(pretty_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::Tuple(items) => {
            let items: Vec<String> = items.iter().map(pretty_expr).collect();
            format!("({})", items.join(", "))
        }
    }
}

fn pretty_atom(e: &Spanned<Expr>) -> String {
    match &e.node {
        Expr::Binary { .. } => format!("({})", pretty_expr(e)),
        _ => pretty_expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    #[test]
    fn roundtrip_model() {
        let src = r#"
            param g = 2
            machine m {
              cache { associativity = 4  sets = 64  line = 32 }
              memory { fit = 5000 }
            }
            model vm {
              param n = 100
              data A { size = n * 8  element = 8 }
              kernel main {
                flops = 2 * n
                access A as streaming(stride = 4)
                order { A (A A) }
              }
            }
        "#;
        let doc = parse(src).unwrap();
        let printed = pretty(&doc);
        let doc2 = parse(&printed).unwrap();
        // Compare shapes, not spans: pretty-print both again.
        assert_eq!(pretty(&doc2), printed);
        assert_eq!(doc2.items.len(), doc.items.len());
    }

    #[test]
    fn roundtrip_control_flow() {
        let src = r#"
            model m {
              data A { size = 800 element = 8 }
              kernel smooth { access A as streaming() }
              kernel vcycle {
                flops = 5
                iterate 4 {
                  call smooth
                  iterate 2 { access A as streaming(stride = 2) }
                }
              }
            }
        "#;
        let doc = parse(src).unwrap();
        let printed = pretty(&doc);
        assert!(printed.contains("iterate 4 {"));
        assert!(printed.contains("call smooth"));
        let doc2 = parse(&printed).unwrap();
        assert_eq!(pretty(&doc2), printed);
    }

    #[test]
    fn expr_rendering() {
        let cases = [
            ("1+2*3", "1 + (2 * 3)"),
            ("-n", "-n"),
            ("ceil(n / 2)", "ceil(n / 2)"),
            ("(1, 2)", "(1, 2)"),
            ("2 ^ 8", "2 ^ 8"),
        ];
        for (src, expected) in cases {
            assert_eq!(pretty_expr(&parse_expr(src).unwrap()), expected);
        }
    }

    #[test]
    fn expr_roundtrip_preserves_value() {
        use crate::expr::{eval, Env};
        let env = Env::default();
        for src in [
            "1 + 2 * 3 - 4 / 8",
            "-(3 + 4) * 2",
            "2 ^ 3 ^ 2",
            "min(3, max(1, 2))",
        ] {
            let e1 = parse_expr(src).unwrap();
            let printed = pretty_expr(&e1);
            let e2 = parse_expr(&printed).unwrap();
            assert_eq!(
                eval(&e1, &env).unwrap(),
                eval(&e2, &env).unwrap(),
                "{src} -> {printed}"
            );
        }
    }
}
