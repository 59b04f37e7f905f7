//! # dvf-aspen
//!
//! A from-scratch implementation of an **Aspen-style domain specific
//! language**, extended with the resilience-modeling syntax introduced by
//! *Yu, Li, Mittal, Vetter — "Quantitatively Modeling Application Resilience
//! with the Data Vulnerability Factor", SC 2014* (§III-D).
//!
//! Aspen (Spafford & Vetter, SC 2012) is a DSL for structured analytical
//! modeling of applications and abstract machines. The DVF paper extends
//! its syntax and semantics so users can declare, per data structure, the
//! memory-access pattern (`streaming`/`random`/`template`/`reuse`), its
//! parameters, element templates, and access-order strings; the compiler
//! then computes the number of main-memory accesses and DVF.
//!
//! This crate is the language front-end: lexer → parser → AST →
//! resolution into plain-number specifications ([`MachineSpec`],
//! [`AppSpec`]). The CGPMAC math lives in `dvf-core`, which consumes these
//! specs (see `dvf_core::workflow`).
//!
//! ## Example
//!
//! ```
//! use dvf_aspen::{parse, Resolver};
//!
//! let source = r#"
//!     // Paper §III-D, first example: vector multiplication.
//!     machine small {
//!       cache { associativity = 4  sets = 64  line = 32 }
//!       memory { fit = 5000 }
//!     }
//!     model vm {
//!       param n = 200
//!       data A { size = n * 8  element = 8 }
//!       kernel main {
//!         flops = 2 * n
//!         access A as streaming(element = 8, count = n, stride = 4)
//!       }
//!     }
//! "#;
//!
//! let doc = parse(source).expect("parses");
//! let resolver = Resolver::new(&doc);
//! let machine = resolver.machine(None).expect("machine resolves");
//! let app = resolver.model(None).expect("model resolves");
//! assert_eq!(machine.cache.capacity(), 8192);
//! assert_eq!(app.datas[0].size_bytes, 1600);
//! ```

pub mod ast;
pub mod compact;
pub mod diag;
pub mod expr;
pub mod lexer;
pub mod machine;
pub mod model;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod template;
pub mod token;

pub use ast::Document;
pub use compact::{parse_compact, CompactProgram, PatternCode};
pub use diag::Diagnostic;
pub use machine::{CacheSpec, CoreSpec, EccKind, MachineSpec, MemorySpec};
pub use model::{
    AccessSpec, AppSpec, DataSpec, KernelSpec, OrderStepSpec, PatternSpec, ReuseScenario,
};
pub use parser::{parse, parse_expr};
pub use pretty::pretty;
pub use template::{LaneTemplate, TemplateRefs};

use expr::Env;
use machine::resolve_machine_def;
use model::resolve_model_def;

/// Resolves parsed documents into concrete specifications, with optional
/// parameter overrides (the "application/hardware configuration" inputs of
/// the paper's Fig. 3 workflow).
#[derive(Debug, Clone)]
pub struct Resolver<'d> {
    doc: &'d Document,
    overrides: Vec<(String, f64)>,
}

impl<'d> Resolver<'d> {
    /// Resolver with no overrides.
    pub fn new(doc: &'d Document) -> Self {
        Self {
            doc,
            overrides: Vec::new(),
        }
    }

    /// Override a parameter (beats any `param` default of the same name).
    pub fn set_param(mut self, name: &str, value: f64) -> Self {
        self.overrides.push((name.to_owned(), value));
        self
    }

    /// The base environment: the overrides (a later duplicate wins) over
    /// the built-ins, then the global params they leave unbound.
    fn env(&self) -> Result<Env<'_>, Diagnostic> {
        let mut env = Env::default();
        for (k, v) in &self.overrides {
            env.set(k, *v);
        }
        for p in self.doc.params() {
            env.declare(p).map_err(tag_resolve)?;
        }
        Ok(env)
    }

    /// Resolve a machine by name (or the document's only machine).
    pub fn machine(&self, name: Option<&str>) -> Result<MachineSpec, Diagnostic> {
        let def = self.doc.machine(name).ok_or_else(|| {
            Diagnostic::new(
                match name {
                    Some(n) => format!("no machine named `{n}` (or name is ambiguous)"),
                    None => "expected exactly one machine in the document".to_owned(),
                },
                span::Span::default(),
            )
            .with_code("resolve")
        })?;
        resolve_machine_def(def, &mut self.env()?).map_err(tag_resolve)
    }

    /// Resolve a model by name (or the document's only model).
    pub fn model(&self, name: Option<&str>) -> Result<AppSpec, Diagnostic> {
        let def = self.doc.model(name).ok_or_else(|| {
            Diagnostic::new(
                match name {
                    Some(n) => format!("no model named `{n}` (or name is ambiguous)"),
                    None => "expected exactly one model in the document".to_owned(),
                },
                span::Span::default(),
            )
            .with_code("resolve")
        })?;
        resolve_model_def(def, &mut self.env()?).map_err(tag_resolve)
    }
}

/// Categorize a resolution-stage diagnostic unless it already has a code.
fn tag_resolve(d: Diagnostic) -> Diagnostic {
    match d.code {
        Some(_) => d,
        None => d.with_code("resolve"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolver_with_overrides() {
        let doc = parse(
            r#"
            model cg {
              param n = 100
              data A { size = n * n * 8  element = 8 }
            }
            "#,
        )
        .unwrap();
        let small = Resolver::new(&doc).model(None).unwrap();
        assert_eq!(small.datas[0].size_bytes, 100 * 100 * 8);
        let big = Resolver::new(&doc)
            .set_param("n", 800.0)
            .model(None)
            .unwrap();
        assert_eq!(big.datas[0].size_bytes, 800 * 800 * 8);
    }

    /// Which binding an identifier sees: an override beats a `param`
    /// default and a built-in, a global `param` beats a machine- or
    /// model-scoped one of the same name, and a later duplicate override
    /// beats an earlier one.
    #[test]
    fn scoping_precedence() {
        let doc = parse(
            r#"
            param g = 2
            machine m {
              param ways = g * 2
              param g = 100
              cache { associativity = ways  sets = 64  line = 32 }
            }
            model app {
              param n = g * 10
              param g = 100
              data A { size = n * 8  element = 8 }
              data B { size = KiB  element = 8 }
            }
            "#,
        )
        .unwrap();
        let sizes = |r: &Resolver| -> Vec<u64> {
            let app = r.model(None).unwrap();
            app.datas.iter().map(|d| d.size_bytes).collect()
        };
        let r = Resolver::new(&doc);
        assert_eq!(r.machine(None).unwrap().cache.associativity, 4);
        assert_eq!(sizes(&r), [160, 1024]);

        let r = Resolver::new(&doc)
            .set_param("g", 3.0)
            .set_param("KiB", 16.0);
        assert_eq!(r.machine(None).unwrap().cache.associativity, 6);
        assert_eq!(sizes(&r), [240, 16]);

        let r = Resolver::new(&doc).set_param("n", 5.0).set_param("n", 7.0);
        assert_eq!(sizes(&r), [56, 1024]);
    }

    /// Machine-scoped params are invisible to the model and model-scoped
    /// params to the machine.
    #[test]
    fn scoped_params_stay_in_their_scope() {
        let doc = parse(
            r#"
            machine m {
              param ways = 4
              cache { associativity = n  sets = 64  line = 32 }
            }
            model app {
              param n = 10
              data A { size = ways * 8  element = 8 }
            }
            "#,
        )
        .unwrap();
        let r = Resolver::new(&doc);
        assert_eq!(
            r.machine(None).unwrap_err().message,
            "undefined parameter `n`"
        );
        assert_eq!(
            r.model(None).unwrap_err().message,
            "undefined parameter `ways`"
        );
    }

    /// An override cannot stand in for a `capacity` field the machine
    /// does not declare.
    #[test]
    fn override_cannot_forge_a_declared_capacity() {
        let doc =
            parse("machine m { cache { associativity = 8  sets = 512  line = 64 } }").unwrap();
        let machine = Resolver::new(&doc)
            .set_param("__declared_capacity", 123.0)
            .machine(None)
            .unwrap();
        assert_eq!(machine.cache.capacity(), 262_144);
    }

    /// A `param` in any scope named after a built-in constant is an
    /// error at its name, even where an override would shadow it.
    #[test]
    fn param_named_after_a_builtin_is_rejected() {
        let message = "`param KB` would shadow the built-in constant `KB`; choose another name";
        let model = "model app { param n = KB  data A { size = n * 8  element = 8 } }";
        for (src, overrides) in [
            (format!("param KB = 5\n{model}"), &[][..]),
            (format!("param KB = 5\n{model}"), &[("KB", 7.0)][..]),
            (
                "model app { param KB = 5  data A { size = KB  element = 1 } }".to_owned(),
                &[][..],
            ),
        ] {
            let doc = parse(&src).unwrap();
            let resolver = overrides
                .iter()
                .fold(Resolver::new(&doc), |r, (k, v)| r.set_param(k, *v));
            let err = resolver.model(None).unwrap_err();
            assert_eq!(err.message, message, "{src}");
            assert_eq!(err.code, Some("resolve"), "{src}");
            assert_eq!(err.span.text(&src), "KB", "{src}");
        }
        let doc =
            parse("machine m { param PI = 3  cache { associativity = 8  sets = 512  line = 64 } }")
                .unwrap();
        let err = Resolver::new(&doc).machine(None).unwrap_err();
        assert_eq!(
            err.message,
            "`param PI` would shadow the built-in constant `PI`; choose another name"
        );
    }

    #[test]
    fn missing_machine_reports_cleanly() {
        let doc = parse("model m { }").unwrap();
        let err = Resolver::new(&doc).machine(None).unwrap_err();
        assert!(err.message.contains("exactly one machine"));
        let err = Resolver::new(&doc).machine(Some("zz")).unwrap_err();
        assert!(err.message.contains("zz"));
    }
}
