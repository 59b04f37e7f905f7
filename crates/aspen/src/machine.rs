//! Machine-model resolution: `machine { ... }` AST → concrete numbers.

use crate::ast::{Expr, MachineDef};
use crate::diag::Diagnostic;
use crate::expr::{eval, eval_u64, Env};
use crate::span::Span;

/// Resolved last-level-cache geometry (paper Table III symbols).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// `CA`.
    pub associativity: u64,
    /// `NA`.
    pub sets: u64,
    /// `CL` in bytes.
    pub line_bytes: u64,
}

impl CacheSpec {
    /// Capacity `Cc` in bytes, saturating at `u64::MAX`.
    pub fn capacity(&self) -> u64 {
        self.associativity
            .saturating_mul(self.sets)
            .saturating_mul(self.line_bytes)
    }
}

/// ECC scheme named in a machine model. The FIT consequences live in
/// `dvf-core::fit`; the DSL only records the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EccKind {
    /// Unprotected.
    #[default]
    None,
    /// SECDED.
    Secded,
    /// Chipkill-correct.
    Chipkill,
}

/// Resolved main-memory description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Explicit failure rate in FIT/Mbit, if the model gave one. When
    /// absent, the consumer derives the rate from `ecc`.
    pub fit_per_mbit: Option<f64>,
    /// ECC scheme.
    pub ecc: EccKind,
}

/// Resolved compute rates for the Aspen-style time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSpec {
    /// Peak flop/s.
    pub flops_per_sec: f64,
    /// Main-memory bandwidth in bytes/s.
    pub mem_bytes_per_sec: f64,
}

impl Default for CoreSpec {
    fn default() -> Self {
        Self {
            flops_per_sec: 1e9,
            mem_bytes_per_sec: 4e9,
        }
    }
}

/// A fully resolved machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Machine name.
    pub name: String,
    /// Last-level cache.
    pub cache: CacheSpec,
    /// Main memory.
    pub memory: MemorySpec,
    /// Compute rates.
    pub core: CoreSpec,
}

/// Resolve one machine definition against an environment of parameter
/// bindings (already including global params and overrides). The
/// machine's own params are bound for the duration of the call only.
pub fn resolve_machine_def<'a>(
    def: &'a MachineDef,
    env: &mut Env<'a>,
) -> Result<MachineSpec, Diagnostic> {
    env.scoped(&def.params, |env| machine_spec(def, env))
}

fn machine_spec(def: &MachineDef, env: &Env) -> Result<MachineSpec, Diagnostic> {
    let mut cache = None;
    let mut memory = MemorySpec {
        fit_per_mbit: None,
        ecc: EccKind::None,
    };
    let mut core = CoreSpec::default();

    for section in &def.sections {
        match section.kind.node.as_str() {
            "cache" => {
                let mut assoc = None;
                let mut sets = None;
                let mut line = None;
                // Redundant but checkable.
                let mut capacity = None;
                for f in &section.fields {
                    match f.name.node.as_str() {
                        "associativity" => assoc = Some(eval_u64(&f.value, env)?),
                        "sets" => sets = Some(eval_u64(&f.value, env)?),
                        "line" => line = Some(eval_u64(&f.value, env)?),
                        "capacity" => capacity = Some(eval_u64(&f.value, env)?),
                        other => {
                            return Err(Diagnostic::new(
                                format!("unknown cache field `{other}` (expected `associativity`, `sets`, `line` or `capacity`)"),
                                f.name.span,
                            ))
                        }
                    }
                }
                let require = |v: Option<u64>, what: &str, span: Span| {
                    v.ok_or_else(|| Diagnostic::new(format!("cache is missing `{what}`"), span))
                };
                let spec = CacheSpec {
                    associativity: require(assoc, "associativity", section.kind.span)?,
                    sets: require(sets, "sets", section.kind.span)?,
                    line_bytes: require(line, "line", section.kind.span)?,
                };
                if let Some(declared) = capacity {
                    if declared != spec.capacity() {
                        return Err(Diagnostic::new(
                            format!(
                                "declared capacity {declared} does not match associativity*sets*line = {}",
                                spec.capacity()
                            ),
                            section.kind.span,
                        ));
                    }
                }
                cache = Some(spec);
            }
            "memory" => {
                for f in &section.fields {
                    match f.name.node.as_str() {
                        "fit" => memory.fit_per_mbit = Some(eval(&f.value, env)?),
                        "ecc" => {
                            memory.ecc = match &f.value.node {
                                Expr::Ident(s) => match s.as_str() {
                                    "none" => EccKind::None,
                                    "secded" => EccKind::Secded,
                                    "chipkill" => EccKind::Chipkill,
                                    other => {
                                        return Err(Diagnostic::new(
                                            format!("unknown ECC scheme `{other}` (expected `none`, `secded` or `chipkill`)"),
                                            f.value.span,
                                        ))
                                    }
                                },
                                _ => {
                                    return Err(Diagnostic::new(
                                        "`ecc` expects a scheme name (`none`, `secded`, `chipkill`)",
                                        f.value.span,
                                    ))
                                }
                            };
                        }
                        other => {
                            return Err(Diagnostic::new(
                                format!("unknown memory field `{other}` (expected `fit` or `ecc`)"),
                                f.name.span,
                            ))
                        }
                    }
                }
            }
            "core" => {
                for f in &section.fields {
                    match f.name.node.as_str() {
                        "flops" => core.flops_per_sec = eval(&f.value, env)?,
                        "bandwidth" => core.mem_bytes_per_sec = eval(&f.value, env)?,
                        other => {
                            return Err(Diagnostic::new(
                                format!(
                                "unknown core field `{other}` (expected `flops` or `bandwidth`)"
                            ),
                                f.name.span,
                            ))
                        }
                    }
                }
            }
            other => {
                return Err(Diagnostic::new(
                    format!("unknown machine section `{other}`"),
                    section.kind.span,
                ))
            }
        }
    }

    let cache = cache.ok_or_else(|| {
        Diagnostic::new(
            format!("machine `{}` has no `cache` section", def.name.node),
            def.name.span,
        )
    })?;
    if core.flops_per_sec <= 0.0 || core.mem_bytes_per_sec <= 0.0 {
        return Err(Diagnostic::new(
            "core rates must be positive",
            def.name.span,
        ));
    }

    Ok(MachineSpec {
        name: def.name.node.clone(),
        cache,
        memory,
        core,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn resolve(src: &str) -> Result<MachineSpec, Diagnostic> {
        crate::Resolver::new(&parse(src).unwrap()).machine(None)
    }

    #[test]
    fn resolves_full_machine() {
        let spec = resolve(
            r#"
            machine small {
              cache { associativity = 4  sets = 64  line = 32 }
              memory { fit = 5000  ecc = none }
              core { flops = 1e9  bandwidth = 4e9 }
            }
            "#,
        )
        .unwrap();
        assert_eq!(spec.cache.capacity(), 8192);
        assert_eq!(spec.memory.fit_per_mbit, Some(5000.0));
        assert_eq!(spec.memory.ecc, EccKind::None);
        assert_eq!(spec.core.flops_per_sec, 1e9);
    }

    #[test]
    fn machine_params_feed_fields() {
        let spec = resolve(
            r#"
            machine m {
              param ways = 8
              cache { associativity = ways  sets = 2 ^ 12  line = 32 }
            }
            "#,
        )
        .unwrap();
        assert_eq!(spec.cache.associativity, 8);
        assert_eq!(spec.cache.sets, 4096);
    }

    #[test]
    fn capacity_cross_check() {
        let ok = resolve(
            "machine m { cache { associativity = 4 sets = 64 line = 32 capacity = 8 * KiB } }",
        );
        assert!(ok.is_ok());
        let bad = resolve(
            "machine m { cache { associativity = 4 sets = 64 line = 32 capacity = 16 * KiB } }",
        );
        assert!(bad.unwrap_err().message.contains("does not match"));
    }

    #[test]
    fn ecc_parses_schemes() {
        let spec = resolve(
            "machine m { cache { associativity = 1 sets = 1 line = 8 } memory { ecc = chipkill } }",
        )
        .unwrap();
        assert_eq!(spec.memory.ecc, EccKind::Chipkill);
        let err = resolve(
            "machine m { cache { associativity = 1 sets = 1 line = 8 } memory { ecc = foo } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown ECC scheme"));
    }

    #[test]
    fn missing_cache_is_an_error() {
        let err = resolve("machine m { core { flops = 1 bandwidth = 1 } }").unwrap_err();
        assert!(err.message.contains("no `cache`"));
    }

    #[test]
    fn missing_cache_field_is_an_error() {
        let err = resolve("machine m { cache { associativity = 4 sets = 64 } }").unwrap_err();
        assert!(err.message.contains("missing `line`"));
    }

    #[test]
    fn unknown_field_is_an_error() {
        let err =
            resolve("machine m { cache { associativity = 4 sets = 64 line = 32 color = 1 } }")
                .unwrap_err();
        assert!(err.message.contains("unknown cache field"));
    }

    #[test]
    fn overrides_beat_declared_params() {
        let doc = parse(
            r#"
            param ways = 4
            machine m { cache { associativity = ways sets = 64 line = 32 } }
            "#,
        )
        .unwrap();
        let spec = crate::Resolver::new(&doc)
            .set_param("ways", 16.0)
            .machine(None)
            .unwrap();
        assert_eq!(spec.cache.associativity, 16);
    }
}
