//! Expression evaluation.

use crate::ast::{BinOp, Expr, ParamDef};
use crate::diag::Diagnostic;
use crate::span::Spanned;

/// Evaluation environment: parameter bindings over the built-in constants.
///
/// Bindings are a short list of `(name, value)` pairs whose names borrow
/// from the document and the caller's overrides, so building one hashes
/// and copies no names. Each name is bound at most once. A name the list
/// does not bind falls back to [`builtin`], so an override (bound with
/// [`Env::set`]) beats a built-in, and a built-in can never be declared
/// ([`Env::declare`] rejects it).
#[derive(Debug, Clone, Default)]
pub struct Env<'a> {
    vars: Vec<(&'a str, f64)>,
}

impl<'a> Env<'a> {
    /// Bind (or rebind) a variable.
    pub fn set(&mut self, name: &'a str, value: f64) {
        match self.vars.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.vars.push((name, value)),
        }
    }

    /// Look up a variable, then a built-in constant.
    pub fn get(&self, name: &str) -> Option<f64> {
        match self.vars.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => Some(v),
            None => builtin(name),
        }
    }

    /// Bind a declared `param` to its default unless its name is already
    /// bound (by an override or an enclosing scope's `param`), in which
    /// case the default is not evaluated. A `param` named after a built-in
    /// constant is an error.
    pub fn declare(&mut self, p: &'a ParamDef) -> Result<(), Diagnostic> {
        let name = p.name.node.as_str();
        if builtin(name).is_some() {
            return Err(Diagnostic::new(
                format!(
                    "`param {name}` would shadow the built-in constant `{name}`; \
                     choose another name"
                ),
                p.name.span,
            ));
        }
        if self.vars.iter().any(|(n, _)| *n == name) {
            return Ok(());
        }
        let v = eval(&p.value, self)?;
        self.vars.push((name, v));
        Ok(())
    }

    /// Run `f` with the scoped `params` declared on top of this
    /// environment, then drop those bindings again.
    pub fn scoped<R>(
        &mut self,
        params: &'a [ParamDef],
        f: impl FnOnce(&Self) -> Result<R, Diagnostic>,
    ) -> Result<R, Diagnostic> {
        let outer = self.vars.len();
        let out = params
            .iter()
            .try_for_each(|p| self.declare(p))
            .and_then(|()| f(self));
        self.vars.truncate(outer);
        out
    }
}

/// The built-in constants: the size units `KiB`, `MiB`, `GiB`, `KB`,
/// `MB`, `GB`, and `PI`.
pub fn builtin(name: &str) -> Option<f64> {
    Some(match name {
        "KiB" => 1024.0,
        "MiB" => 1024.0 * 1024.0,
        "GiB" => 1024.0 * 1024.0 * 1024.0,
        "KB" => 1e3,
        "MB" => 1e6,
        "GB" => 1e9,
        "PI" => std::f64::consts::PI,
        _ => return None,
    })
}

/// Evaluate an expression to a scalar.
///
/// Tuples are rejected here — they are only legal in the specific fields
/// that consume them (`dims`, `starts`, `ends`, `refs`).
pub fn eval(expr: &Spanned<Expr>, env: &Env) -> Result<f64, Diagnostic> {
    match &expr.node {
        Expr::Number(n) => Ok(*n),
        Expr::Ident(name) => env
            .get(name)
            .ok_or_else(|| Diagnostic::new(format!("undefined parameter `{name}`"), expr.span)),
        Expr::Neg(inner) => Ok(-eval(inner, env)?),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, env)?;
            let r = eval(rhs, env)?;
            match op {
                BinOp::Add => Ok(l + r),
                BinOp::Sub => Ok(l - r),
                BinOp::Mul => Ok(l * r),
                BinOp::Div => {
                    if r == 0.0 {
                        Err(Diagnostic::new("division by zero", expr.span))
                    } else {
                        Ok(l / r)
                    }
                }
                BinOp::Mod => {
                    if r == 0.0 {
                        Err(Diagnostic::new("remainder by zero", expr.span))
                    } else {
                        Ok(l % r)
                    }
                }
                BinOp::Pow => Ok(l.powf(r)),
            }
        }
        Expr::Call { name, args } => {
            let arity = |n: usize| -> Result<(), Diagnostic> {
                if args.len() == n {
                    Ok(())
                } else {
                    Err(Diagnostic::new(
                        format!("`{name}` takes {n} argument(s), got {}", args.len()),
                        expr.span,
                    ))
                }
            };
            match name.as_str() {
                "ceil" => {
                    arity(1)?;
                    Ok(eval(&args[0], env)?.ceil())
                }
                "floor" => {
                    arity(1)?;
                    Ok(eval(&args[0], env)?.floor())
                }
                "round" => {
                    arity(1)?;
                    Ok(eval(&args[0], env)?.round())
                }
                "abs" => {
                    arity(1)?;
                    Ok(eval(&args[0], env)?.abs())
                }
                "sqrt" => {
                    arity(1)?;
                    Ok(eval(&args[0], env)?.sqrt())
                }
                "log2" => {
                    arity(1)?;
                    Ok(eval(&args[0], env)?.log2())
                }
                "min" => {
                    arity(2)?;
                    Ok(eval(&args[0], env)?.min(eval(&args[1], env)?))
                }
                "max" => {
                    arity(2)?;
                    Ok(eval(&args[0], env)?.max(eval(&args[1], env)?))
                }
                other => Err(Diagnostic::new(
                    format!(
                        "unknown function `{other}` (index calls like `R(i,j,k)` are only \
                         valid inside template arguments of a data structure with `dims`)"
                    ),
                    expr.span,
                )),
            }
        }
        Expr::Tuple(_) => Err(Diagnostic::new(
            "tuple is not valid in a scalar context",
            expr.span,
        )),
    }
}

/// Evaluate an expression expected to be a nonnegative integer (counts,
/// sizes, strides). Accepts values within `1e-6` of an integer.
pub fn eval_u64(expr: &Spanned<Expr>, env: &Env) -> Result<u64, Diagnostic> {
    let v = eval(expr, env)?;
    if v < 0.0 {
        return Err(Diagnostic::new(
            format!("expected a nonnegative integer, got {v}"),
            expr.span,
        ));
    }
    let rounded = v.round();
    if (v - rounded).abs() > 1e-6 {
        return Err(Diagnostic::new(
            format!("expected an integer, got {v}"),
            expr.span,
        ));
    }
    Ok(rounded as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn ev(src: &str) -> f64 {
        eval(&parse_expr(src).unwrap(), &Env::default()).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("1 + 2 * 3"), 7.0);
        assert_eq!(ev("(1 + 2) * 3"), 9.0);
        assert_eq!(ev("10 / 4"), 2.5);
        assert_eq!(ev("10 % 4"), 2.0);
        assert_eq!(ev("-3 + 5"), 2.0);
        assert_eq!(ev("2 ^ 10"), 1024.0);
        assert_eq!(ev("2 ^ 3 ^ 2"), 512.0); // right assoc
    }

    #[test]
    fn builtins() {
        assert_eq!(ev("8 * KiB"), 8192.0);
        assert_eq!(ev("4 * MiB"), 4.0 * 1024.0 * 1024.0);
        assert_eq!(ev("min(3, 7)"), 3.0);
        assert_eq!(ev("max(3, 7)"), 7.0);
        assert_eq!(ev("ceil(2.1)"), 3.0);
        assert_eq!(ev("floor(2.9)"), 2.0);
        assert_eq!(ev("sqrt(81)"), 9.0);
        assert_eq!(ev("log2(64)"), 6.0);
        assert_eq!(ev("abs(-4)"), 4.0);
        assert_eq!(ev("round(2.5)"), 3.0);
    }

    #[test]
    fn variables() {
        let mut env = Env::default();
        env.set("n", 800.0);
        let e = parse_expr("n * n * 8").unwrap();
        assert_eq!(eval(&e, &env).unwrap(), 5_120_000.0);
    }

    #[test]
    fn undefined_variable_is_spanned_error() {
        let e = parse_expr("zz + 1").unwrap();
        let err = eval(&e, &Env::default()).unwrap_err();
        assert!(err.message.contains("zz"));
        assert_eq!(err.span.start, 0);
    }

    #[test]
    fn division_by_zero() {
        let e = parse_expr("1 / (2 - 2)").unwrap();
        assert!(eval(&e, &Env::default()).is_err());
        let e = parse_expr("1 % 0").unwrap();
        assert!(eval(&e, &Env::default()).is_err());
    }

    #[test]
    fn wrong_arity() {
        let e = parse_expr("min(1)").unwrap();
        let err = eval(&e, &Env::default()).unwrap_err();
        assert!(err.message.contains("2 argument"));
    }

    #[test]
    fn unknown_function_mentions_templates() {
        let e = parse_expr("R(1,2,3)").unwrap();
        let err = eval(&e, &Env::default()).unwrap_err();
        assert!(err.message.contains("template"));
    }

    #[test]
    fn tuple_rejected_in_scalar_context() {
        let e = parse_expr("(1, 2)").unwrap();
        assert!(eval(&e, &Env::default()).is_err());
    }

    #[test]
    fn eval_u64_accepts_integers_rejects_fractions() {
        let env = Env::default();
        assert_eq!(eval_u64(&parse_expr("5").unwrap(), &env).unwrap(), 5);
        assert_eq!(eval_u64(&parse_expr("10 / 2").unwrap(), &env).unwrap(), 5);
        assert!(eval_u64(&parse_expr("5 / 2").unwrap(), &env).is_err());
        assert!(eval_u64(&parse_expr("0 - 3").unwrap(), &env).is_err());
    }
}
