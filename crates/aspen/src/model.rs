//! Application-model resolution: `model { ... }` AST → concrete access
//! specifications ready for the CGPMAC models.

use crate::ast::{
    find_field, AccessDef, DataDef, Expr, KernelDef, KernelStmt, ModelDef, OrderStep,
};
use crate::diag::Diagnostic;
use crate::expr::{eval, eval_u64, Env};
use crate::span::{Span, Spanned};
use crate::template::{LaneTemplate, TemplateRefs};

/// A resolved data structure.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSpec {
    /// Name.
    pub name: String,
    /// Footprint `S_d` in bytes.
    pub size_bytes: u64,
    /// Element size in bytes.
    pub element_bytes: u64,
    /// Row-major extents for index calls `Name(i, j, …)`, if declared.
    pub dims: Option<Vec<u64>>,
}

impl DataSpec {
    /// Number of elements (`size / element`).
    pub fn num_elements(&self) -> u64 {
        self.size_bytes / self.element_bytes
    }
}

/// Reuse-model interference scenario (mirrors `dvf-core`'s enum; kept
/// separate so the DSL crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReuseScenario {
    /// Target loaded exclusively, then interfered (paper Eq. 11).
    #[default]
    Exclusive,
    /// Target and interferers loaded concurrently (paper Eqs. 10/12).
    Concurrent,
}

/// A resolved access pattern with concrete numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    /// Streaming (`s`): paper tuple `(element, count, stride)`.
    Streaming {
        /// Element size in bytes.
        element_bytes: u64,
        /// Elements in the structure.
        count: u64,
        /// Stride in elements.
        stride_elements: u64,
    },
    /// Random (`r`): paper tuple `(N, E, k, iter, r)`.
    Random {
        /// Elements in the structure (`N`).
        elements: u64,
        /// Element size in bytes (`E`).
        element_bytes: u64,
        /// Distinct elements visited per iteration (`k`).
        k: u64,
        /// Iterations (`iter`).
        iters: u64,
        /// Cache-sharing ratio (`r`).
        ratio: f64,
    },
    /// Template-based (`t`): an element-reference sequence, replayed
    /// `repeat` times.
    Template {
        /// Element size in bytes.
        element_bytes: u64,
        /// Element indices in reference order.
        refs: TemplateRefs,
        /// Whole-template repetitions.
        repeat: u64,
    },
    /// Data reuse (`d`): the structure is reloaded against interference.
    Reuse {
        /// Combined interfering footprint in bytes.
        interfering_bytes: u64,
        /// Reuse count after the initial load.
        reuses: u64,
        /// Scenario.
        scenario: ReuseScenario,
    },
}

impl PatternSpec {
    /// The paper's single-letter code for the pattern (`s`/`r`/`t`/`d`).
    pub fn code(&self) -> char {
        match self {
            PatternSpec::Streaming { .. } => 's',
            PatternSpec::Random { .. } => 'r',
            PatternSpec::Template { .. } => 't',
            PatternSpec::Reuse { .. } => 'd',
        }
    }
}

/// One resolved `access` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSpec {
    /// Position of the target data structure in [`AppSpec::datas`].
    pub data: usize,
    /// Resolved pattern.
    pub pattern: PatternSpec,
}

/// An access with its static execution count: the product of every
/// enclosing `iterate` trip count and `call`-site multiplicity. The
/// kernel-level `iters` field applies on top of this.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledAccess {
    /// The access.
    pub access: AccessSpec,
    /// Times the access executes per kernel invocation.
    pub times: u64,
}

/// One resolved order step; each structure is its position in
/// [`AppSpec::datas`].
#[derive(Debug, Clone, PartialEq)]
pub enum OrderStepSpec {
    /// Structure accessed alone.
    Single(usize),
    /// Structures accessed concurrently.
    Group(Vec<usize>),
}

/// A resolved kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Name.
    pub name: String,
    /// Floating-point operations per kernel invocation.
    pub flops: f64,
    /// Explicit main-memory traffic per invocation in bytes (Aspen-style
    /// `loads`/`stores` resource statements, summed), if given. When
    /// absent, consumers derive traffic from the access-pattern models.
    pub traffic_bytes: Option<f64>,
    /// Explicit execution-time override in seconds, if given.
    pub time_s: Option<f64>,
    /// Invocation count (`iters` field, default 1): the kernel's accesses
    /// and flops all scale by it downstream.
    pub iters: u64,
    /// Accesses with their control-flow multiplicities, `call`s expanded
    /// inline.
    pub accesses: Vec<ScaledAccess>,
    /// Access order, if declared.
    pub order: Option<Vec<OrderStepSpec>>,
    /// Whether this kernel is an entry point (not `call`ed by any other
    /// kernel). Consumers evaluate root kernels only; callees are already
    /// folded into their callers.
    pub is_root: bool,
}

/// A fully resolved application model. Resolution binds every name a
/// kernel uses to a declaration position: accesses and order steps name
/// their structures by position in `datas`, so nothing downstream looks
/// a structure up by name.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Data structures in declaration order.
    pub datas: Vec<DataSpec>,
    /// Kernels in declaration order.
    pub kernels: Vec<KernelSpec>,
}

impl AppSpec {
    /// Total working-set size in bytes.
    pub fn working_set_bytes(&self) -> u64 {
        self.datas.iter().map(|d| d.size_bytes).sum()
    }
}

/// Most accesses one model's kernels may hold once `call`s are expanded,
/// summed over its kernels. A call copies its callee's expanded accesses
/// into the caller, so a chain of kernels that each call the previous one
/// twice doubles with every link: uncapped, a 20-link chain of 825 bytes
/// took 2 s to resolve. The repro models use no `call` and hold at most
/// five accesses.
pub const MAX_EXPANDED_ACCESSES: usize = 1 << 12;

/// Longest chain of nested `call`s a model may hold. Expansion recurses
/// once per level, so an unbounded chain of a few thousand kernels
/// overflowed the resolving thread's stack and aborted the process.
pub const MAX_CALL_DEPTH: usize = 64;

/// Resolve a model definition against a base environment. The model's
/// own params are bound for the duration of the call only.
pub fn resolve_model_def<'a>(def: &'a ModelDef, env: &mut Env<'a>) -> Result<AppSpec, Diagnostic> {
    env.scoped(&def.params, |env| app_spec(def, env))
}

fn app_spec(def: &ModelDef, env: &Env) -> Result<AppSpec, Diagnostic> {
    let mut datas = Vec::with_capacity(def.datas.len());
    for d in &def.datas {
        datas.push(resolve_data(d, env)?);
    }
    // Duplicate check.
    for (i, d) in datas.iter().enumerate() {
        if datas[..i].iter().any(|e| e.name == d.name) {
            return Err(Diagnostic::new(
                format!("duplicate data structure `{}`", d.name),
                def.name.span,
            ));
        }
    }

    // First pass: each kernel's own resources, body accesses with local
    // `iterate` multiplicities, and its direct call sites by callee
    // position. A kernel named by any `call` is not a root.
    struct Partial<'a> {
        name: &'a str,
        flops: f64,
        traffic_bytes: Option<f64>,
        time_s: Option<f64>,
        iters: u64,
        accesses: Vec<ScaledAccess>,
        calls: Vec<(usize, u64, Span)>,
        order: Option<Vec<OrderStepSpec>>,
    }
    let mut partials: Vec<Partial> = Vec::with_capacity(def.kernels.len());
    let mut is_root = vec![true; def.kernels.len()];
    for k in &def.kernels {
        let mut flops = 0.0;
        let mut time_s = None;
        let mut iters = 1u64;
        let mut loads = None;
        let mut stores = None;
        for f in &k.fields {
            match f.name.node.as_str() {
                "flops" => flops = eval(&f.value, env)?,
                "time" => time_s = Some(eval(&f.value, env)?),
                "iters" => iters = eval_u64(&f.value, env)?,
                "loads" => loads = Some(eval(&f.value, env)?),
                "stores" => stores = Some(eval(&f.value, env)?),
                other => {
                    return Err(Diagnostic::new(
                        format!(
                            "unknown kernel field `{other}` (expected `flops`, `time`, \
                             `iters`, `loads` or `stores`)"
                        ),
                        f.name.span,
                    ))
                }
            }
        }
        let traffic_bytes = match (loads, stores) {
            (None, None) => None,
            (l, s) => Some(l.unwrap_or(0.0) + s.unwrap_or(0.0)),
        };

        let mut body = Body {
            datas: &datas,
            kernels: &def.kernels,
            env,
            accesses: Vec::new(),
            calls: Vec::new(),
            is_root: &mut is_root,
        };
        body.walk(&k.body, 1)?;
        let (accesses, calls) = (body.accesses, body.calls);

        let order = match &k.order {
            None => None,
            Some(steps) => Some(resolve_order(steps, &datas)?),
        };

        partials.push(Partial {
            name: &k.name.node,
            flops,
            traffic_bytes,
            time_s,
            iters,
            accesses,
            calls,
            order,
        });
    }

    // Second pass: expand calls transitively (flops and accesses), with
    // cycle detection. Each kernel expands once, into `done[idx]`: its
    // flops and its own accesses, then each callee's expansion scaled by
    // the call site, in call order, and its call depth. A copy of a
    // callee's expansion counts against `MAX_EXPANDED_ACCESSES` before it
    // is made; a chain is checked against `MAX_CALL_DEPTH` both before
    // recursing (bounding the stack) and after (so the limit does not
    // depend on declaration order).
    fn expand(
        idx: usize,
        partials: &mut [Partial],
        stack: &mut Vec<usize>,
        done: &mut [Option<(f64, Vec<ScaledAccess>, usize)>],
        total: &mut usize,
    ) -> Result<(), Diagnostic> {
        if done[idx].is_some() {
            return Ok(());
        }
        if stack.contains(&idx) {
            return Err(Diagnostic::new(
                format!("kernel call cycle through `{}`", partials[idx].name),
                Span::default(),
            ));
        }
        stack.push(idx);
        let mut flops = partials[idx].flops;
        // A kernel expands once, so its own accesses and calls move out.
        let mut accesses = std::mem::take(&mut partials[idx].accesses);
        *total += accesses.len();
        let mut depth = 0;
        let too_deep = |span| {
            Diagnostic::new(
                format!("kernel calls nest more than {MAX_CALL_DEPTH} deep"),
                span,
            )
        };
        for (cidx, times, span) in std::mem::take(&mut partials[idx].calls) {
            if stack.len() > MAX_CALL_DEPTH {
                return Err(too_deep(span));
            }
            expand(cidx, partials, stack, done, total)?;
            let (cflops, caccs, cdepth) = done[cidx].as_ref().expect("just expanded");
            depth = depth.max(cdepth + 1);
            if depth > MAX_CALL_DEPTH {
                return Err(too_deep(span));
            }
            // The callee's own `iters` multiplies everything it does.
            let mult = times
                .checked_mul(partials[cidx].iters)
                .ok_or_else(|| Diagnostic::new("call multiplicity overflow", span))?;
            flops += cflops * mult as f64;
            *total += caccs.len();
            if *total > MAX_EXPANDED_ACCESSES {
                return Err(Diagnostic::new(
                    format!(
                        "kernel calls expand to more than {MAX_EXPANDED_ACCESSES} \
                         accesses in one model"
                    ),
                    span,
                ));
            }
            for sa in caccs {
                let t = sa
                    .times
                    .checked_mul(mult)
                    .ok_or_else(|| Diagnostic::new("call multiplicity overflow", span))?;
                accesses.push(ScaledAccess {
                    access: sa.access.clone(),
                    times: t,
                });
            }
        }
        stack.pop();
        done[idx] = Some((flops, accesses, depth));
        Ok(())
    }

    let mut done = vec![None; partials.len()];
    let (mut stack, mut total) = (Vec::new(), 0);
    for i in 0..partials.len() {
        expand(i, &mut partials, &mut stack, &mut done, &mut total)?;
    }
    let mut kernels = Vec::with_capacity(def.kernels.len());
    for (i, (k, expanded)) in def.kernels.iter().zip(done).enumerate() {
        let (flops, accesses, _) = expanded.expect("every kernel expanded");
        let p = &mut partials[i];
        kernels.push(KernelSpec {
            name: k.name.node.clone(),
            flops,
            traffic_bytes: p.traffic_bytes,
            time_s: p.time_s,
            iters: p.iters,
            accesses,
            order: p.order.take(),
            is_root: is_root[i],
        });
    }

    Ok(AppSpec {
        name: def.name.node.clone(),
        datas,
        kernels,
    })
}

/// One kernel body being walked: accesses at their `iterate`
/// multiplicities, call sites by callee position, and which kernels are
/// called at all.
struct Body<'a, 'e> {
    datas: &'a [DataSpec],
    kernels: &'a [KernelDef],
    env: &'a Env<'e>,
    accesses: Vec<ScaledAccess>,
    calls: Vec<(usize, u64, Span)>,
    is_root: &'a mut [bool],
}

impl Body<'_, '_> {
    /// Walk `stmts` at multiplicity `mult`. A zero-trip body (`mult` 0)
    /// leaves its accesses and inner trip counts unresolved and expands
    /// none of its calls, but each call still names a known kernel, which
    /// is then no root.
    fn walk(&mut self, stmts: &[KernelStmt], mult: u64) -> Result<(), Diagnostic> {
        for s in stmts {
            match s {
                KernelStmt::Access(a) if mult > 0 => {
                    self.accesses.push(ScaledAccess {
                        access: resolve_access(a, self.datas, self.env)?,
                        times: mult,
                    });
                }
                KernelStmt::Access(_) => {}
                KernelStmt::Call { name } => {
                    let callee = self
                        .kernels
                        .iter()
                        .position(|k| k.name.node == name.node)
                        .ok_or_else(|| {
                            Diagnostic::new(
                                format!("call to unknown kernel `{}`", name.node),
                                name.span,
                            )
                        })?;
                    self.is_root[callee] = false;
                    if mult > 0 {
                        self.calls.push((callee, mult, name.span));
                    }
                }
                KernelStmt::Iterate { count, body } => {
                    let inner = if mult == 0 {
                        0
                    } else {
                        mult.checked_mul(eval_u64(count, self.env)?)
                            .ok_or_else(|| {
                                Diagnostic::new("iterate multiplicity overflow", count.span)
                            })?
                    };
                    self.walk(body, inner)?;
                }
            }
        }
        Ok(())
    }
}

fn resolve_data(d: &DataDef, env: &Env) -> Result<DataSpec, Diagnostic> {
    let mut size = None;
    let mut element = None;
    let mut dims = None;
    for f in &d.fields {
        match f.name.node.as_str() {
            "size" => size = Some(eval_u64(&f.value, env)?),
            "element" => element = Some(eval_u64(&f.value, env)?),
            "dims" => {
                let items = expect_tuple(&f.value)?;
                let mut extents = Vec::with_capacity(items.len());
                for item in items {
                    extents.push(eval_u64(item, env)?);
                }
                if extents.contains(&0) {
                    return Err(Diagnostic::new(
                        "dims extents must be nonzero",
                        f.value.span,
                    ));
                }
                dims = Some(extents);
            }
            other => {
                return Err(Diagnostic::new(
                    format!("unknown data field `{other}` (expected `size`, `element` or `dims`)"),
                    f.name.span,
                ))
            }
        }
    }
    let size_bytes = size.ok_or_else(|| {
        Diagnostic::new(
            format!("data `{}` is missing `size`", d.name.node),
            d.name.span,
        )
    })?;
    let element_bytes = element.ok_or_else(|| {
        Diagnostic::new(
            format!("data `{}` is missing `element`", d.name.node),
            d.name.span,
        )
    })?;
    if element_bytes == 0 || size_bytes == 0 {
        return Err(Diagnostic::new(
            format!("data `{}` must have nonzero size and element", d.name.node),
            d.name.span,
        ));
    }
    if let Some(extents) = &dims {
        let product = extents.iter().try_fold(1u64, |p, &e| p.checked_mul(e));
        let elements = size_bytes / element_bytes;
        // The array may be padded beyond the logical index space (halo
        // layers, 1-based index formulas), but never smaller than it.
        if !matches!(product, Some(p) if p <= elements) {
            let product = product.map_or_else(|| "over 2^64".to_owned(), |p| p.to_string());
            return Err(Diagnostic::new(
                format!(
                    "data `{}`: dims product {product} exceeds element count {elements}",
                    d.name.node
                ),
                d.name.span,
            ));
        }
    }
    Ok(DataSpec {
        name: d.name.node.clone(),
        size_bytes,
        element_bytes,
        dims,
    })
}

fn expect_tuple(value: &Spanned<Expr>) -> Result<&[Spanned<Expr>], Diagnostic> {
    match &value.node {
        Expr::Tuple(items) => Ok(items),
        _ => Err(Diagnostic::new(
            "expected a parenthesized tuple `(a, b, …)`",
            value.span,
        )),
    }
}

/// A tuple, or a single expression treated as a one-element lane list
/// (`starts = (0)` parses as a parenthesized scalar).
fn tuple_or_single(value: &Spanned<Expr>) -> &[Spanned<Expr>] {
    match &value.node {
        Expr::Tuple(items) => items,
        _ => std::slice::from_ref(value),
    }
}

/// Evaluate a template element reference: either a scalar expression or an
/// index call `Name(i, j, …)` into a data structure with declared `dims`.
fn eval_element_ref(expr: &Spanned<Expr>, data: &DataSpec, env: &Env) -> Result<u64, Diagnostic> {
    if let Expr::Call { name, args } = &expr.node {
        if name == &data.name {
            let dims = data.dims.as_ref().ok_or_else(|| {
                Diagnostic::new(
                    format!(
                        "index call `{name}(…)` requires `dims` on data `{}`",
                        data.name
                    ),
                    expr.span,
                )
            })?;
            if args.len() != dims.len() {
                return Err(Diagnostic::new(
                    format!(
                        "index call has {} indices but `{}` has {} dims",
                        args.len(),
                        data.name,
                        dims.len()
                    ),
                    expr.span,
                ));
            }
            // Row-major flatten: idx = ((i0 * e1) + i1) * e2 + i2 …
            // Matches the paper's R(i,j,k) = i*n2*n1 + j*n1 + k with
            // dims = (n3, n2, n1).
            let mut idx: i64 = 0;
            for (arg, &extent) in args.iter().zip(dims) {
                let v = eval(arg, env)?;
                let vi = v.round() as i64;
                if (v - vi as f64).abs() > 1e-6 {
                    return Err(Diagnostic::new(
                        format!("index must be an integer, got {v}"),
                        arg.span,
                    ));
                }
                idx = idx
                    .checked_mul(extent as i64)
                    .and_then(|i| i.checked_add(vi))
                    .ok_or_else(|| {
                        Diagnostic::new("index call overflows 64-bit elements", expr.span)
                    })?;
            }
            if idx < 0 {
                return Err(Diagnostic::new(
                    format!("index call flattens to negative element {idx}"),
                    expr.span,
                ));
            }
            return Ok(idx as u64);
        }
    }
    eval_u64(expr, env)
}

fn resolve_access(a: &AccessDef, datas: &[DataSpec], env: &Env) -> Result<AccessSpec, Diagnostic> {
    let pos = datas
        .iter()
        .position(|d| d.name == a.data.node)
        .ok_or_else(|| {
            Diagnostic::new(
                format!("access names unknown data structure `{}`", a.data.node),
                a.data.span,
            )
        })?;
    let data = &datas[pos];

    let args = &a.args;
    let scalar = |name: &str| -> Result<Option<f64>, Diagnostic> {
        match find_field(args, name) {
            Some(f) => Ok(Some(eval(&f.value, env)?)),
            None => Ok(None),
        }
    };
    let integer = |name: &str| -> Result<Option<u64>, Diagnostic> {
        match find_field(args, name) {
            Some(f) => Ok(Some(eval_u64(&f.value, env)?)),
            None => Ok(None),
        }
    };
    let require_integer = |name: &str| -> Result<u64, Diagnostic> {
        integer(name)?.ok_or_else(|| {
            Diagnostic::new(
                format!("pattern `{}` requires argument `{name}`", a.pattern.node),
                a.pattern.span,
            )
        })
    };
    let check_known = |allowed: &[&str]| -> Result<(), Diagnostic> {
        for f in args {
            if !allowed.contains(&f.name.node.as_str()) {
                return Err(Diagnostic::new(
                    format!(
                        "unknown argument `{}` for pattern `{}` (expected one of {})",
                        f.name.node,
                        a.pattern.node,
                        allowed.join(", ")
                    ),
                    f.name.span,
                ));
            }
        }
        Ok(())
    };

    let pattern = match a.pattern.node.as_str() {
        "streaming" | "s" => {
            check_known(&["element", "count", "stride"])?;
            let element_bytes = integer("element")?.unwrap_or(data.element_bytes);
            let count = integer("count")?.unwrap_or(data.size_bytes / element_bytes.max(1));
            let stride_elements = integer("stride")?.unwrap_or(1);
            if stride_elements == 0 {
                return Err(Diagnostic::new("stride must be nonzero", a.pattern.span));
            }
            PatternSpec::Streaming {
                element_bytes,
                count,
                stride_elements,
            }
        }
        "random" | "r" => {
            check_known(&["elements", "element", "k", "iters", "ratio"])?;
            let element_bytes = integer("element")?.unwrap_or(data.element_bytes);
            let elements = integer("elements")?.unwrap_or(data.size_bytes / element_bytes.max(1));
            let k = require_integer("k")?;
            let iters = require_integer("iters")?;
            let ratio = scalar("ratio")?.unwrap_or(1.0);
            if !(ratio > 0.0 && ratio <= 1.0) {
                return Err(Diagnostic::new(
                    format!("ratio must be in (0, 1], got {ratio}"),
                    a.pattern.span,
                ));
            }
            if k > elements {
                return Err(Diagnostic::new(
                    format!("k = {k} exceeds the element count {elements}"),
                    a.pattern.span,
                ));
            }
            PatternSpec::Random {
                elements,
                element_bytes,
                k,
                iters,
                ratio,
            }
        }
        "template" | "t" => {
            check_known(&["element", "refs", "starts", "step", "ends", "repeat"])?;
            let element_bytes = integer("element")?.unwrap_or(data.element_bytes);
            let repeat = integer("repeat")?.unwrap_or(1);
            let refs = resolve_template_refs(a, data, env)?;
            let num_elements = data.size_bytes / element_bytes.max(1);
            if let Some(bad) = refs.first_at_or_above(num_elements) {
                return Err(Diagnostic::new(
                    format!(
                        "template references element {bad}, but `{}` has only {num_elements} \
                         elements of {element_bytes} bytes",
                        data.name
                    ),
                    a.pattern.span,
                ));
            }
            PatternSpec::Template {
                element_bytes,
                refs,
                repeat,
            }
        }
        "reuse" | "d" => {
            check_known(&["interfering", "reuses", "scenario"])?;
            // Default interference: every *other* declared structure.
            let interfering_bytes = match integer("interfering")? {
                Some(v) => v,
                None => datas
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pos)
                    .map(|(_, d)| d.size_bytes)
                    .sum(),
            };
            let reuses = require_integer("reuses")?;
            let scenario = match find_field(args, "scenario") {
                None => ReuseScenario::Exclusive,
                Some(f) => match &f.value.node {
                    Expr::Ident(s) if s == "exclusive" => ReuseScenario::Exclusive,
                    Expr::Ident(s) if s == "concurrent" => ReuseScenario::Concurrent,
                    _ => {
                        return Err(Diagnostic::new(
                            "scenario must be `exclusive` or `concurrent`",
                            f.value.span,
                        ))
                    }
                },
            };
            PatternSpec::Reuse {
                interfering_bytes,
                reuses,
                scenario,
            }
        }
        other => {
            return Err(Diagnostic::new(
                format!(
                    "unknown access pattern `{other}` (expected `streaming`/`s`, `random`/`r`, \
                     `template`/`t` or `reuse`/`d`)"
                ),
                a.pattern.span,
            ))
        }
    };

    Ok(AccessSpec { data: pos, pattern })
}

/// Resolve template arguments into the element-reference sequence: either
/// an explicit `refs = (…)` list, or the paper's Matlab-style range
/// `starts : step : ends` (Fig. 2 / MG example), where each start element
/// advances by `step` until its corresponding end element is reached. A
/// range is checked from its lane values and stays symbolic.
fn resolve_template_refs(
    a: &AccessDef,
    data: &DataSpec,
    env: &Env,
) -> Result<TemplateRefs, Diagnostic> {
    let args = &a.args;
    if let Some(f) = find_field(args, "refs") {
        let items = tuple_or_single(&f.value);
        let mut refs = Vec::with_capacity(items.len());
        for item in items {
            refs.push(eval_element_ref(item, data, env)?);
        }
        if refs.is_empty() {
            return Err(Diagnostic::new("template `refs` is empty", f.value.span));
        }
        if find_field(args, "starts").is_some() || find_field(args, "ends").is_some() {
            return Err(Diagnostic::new(
                "give either `refs` or `starts`/`ends`, not both",
                f.name.span,
            ));
        }
        return Ok(TemplateRefs::Explicit(refs));
    }

    let starts_f = find_field(args, "starts").ok_or_else(|| {
        Diagnostic::new(
            "template requires either `refs = (…)` or `starts`/`step`/`ends`",
            a.pattern.span,
        )
    })?;
    let ends_f = find_field(args, "ends").ok_or_else(|| {
        Diagnostic::new(
            "template with `starts` also requires `ends`",
            a.pattern.span,
        )
    })?;
    let step = match find_field(args, "step") {
        Some(f) => {
            let s = eval_u64(&f.value, env)?;
            if s == 0 {
                return Err(Diagnostic::new(
                    "template step must be nonzero",
                    f.value.span,
                ));
            }
            s
        }
        None => 1,
    };

    let start_items = tuple_or_single(&starts_f.value);
    let end_items = tuple_or_single(&ends_f.value);
    if start_items.len() != end_items.len() {
        return Err(Diagnostic::new(
            format!(
                "`starts` has {} lanes but `ends` has {}",
                start_items.len(),
                end_items.len()
            ),
            ends_f.value.span,
        ));
    }
    let mut starts = Vec::with_capacity(start_items.len());
    let mut iterations: Option<u64> = None;
    for (s_expr, e_expr) in start_items.iter().zip(end_items) {
        let s = eval_element_ref(s_expr, data, env)?;
        let e = eval_element_ref(e_expr, data, env)?;
        if e < s {
            return Err(Diagnostic::new(
                format!("template lane runs backwards: start {s} > end {e}"),
                e_expr.span,
            ));
        }
        let iters = (e - s) / step;
        match iterations {
            None => iterations = Some(iters),
            Some(prev) if prev != iters => {
                return Err(Diagnostic::new(
                    format!(
                        "template lanes advance unevenly: {prev} vs {iters} steps \
                         (all lanes must cover the same number of steps)"
                    ),
                    e_expr.span,
                ))
            }
            Some(_) => {}
        }
        starts.push(s);
    }
    let iterations = iterations.unwrap_or(0);

    let span_guard: Span = a.pattern.span;
    iterations
        .checked_add(1)
        .and_then(|steps| steps.checked_mul(starts.len() as u64))
        .filter(|&t| t <= 100_000_000)
        .ok_or_else(|| Diagnostic::new("template expansion exceeds 10^8 references", span_guard))?;
    Ok(TemplateRefs::Lanes(LaneTemplate {
        starts,
        step,
        steps: iterations,
    }))
}

fn resolve_order(
    steps: &[OrderStep],
    datas: &[DataSpec],
) -> Result<Vec<OrderStepSpec>, Diagnostic> {
    let check = |name: &Spanned<String>| -> Result<usize, Diagnostic> {
        datas
            .iter()
            .position(|d| d.name == name.node)
            .ok_or_else(|| {
                Diagnostic::new(
                    format!("order references unknown data structure `{}`", name.node),
                    name.span,
                )
            })
    };
    steps
        .iter()
        .map(|s| match s {
            OrderStep::Single(n) => Ok(OrderStepSpec::Single(check(n)?)),
            OrderStep::Group(g) => Ok(OrderStepSpec::Group(
                g.iter().map(&check).collect::<Result<_, _>>()?,
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn resolve(src: &str) -> Result<AppSpec, Diagnostic> {
        crate::Resolver::new(&parse(src)?).model(None)
    }

    #[test]
    fn resolves_vm_model() {
        let app = resolve(
            r#"
            model vm {
              param n = 200
              data A { size = n * 8  element = 8 }
              data B { size = n * 8  element = 8 }
              kernel main {
                flops = 2 * n
                access A as streaming(stride = 4)
                access B as streaming()
              }
            }
            "#,
        )
        .unwrap();
        assert_eq!(app.name, "vm");
        assert_eq!(app.working_set_bytes(), 2 * 200 * 8);
        let k = &app.kernels[0];
        assert_eq!(k.flops, 400.0);
        match &k.accesses[0].access.pattern {
            PatternSpec::Streaming {
                element_bytes,
                count,
                stride_elements,
            } => {
                assert_eq!(*element_bytes, 8);
                assert_eq!(*count, 200);
                assert_eq!(*stride_elements, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults fill in: B streams contiguously.
        assert!(matches!(
            &k.accesses[1].access.pattern,
            PatternSpec::Streaming {
                stride_elements: 1,
                ..
            }
        ));
    }

    #[test]
    fn resolves_random_pattern_paper_tuple() {
        let app = resolve(
            r#"
            model nb {
              data T { size = 1000 * 32  element = 32 }
              kernel force {
                access T as random(k = 200, iters = 1000, ratio = 1.0)
              }
            }
            "#,
        )
        .unwrap();
        match &app.kernels[0].accesses[0].access.pattern {
            PatternSpec::Random {
                elements,
                element_bytes,
                k,
                iters,
                ratio,
            } => {
                assert_eq!(
                    (*elements, *element_bytes, *k, *iters),
                    (1000, 32, 200, 1000)
                );
                assert_eq!(*ratio, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn template_range_expansion_matches_paper_mg() {
        // 4 lanes advancing by 1. Use small dims for the test.
        let app = resolve(
            r#"
            model mg {
              param n1 = 4  param n2 = 4  param n3 = 4
              data R { size = n1*n2*n3*16  element = 16  dims = (n3, n2, n1) }
              kernel smooth {
                access R as template(
                  starts = (R(2,1,1), R(2,3,1), R(1,2,1), R(2,2,1)),
                  step = 1,
                  ends = (R(2,1,3), R(2,3,3), R(1,2,3), R(2,2,3))
                )
              }
            }
            "#,
        )
        .unwrap();
        match &app.kernels[0].accesses[0].access.pattern {
            PatternSpec::Template { refs, repeat, .. } => {
                let refs: Vec<u64> = refs.iter().collect();
                // 3 iterations (k from 1 to 3) x 4 lanes.
                assert_eq!(refs.len(), 3 * 4);
                assert_eq!(*repeat, 1);
                // First tuple: R(2,1,1) = 2*16 + 1*4 + 1 = 37 with dims (4,4,4).
                assert_eq!(refs[0], 37);
                // Second iteration advances every lane by 1.
                assert_eq!(refs[4], 38);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn template_explicit_refs() {
        let app = resolve(
            r#"
            model ft {
              data X { size = 64 * 8  element = 8 }
              kernel fft {
                access X as template(refs = (0, 4, 2, 6, 1, 5, 3, 7), repeat = 3)
              }
            }
            "#,
        )
        .unwrap();
        match &app.kernels[0].accesses[0].access.pattern {
            PatternSpec::Template { refs, repeat, .. } => {
                assert_eq!(refs, &TemplateRefs::Explicit(vec![0, 4, 2, 6, 1, 5, 3, 7]));
                assert_eq!(*repeat, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn template_out_of_bounds_rejected() {
        let err = resolve(
            r#"
            model m {
              data X { size = 8 * 8  element = 8 }
              kernel k { access X as template(refs = (0, 9)) }
            }
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("only 8 elements"), "{}", err.message);
    }

    /// Every lane-template diagnostic, word for word, on a 10-element
    /// structure. The out-of-bounds one names the first bad element in
    /// reference order: with `starts = (3, 2)` and step 4, step 2 takes
    /// lane 0 to 11 before lane 1 reaches 10.
    #[test]
    fn lane_template_diagnostics_are_exact() {
        let cases = [
            (
                "starts = (3, 2), step = 4, ends = (15, 14)",
                "template references element 11, but `X` has only 10 elements of 8 bytes",
            ),
            (
                "starts = (1, 5), step = 3, ends = (13, 17)",
                "template references element 11, but `X` has only 10 elements of 8 bytes",
            ),
            (
                "starts = (0, 1), step = 1, ends = (49999999, 50000000)",
                "template references element 10, but `X` has only 10 elements of 8 bytes",
            ),
            (
                "starts = (0), step = 1, ends = (100000000)",
                "template expansion exceeds 10^8 references",
            ),
            (
                "starts = (0, 1), step = 2, ends = (4, 7)",
                "template lanes advance unevenly: 2 vs 3 steps \
                 (all lanes must cover the same number of steps)",
            ),
            (
                "starts = (4), step = 1, ends = (2)",
                "template lane runs backwards: start 4 > end 2",
            ),
        ];
        for (args, message) in cases {
            let err = resolve(&format!(
                "model m {{\n  data X {{ size = 10 * 8  element = 8 }}\n  \
                 kernel k {{ access X as template({args}) }}\n}}"
            ))
            .unwrap_err();
            assert_eq!(err.message, message, "{args}");
        }
    }

    #[test]
    fn template_uneven_lanes_rejected() {
        let err = resolve(
            r#"
            model m {
              data X { size = 100 * 8  element = 8 }
              kernel k {
                access X as template(starts = (0, 10), step = 1, ends = (5, 20))
              }
            }
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("unevenly"));
    }

    #[test]
    fn reuse_defaults_interference_to_other_structures() {
        let app = resolve(
            r#"
            model cg {
              data A { size = 1000  element = 8 }
              data p { size = 100  element = 8 }
              data r { size = 100  element = 8 }
              kernel iter {
                access p as reuse(reuses = 50)
              }
            }
            "#,
        )
        .unwrap();
        match &app.kernels[0].accesses[0].access.pattern {
            PatternSpec::Reuse {
                interfering_bytes,
                reuses,
                scenario,
            } => {
                assert_eq!(*interfering_bytes, 1100);
                assert_eq!(*reuses, 50);
                assert_eq!(*scenario, ReuseScenario::Exclusive);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reuse_concurrent_scenario() {
        let app = resolve(
            r#"
            model m {
              data p { size = 100  element = 8 }
              kernel k { access p as reuse(interfering = 4096, reuses = 2, scenario = concurrent) }
            }
            "#,
        )
        .unwrap();
        assert!(matches!(
            &app.kernels[0].accesses[0].access.pattern,
            PatternSpec::Reuse {
                scenario: ReuseScenario::Concurrent,
                ..
            }
        ));
    }

    #[test]
    fn order_resolves_and_validates() {
        let app = resolve(
            r#"
            model cg {
              data A { size = 100 element = 4 }
              data p { size = 100 element = 4 }
              kernel k {
                access A as streaming()
                order { p (A p) p }
              }
            }
            "#,
        )
        .unwrap();
        // Steps name structures by declaration position: A is 0, p is 1.
        assert_eq!(
            app.kernels[0].order.as_deref().unwrap(),
            [
                OrderStepSpec::Single(1),
                OrderStepSpec::Group(vec![0, 1]),
                OrderStepSpec::Single(1)
            ]
        );
        assert_eq!(app.kernels[0].accesses[0].access.data, 0);

        let err = resolve(
            r#"
            model m {
              data A { size = 100 element = 4 }
              kernel k { order { zz } }
            }
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("unknown data structure `zz`"));
    }

    #[test]
    fn unknown_data_in_access_rejected() {
        let err = resolve(
            "model m { data A { size = 8 element = 8 } kernel k { access Q as streaming() } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown data structure `Q`"));
    }

    #[test]
    fn unknown_pattern_rejected() {
        let err = resolve(
            "model m { data A { size = 8 element = 8 } kernel k { access A as zigzag() } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown access pattern"));
    }

    #[test]
    fn unknown_argument_rejected() {
        let err = resolve(
            "model m { data A { size = 8 element = 8 } kernel k { access A as streaming(colour = 1) } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown argument `colour`"));
    }

    #[test]
    fn dims_product_must_match_elements() {
        let err =
            resolve("model m { data A { size = 64 element = 8 dims = (2, 5) } }").unwrap_err();
        assert!(err.message.contains("dims product"));
    }

    #[test]
    fn duplicate_data_rejected() {
        let err =
            resolve("model m { data A { size = 8 element = 8 } data A { size = 8 element = 8 } }")
                .unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn pattern_codes() {
        let s = PatternSpec::Streaming {
            element_bytes: 8,
            count: 1,
            stride_elements: 1,
        };
        assert_eq!(s.code(), 's');
    }

    #[test]
    fn iterate_multiplies_accesses() {
        let app = resolve(
            r#"
            model m {
              param n = 10
              data A { size = 800 element = 8 }
              kernel k {
                iterate n {
                  access A as streaming()
                  iterate 3 { access A as streaming(stride = 2) }
                }
              }
            }
            "#,
        )
        .unwrap();
        let k = &app.kernels[0];
        assert_eq!(k.accesses.len(), 2);
        assert_eq!(k.accesses[0].times, 10);
        assert_eq!(k.accesses[1].times, 30);
        assert!(k.is_root);
    }

    #[test]
    fn call_expands_callee_into_caller() {
        let app = resolve(
            r#"
            model m {
              data A { size = 800 element = 8 }
              kernel smooth {
                flops = 100
                access A as streaming()
              }
              kernel vcycle {
                flops = 5
                iterate 4 { call smooth }
              }
            }
            "#,
        )
        .unwrap();
        let smooth = app.kernels.iter().find(|k| k.name == "smooth").unwrap();
        let vcycle = app.kernels.iter().find(|k| k.name == "vcycle").unwrap();
        assert!(!smooth.is_root, "smooth is called, not an entry point");
        assert!(vcycle.is_root);
        // vcycle inherits smooth's access 4x and its flops.
        assert_eq!(vcycle.accesses.len(), 1);
        assert_eq!(vcycle.accesses[0].times, 4);
        assert_eq!(vcycle.flops, 5.0 + 4.0 * 100.0);
    }

    #[test]
    fn callee_iters_multiply_through_call() {
        let app = resolve(
            r#"
            model m {
              data A { size = 800 element = 8 }
              kernel inner { iters = 5  flops = 2  access A as streaming() }
              kernel outer { call inner }
            }
            "#,
        )
        .unwrap();
        let outer = app.kernels.iter().find(|k| k.name == "outer").unwrap();
        assert_eq!(outer.accesses[0].times, 5);
        assert_eq!(outer.flops, 10.0);
    }

    #[test]
    fn call_cycle_is_rejected() {
        let err = resolve(
            r#"
            model m {
              data A { size = 8 element = 8 }
              kernel a { call b }
              kernel b { call a }
            }
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("cycle"), "{}", err.message);
    }

    #[test]
    fn call_to_unknown_kernel_rejected() {
        let err = resolve("model m { data A { size = 8 element = 8 } kernel k { call ghost } }")
            .unwrap_err();
        assert!(err.message.contains("unknown kernel `ghost`"));
    }

    #[test]
    fn zero_trip_iterate_drops_body() {
        let app = resolve(
            r#"
            model m {
              data A { size = 800 element = 8 }
              kernel k { iterate 0 { access A as streaming() } }
            }
            "#,
        )
        .unwrap();
        assert!(app.kernels[0].accesses.is_empty());
    }

    #[test]
    fn zero_trip_call_still_makes_a_callee() {
        let app = resolve(
            r#"
            model m {
              param extra = 0
              data A { size = 8000 element = 8 }
              data B { size = 80000 element = 8 }
              kernel smooth { access B as streaming() }
              kernel main {
                access A as streaming()
                iterate extra { call smooth }
              }
            }
            "#,
        )
        .unwrap();
        let (smooth, main) = (&app.kernels[0], &app.kernels[1]);
        assert!(!smooth.is_root, "smooth is called, if zero times");
        assert!(main.is_root);
        // Only main's own access to A (position 0); none of smooth's.
        assert_eq!(main.accesses.len(), 1);
        assert_eq!(main.accesses[0].access.data, 0);
        // An unknown target is still an error, whatever the trip count.
        let err = resolve("model m { kernel k { iterate 0 { call ghost } } }").unwrap_err();
        assert!(
            err.message.contains("unknown kernel `ghost`"),
            "{}",
            err.message
        );
    }

    #[test]
    fn short_pattern_names_work() {
        let app = resolve(
            r#"
            model m {
              data A { size = 80 element = 8 }
              kernel k {
                access A as s(stride = 2)
              }
            }
            "#,
        )
        .unwrap();
        assert!(matches!(
            &app.kernels[0].accesses[0].access.pattern,
            PatternSpec::Streaming { .. }
        ));
    }

    #[test]
    fn kernel_iters_and_time() {
        let app = resolve(
            r#"
            model m {
              data A { size = 80 element = 8 }
              kernel k { iters = 25  time = 0.5  flops = 100 }
            }
            "#,
        )
        .unwrap();
        let k = &app.kernels[0];
        assert_eq!(k.iters, 25);
        assert_eq!(k.time_s, Some(0.5));
        assert_eq!(k.flops, 100.0);
        assert_eq!(k.traffic_bytes, None);
    }

    #[test]
    fn kernel_loads_and_stores_sum_into_traffic() {
        let app = resolve(
            r#"
            model m {
              param n = 100
              data A { size = 800 element = 8 }
              kernel k { loads = 16 * n  stores = 8 * n }
            }
            "#,
        )
        .unwrap();
        assert_eq!(app.kernels[0].traffic_bytes, Some(2400.0));

        let app = resolve(
            r#"
            model m {
              data A { size = 800 element = 8 }
              kernel k { loads = 640 }
            }
            "#,
        )
        .unwrap();
        assert_eq!(app.kernels[0].traffic_bytes, Some(640.0));
    }

    /// A chain of `links` kernels, each calling the previous one twice;
    /// the first holds `accesses` accesses.
    fn doubling_chain(links: usize, accesses: usize) -> String {
        let mut src = String::from("model m {\n  data A { size = 800 element = 8 }\n  kernel k0 {");
        for _ in 0..accesses {
            src.push_str(" access A as streaming()");
        }
        src.push_str(" }\n");
        for i in 1..links {
            src.push_str(&format!(
                "  kernel k{i} {{ call k{p} call k{p} }}\n",
                p = i - 1
            ));
        }
        src.push('}');
        src
    }

    #[test]
    fn call_expansion_is_capped_at_the_crossing_call() {
        // Expanded, this chain would hold 2^40 accesses.
        let src = doubling_chain(40, 1);
        let start = std::time::Instant::now();
        let err = resolve(&src).unwrap_err();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(
            err.message,
            format!(
                "kernel calls expand to more than {MAX_EXPANDED_ACCESSES} accesses in one model"
            )
        );
        // Kernels k0..=k11 hold 2^12 - 1 expanded accesses between them;
        // k12's first call would copy 2^11 more.
        let k12 = "kernel k12 { call ";
        assert_eq!(err.span.start, src.find(k12).unwrap() + k12.len());
        assert_eq!(err.span.text(&src), "k11");
        // Just under the cap still resolves, with every access expanded.
        let app = resolve(&doubling_chain(12, 1)).unwrap();
        assert_eq!(app.kernels[11].accesses.len(), 1 << 11);
        assert_eq!(app.kernels[11].accesses[0].times, 1);
    }

    #[test]
    fn call_depth_is_capped_in_either_declaration_order() {
        let chain = |links: usize, reversed: bool| {
            let mut kernels: Vec<String> = (1..links)
                .map(|i| format!("kernel k{i} {{ call k{} }}", i - 1))
                .collect();
            kernels.insert(0, "kernel k0 { flops = 1 }".to_owned());
            if reversed {
                kernels.reverse();
            }
            format!("model m {{\n{}\n}}", kernels.join("\n"))
        };
        let message = format!("kernel calls nest more than {MAX_CALL_DEPTH} deep");
        for reversed in [false, true] {
            // A chain as long as a model may declare: 20 000 links used
            // to overflow the stack when declared callers first.
            let err = resolve(&chain(crate::parser::MAX_KERNELS, reversed)).unwrap_err();
            assert_eq!(err.message, message, "reversed: {reversed}");
            let app = resolve(&chain(MAX_CALL_DEPTH + 1, reversed)).unwrap();
            assert!(app.kernels.iter().all(|k| k.flops == 1.0));
            let err = resolve(&chain(MAX_CALL_DEPTH + 2, reversed)).unwrap_err();
            assert_eq!(err.message, message, "reversed: {reversed}");
        }
    }

    #[test]
    fn call_expansion_without_accesses_is_linear() {
        // No accesses to copy, so no cap applies; each kernel's flops
        // still sum over the 2^59 calls its expansion implies.
        let src = doubling_chain(60, 0).replace("kernel k0 {", "kernel k0 { flops = 1");
        let app = resolve(&src).unwrap();
        assert_eq!(app.kernels[59].flops, 2f64.powi(59));
    }
}
