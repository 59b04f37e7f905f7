//! The paper's *compact* program syntax.
//!
//! The DVF paper presents its extended-Aspen inputs in a line-oriented
//! listing form (§III-D, Algorithms 1–4 sidebars):
//!
//! ```text
//! Data structure : {A}
//! Access Pattern : {s}
//! Parameters : {(8,200,4)}
//! ```
//!
//! with pattern codes `s`/`r`/`t`/`d`, optional `Template : {(starts) :
//! step : (ends)}` ranges, and — for composite kernels like CG — an
//! `Access order : {r(Ap)p(xp)(Ap)r(rp)}` aligned position-by-position
//! with a pattern string `{s(tt)s(ss)(tt)s(ss)}`.
//!
//! This module parses that form and lowers it to the block-structured AST
//! ([`ModelDef`]), so compact programs flow through the same resolution
//! and DVF workflow as full programs.

use crate::ast::{AccessDef, DataDef, Expr, Field, KernelDef, KernelStmt, ModelDef, OrderStep};
use crate::diag::Diagnostic;
use crate::parser::parse_expr;
use crate::span::{Span, Spanned};

/// Pattern code letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternCode {
    /// Streaming.
    S,
    /// Random.
    R,
    /// Template-based.
    T,
    /// Data reuse.
    D,
}

impl PatternCode {
    fn from_char(c: char, span: Span) -> Result<Self, Diagnostic> {
        match c {
            's' => Ok(PatternCode::S),
            'r' => Ok(PatternCode::R),
            't' => Ok(PatternCode::T),
            'd' => Ok(PatternCode::D),
            other => Err(Diagnostic::new(
                format!("unknown pattern code `{other}` (expected s, r, t or d)"),
                span,
            )),
        }
    }

    /// Full pattern name as used by the block syntax.
    pub fn name(self) -> &'static str {
        match self {
            PatternCode::S => "streaming",
            PatternCode::R => "random",
            PatternCode::T => "template",
            PatternCode::D => "reuse",
        }
    }
}

/// One item of a pattern or order string: a lone element or a
/// parenthesized concurrent group.
#[derive(Debug, Clone, PartialEq)]
pub enum Grouping<T> {
    /// Single element.
    Single(T),
    /// Concurrent group.
    Group(Vec<T>),
}

impl<T> Grouping<T> {
    fn len(&self) -> usize {
        match self {
            Grouping::Single(_) => 1,
            Grouping::Group(g) => g.len(),
        }
    }
}

/// A `Template : {(starts) : step : (ends)}` range.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactTemplate {
    /// Start element expressions (may contain index calls `R(i,j,k)`).
    pub starts: Vec<Spanned<Expr>>,
    /// Advance per iteration.
    pub step: Spanned<Expr>,
    /// End element expressions.
    pub ends: Vec<Spanned<Expr>>,
}

/// A parsed compact program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompactProgram {
    /// Declared data structures, in order.
    pub structures: Vec<String>,
    /// Pattern string items (aligned with `order` if present, else with
    /// `structures`).
    pub patterns: Vec<Grouping<PatternCode>>,
    /// Parameter tuples, aligned with `structures` (trailing `...` in the
    /// listing truncates the list).
    pub parameters: Vec<Vec<Spanned<Expr>>>,
    /// Template range, if any.
    pub template: Option<CompactTemplate>,
    /// Access order, if any.
    pub order: Option<Vec<Grouping<String>>>,
}

/// Parse a compact program.
pub fn parse_compact(source: &str) -> Result<CompactProgram, Diagnostic> {
    let mut program = CompactProgram::default();
    let mut seen_any = false;

    let mut rest = source;
    let mut offset = 0usize;
    while let Some(colon) = rest.find(':') {
        let key_raw = &rest[..colon];
        let key = normalize_key(key_raw);
        let after_colon = colon + 1;
        let brace_rel = rest[after_colon..].find('{').ok_or_else(|| {
            Diagnostic::new(
                "expected `{` after `:`",
                Span::new(offset + after_colon, offset + after_colon + 1),
            )
        })?;
        let open = after_colon + brace_rel;
        let close = matching_brace(rest, open).ok_or_else(|| {
            Diagnostic::new("unclosed `{`", Span::new(offset + open, offset + open + 1))
        })?;
        let value = &rest[open + 1..close];
        let value_span = Span::new(offset + open + 1, offset + close);

        match key.as_str() {
            "data structure" | "data structures" => {
                program.structures = value
                    .split(|c: char| c.is_whitespace() || c == ',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if program.structures.is_empty() {
                    return Err(Diagnostic::new("empty data structure list", value_span));
                }
            }
            "access pattern" | "access patterns" => {
                program.patterns = parse_pattern_string(value, value_span)?;
            }
            "parameters" | "parameter" => {
                program.parameters = parse_parameter_tuples(value, value_span)?;
            }
            "template" => {
                program.template = Some(parse_template(value, value_span)?);
            }
            "access order" | "order" => {
                program.order = Some(parse_order_string(value, value_span, &program.structures)?);
            }
            other => {
                return Err(Diagnostic::new(
                    format!(
                        "unknown compact key `{other}` (expected Data structure, Access \
                         Pattern, Parameters, Template or Access order)"
                    ),
                    Span::new(offset, offset + colon),
                ))
            }
        }
        seen_any = true;
        offset += close + 1;
        rest = &source[offset..];
    }

    if !seen_any {
        return Err(Diagnostic::new(
            "no compact program keys found",
            Span::new(0, source.len().min(1)),
        ));
    }
    if program.structures.is_empty() {
        return Err(Diagnostic::new(
            "compact program is missing `Data structure : {…}`",
            Span::new(0, source.len().min(1)),
        ));
    }
    if program.patterns.is_empty() {
        return Err(Diagnostic::new(
            "compact program is missing `Access Pattern : {…}`",
            Span::new(0, source.len().min(1)),
        ));
    }
    Ok(program)
}

/// Lowercase a key and collapse internal whitespace.
fn normalize_key(raw: &str) -> String {
    raw.split_whitespace()
        .map(str::to_lowercase)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Find the `}` matching the `{` at byte `open`.
fn matching_brace(s: &str, open: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse `s(tt)s(ss)` style pattern strings.
fn parse_pattern_string(value: &str, span: Span) -> Result<Vec<Grouping<PatternCode>>, Diagnostic> {
    let mut items = Vec::new();
    let mut group: Option<Vec<PatternCode>> = None;
    for c in value.chars() {
        match c {
            '(' => {
                if group.is_some() {
                    return Err(Diagnostic::new("nested group in pattern string", span));
                }
                group = Some(Vec::new());
            }
            ')' => match group.take() {
                Some(g) if !g.is_empty() => items.push(Grouping::Group(g)),
                _ => {
                    return Err(Diagnostic::new(
                        "empty or unmatched `)` in pattern string",
                        span,
                    ))
                }
            },
            c if c.is_whitespace() || c == ',' => {}
            c => {
                let code = PatternCode::from_char(c, span)?;
                match &mut group {
                    Some(g) => g.push(code),
                    None => items.push(Grouping::Single(code)),
                }
            }
        }
    }
    if group.is_some() {
        return Err(Diagnostic::new("unclosed `(` in pattern string", span));
    }
    Ok(items)
}

/// Parse `r(Ap)p(xp)` style order strings. Multi-character structure
/// names must be whitespace-separated; runs of letters are split by
/// longest-match against the declared structure names.
fn parse_order_string(
    value: &str,
    span: Span,
    structures: &[String],
) -> Result<Vec<Grouping<String>>, Diagnostic> {
    if structures.is_empty() {
        return Err(Diagnostic::new(
            "`Access order` must come after `Data structure`",
            span,
        ));
    }
    let split_names = |word: &str| -> Result<Vec<String>, Diagnostic> {
        let mut out = Vec::new();
        let mut rest = word;
        while !rest.is_empty() {
            let hit = structures
                .iter()
                .filter(|s| rest.starts_with(s.as_str()))
                .max_by_key(|s| s.len());
            match hit {
                Some(name) => {
                    out.push(name.clone());
                    rest = &rest[name.len()..];
                }
                None => {
                    return Err(Diagnostic::new(
                        format!("order string mentions unknown structure in `{word}`"),
                        span,
                    ))
                }
            }
        }
        Ok(out)
    };

    let mut items = Vec::new();
    let mut group: Option<Vec<String>> = None;
    let mut word = String::new();
    let mut chars = value.chars().peekable();
    while let Some(c) = chars.next() {
        let flush = |word: &mut String,
                     group: &mut Option<Vec<String>>,
                     items: &mut Vec<Grouping<String>>|
         -> Result<(), Diagnostic> {
            if word.is_empty() {
                return Ok(());
            }
            let names = split_names(word)?;
            word.clear();
            match group {
                Some(g) => g.extend(names),
                None => items.extend(names.into_iter().map(Grouping::Single)),
            }
            Ok(())
        };
        match c {
            '(' => {
                flush(&mut word, &mut group, &mut items)?;
                if group.is_some() {
                    return Err(Diagnostic::new("nested group in order string", span));
                }
                group = Some(Vec::new());
            }
            ')' => {
                flush(&mut word, &mut group, &mut items)?;
                match group.take() {
                    Some(g) if !g.is_empty() => items.push(Grouping::Group(g)),
                    _ => {
                        return Err(Diagnostic::new(
                            "empty or unmatched `)` in order string",
                            span,
                        ))
                    }
                }
            }
            c if c.is_whitespace() || c == ',' => flush(&mut word, &mut group, &mut items)?,
            c => word.push(c),
        }
        if chars.peek().is_none() {
            flush(&mut word, &mut group, &mut items)?;
        }
    }
    if group.is_some() {
        return Err(Diagnostic::new("unclosed `(` in order string", span));
    }
    Ok(items)
}

/// Parse `(8,200,4)(1000,32,200,1000,1.0)...` — top-level parenthesized
/// tuples; a trailing `...` marks omitted tuples.
fn parse_parameter_tuples(value: &str, span: Span) -> Result<Vec<Vec<Spanned<Expr>>>, Diagnostic> {
    let mut tuples = Vec::new();
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] as char {
            '(' => {
                let mut depth = 0;
                let start = i;
                let mut end = None;
                for (j, &b) in bytes.iter().enumerate().skip(i) {
                    match b {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(j);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let end = end.ok_or_else(|| Diagnostic::new("unclosed `(` in parameters", span))?;
                let tuple_src = &value[start..=end];
                let parsed = parse_expr(tuple_src).map_err(|e| {
                    Diagnostic::new(format!("bad parameter tuple: {}", e.message), span)
                })?;
                match parsed.node {
                    Expr::Tuple(items) => tuples.push(items),
                    single => tuples.push(vec![Spanned::new(single, parsed.span)]),
                }
                i = end + 1;
            }
            '.' | ',' => i += 1, // `...` and separators
            c if c.is_whitespace() => i += 1,
            c => {
                return Err(Diagnostic::new(
                    format!("unexpected `{c}` in parameters"),
                    span,
                ))
            }
        }
    }
    Ok(tuples)
}

/// Parse `(starts) : step : (ends)`.
fn parse_template(value: &str, span: Span) -> Result<CompactTemplate, Diagnostic> {
    // Split on top-level colons.
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut last = 0usize;
    for (i, c) in value.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ':' if depth == 0 => {
                parts.push(&value[last..i]);
                last = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&value[last..]);
    if parts.len() != 3 {
        return Err(Diagnostic::new(
            format!(
                "template must be `(starts) : step : (ends)`, found {} part(s)",
                parts.len()
            ),
            span,
        ));
    }
    let tuple_of = |src: &str| -> Result<Vec<Spanned<Expr>>, Diagnostic> {
        let parsed = parse_expr(src.trim())
            .map_err(|e| Diagnostic::new(format!("bad template tuple: {}", e.message), span))?;
        match parsed.node {
            Expr::Tuple(items) => Ok(items),
            single => Ok(vec![Spanned::new(single, parsed.span)]),
        }
    };
    let starts = tuple_of(parts[0])?;
    let step = parse_expr(parts[1].trim())
        .map_err(|e| Diagnostic::new(format!("bad template step: {}", e.message), span))?;
    let ends = tuple_of(parts[2])?;
    if starts.len() != ends.len() {
        return Err(Diagnostic::new(
            format!(
                "template has {} start lane(s) but {} end lane(s)",
                starts.len(),
                ends.len()
            ),
            span,
        ));
    }
    Ok(CompactTemplate { starts, step, ends })
}

// ---------------------------------------------------------------------
// Lowering to the block AST
// ---------------------------------------------------------------------

fn sp<T>(node: T) -> Spanned<T> {
    Spanned::new(node, Span::default())
}

fn field(name: &str, value: Expr) -> Field {
    Field {
        name: sp(name.to_owned()),
        value: sp(value),
    }
}

fn num(v: f64) -> Expr {
    Expr::Number(v)
}

impl CompactProgram {
    /// The `(structure, pattern)` assignments: from the order/pattern
    /// alignment in the composite form, or from the structure/pattern
    /// alignment in the simple form.
    pub fn assignments(&self) -> Result<Vec<(String, PatternCode)>, Diagnostic> {
        let mut out = Vec::new();
        match &self.order {
            Some(order) => {
                if order.len() != self.patterns.len()
                    || order
                        .iter()
                        .zip(&self.patterns)
                        .any(|(o, p)| o.len() != p.len())
                {
                    return Err(Diagnostic::new(
                        "access order and access pattern strings do not align",
                        Span::default(),
                    ));
                }
                for (o, p) in order.iter().zip(&self.patterns) {
                    match (o, p) {
                        (Grouping::Single(name), Grouping::Single(code)) => {
                            out.push((name.clone(), *code))
                        }
                        (Grouping::Group(names), Grouping::Group(codes)) => {
                            out.extend(names.iter().cloned().zip(codes.iter().copied()))
                        }
                        _ => {
                            return Err(Diagnostic::new(
                                "access order and access pattern grouping mismatch",
                                Span::default(),
                            ))
                        }
                    }
                }
            }
            None => {
                if self.patterns.len() != self.structures.len() {
                    return Err(Diagnostic::new(
                        format!(
                            "{} structures but {} pattern items",
                            self.structures.len(),
                            self.patterns.len()
                        ),
                        Span::default(),
                    ));
                }
                for (name, p) in self.structures.iter().zip(&self.patterns) {
                    match p {
                        Grouping::Single(code) => out.push((name.clone(), *code)),
                        Grouping::Group(_) => {
                            return Err(Diagnostic::new(
                                "pattern groups require an access order",
                                Span::default(),
                            ))
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Lower to a block-syntax model named `name`, resolvable by the
    /// ordinary [`crate::Resolver`].
    ///
    /// Conventions (matching the paper's listings):
    /// * `s` tuples are `(element, count, stride)`;
    /// * `r` tuples are `(N, element, k, iter, ratio)`;
    /// * `t` tuples are `(element)`, with the range taken from
    ///   `Template : {…}`; index calls `X(i,j,…)` of arity `k` imply
    ///   dims `(n_k, …, n_1)` — the parameters `n1…nk` must be bound at
    ///   resolution time;
    /// * `t` without a template falls back to a contiguous stream (the
    ///   paper omits large templates "due to the space limit");
    /// * `d` tuples are `(element, count, reuses)`.
    pub fn to_model(&self, name: &str) -> Result<ModelDef, Diagnostic> {
        let assignments = self.assignments()?;
        let mut datas: Vec<DataDef> = Vec::new();
        let mut accesses: Vec<AccessDef> = Vec::new();

        for (idx, structure) in self.structures.iter().enumerate() {
            let tuple = self.parameters.get(idx);
            // The structure's primary code: its first assignment.
            let code = assignments
                .iter()
                .find(|(n, _)| n == structure)
                .map(|(_, c)| *c)
                .ok_or_else(|| {
                    Diagnostic::new(
                        format!("structure `{structure}` never appears in the access pattern"),
                        Span::default(),
                    )
                })?;
            let (data, _) = self.lower_structure(structure, code, tuple)?;
            datas.push(data);
        }

        // Emit one access per assignment occurrence.
        for (structure, code) in &assignments {
            let idx = self
                .structures
                .iter()
                .position(|s| s == structure)
                .expect("assignment names validated");
            let tuple = self.parameters.get(idx);
            let (_, access) = self.lower_structure(structure, *code, tuple)?;
            accesses.push(access);
        }

        let order = self.order.as_ref().map(|steps| {
            steps
                .iter()
                .map(|s| match s {
                    Grouping::Single(n) => OrderStep::Single(sp(n.clone())),
                    Grouping::Group(g) => {
                        OrderStep::Group(g.iter().map(|n| sp(n.clone())).collect())
                    }
                })
                .collect::<Vec<_>>()
        });

        Ok(ModelDef {
            name: sp(name.to_owned()),
            params: Vec::new(),
            datas,
            kernels: vec![KernelDef {
                name: sp("main".to_owned()),
                fields: Vec::new(),
                body: accesses.into_iter().map(KernelStmt::Access).collect(),
                order,
            }],
        })
    }

    /// Lower one structure to its data declaration and one access.
    fn lower_structure(
        &self,
        name: &str,
        code: PatternCode,
        tuple: Option<&Vec<Spanned<Expr>>>,
    ) -> Result<(DataDef, AccessDef), Diagnostic> {
        let missing = |what: &str| {
            Diagnostic::new(
                format!("structure `{name}` ({}) needs {what}", code.name()),
                Span::default(),
            )
        };
        let expr_at = |t: &Vec<Spanned<Expr>>, i: usize, what: &str| {
            t.get(i)
                .map(|e| e.node.clone())
                .ok_or_else(|| missing(what))
        };

        let data_fields: Vec<Field>;
        let args: Vec<Field>;

        match code {
            PatternCode::S => {
                let t = tuple.ok_or_else(|| missing("a (element, count, stride) tuple"))?;
                let element = expr_at(t, 0, "an element size")?;
                let count = expr_at(t, 1, "an element count")?;
                let stride = t.get(2).map(|e| e.node.clone()).unwrap_or(num(1.0));
                data_fields = vec![
                    field(
                        "size",
                        Expr::Binary {
                            op: crate::ast::BinOp::Mul,
                            lhs: Box::new(sp(count.clone())),
                            rhs: Box::new(sp(element.clone())),
                        },
                    ),
                    field("element", element.clone()),
                ];
                args = vec![
                    field("element", element),
                    field("count", count),
                    field("stride", stride),
                ];
            }
            PatternCode::R => {
                let t = tuple.ok_or_else(|| missing("a (N, element, k, iter, ratio) tuple"))?;
                let n = expr_at(t, 0, "an element count N")?;
                let element = expr_at(t, 1, "an element size")?;
                let k = expr_at(t, 2, "a k (elements per iteration)")?;
                let iters = expr_at(t, 3, "an iteration count")?;
                let ratio = t.get(4).map(|e| e.node.clone()).unwrap_or(num(1.0));
                data_fields = vec![
                    field(
                        "size",
                        Expr::Binary {
                            op: crate::ast::BinOp::Mul,
                            lhs: Box::new(sp(n.clone())),
                            rhs: Box::new(sp(element.clone())),
                        },
                    ),
                    field("element", element.clone()),
                ];
                args = vec![
                    field("elements", n),
                    field("element", element),
                    field("k", k),
                    field("iters", iters),
                    field("ratio", ratio),
                ];
            }
            PatternCode::T => {
                let element = tuple
                    .and_then(|t| t.first())
                    .map(|e| e.node.clone())
                    .ok_or_else(|| missing("an (element) tuple"))?;
                match &self.template {
                    Some(template) => {
                        // Infer dims from the index-call arity: X(i,j,k)
                        // implies dims (n3, n2, n1) per the paper's
                        // flattening R(i,j,k) = i*n2*n1 + j*n1 + k.
                        let arity = template.starts.iter().chain(&template.ends).find_map(|e| {
                            match &e.node {
                                Expr::Call { name: cn, args } if cn == name => Some(args.len()),
                                _ => None,
                            }
                        });
                        data_fields = match arity {
                            Some(k) => {
                                let dims: Vec<Spanned<Expr>> = (0..k)
                                    .map(|d| sp(Expr::Ident(format!("n{}", k - d))))
                                    .collect();
                                // The paper's 1-based index formulas reach
                                // up to n_m in every coordinate, so the
                                // array carries one halo layer per dim:
                                // size = Π (n_m + 1) · element.
                                let plus_one = |d: usize| Expr::Binary {
                                    op: crate::ast::BinOp::Add,
                                    lhs: Box::new(sp(Expr::Ident(format!("n{d}")))),
                                    rhs: Box::new(sp(num(1.0))),
                                };
                                let mut size = plus_one(1);
                                for d in 2..=k {
                                    size = Expr::Binary {
                                        op: crate::ast::BinOp::Mul,
                                        lhs: Box::new(sp(size)),
                                        rhs: Box::new(sp(plus_one(d))),
                                    };
                                }
                                let size = Expr::Binary {
                                    op: crate::ast::BinOp::Mul,
                                    lhs: Box::new(sp(size)),
                                    rhs: Box::new(sp(element.clone())),
                                };
                                vec![
                                    field("size", size),
                                    field("element", element.clone()),
                                    field("dims", Expr::Tuple(dims)),
                                ]
                            }
                            None => {
                                // Plain scalar template indices: size from
                                // the max end + 1 is not expressible
                                // statically; require a count in the tuple.
                                let count = tuple
                                    .and_then(|t| t.get(1))
                                    .map(|e| e.node.clone())
                                    .ok_or_else(|| {
                                        missing("an (element, count) tuple for a scalar template")
                                    })?;
                                vec![
                                    field(
                                        "size",
                                        Expr::Binary {
                                            op: crate::ast::BinOp::Mul,
                                            lhs: Box::new(sp(count)),
                                            rhs: Box::new(sp(element.clone())),
                                        },
                                    ),
                                    field("element", element.clone()),
                                ]
                            }
                        };
                        args = vec![
                            field("element", element),
                            field("starts", Expr::Tuple(template.starts.clone())),
                            field("step", template.step.node.clone()),
                            field("ends", Expr::Tuple(template.ends.clone())),
                        ];
                    }
                    None => {
                        // Template omitted (as the paper does for CG "due
                        // to the space limit"): a sequential stream over
                        // the declared structure.
                        let t = tuple.ok_or_else(|| missing("an (element, count) tuple"))?;
                        let count = expr_at(t, 1, "an element count")?;
                        data_fields = vec![
                            field(
                                "size",
                                Expr::Binary {
                                    op: crate::ast::BinOp::Mul,
                                    lhs: Box::new(sp(count.clone())),
                                    rhs: Box::new(sp(element.clone())),
                                },
                            ),
                            field("element", element.clone()),
                        ];
                        args = vec![
                            field("element", element),
                            field("count", count),
                            field("stride", num(1.0)),
                        ];
                        return Ok((
                            DataDef {
                                name: sp(name.to_owned()),
                                fields: data_fields,
                            },
                            AccessDef {
                                data: sp(name.to_owned()),
                                pattern: sp("streaming".to_owned()),
                                args,
                            },
                        ));
                    }
                }
            }
            PatternCode::D => {
                let t = tuple.ok_or_else(|| missing("an (element, count, reuses) tuple"))?;
                let element = expr_at(t, 0, "an element size")?;
                let count = expr_at(t, 1, "an element count")?;
                let reuses = expr_at(t, 2, "a reuse count")?;
                data_fields = vec![
                    field(
                        "size",
                        Expr::Binary {
                            op: crate::ast::BinOp::Mul,
                            lhs: Box::new(sp(count)),
                            rhs: Box::new(sp(element.clone())),
                        },
                    ),
                    field("element", element),
                ];
                args = vec![field("reuses", reuses)];
            }
        }

        Ok((
            DataDef {
                name: sp(name.to_owned()),
                fields: data_fields,
            },
            AccessDef {
                data: sp(name.to_owned()),
                pattern: sp(code.name().to_owned()),
                args,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Env;
    use crate::model::{resolve_model_def, PatternSpec};

    fn resolve(program: &CompactProgram, params: &[(&str, f64)]) -> crate::model::AppSpec {
        let model = program.to_model("app").expect("lowers");
        let mut env = Env::default();
        for (k, v) in params {
            env.set(k, *v);
        }
        resolve_model_def(&model, &mut env).expect("resolves")
    }

    #[test]
    fn paper_vm_listing() {
        // Verbatim from the paper's first §III-D example.
        let src = "Data structure : {A}\nAccess Pattern : {s}\nParameters : {(8,200,4)}";
        let p = parse_compact(src).unwrap();
        assert_eq!(p.structures, ["A"]);
        let app = resolve(&p, &[]);
        assert_eq!(app.datas[0].size_bytes, 1600);
        match &app.kernels[0].accesses[0].access.pattern {
            PatternSpec::Streaming {
                element_bytes,
                count,
                stride_elements,
            } => assert_eq!((*element_bytes, *count, *stride_elements), (8, 200, 4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_nb_listing() {
        let src =
            "Data structure : {T}\nAccess Pattern : {r}\nParameters : {(1000,32,200,1000,1.0)}";
        let p = parse_compact(src).unwrap();
        let app = resolve(&p, &[]);
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
    fn paper_mg_listing() {
        // The paper's MG template, on a small 8^3 grid so it resolves
        // fast. One correction to the listing: the fourth start element
        // must be R(3,2,1) — the `R(i+1,j,k)` stencil neighbor at
        // (i,j,k) = (2,2,1) — for the four lanes to advance evenly to the
        // paper's own end elements (the printed R(2,2,1) is a typo; it
        // repeats the center cell and would make lane 4 run 64 steps
        // longer than the others).
        let src = "Data structure : {R}\n\
                   Access Pattern : {t}\n\
                   Parameters : {(16)}\n\
                   Template : {(R(2,1,1), R(2,3,1), R(1,2,1), R(3,2,1)) : 1 : \
                   (R(n3-1,n2-2,n1), R(n3-1,n2,n1), R(n3-2,n2-1,n1), R(n3,n2-1,n1))}";
        let p = parse_compact(src).unwrap();
        assert!(p.template.is_some());
        let app = resolve(&p, &[("n1", 8.0), ("n2", 8.0), ("n3", 8.0)]);
        // One halo layer per dimension for the 1-based index formulas.
        assert_eq!(app.datas[0].size_bytes, 9 * 9 * 9 * 16);
        assert_eq!(app.datas[0].dims.as_deref(), Some(&[8, 8, 8][..]));
        match &app.kernels[0].accesses[0].access.pattern {
            PatternSpec::Template { refs, .. } => {
                let refs: Vec<u64> = refs.iter().collect();
                assert!(!refs.is_empty());
                // First reference: R(2,1,1) = 2*64 + 8 + 1 = 137 at n=8.
                assert_eq!(refs[0], 137);
                // 4 lanes per iteration.
                assert_eq!(refs.len() % 4, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_cg_listing() {
        // The paper's CG composite listing, with all four tuples supplied
        // (the paper elides three with `...`).
        let src = "Data structure : {A r p x}\n\
                   Access order : {r(Ap)p(xp)(Ap)r(rp)}\n\
                   Access Pattern : {s(tt)s(ss)(tt)s(ss)}\n\
                   Parameters : {(8,40000,1)(8,200,1)(8,200,1)(8,200,1)}";
        let p = parse_compact(src).unwrap();
        let order = p.order.as_ref().unwrap();
        // r, (Ap), p, (xp), (Ap), r, (rp) — seven steps.
        assert_eq!(order.len(), 7);
        let assignments = p.assignments().unwrap();
        // r, A, p, p, x, p, A, p, r, r, p = 11 structure touches.
        assert_eq!(assignments.len(), 11);
        assert_eq!(assignments[0], ("r".to_owned(), PatternCode::S));
        assert_eq!(assignments[1], ("A".to_owned(), PatternCode::T));

        let app = resolve(&p, &[]);
        assert_eq!(app.datas.len(), 4);
        assert_eq!(app.kernels[0].accesses.len(), 11);
        // A is declared from its tuple: 40000 elements * 8 B.
        assert_eq!(app.datas[0].name, "A");
        assert_eq!(app.datas[0].size_bytes, 320_000);
        // The order survives lowering (drives cache-sharing ratios).
        assert!(app.kernels[0].order.is_some());
    }

    #[test]
    fn simple_form_requires_alignment() {
        let src = "Data structure : {A B}\nAccess Pattern : {s}\nParameters : {(8,10,1)}";
        let p = parse_compact(src).unwrap();
        assert!(p.to_model("x").is_err());
    }

    #[test]
    fn order_pattern_mismatch_is_error() {
        let src = "Data structure : {A p}\n\
                   Access order : {(Ap)}\n\
                   Access Pattern : {s s}\n\
                   Parameters : {(8,10,1)(8,10,1)}";
        let p = parse_compact(src).unwrap();
        assert!(p.assignments().is_err());
    }

    #[test]
    fn unknown_key_rejected() {
        assert!(parse_compact("Banana : {x}").is_err());
    }

    #[test]
    fn unknown_pattern_code_rejected() {
        let err = parse_compact("Data structure : {A}\nAccess Pattern : {q}").unwrap_err();
        assert!(err.message.contains("unknown pattern code"));
    }

    #[test]
    fn unclosed_brace_rejected() {
        assert!(parse_compact("Data structure : {A").is_err());
    }

    #[test]
    fn multichar_names_in_order() {
        let src = "Data structure : {Grid Eng}\n\
                   Access order : {(Grid Eng)}\n\
                   Access Pattern : {(rr)}\n\
                   Parameters : {(1000,16,1,100,0.6)(500,16,1,100,0.4)}";
        let p = parse_compact(src).unwrap();
        match &p.order.as_ref().unwrap()[0] {
            Grouping::Group(g) => assert_eq!(g, &["Grid", "Eng"]),
            other => panic!("unexpected {other:?}"),
        }
        let app = resolve(&p, &[]);
        assert_eq!(app.datas.len(), 2);
    }

    #[test]
    fn juxtaposed_single_letter_names_split() {
        let src = "Data structure : {A p}\n\
                   Access order : {(Ap)}\n\
                   Access Pattern : {(ss)}\n\
                   Parameters : {(8,10,1)(8,10,1)}";
        let p = parse_compact(src).unwrap();
        match &p.order.as_ref().unwrap()[0] {
            Grouping::Group(g) => assert_eq!(g, &["A", "p"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ellipsis_in_parameters_tolerated() {
        let src = "Data structure : {A r}\n\
                   Access Pattern : {s s}\n\
                   Parameters : {(8,10,1)...}";
        let p = parse_compact(src).unwrap();
        assert_eq!(p.parameters.len(), 1);
        // Lowering fails cleanly because r's tuple is missing.
        let err = p.to_model("x").unwrap_err();
        assert!(err.message.contains('r'));
    }

    #[test]
    fn reuse_code_lowers() {
        let src = "Data structure : {p}\nAccess Pattern : {d}\nParameters : {(8,500,100)}";
        let p = parse_compact(src).unwrap();
        let app = resolve(&p, &[]);
        match &app.kernels[0].accesses[0].access.pattern {
            PatternSpec::Reuse { reuses, .. } => assert_eq!(*reuses, 100),
            other => panic!("unexpected {other:?}"),
        }
    }
}
