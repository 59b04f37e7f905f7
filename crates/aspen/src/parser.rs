//! Recursive-descent parser.

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::lexer::lex;
use crate::span::{Span, Spanned};
use crate::token::Token;

/// Parse a complete source file.
///
/// Diagnostics come back categorized: lexer errors carry code `lex`,
/// everything else from this front-end `parse`.
pub fn parse(source: &str) -> Result<Document, Diagnostic> {
    let tokens = lex(source).map_err(|d| d.with_code("lex"))?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        params: 0,
    };
    p.document().map_err(|d| match d.code {
        Some(_) => d,
        None => d.with_code("parse"),
    })
}

/// Parse a standalone expression (used by tests and by parameter override
/// strings on the command line).
pub fn parse_expr(source: &str) -> Result<Spanned<Expr>, Diagnostic> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        params: 0,
    };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Deepest combined expression / `iterate` nesting accepted. Aspen source
/// is untrusted input; without a bound, a few kilobytes of `(((((…` or
/// `-----…` drives the recursive-descent parser into a stack overflow —
/// an abort, not a reportable error. Real models nest single digits deep;
/// the bound is sized so that even the deepest production chain (one
/// parenthesized level costs ~8 debug-build frames) fits the 2 MiB stacks
/// the test harness gives its threads.
const MAX_NESTING_DEPTH: usize = 96;

/// Most `param` declarations one document may hold, across all scopes.
/// Resolving binds and looks up params by linear scan (see
/// [`crate::expr::Env`]), so one resolve costs O(params²), and a sweep
/// resolves once per point: 20 000 chained params took 0.78 s per
/// resolve. Real models declare a handful.
pub const MAX_PARAMS: usize = 256;

/// Most `data` declarations one model may hold. Resolving checks each
/// structure's name against every one before it and binds each access
/// and order step by a scan of them, so one resolve costs O(data²) and a
/// sweep pays it per point. The repro models declare at most five.
pub const MAX_DATAS: usize = 256;

/// Most `kernel` declarations one model may hold. Resolving binds each
/// `call` by a scan of the model's kernels, so a model of calling kernels
/// costs O(kernels²) per resolve. The repro models declare at most three.
pub const MAX_KERNELS: usize = 256;

/// Reject one more declaration of `what` in a model that already holds
/// `declared` of them, `max` being the cap.
fn capped(declared: usize, max: usize, what: &str, span: Span) -> Result<(), Diagnostic> {
    if declared < max {
        Ok(())
    } else {
        Err(Diagnostic::new(
            format!("a model may declare at most {max} {what}"),
            span,
        ))
    }
}

struct Parser {
    tokens: Vec<Spanned<Token>>,
    pos: usize,
    /// Current recursion depth across the self-recursive productions.
    depth: usize,
    /// `param` declarations parsed so far.
    params: usize,
}

impl Parser {
    /// Run one self-recursive production with the nesting bound enforced.
    fn descend<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, Diagnostic>,
    ) -> Result<T, Diagnostic> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> &Spanned<Token> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Spanned<Token> {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(msg, self.peek().span)
    }

    fn expect(&mut self, tok: &Token) -> Result<Span, Diagnostic> {
        if &self.peek().node == tok {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                tok.describe(),
                self.peek().node.describe()
            )))
        }
    }

    fn expect_eof(&self) -> Result<(), Diagnostic> {
        if self.peek().node == Token::Eof {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected end of input, found {}",
                self.peek().node.describe()
            )))
        }
    }

    fn ident(&mut self, what: &str) -> Result<Spanned<String>, Diagnostic> {
        match &self.peek().node {
            Token::Ident(s) => {
                let s = s.clone();
                let span = self.bump().span;
                Ok(Spanned::new(s, span))
            }
            other => Err(self.err(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn expect_keyword(&mut self, word: &str) -> Result<Span, Diagnostic> {
        if self.peek().node.is_ident(word) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!(
                "expected keyword `{word}`, found {}",
                self.peek().node.describe()
            )))
        }
    }

    // ---- items ----------------------------------------------------------

    fn document(&mut self) -> Result<Document, Diagnostic> {
        let mut items = Vec::new();
        loop {
            match &self.peek().node {
                Token::Eof => break,
                Token::Ident(w) if w == "param" => items.push(Item::Param(self.param()?)),
                Token::Ident(w) if w == "machine" => items.push(Item::Machine(self.machine()?)),
                Token::Ident(w) if w == "model" => items.push(Item::Model(self.model()?)),
                other => {
                    return Err(self.err(format!(
                        "expected `param`, `machine` or `model`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(Document { items })
    }

    fn param(&mut self) -> Result<ParamDef, Diagnostic> {
        self.expect_keyword("param")?;
        let name = self.ident("parameter name")?;
        self.params += 1;
        if self.params > MAX_PARAMS {
            return Err(Diagnostic::new(
                format!("a document may declare at most {MAX_PARAMS} `param`s"),
                name.span,
            ));
        }
        self.expect(&Token::Eq)?;
        let value = self.expr()?;
        self.eat_semi();
        Ok(ParamDef { name, value })
    }

    fn eat_semi(&mut self) {
        while self.peek().node == Token::Semi {
            self.bump();
        }
    }

    fn machine(&mut self) -> Result<MachineDef, Diagnostic> {
        self.expect_keyword("machine")?;
        let name = self.ident("machine name")?;
        self.expect(&Token::LBrace)?;
        let mut params = Vec::new();
        let mut sections = Vec::new();
        loop {
            match &self.peek().node {
                Token::RBrace => {
                    self.bump();
                    break;
                }
                Token::Ident(w) if w == "param" => params.push(self.param()?),
                Token::Ident(w) if w == "cache" || w == "memory" || w == "core" => {
                    let kind = self.ident("section kind")?;
                    self.expect(&Token::LBrace)?;
                    let fields = self.fields_until_rbrace()?;
                    sections.push(SectionDef { kind, fields });
                }
                other => {
                    return Err(self.err(format!(
                        "expected `param`, `cache`, `memory`, `core` or `}}`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(MachineDef {
            name,
            params,
            sections,
        })
    }

    fn fields_until_rbrace(&mut self) -> Result<Vec<Field>, Diagnostic> {
        let mut fields = Vec::new();
        loop {
            match &self.peek().node {
                Token::RBrace => {
                    self.bump();
                    break;
                }
                Token::Ident(_) => {
                    let name = self.ident("field name")?;
                    self.expect(&Token::Eq)?;
                    let value = self.expr()?;
                    self.eat_semi();
                    fields.push(Field { name, value });
                }
                other => {
                    return Err(self.err(format!(
                        "expected a field or `}}`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(fields)
    }

    fn model(&mut self) -> Result<ModelDef, Diagnostic> {
        self.expect_keyword("model")?;
        let name = self.ident("model name")?;
        self.expect(&Token::LBrace)?;
        let mut params = Vec::new();
        let mut datas = Vec::new();
        let mut kernels = Vec::new();
        loop {
            match &self.peek().node {
                Token::RBrace => {
                    self.bump();
                    break;
                }
                Token::Ident(w) if w == "param" => params.push(self.param()?),
                Token::Ident(w) if w == "data" => {
                    self.bump();
                    let name = self.ident("data structure name")?;
                    capped(datas.len(), MAX_DATAS, "`data` structures", name.span)?;
                    self.expect(&Token::LBrace)?;
                    let fields = self.fields_until_rbrace()?;
                    datas.push(DataDef { name, fields });
                }
                Token::Ident(w) if w == "kernel" => {
                    let kernel = self.kernel()?;
                    capped(kernels.len(), MAX_KERNELS, "`kernel`s", kernel.name.span)?;
                    kernels.push(kernel);
                }
                other => {
                    return Err(self.err(format!(
                        "expected `param`, `data`, `kernel` or `}}`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(ModelDef {
            name,
            params,
            datas,
            kernels,
        })
    }

    fn kernel(&mut self) -> Result<KernelDef, Diagnostic> {
        self.expect_keyword("kernel")?;
        let name = self.ident("kernel name")?;
        self.expect(&Token::LBrace)?;
        let mut fields = Vec::new();
        let mut body = Vec::new();
        let mut order = None;
        loop {
            match &self.peek().node {
                Token::RBrace => {
                    self.bump();
                    break;
                }
                Token::Ident(w) if w == "access" || w == "iterate" || w == "call" => {
                    body.push(self.kernel_stmt()?);
                }
                Token::Ident(w) if w == "order" => {
                    let kw_span = self.bump().span;
                    if order.is_some() {
                        return Err(Diagnostic::new("duplicate `order` block", kw_span));
                    }
                    order = Some(self.order_steps()?);
                }
                Token::Ident(_) => {
                    let fname = self.ident("field name")?;
                    self.expect(&Token::Eq)?;
                    let value = self.expr()?;
                    self.eat_semi();
                    fields.push(Field { name: fname, value });
                }
                other => {
                    return Err(self.err(format!(
                        "expected `access`, `iterate`, `call`, `order`, a field or `}}`, \
                         found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(KernelDef {
            name,
            fields,
            body,
            order,
        })
    }

    /// One body statement: `access …`, `iterate n { … }` or `call name`.
    fn kernel_stmt(&mut self) -> Result<KernelStmt, Diagnostic> {
        match &self.peek().node {
            Token::Ident(w) if w == "access" => Ok(KernelStmt::Access(self.access()?)),
            Token::Ident(w) if w == "call" => {
                self.bump();
                let name = self.ident("kernel name")?;
                self.eat_semi();
                Ok(KernelStmt::Call { name })
            }
            Token::Ident(w) if w == "iterate" => {
                self.bump();
                let count = self.expr()?;
                self.expect(&Token::LBrace)?;
                let mut body = Vec::new();
                loop {
                    match &self.peek().node {
                        Token::RBrace => {
                            self.bump();
                            break;
                        }
                        Token::Ident(w) if w == "access" || w == "iterate" || w == "call" => {
                            let stmt = self.descend(|p| p.kernel_stmt())?;
                            body.push(stmt);
                        }
                        other => {
                            return Err(self.err(format!(
                                "expected `access`, `iterate`, `call` or `}}` inside \
                                 iterate, found {}",
                                other.describe()
                            )))
                        }
                    }
                }
                Ok(KernelStmt::Iterate { count, body })
            }
            other => Err(self.err(format!(
                "expected a kernel statement, found {}",
                other.describe()
            ))),
        }
    }

    fn access(&mut self) -> Result<AccessDef, Diagnostic> {
        self.expect_keyword("access")?;
        let data = self.ident("data structure name")?;
        self.expect_keyword("as")?;
        let pattern = self.ident("pattern kind")?;
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if self.peek().node != Token::RParen {
            loop {
                let name = self.ident("argument name")?;
                self.expect(&Token::Eq)?;
                let value = self.expr()?;
                args.push(Field { name, value });
                if self.peek().node == Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        self.eat_semi();
        Ok(AccessDef {
            data,
            pattern,
            args,
        })
    }

    fn order_steps(&mut self) -> Result<Vec<OrderStep>, Diagnostic> {
        self.expect(&Token::LBrace)?;
        let mut steps = Vec::new();
        loop {
            match &self.peek().node {
                Token::RBrace => {
                    self.bump();
                    break;
                }
                Token::Ident(_) => {
                    steps.push(OrderStep::Single(self.ident("data structure name")?));
                }
                Token::LParen => {
                    self.bump();
                    let mut group = Vec::new();
                    while matches!(self.peek().node, Token::Ident(_)) {
                        group.push(self.ident("data structure name")?);
                        if self.peek().node == Token::Comma {
                            self.bump();
                        }
                    }
                    self.expect(&Token::RParen)?;
                    if group.is_empty() {
                        return Err(self.err("empty concurrent group in order"));
                    }
                    steps.push(OrderStep::Group(group));
                }
                other => {
                    return Err(self.err(format!(
                        "expected a data structure name, `(` or `}}`, found {}",
                        other.describe()
                    )))
                }
            }
            if self.peek().node == Token::Comma {
                self.bump();
            }
        }
        Ok(steps)
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Spanned<Expr>, Diagnostic> {
        self.descend(|p| p.additive())
    }

    fn additive(&mut self) -> Result<Spanned<Expr>, Diagnostic> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek().node {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            let span = lhs.span.to(rhs.span);
            lhs = Spanned::new(
                Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Spanned<Expr>, Diagnostic> {
        let mut lhs = self.power()?;
        loop {
            let op = match self.peek().node {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.power()?;
            let span = lhs.span.to(rhs.span);
            lhs = Spanned::new(
                Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn power(&mut self) -> Result<Spanned<Expr>, Diagnostic> {
        let base = self.unary()?;
        if self.peek().node == Token::Caret {
            self.bump();
            // Right associative.
            let exp = self.descend(|p| p.power())?;
            let span = base.span.to(exp.span);
            return Ok(Spanned::new(
                Expr::Binary {
                    op: BinOp::Pow,
                    lhs: Box::new(base),
                    rhs: Box::new(exp),
                },
                span,
            ));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<Spanned<Expr>, Diagnostic> {
        if self.peek().node == Token::Minus {
            let start = self.bump().span;
            let operand = self.descend(|p| p.unary())?;
            let span = start.to(operand.span);
            return Ok(Spanned::new(Expr::Neg(Box::new(operand)), span));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Spanned<Expr>, Diagnostic> {
        match self.peek().node.clone() {
            Token::Number(n) => {
                let span = self.bump().span;
                Ok(Spanned::new(Expr::Number(n), span))
            }
            Token::Ident(name) => {
                let span = self.bump().span;
                if self.peek().node == Token::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek().node != Token::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek().node == Token::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    let end = self.expect(&Token::RParen)?;
                    Ok(Spanned::new(Expr::Call { name, args }, span.to(end)))
                } else {
                    Ok(Spanned::new(Expr::Ident(name), span))
                }
            }
            Token::LParen => {
                let start = self.bump().span;
                let first = self.expr()?;
                if self.peek().node == Token::Comma {
                    let mut items = vec![first];
                    while self.peek().node == Token::Comma {
                        self.bump();
                        if self.peek().node == Token::RParen {
                            break; // allow trailing comma
                        }
                        items.push(self.expr()?);
                    }
                    let end = self.expect(&Token::RParen)?;
                    Ok(Spanned::new(Expr::Tuple(items), start.to(end)))
                } else {
                    let end = self.expect(&Token::RParen)?;
                    Ok(Spanned::new(first.node, start.to(end)))
                }
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_global_param() {
        let doc = parse("param n = 100").unwrap();
        assert_eq!(doc.items.len(), 1);
        let p = doc.params().next().unwrap();
        assert_eq!(p.name.node, "n");
    }

    #[test]
    fn parses_machine_with_sections() {
        let src = r#"
            machine small {
              param x = 1
              cache { associativity = 4  sets = 64  line = 32 }
              memory { fit = 5000 }
              core { flops = 1e9  bandwidth = 4e9 }
            }
        "#;
        let doc = parse(src).unwrap();
        let m = doc.machine(Some("small")).unwrap();
        assert_eq!(m.sections.len(), 3);
        assert_eq!(m.sections[0].kind.node, "cache");
        assert_eq!(m.sections[0].fields.len(), 3);
        assert_eq!(m.params.len(), 1);
    }

    #[test]
    fn parses_model_with_data_and_kernel() {
        let src = r#"
            model vm {
              param n = 200
              data A { size = n * 8  element = 8 }
              kernel main {
                flops = 2 * n
                access A as streaming(element = 8, count = n, stride = 4)
              }
            }
        "#;
        let doc = parse(src).unwrap();
        let m = doc.model(Some("vm")).unwrap();
        assert_eq!(m.datas.len(), 1);
        assert_eq!(m.kernels.len(), 1);
        let k = &m.kernels[0];
        assert_eq!(k.accesses().len(), 1);
        assert_eq!(k.accesses()[0].pattern.node, "streaming");
        assert_eq!(k.accesses()[0].args.len(), 3);
    }

    #[test]
    fn parses_order_with_groups() {
        let src = r#"
            model cg {
              data A { size = 1 element = 1 }
              kernel iter {
                order { r (A p) p (x p) (A p) r (r p) }
              }
            }
        "#;
        let doc = parse(src).unwrap();
        let k = &doc.model(None).unwrap().kernels[0];
        let order = k.order.as_ref().unwrap();
        assert_eq!(order.len(), 7);
        assert!(matches!(&order[0], OrderStep::Single(s) if s.node == "r"));
        assert!(matches!(&order[1], OrderStep::Group(g) if g.len() == 2));
    }

    #[test]
    fn parses_template_access_with_index_calls() {
        let src = r#"
            model mg {
              param n1 = 8  param n2 = 8  param n3 = 8
              data R { size = n1*n2*n3*16  element = 16  dims = (n3, n2, n1) }
              kernel smooth {
                access R as template(
                  element = 8,
                  starts = (R(2,1,1), R(2,3,1), R(1,2,1), R(2,2,1)),
                  step = 1,
                  ends = (R(n3-1,n2-2,n1), R(n3-1,n2,n1), R(n3-2,n2-1,n1), R(n3,n2-1,n1))
                )
              }
            }
        "#;
        let doc = parse(src).unwrap();
        let k = &doc.model(None).unwrap().kernels[0];
        let acc = k.accesses()[0];
        assert_eq!(acc.pattern.node, "template");
        let starts = acc.args.iter().find(|f| f.name.node == "starts").unwrap();
        match &starts.value.node {
            Expr::Tuple(items) => assert_eq!(items.len(), 4),
            other => panic!("expected tuple, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.node {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(rhs.node, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn power_is_right_associative_and_tight() {
        let e = parse_expr("2 * 3 ^ 2 ^ 2").unwrap();
        // = 2 * (3 ^ (2 ^ 2))
        match e.node {
            Expr::Binary {
                op: BinOp::Mul,
                rhs,
                ..
            } => match rhs.node {
                Expr::Binary {
                    op: BinOp::Pow,
                    rhs,
                    ..
                } => {
                    assert!(matches!(rhs.node, Expr::Binary { op: BinOp::Pow, .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_minus_binds_tighter_than_mul() {
        let e = parse_expr("-2 * 3").unwrap();
        assert!(matches!(e.node, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parenthesized_single_is_not_tuple() {
        let e = parse_expr("(1 + 2)").unwrap();
        assert!(matches!(e.node, Expr::Binary { .. }));
    }

    #[test]
    fn tuple_with_trailing_comma() {
        let e = parse_expr("(1, 2, 3,)").unwrap();
        match e.node {
            Expr::Tuple(items) => assert_eq!(items.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_spanned() {
        let err = parse("model vm { data A }").unwrap_err();
        assert!(err.message.contains("expected"));
        let rendered = err.render("model vm { data A }");
        assert!(rendered.contains("line 1"));
    }

    #[test]
    fn rejects_duplicate_order() {
        let src = "model m { kernel k { order { a } order { b } } }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn rejects_empty_group() {
        let src = "model m { kernel k { order { ( ) } } }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn keywords_are_contextual() {
        // `model` used as a parameter name inside a machine.
        let src = "machine m { param model = 3 }";
        let doc = parse(src).unwrap();
        assert_eq!(doc.machine(None).unwrap().params[0].name.node, "model");
    }

    #[test]
    fn ambiguous_default_lookup_returns_none() {
        let doc = parse("model a {} model b {}").unwrap();
        assert!(doc.model(None).is_none());
        assert!(doc.model(Some("a")).is_some());
    }

    #[test]
    fn param_count_is_capped() {
        let chain = |count: usize| {
            let mut src = String::from("param p0 = 1\n");
            for i in 1..count {
                src.push_str(&format!("param p{i} = p{} + 1\n", i - 1));
            }
            src
        };
        assert!(parse(&chain(MAX_PARAMS)).is_ok());
        // Scoped params count too: one past the cap inside a model.
        let src = format!("{}model m {{ param last = 1 }}", chain(MAX_PARAMS));
        let err = parse(&src).unwrap_err();
        assert_eq!(
            err.message,
            format!("a document may declare at most {MAX_PARAMS} `param`s")
        );
        assert_eq!(err.span.text(&src), "last");
    }

    #[test]
    fn data_and_kernel_counts_are_capped_per_model() {
        let model = |datas: usize, kernels: usize| {
            let mut src = String::from("model m {\n");
            for i in 0..datas {
                src.push_str(&format!("  data d{i} {{ size = 8 element = 8 }}\n"));
            }
            for i in 0..kernels {
                src.push_str(&format!("  kernel k{i} {{ flops = 1 }}\n"));
            }
            src.push('}');
            src
        };
        let doc = parse(&model(MAX_DATAS, MAX_KERNELS)).unwrap();
        let def = doc.model(None).unwrap();
        assert_eq!(
            (def.datas.len(), def.kernels.len()),
            (MAX_DATAS, MAX_KERNELS)
        );
        // The caps are per model: a second model starts from zero.
        let two = format!(
            "{}\n{}",
            model(MAX_DATAS, 1),
            model(MAX_DATAS, 1).replace("model m", "model n")
        );
        assert!(parse(&two).is_ok());

        let src = model(MAX_DATAS + 1, 0);
        let err = parse(&src).unwrap_err();
        assert_eq!(
            err.message,
            format!("a model may declare at most {MAX_DATAS} `data` structures")
        );
        assert_eq!(err.span.text(&src), format!("d{MAX_DATAS}"));

        let src = model(0, MAX_KERNELS + 1);
        let err = parse(&src).unwrap_err();
        assert_eq!(
            err.message,
            format!("a model may declare at most {MAX_KERNELS} `kernel`s")
        );
        assert_eq!(err.span.text(&src), format!("k{MAX_KERNELS}"));
    }
}
