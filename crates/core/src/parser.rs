//! Lexer and recursive-descent parser for Filament's surface syntax.
//!
//! The grammar follows the paper's examples:
//!
//! ```text
//! program    ::= (extern | component)*
//! extern     ::= "extern" signature ";"
//! component  ::= signature "{" command* "}"
//! signature  ::= "comp" ident params? "<" event ("," event)* ">"
//!                "(" port* ")" "->" "(" port* ")" ("where" constraint,*)?
//! params     ::= "[" param ("," param)* "]"
//! param      ::= ident | "some" ident "=" cexpr
//! event      ::= ident ":" delay
//! delay      ::= nat | time "-" ("(" time ")" | time)
//! port       ::= "@interface" "[" ident "]" ident ":" cexpr
//!              | "@" "[" time "," time "]" ident bundle? ":" cexpr
//! bundle     ::= "[" ident ":" (cexpr ".." cexpr | cexpr) "]"
//! command    ::= iname ":=" "new" ident cargs? invoke-sfx? ";"  (fused form)
//!              | iname ":=" iname "<" time,* ">" "(" arg,* ")" ";"
//!              | portref "=" portref ";"
//!              | "for" ident "in" cexpr ".." cexpr "{" command* "}"
//!              | "if" cexpr cmpop cexpr "{" command* "}" ("else" "{" command* "}")?
//! portref    ::= iname "." ident ("[" cexpr "]")? | ident ("[" cexpr "]")? | nat
//! cmpop      ::= "==" | "!=" | "<" | "<=" | ">" | ">="
//! iname      ::= ident ("[" cexpr "]")*
//! cargs      ::= "[" cexpr ("," cexpr)* "]"
//! time       ::= ident ("+" cexpr)?
//! cexpr      ::= cterm (("+" | "-") cterm)*
//! cterm      ::= cfactor (("*" | "/" | "%") cfactor)*
//! cfactor    ::= nat | ident ("." ident)? | "pow2" "(" cexpr ")"
//!              | "log2" "(" cexpr ")" | "(" cexpr ")"
//! ```
//!
//! `x := new C[p]<G>(a)` is sugar for an instantiation plus an invocation
//! (used throughout Section 7.2 and Appendix B.1 of the paper), and
//! `for i in lo..hi { ... }` is the generate construct unrolled by
//! [`crate::mono`].

use crate::ast::*;
use std::fmt;
use std::sync::Arc;

/// A parse failure, with 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(u64),
    // Punctuation.
    LParen,
    RParen,
    LBrack,
    RBrack,
    LBrace,
    RBrace,
    LAngle,
    RAngle,
    Comma,
    Semi,
    Colon,
    ColonEq,
    Eq,
    EqEq,
    Ne,
    Ge,
    Le,
    Arrow,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Dot,
    DotDot,
    At,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Num(n) => write!(f, "number {n}"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::LBrack => write!(f, "'['"),
            Tok::RBrack => write!(f, "']'"),
            Tok::LBrace => write!(f, "'{{'"),
            Tok::RBrace => write!(f, "'}}'"),
            Tok::LAngle => write!(f, "'<'"),
            Tok::RAngle => write!(f, "'>'"),
            Tok::Comma => write!(f, "','"),
            Tok::Semi => write!(f, "';'"),
            Tok::Colon => write!(f, "':'"),
            Tok::ColonEq => write!(f, "':='"),
            Tok::Eq => write!(f, "'='"),
            Tok::EqEq => write!(f, "'=='"),
            Tok::Ne => write!(f, "'!='"),
            Tok::Ge => write!(f, "'>='"),
            Tok::Le => write!(f, "'<='"),
            Tok::Arrow => write!(f, "'->'"),
            Tok::Plus => write!(f, "'+'"),
            Tok::Minus => write!(f, "'-'"),
            Tok::Star => write!(f, "'*'"),
            Tok::Slash => write!(f, "'/'"),
            Tok::Percent => write!(f, "'%'"),
            Tok::Dot => write!(f, "'.'"),
            Tok::DotDot => write!(f, "'..'"),
            Tok::At => write!(f, "'@'"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek_byte() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek_byte() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => return Err(self.error("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_tok(&mut self) -> Result<(Tok, u32, u32), ParseError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek_byte() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match b {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'[' => {
                self.bump();
                Tok::LBrack
            }
            b']' => {
                self.bump();
                Tok::RBrack
            }
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'<' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::Le
                } else {
                    Tok::LAngle
                }
            }
            b'!' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::Ne
                } else {
                    return Err(self.error("expected '=' after '!'"));
                }
            }
            b'>' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::Ge
                } else {
                    Tok::RAngle
                }
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b':' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::ColonEq
                } else {
                    Tok::Colon
                }
            }
            b'=' => {
                self.bump();
                if self.peek_byte() == Some(b'=') {
                    self.bump();
                    Tok::EqEq
                } else {
                    Tok::Eq
                }
            }
            b'-' => {
                self.bump();
                if self.peek_byte() == Some(b'>') {
                    self.bump();
                    Tok::Arrow
                } else {
                    Tok::Minus
                }
            }
            b'+' => {
                self.bump();
                Tok::Plus
            }
            b'*' => {
                self.bump();
                Tok::Star
            }
            // Comment forms were consumed by `skip_trivia`, so a surviving
            // '/' is the division operator.
            b'/' => {
                self.bump();
                Tok::Slash
            }
            b'%' => {
                self.bump();
                Tok::Percent
            }
            b'.' => {
                self.bump();
                if self.peek_byte() == Some(b'.') {
                    self.bump();
                    Tok::DotDot
                } else {
                    Tok::Dot
                }
            }
            b'@' => {
                self.bump();
                Tok::At
            }
            b'0'..=b'9' => {
                let mut n: u64 = 0;
                while let Some(d @ b'0'..=b'9') = self.peek_byte() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add((d - b'0') as u64))
                        .ok_or_else(|| self.error("number literal overflows u64"))?;
                    self.bump();
                }
                Tok::Num(n)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = self.pos;
                while let Some(b) = self.peek_byte() {
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                Tok::Ident(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
            }
            other => {
                return Err(self.error(format!("unexpected character {:?}", other as char)));
            }
        };
        Ok((tok, line, col))
    }
}

struct Parser {
    toks: Vec<(Tok, u32, u32)>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let t = lexer.next_tok()?;
            let eof = t.0 == Tok::Eof;
            toks.push(t);
            if eof {
                break;
            }
        }
        Ok(Parser { toks, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.1, t.2)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    /// Consumes the current token and returns it. The parser never looks
    /// back (nothing rewinds `pos` or reads an earlier token), so the token
    /// is moved out, not cloned; the trailing `Eof` is never consumed.
    fn bump(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.toks[self.pos].0, Tok::Eof);
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token, which the caller has matched as an
    /// identifier, and returns its text.
    fn bump_ident(&mut self) -> Id {
        match self.bump() {
            Tok::Ident(s) => s,
            other => unreachable!("bump_ident on {other}"),
        }
    }

    fn eat(&mut self, want: Tok) -> Result<(), ParseError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected keyword {kw:?}, found {other}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn ident(&mut self) -> Result<Id, ParseError> {
        match self.peek() {
            Tok::Ident(_) => Ok(self.bump_ident()),
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// `cfactor ::= nat | ident | pow2/log2 "(" cexpr ")" | "(" cexpr ")"`
    fn const_factor(&mut self) -> Result<ConstExpr, ParseError> {
        match self.peek() {
            &Tok::Num(n) => {
                self.bump();
                Ok(ConstExpr::Lit(n))
            }
            Tok::LParen => {
                self.bump();
                let e = self.const_expr()?;
                self.eat(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name)
                if (name == "pow2" || name == "log2") && *self.peek2() == Tok::LParen =>
            {
                let pow2 = name == "pow2";
                self.bump();
                self.eat(Tok::LParen)?;
                let e = self.const_expr()?;
                self.eat(Tok::RParen)?;
                Ok(if pow2 {
                    ConstExpr::Pow2(Box::new(e))
                } else {
                    ConstExpr::Log2(Box::new(e))
                })
            }
            Tok::Ident(_) => {
                let p = self.bump_ident();
                // `inst.P` — a parameter of a previously declared instance,
                // resolved by the monomorphizer.
                if *self.peek() == Tok::Dot {
                    self.bump();
                    let field = self.ident()?;
                    return Ok(ConstExpr::InstParam(p, field));
                }
                Ok(ConstExpr::Param(p))
            }
            other => Err(self.error(format!("expected constant expression, found {other}"))),
        }
    }

    /// `cterm ::= cfactor (("*" | "/" | "%") cfactor)*`
    fn const_term(&mut self) -> Result<ConstExpr, ParseError> {
        let mut lhs = self.const_factor()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ConstOp::Mul,
                Tok::Slash => ConstOp::Div,
                Tok::Percent => ConstOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.const_factor()?;
            lhs = ConstExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    /// `cexpr ::= cterm (("+" | "-") cterm)*`
    fn const_expr(&mut self) -> Result<ConstExpr, ParseError> {
        let mut lhs = self.const_term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ConstOp::Add,
                Tok::Minus => ConstOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.const_term()?;
            lhs = ConstExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    /// `ident ("[" cexpr "]")*`
    fn iname(&mut self) -> Result<IName, ParseError> {
        let base = self.ident()?;
        let mut idx = Vec::new();
        while *self.peek() == Tok::LBrack {
            self.bump();
            idx.push(self.const_expr()?);
            self.eat(Tok::RBrack)?;
        }
        Ok(IName { base, idx })
    }

    /// `ident ("+" cterm)?` — the offset expression deliberately excludes
    /// top-level `+`/`-` so that the `time "-" time` delay form stays
    /// unambiguous; write `G+(N-1)` for additive offset arithmetic.
    fn time(&mut self) -> Result<Time, ParseError> {
        let event = self.ident()?;
        if *self.peek() == Tok::Plus {
            self.bump();
            let offset = self.const_term()?;
            Ok(Time::at(event, offset))
        } else {
            Ok(Time::event(event))
        }
    }

    /// `nat | time "-" ("(" time ")" | time)`
    fn delay(&mut self) -> Result<Delay, ParseError> {
        if let Tok::Num(n) = *self.peek() {
            self.bump();
            return Ok(Delay::Const(n));
        }
        let lhs = self.time()?;
        self.eat(Tok::Minus)?;
        let rhs = if *self.peek() == Tok::LParen {
            self.bump();
            let t = self.time()?;
            self.eat(Tok::RParen)?;
            t
        } else {
            self.time()?
        };
        Ok(Delay::Diff(lhs, rhs))
    }

    fn width(&mut self) -> Result<ConstExpr, ParseError> {
        self.const_expr()
    }

    /// Parses ports into (interfaces, data ports).
    fn ports(&mut self) -> Result<(Vec<InterfaceDef>, Vec<PortDef>), ParseError> {
        let mut interfaces = Vec::new();
        let mut ports = Vec::new();
        self.eat(Tok::LParen)?;
        while *self.peek() != Tok::RParen {
            self.eat(Tok::At)?;
            if self.at_keyword("interface") {
                self.bump();
                self.eat(Tok::LBrack)?;
                let event = self.ident()?;
                self.eat(Tok::RBrack)?;
                let name = self.ident()?;
                self.eat(Tok::Colon)?;
                let w = self.width()?;
                if w.norm() != ConstExpr::Lit(1) {
                    return Err(self.error("interface ports must have width 1"));
                }
                interfaces.push(InterfaceDef { name, event });
            } else {
                self.eat(Tok::LBrack)?;
                let start = self.time()?;
                self.eat(Tok::Comma)?;
                let end = self.time()?;
                self.eat(Tok::RBrack)?;
                let name = self.ident()?;
                let bundle = if *self.peek() == Tok::LBrack {
                    Some(self.bundle_binder(&name)?)
                } else {
                    None
                };
                self.eat(Tok::Colon)?;
                let width = self.width()?;
                ports.push(PortDef {
                    name,
                    liveness: Range::new(start, end),
                    width,
                    bundle,
                });
            }
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.eat(Tok::RParen)?;
        Ok((interfaces, ports))
    }

    /// `"[" ident ":" (cexpr ".." cexpr | cexpr) "]"` — the index binder of
    /// a bundle port `name[i: lo..hi]` (`name[i: N]` is sugar for `0..N`).
    /// Literal-empty index ranges are rejected here so the error span points
    /// at the range, not at a downstream elaboration site.
    fn bundle_binder(&mut self, port: &str) -> Result<Bundle, ParseError> {
        self.eat(Tok::LBrack)?;
        let var = self.ident()?;
        self.eat(Tok::Colon)?;
        let (range_line, range_col) = self.here();
        let first = self.const_expr()?;
        let (lo, hi) = if *self.peek() == Tok::DotDot {
            self.bump();
            let hi = self.const_expr()?;
            (first, hi)
        } else {
            (ConstExpr::Lit(0), first)
        };
        if let (Ok(l), Ok(h)) = (lo.eval_closed(), hi.eval_closed()) {
            if h <= l {
                return Err(ParseError {
                    message: format!("bundle port {port} has an empty index range {lo}..{hi}"),
                    line: range_line,
                    col: range_col,
                });
            }
        }
        self.eat(Tok::RBrack)?;
        Ok(Bundle { var, lo, hi })
    }

    fn signature(&mut self) -> Result<Signature, ParseError> {
        self.eat_keyword("comp")?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if *self.peek() == Tok::LBrack {
            self.bump();
            loop {
                // `some W = expr` — a derived (existential) parameter the
                // signature computes from earlier ones.
                if self.at_keyword("some") {
                    self.bump();
                    let pname = self.ident()?;
                    self.eat(Tok::Eq)?;
                    let expr = self.const_expr()?;
                    params.push(ParamDecl::derived(pname, expr));
                } else {
                    params.push(ParamDecl::free(self.ident()?));
                }
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.eat(Tok::RBrack)?;
        }
        self.eat(Tok::LAngle)?;
        let mut events = Vec::new();
        loop {
            let ev = self.ident()?;
            let delay = if *self.peek() == Tok::Colon {
                self.bump();
                self.delay()?
            } else {
                // `<G>` without a delay defaults to 1 (the paper's early
                // examples elide delays before Section 2.4 introduces them).
                Delay::Const(1)
            };
            events.push(EventDecl { name: ev, delay });
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.eat(Tok::RAngle)?;
        let (mut interfaces, inputs) = self.ports()?;
        self.eat(Tok::Arrow)?;
        let (out_ifaces, outputs) = self.ports()?;
        if !out_ifaces.is_empty() {
            return Err(self.error("interface ports may not appear among outputs"));
        }
        interfaces.extend(out_ifaces);
        let mut constraints = Vec::new();
        if self.at_keyword("where") {
            self.bump();
            loop {
                let lhs = self.time()?;
                let op = match self.bump() {
                    Tok::RAngle => ConstraintOp::Gt,
                    Tok::Ge => ConstraintOp::Ge,
                    Tok::EqEq => ConstraintOp::Eq,
                    other => {
                        return Err(self.error(format!(
                            "expected '>', '>=' or '==' in constraint, found {other}"
                        )))
                    }
                };
                let rhs = self.time()?;
                constraints.push(OrderConstraint { lhs, op, rhs });
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok(Signature {
            name,
            params,
            events,
            interfaces,
            inputs,
            outputs,
            constraints,
        })
    }

    /// `iname "." ident | ident | nat`
    fn port_ref(&mut self) -> Result<Port, ParseError> {
        if let Tok::Num(n) = *self.peek() {
            self.bump();
            return Ok(Port::Lit(n));
        }
        let first = self.iname()?;
        self.port_ref_rest(first)
    }

    /// Continues a port reference whose leading name is already parsed.
    fn port_ref_rest(&mut self, first: IName) -> Result<Port, ParseError> {
        if *self.peek() == Tok::Dot {
            self.bump();
            let port = self.ident()?;
            // `inv.port[idx]` — one element of a callee bundle output.
            if *self.peek() == Tok::LBrack {
                self.bump();
                let idx = self.const_expr()?;
                self.eat(Tok::RBrack)?;
                return Ok(Port::InvBundle {
                    invocation: first,
                    port,
                    idx,
                });
            }
            Ok(Port::Inv {
                invocation: first,
                port,
            })
        } else if first.idx.is_empty() {
            Ok(Port::This(first.base))
        } else if first.idx.len() == 1 {
            // `left[i]` — one element of an own bundle port.
            Ok(Port::Bundle {
                port: first.base,
                idx: first.idx.into_iter().next().expect("len checked"),
            })
        } else {
            Err(self.error(format!(
                "indexed name {first} must be followed by '.port' (bundle ports have a \
                 single index)"
            )))
        }
    }

    fn invoke_suffix(
        &mut self,
        name: IName,
        instance: IName,
        out: &mut Vec<Command>,
    ) -> Result<(), ParseError> {
        self.eat(Tok::LAngle)?;
        let mut events = Vec::new();
        loop {
            events.push(self.time()?);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.eat(Tok::RAngle)?;
        self.eat(Tok::LParen)?;
        let mut args = Vec::new();
        while *self.peek() != Tok::RParen {
            args.push(self.port_ref()?);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.eat(Tok::RParen)?;
        out.push(Command::Invoke {
            name,
            instance,
            events,
            args,
        });
        Ok(())
    }

    fn command(&mut self, out: &mut Vec<Command>) -> Result<(), ParseError> {
        // `for i in lo..hi { command* }` — the generate construct.
        if self.at_keyword("for") {
            self.bump();
            let var = self.ident()?;
            self.eat_keyword("in")?;
            let lo = self.const_expr()?;
            self.eat(Tok::DotDot)?;
            let hi = self.const_expr()?;
            self.eat(Tok::LBrace)?;
            let mut body = Vec::new();
            while *self.peek() != Tok::RBrace {
                self.command(&mut body)?;
            }
            self.eat(Tok::RBrace)?;
            out.push(Command::ForGen { var, lo, hi, body });
            return Ok(());
        }
        // `if l op r { command* } (else { command* })?` — the compile-time
        // conditional, resolved by mono::expand.
        if self.at_keyword("if") {
            self.bump();
            let lhs = self.const_expr()?;
            let op = match self.bump() {
                Tok::EqEq => CmpOp::Eq,
                Tok::Ne => CmpOp::Ne,
                Tok::LAngle => CmpOp::Lt,
                Tok::Le => CmpOp::Le,
                Tok::RAngle => CmpOp::Gt,
                Tok::Ge => CmpOp::Ge,
                other => {
                    return Err(self.error(format!(
                        "expected a comparison ('==', '!=', '<', '<=', '>', '>=') in \
                         if-generate condition, found {other}"
                    )))
                }
            };
            let rhs = self.const_expr()?;
            self.eat(Tok::LBrace)?;
            let mut then_body = Vec::new();
            while *self.peek() != Tok::RBrace {
                self.command(&mut then_body)?;
            }
            self.eat(Tok::RBrace)?;
            let mut else_body = Vec::new();
            if self.at_keyword("else") {
                self.bump();
                self.eat(Tok::LBrace)?;
                while *self.peek() != Tok::RBrace {
                    self.command(&mut else_body)?;
                }
                self.eat(Tok::RBrace)?;
            }
            out.push(Command::IfGen {
                lhs,
                op,
                rhs,
                then_body,
                else_body,
            });
            return Ok(());
        }
        // A literal can only start a connect source, never a definition, so
        // a leading number is a (rejected-by-the-checker) connect target.
        if matches!(self.peek(), Tok::Num(_)) {
            let dst = self.port_ref()?;
            self.eat(Tok::Eq)?;
            let src = self.port_ref()?;
            self.eat(Tok::Semi)?;
            out.push(Command::Connect { dst, src });
            return Ok(());
        }
        // `x[i]* := ...` (definition) vs `port = port` (connection): parse
        // the leading, possibly indexed, name and dispatch on what follows.
        let first = self.iname()?;
        if *self.peek() == Tok::ColonEq {
            let name = first;
            self.bump();
            if self.at_keyword("new") {
                self.bump();
                let component = self.ident()?;
                let mut params = Vec::new();
                if *self.peek() == Tok::LBrack {
                    self.bump();
                    loop {
                        params.push(self.const_expr()?);
                        if *self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.eat(Tok::RBrack)?;
                }
                if *self.peek() == Tok::LAngle {
                    // Fused form: `x := new C[p]<G>(args)` — desugars to an
                    // anonymous instance plus the invocation `x`.
                    let inst_name = IName {
                        base: format!("{}#inst", name.base),
                        idx: name.idx.clone(),
                    };
                    out.push(Command::Instance {
                        name: inst_name.clone(),
                        component,
                        params,
                    });
                    self.invoke_suffix(name, inst_name, out)?;
                } else {
                    out.push(Command::Instance {
                        name,
                        component,
                        params,
                    });
                }
            } else {
                let instance = self.iname()?;
                self.invoke_suffix(name, instance, out)?;
            }
            self.eat(Tok::Semi)?;
        } else {
            let dst = self.port_ref_rest(first)?;
            self.eat(Tok::Eq)?;
            let src = self.port_ref()?;
            self.eat(Tok::Semi)?;
            out.push(Command::Connect { dst, src });
        }
        Ok(())
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(s) if s == "extern" => {
                    self.bump();
                    let sig = self.signature()?;
                    self.eat(Tok::Semi)?;
                    Arc::make_mut(&mut program.externs).push(sig);
                }
                Tok::Ident(s) if s == "comp" => {
                    let sig = self.signature()?;
                    self.eat(Tok::LBrace)?;
                    let mut body = Vec::new();
                    while *self.peek() != Tok::RBrace {
                        self.command(&mut body)?;
                    }
                    self.eat(Tok::RBrace)?;
                    program.components.push(Component { sig, body });
                }
                other => {
                    return Err(self.error(format!(
                        "expected 'extern' or 'comp' at top level, found {other}"
                    )))
                }
            }
        }
        Ok(program)
    }
}

/// Parses a complete Filament program.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
///
/// # Examples
///
/// ```
/// let p = filament_core::parse_program(
///     "extern comp Add<T: 1>(@[T, T+1] l: 32, @[T, T+1] r: 32) -> (@[T, T+1] o: 32);",
/// )?;
/// assert_eq!(p.externs.len(), 1);
/// # Ok::<(), filament_core::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    Parser::new(src)?.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_extern_adder() {
        let p = parse_program(
            "extern comp Add<T: 1>(@interface[T] go: 1, @[T, T+1] left: 32, \
             @[T, T+1] right: 32) -> (@[T, T+1] out: 32);",
        )
        .unwrap();
        let sig = &p.externs[0];
        assert_eq!(sig.name, "Add");
        assert_eq!(sig.events[0].delay, Delay::Const(1));
        assert_eq!(sig.interfaces[0].name, "go");
        assert_eq!(sig.inputs.len(), 2);
        assert_eq!(sig.outputs[0].liveness.to_string(), "[T, T+1)");
    }

    #[test]
    fn parses_register_signature() {
        // Section 3.6's register with parametric delay and ordering
        // constraint.
        let p = parse_program(
            "extern comp Register<G: L-(G+1), L: 1>(@interface[G] en: 1, \
             @[G, G+1] in: 32) -> (@[G+1, L] out: 32) where L > G+1;",
        )
        .unwrap();
        let sig = &p.externs[0];
        assert_eq!(
            sig.events[0].delay,
            Delay::Diff(Time::event("L"), Time::new("G", 1))
        );
        assert_eq!(sig.constraints.len(), 1);
        assert_eq!(sig.constraints[0].op, ConstraintOp::Gt);
        assert_eq!(sig.constraints[0].rhs, Time::new("G", 1));
    }

    #[test]
    fn parses_component_with_body() {
        let p = parse_program(
            "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] a: 32) -> (@[G, G+1] o: 32) {
               A := new Add;
               a0 := A<G>(a, a);
               o = a0.out;
             }",
        )
        .unwrap();
        let c = &p.components[0];
        assert_eq!(c.body.len(), 3);
        assert!(matches!(&c.body[0], Command::Instance { name, .. } if name.base == "A"));
        assert!(matches!(
            &c.body[1],
            Command::Invoke { events, args, .. } if events.len() == 1 && args.len() == 2
        ));
        assert!(matches!(&c.body[2], Command::Connect { .. }));
    }

    #[test]
    fn parses_fused_new_invoke() {
        // Appendix B.1's systolic array style: `r := new Prev[32, 1]<G>(l0);`
        let p = parse_program(
            "comp M<G: 1>(@[G, G+1] l0: 32) -> (@[G, G+1] o: 32) {
               r := new Prev[32, 1]<G>(l0);
               o = r.prev;
             }",
        )
        .unwrap();
        let body = &p.components[0].body;
        assert_eq!(body.len(), 3);
        match &body[0] {
            Command::Instance { name, params, .. } => {
                assert_eq!(name.base, "r#inst");
                assert_eq!(params, &vec![ConstExpr::Lit(32), ConstExpr::Lit(1)]);
            }
            other => panic!("expected instance, got {other:?}"),
        }
        match &body[1] {
            Command::Invoke { name, instance, .. } => {
                assert_eq!(name.base, "r");
                assert_eq!(instance.base, "r#inst");
            }
            other => panic!("expected invoke, got {other:?}"),
        }
    }

    #[test]
    fn parses_param_arithmetic_widths() {
        let p = parse_program(
            "extern comp Pack[N, W]<T: 1>(@[T, T+1] a: N*W) -> (@[T, T+1] o: N*W+1);",
        )
        .unwrap();
        let sig = &p.externs[0];
        assert_eq!(
            sig.inputs[0].width,
            ConstExpr::Bin(
                ConstOp::Mul,
                Box::new(ConstExpr::Param("N".into())),
                Box::new(ConstExpr::Param("W".into())),
            )
        );
        assert_eq!(sig.outputs[0].width.to_string(), "N * W + 1");
        // pow2/log2 call syntax.
        let p = parse_program(
            "extern comp Dec[N]<T: 1>(@[T, T+1] a: log2(N)) -> (@[T, T+1] o: pow2(N));",
        )
        .unwrap();
        assert_eq!(p.externs[0].inputs[0].width.to_string(), "log2(N)");
        assert_eq!(p.externs[0].outputs[0].width.to_string(), "pow2(N)");
        // An identifier named pow2 *not* followed by '(' is still a param.
        let p = parse_program("extern comp A[pow2]<T: 1>(@[T, T+1] a: pow2) -> ();").unwrap();
        assert_eq!(
            p.externs[0].inputs[0].width,
            ConstExpr::Param("pow2".into())
        );
    }

    #[test]
    fn parses_for_generate_with_indexed_names() {
        let p = parse_program(
            "comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {
               s[0] := new Delay[W]<G>(in);
               for i in 1..D {
                 s[i] := new Delay[W]<G+i>(s[i-1].out);
               }
               out = s[D-1].out;
             }",
        )
        .unwrap();
        let c = &p.components[0];
        // Signature offsets are symbolic.
        assert_eq!(c.sig.outputs[0].liveness.start.to_string(), "G+D");
        // Body: fused instance + invoke for s[0], then the loop, then the
        // connection.
        assert_eq!(c.body.len(), 4);
        match &c.body[2] {
            Command::ForGen { var, lo, hi, body } => {
                assert_eq!(var, "i");
                assert_eq!(lo, &ConstExpr::Lit(1));
                assert_eq!(hi, &ConstExpr::Param("D".into()));
                assert_eq!(body.len(), 2, "fused form inside the loop");
                match &body[1] {
                    Command::Invoke {
                        name, events, args, ..
                    } => {
                        assert_eq!(name.base, "s");
                        assert_eq!(name.idx, vec![ConstExpr::Param("i".into())]);
                        assert_eq!(events[0].to_string(), "G+i");
                        match &args[0] {
                            Port::Inv { invocation, port } => {
                                assert_eq!(invocation.to_string(), "s[i - 1]");
                                assert_eq!(port, "out");
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("expected for-generate, got {other:?}"),
        }
        match &c.body[3] {
            Command::Connect {
                src: Port::Inv { invocation, .. },
                ..
            } => {
                assert_eq!(invocation.base, "s");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_nested_for_generate() {
        let p = parse_program(
            "comp M[N]<G: 1>(@[G, G+1] a: 8) -> () {
               for i in 0..N {
                 for j in 0..N {
                   pe[i][j] := new P[8];
                 }
               }
             }",
        )
        .unwrap();
        match &p.components[0].body[0] {
            Command::ForGen { body, .. } => match &body[0] {
                Command::ForGen { body, .. } => match &body[0] {
                    Command::Instance { name, .. } => {
                        assert_eq!(name.to_string(), "pe[i][j]");
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexed_connect_target_is_a_bundle_element() {
        // A singly-indexed bare name is a bundle-element reference (the
        // checker rejects it if the port is not a bundle); only multi-index
        // names remain parse errors without a '.port'.
        let p = parse_program(
            "comp M<G: 1>(@[G, G+1] a: 8) -> (@[G, G+1] o[k: 0..2]: 8) { o[1] = a; }",
        )
        .unwrap();
        match &p.components[0].body[0] {
            Command::Connect { dst, .. } => {
                assert_eq!(
                    dst,
                    &Port::Bundle {
                        port: "o".into(),
                        idx: ConstExpr::Lit(1)
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        let err =
            parse_program("comp M<G: 1>(@[G, G+1] a: 8) -> (@[G, G+1] o: 8) { o[1][2] = a; }")
                .unwrap_err();
        assert!(err.to_string().contains("single index"), "{err}");
    }

    #[test]
    fn parses_bundle_ports() {
        let p = parse_program(
            "comp M[N, W]<G: 1>(@[G, G+1] left[i: 0..N]: W) \
             -> (@[G+k, G+(k+1)] out[k: N*N]: W) { }",
        )
        .unwrap();
        let sig = &p.components[0].sig;
        let b = sig.inputs[0].bundle.as_ref().unwrap();
        assert_eq!(b.var, "i");
        assert_eq!(b.lo, ConstExpr::Lit(0));
        assert_eq!(b.hi, ConstExpr::Param("N".into()));
        // `[k: N*N]` is sugar for `[k: 0..N*N]`.
        let ob = sig.outputs[0].bundle.as_ref().unwrap();
        assert_eq!(ob.lo, ConstExpr::Lit(0));
        assert_eq!(ob.hi.to_string(), "N * N");
        assert_eq!(sig.outputs[0].liveness.start.to_string(), "G+k");
    }

    #[test]
    fn parses_bundle_element_references() {
        let p = parse_program(
            "comp M[N]<G: 1>(@[G, G+1] in[i: 0..N]: 8) -> (@[G, G+1] out[i: 0..N]: 8) {
               s := new Sub[N]<G>(in);
               for i in 0..N {
                 out[i] = s.res[i];
               }
             }",
        )
        .unwrap();
        // Fused form desugars to Instance + Invoke, so the loop is body[2].
        match &p.components[0].body[2] {
            Command::ForGen { body, .. } => match &body[0] {
                Command::Connect { dst, src } => {
                    assert_eq!(dst.to_string(), "out[i]");
                    assert_eq!(
                        src,
                        &Port::InvBundle {
                            invocation: "s".into(),
                            port: "res".into(),
                            idx: ConstExpr::Param("i".into()),
                        }
                    );
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // A whole bundle passed by name stays a plain This reference.
        match &p.components[0].body[1] {
            Command::Invoke { args, .. } => assert_eq!(args[0], Port::This("in".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_if_generate() {
        let p = parse_program(
            "comp M[N]<G: 1>(@[G, G+1] a: 8) -> () {
               for i in 0..N {
                 if i == 0 {
                   z[i] := new First[8];
                 } else {
                   z[i] := new Rest[8];
                 }
                 if i != N - 1 { }
               }
             }",
        )
        .unwrap();
        match &p.components[0].body[0] {
            Command::ForGen { body, .. } => {
                match &body[0] {
                    Command::IfGen {
                        lhs,
                        op,
                        rhs,
                        then_body,
                        else_body,
                    } => {
                        assert_eq!(lhs, &ConstExpr::Param("i".into()));
                        assert_eq!(*op, CmpOp::Eq);
                        assert_eq!(rhs, &ConstExpr::Lit(0));
                        assert_eq!(then_body.len(), 1);
                        assert_eq!(else_body.len(), 1);
                    }
                    other => panic!("{other:?}"),
                }
                match &body[1] {
                    Command::IfGen { op, else_body, .. } => {
                        assert_eq!(*op, CmpOp::Ne);
                        assert!(else_body.is_empty());
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_generate_all_comparisons_parse() {
        for op in ["==", "!=", "<", "<=", ">", ">="] {
            let src = format!("comp M[N]<G: 1>() -> () {{ if N {op} 4 {{ }} }}");
            let p = parse_program(&src).unwrap_or_else(|e| panic!("{op}: {e}"));
            assert!(matches!(&p.components[0].body[0], Command::IfGen { .. }));
        }
    }

    #[test]
    fn bundle_syntax_errors_have_spans() {
        // Empty literal index range: the span points at the range tokens.
        let err = parse_program("comp M<G: 1>(@[G, G+1] in[i: 5..2]: 8) -> () { }").unwrap_err();
        assert!(err.to_string().contains("empty index range"), "{err}");
        assert_eq!((err.line, err.col), (1, 30), "{err}");
        // Zero-size bundle via the length-sugar form.
        let err = parse_program("comp M<G: 1>(@[G, G+1] in[i: 0]: 8) -> () { }").unwrap_err();
        assert!(err.to_string().contains("empty index range"), "{err}");
        assert_eq!((err.line, err.col), (1, 30), "{err}");
        // Bad index range: '..' with no lower bound is not a cexpr.
        let err = parse_program("comp M<G: 1>(@[G, G+1] in[i: ..4]: 8) -> () { }").unwrap_err();
        assert!(
            err.to_string().contains("expected constant expression"),
            "{err}"
        );
        assert_eq!((err.line, err.col), (1, 30), "{err}");
        // Missing width after the binder: the error points at the token
        // where ':' was expected.
        let err = parse_program("comp M<G: 1>(@[G, G+1] in[i: 0..4]) -> () { }").unwrap_err();
        assert!(err.to_string().contains("':'"), "{err}");
        assert_eq!((err.line, err.col), (1, 35), "{err}");
        // Missing binder variable.
        let err = parse_program("comp M<G: 1>(@[G, G+1] in[: 0..4]: 8) -> () { }").unwrap_err();
        assert!(err.to_string().contains("identifier"), "{err}");
    }

    #[test]
    fn stray_bang_is_rejected() {
        let err = parse_program("comp M<G: 1>() -> () { if 1 ! 2 { } }").unwrap_err();
        assert!(err.to_string().contains("'='"), "{err}");
    }

    #[test]
    fn parses_multi_event_invocation_and_literal_args() {
        let p = parse_program(
            "comp M<G: 2>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
               R := new Register;
               r0 := R<G, G+2>(x);
               mx := new Mux[8]<G+1>(r0.out, 0);
               o = mx.out;
             }",
        )
        .unwrap();
        let body = &p.components[0].body;
        match &body[1] {
            Command::Invoke { events, .. } => {
                assert_eq!(events, &vec![Time::event("G"), Time::new("G", 2)]);
            }
            other => panic!("{other:?}"),
        }
        match &body[3] {
            Command::Invoke { args, .. } => {
                assert_eq!(args[1], Port::Lit(0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_param_widths() {
        let p = parse_program(
            "extern comp Add[W]<T: 1>(@[T, T+1] l: W, @[T, T+1] r: W) -> (@[T, T+1] o: W);",
        )
        .unwrap();
        let sig = &p.externs[0];
        assert_eq!(sig.params, vec![ParamDecl::free("W")]);
        assert_eq!(sig.inputs[0].width, ConstExpr::Param("W".into()));
    }

    #[test]
    fn parses_derived_params() {
        let p = parse_program(
            "comp Enc[N, some W = log2(N), some D = W / 2]<G: 1>(@[G, G+1] in: N)
                 -> (@[G, G+1] out: W) { }",
        )
        .unwrap();
        let sig = &p.components[0].sig;
        assert_eq!(sig.params.len(), 3);
        assert_eq!(sig.params[0], ParamDecl::free("N"));
        assert_eq!(
            sig.params[1],
            ParamDecl::derived("W", ConstExpr::Log2(Box::new(ConstExpr::Param("N".into()))))
        );
        assert_eq!(sig.params[2].name, "D");
        assert_eq!(sig.params[2].derive.as_ref().unwrap().to_string(), "W / 2");
        assert_eq!(sig.free_param_count(), 1);
        assert_eq!(sig.outputs[0].width, ConstExpr::Param("W".into()));
        // Externs may declare derived parameters too.
        let p = parse_program(
            "extern comp Sel[W, HI, LO, some OW = HI - LO + 1]<G: 1>(@[G, G+1] in: W)
                 -> (@[G, G+1] out: OW);",
        )
        .unwrap();
        assert_eq!(p.externs[0].free_param_count(), 3);
        assert_eq!(
            p.externs[0].params[3].derive.as_ref().unwrap().to_string(),
            "HI - LO + 1"
        );
        // An identifier named `some` still works outside the binder position
        // (e.g. as a width parameter reference).
        let p = parse_program("extern comp A[W]<T: 1>(@[T, T+1] some: W) -> ();").unwrap();
        assert_eq!(p.externs[0].inputs[0].name, "some");
    }

    #[test]
    fn derived_param_syntax_errors_have_spans() {
        // Missing '=' after the derived name.
        let err = parse_program("comp A[N, some W]<G: 1>() -> () { }").unwrap_err();
        assert!(err.to_string().contains("'='"), "{err}");
        assert_eq!((err.line, err.col), (1, 17), "{err}");
        // Missing name after `some`.
        let err = parse_program("comp A[N, some = 3]<G: 1>() -> () { }").unwrap_err();
        assert!(err.to_string().contains("identifier"), "{err}");
        assert_eq!((err.line, err.col), (1, 16), "{err}");
        // Missing derivation expression.
        let err = parse_program("comp A[N, some W = ]<G: 1>() -> () { }").unwrap_err();
        assert!(err.to_string().contains("constant expression"), "{err}");
        assert_eq!((err.line, err.col), (1, 20), "{err}");
    }

    #[test]
    fn parses_instance_param_reads() {
        let p = parse_program(
            "comp Top<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 3) {
               e := new Enc[8]<G>(x);
               d := new Delay[e.W]<G+e.W>(e.out);
               o = d.out;
             }",
        )
        .unwrap();
        let body = &p.components[0].body;
        // Fused form: Instance(e#inst), Invoke(e), Instance(d#inst), ...
        match &body[2] {
            Command::Instance { params, .. } => {
                assert_eq!(params, &vec![ConstExpr::InstParam("e".into(), "W".into())]);
                assert_eq!(params[0].to_string(), "e.W");
            }
            other => panic!("{other:?}"),
        }
        match &body[3] {
            Command::Invoke { events, .. } => {
                assert_eq!(events[0].to_string(), "G+e.W");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_comments() {
        let p = parse_program("// line comment\n/* block\ncomment */ extern comp A<T: 1>() -> ();")
            .unwrap();
        assert_eq!(p.externs.len(), 1);
    }

    #[test]
    fn default_delay_is_one() {
        let p = parse_program("extern comp A<T>() -> ();").unwrap();
        assert_eq!(p.externs[0].events[0].delay, Delay::Const(1));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("extern comp A<T: 1>() -> () ").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("';'"));
    }

    #[test]
    fn error_on_wide_interface_port() {
        let err = parse_program("extern comp A<T: 1>(@interface[T] go: 2) -> ();").unwrap_err();
        assert!(err.to_string().contains("width 1"));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_program("comp ? <>").is_err());
        assert!(parse_program("module A;").is_err());
        assert!(parse_program("extern comp A<T: 1>(@[T T+1] x: 1) -> ();").is_err());
    }

    #[test]
    fn error_on_unterminated_comment() {
        assert!(parse_program("/* never ends").is_err());
    }

    #[test]
    fn number_overflow_is_reported() {
        let err = parse_program("extern comp A<T: 99999999999999999999> () -> ();").unwrap_err();
        assert!(err.to_string().contains("overflow"));
    }
}
