//! A scannerless recursive-descent parser for the supported XQuery subset,
//! including the XRPC `execute at` extension, exactly as the paper's grammar
//! change specifies:
//!
//! ```text
//! PrimaryExpr ::= ... | FunctionCall | XRPCCall | ...
//! XRPCCall    ::= "execute at" "{" ExprSingle "}" "{" FunctionCall "}"
//! ```

use crate::ast::*;
use xdm::atomic::AtomicValue;
use xdm::decimal::Decimal;
use xdm::error::{XdmError, XdmResult};
use xdm::ops::ArithOp;
use xdm::types::{AtomicType, ItemKind, Occurrence, SeqType};

/// Parse any module (library if it starts with `module namespace`).
pub fn parse_module(input: &str) -> XdmResult<Module> {
    let mut p = P::new(input);
    p.skip_ws();
    p.version_decl()?;
    p.skip_ws();
    if p.peek_keyword("module") {
        Ok(Module::Library(p.library_module()?))
    } else {
        Ok(Module::Main(p.main_module()?))
    }
}

/// Parse a main module (runnable query).
pub fn parse_main_module(input: &str) -> XdmResult<MainModule> {
    match parse_module(input)? {
        Module::Main(m) => Ok(m),
        Module::Library(_) => Err(XdmError::syntax(
            "expected a main module, found a library module",
        )),
    }
}

/// Parse a library module (`module namespace p = "uri"; ...`).
pub fn parse_library_module(input: &str) -> XdmResult<LibraryModule> {
    match parse_module(input)? {
        Module::Library(m) => Ok(m),
        Module::Main(_) => Err(XdmError::syntax(
            "expected a library module, found a main module",
        )),
    }
}

struct P<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn new(input: &'a str) -> Self {
        P { input, pos: 0 }
    }

    fn err<T>(&self, msg: impl Into<String>) -> XdmResult<T> {
        let around: String = self.input[self.pos..].chars().take(30).collect();
        Err(XdmError::syntax(format!(
            "{} (at offset {}, near `{}`)",
            msg.into(),
            self.pos,
            around
        )))
    }

    fn rest(&self) -> &str {
        &self.input[self.pos..]
    }

    fn peek_ch(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    /// Skip whitespace and (nested) XQuery comments `(: ... :)`.
    fn skip_ws(&mut self) {
        loop {
            let before = self.pos;
            while matches!(self.peek_ch(), Some(c) if c.is_whitespace()) {
                self.pos += self.peek_ch().unwrap().len_utf8();
            }
            if self.rest().starts_with("(:") {
                let mut depth = 0usize;
                while self.pos < self.input.len() {
                    if self.rest().starts_with("(:") {
                        depth += 1;
                        self.bump(2);
                    } else if self.rest().starts_with(":)") {
                        depth -= 1;
                        self.bump(2);
                        if depth == 0 {
                            break;
                        }
                    } else {
                        self.pos += self.peek_ch().map(|c| c.len_utf8()).unwrap_or(1);
                    }
                }
            }
            if self.pos == before {
                return;
            }
        }
    }

    /// Try to consume a symbol (no word-boundary requirement).
    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(s) {
            self.bump(s.len());
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> XdmResult<()> {
        if self.eat(s) {
            Ok(())
        } else {
            self.err(format!("expected `{}`", s))
        }
    }

    /// Look ahead for a keyword (NCName followed by a non-name char).
    fn peek_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        r.starts_with(kw)
            && !r[kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.bump(kw.len());
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> XdmResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword `{}`", kw))
        }
    }

    /// Two consecutive keywords (`order by`, `execute at`, ...).
    fn peek_keyword2(&mut self, a: &str, b: &str) -> bool {
        let save = self.pos;
        let ok = self.eat_keyword(a) && self.peek_keyword(b);
        self.pos = save;
        ok
    }

    fn ncname(&mut self) -> XdmResult<String> {
        self.skip_ws();
        let start = self.pos;
        let mut chars = self.rest().char_indices();
        match chars.next() {
            Some((_, c)) if c.is_alphabetic() || c == '_' => {}
            _ => return self.err("expected a name"),
        }
        let mut len = 1;
        for (i, c) in chars {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.') {
                len = i + c.len_utf8();
            } else {
                len = i;
                break;
            }
        }
        // handle name running to end of input
        if start + len > self.input.len() || len == 0 {
            len = self.rest().len();
        }
        let name = &self.rest()[..len];
        // A name cannot end with '.' or '-'; trim if it happened.
        let name = name.trim_end_matches(['.', '-']);
        let name = name.to_string();
        self.bump(name.len());
        Ok(name)
    }

    /// QName: `ncname (":" ncname)?` with no whitespace around `:`.
    /// A `:` followed by a non-name character (e.g. `f:*`) is left in place.
    fn qname(&mut self) -> XdmResult<Name> {
        let first = self.ncname()?;
        if self.rest().starts_with(':')
            && !self.rest().starts_with("::")
            && !self.rest().starts_with(":=")
            && self.rest()[1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            self.bump(1);
            let second = self.ncname_nows()?;
            Ok(Name::prefixed(first, second))
        } else {
            Ok(Name::local(first))
        }
    }

    fn ncname_nows(&mut self) -> XdmResult<String> {
        // like ncname but without leading ws skip
        let mut chars = self.rest().char_indices();
        match chars.next() {
            Some((_, c)) if c.is_alphabetic() || c == '_' => {}
            _ => return self.err("expected a name after `:`"),
        }
        let mut len = self.rest().chars().next().unwrap().len_utf8();
        for (i, c) in self.rest().char_indices().skip(1) {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.') {
                len = i + c.len_utf8();
            } else {
                break;
            }
        }
        let name = self.rest()[..len].to_string();
        self.bump(len);
        Ok(name)
    }

    /// String literal with doubled-quote escapes and XML entity refs.
    fn string_literal(&mut self) -> XdmResult<String> {
        self.skip_ws();
        let quote = match self.peek_ch() {
            Some(q @ ('"' | '\'')) => q,
            _ => return self.err("expected a string literal"),
        };
        self.bump(1);
        let mut out = String::new();
        loop {
            match self.peek_ch() {
                Some(c) if c == quote => {
                    self.bump(1);
                    // doubled quote = escaped quote
                    if self.peek_ch() == Some(quote) {
                        out.push(quote);
                        self.bump(1);
                    } else {
                        return Ok(out);
                    }
                }
                Some('&') => {
                    out.push(self.entity_ref()?);
                }
                Some(c) => {
                    out.push(c);
                    self.bump(c.len_utf8());
                }
                None => return self.err("unterminated string literal"),
            }
        }
    }

    fn entity_ref(&mut self) -> XdmResult<char> {
        debug_assert_eq!(self.peek_ch(), Some('&'));
        self.bump(1);
        let end = match self.rest().find(';') {
            Some(i) if i <= 10 => i,
            _ => return self.err("unterminated entity reference"),
        };
        let name = &self.rest()[..end];
        let c = match name {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if name.starts_with("#x") => char::from_u32(
                u32::from_str_radix(&name[2..], 16)
                    .map_err(|_| XdmError::syntax("bad character reference"))?,
            )
            .ok_or_else(|| XdmError::syntax("bad code point"))?,
            _ if name.starts_with('#') => char::from_u32(
                name[1..]
                    .parse()
                    .map_err(|_| XdmError::syntax("bad character reference"))?,
            )
            .ok_or_else(|| XdmError::syntax("bad code point"))?,
            _ => return self.err(format!("unknown entity `&{};`", name)),
        };
        self.bump(end + 1);
        Ok(c)
    }

    // ------------------------------------------------------------------
    // Modules and prolog
    // ------------------------------------------------------------------

    fn version_decl(&mut self) -> XdmResult<()> {
        if self.peek_keyword2("xquery", "version") {
            self.expect_keyword("xquery")?;
            self.expect_keyword("version")?;
            let _ = self.string_literal()?;
            if self.eat_keyword("encoding") {
                let _ = self.string_literal()?;
            }
            self.expect(";")?;
        }
        Ok(())
    }

    fn library_module(&mut self) -> XdmResult<LibraryModule> {
        self.expect_keyword("module")?;
        self.expect_keyword("namespace")?;
        let prefix = self.ncname()?;
        self.expect("=")?;
        let ns_uri = self.string_literal()?;
        self.expect(";")?;
        let prolog = self.prolog()?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return self.err("unexpected content after library module prolog");
        }
        Ok(LibraryModule {
            prefix,
            ns_uri,
            prolog,
        })
    }

    fn main_module(&mut self) -> XdmResult<MainModule> {
        let prolog = self.prolog()?;
        let body = self.expr()?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return self.err("unexpected trailing content after query body");
        }
        Ok(MainModule { prolog, body })
    }

    fn prolog(&mut self) -> XdmResult<Prolog> {
        let mut prolog = Prolog::default();
        loop {
            self.skip_ws();
            if self.peek_keyword("declare") {
                let save = self.pos;
                self.expect_keyword("declare")?;
                if self.eat_keyword("namespace") {
                    let p = self.ncname()?;
                    self.expect("=")?;
                    let u = self.string_literal()?;
                    self.expect(";")?;
                    prolog.namespaces.push((p, u));
                } else if self.eat_keyword("default") {
                    if self.eat_keyword("element") {
                        self.expect_keyword("namespace")?;
                        prolog.default_element_ns = Some(self.string_literal()?);
                    } else if self.eat_keyword("function") {
                        self.expect_keyword("namespace")?;
                        prolog.default_function_ns = Some(self.string_literal()?);
                    } else if self.eat_keyword("collation") {
                        prolog.default_collation = Some(self.string_literal()?);
                    } else {
                        return self.err(
                            "expected `element`, `function` or `collation` after `declare default`",
                        );
                    }
                    self.expect(";")?;
                } else if self.eat_keyword("base-uri") {
                    prolog.base_uri = Some(self.string_literal()?);
                    self.expect(";")?;
                } else if self.eat_keyword("option") {
                    let name = self.qname()?;
                    let value = self.string_literal()?;
                    self.expect(";")?;
                    prolog.options.push((name, value));
                } else if self.eat_keyword("variable") {
                    self.expect("$")?;
                    let name = self.qname()?;
                    let ty = if self.eat_keyword("as") {
                        Some(self.sequence_type()?)
                    } else {
                        None
                    };
                    // `:= expr`, `external`, or `external := default-expr`
                    let (value, external) = if self.eat_keyword("external") {
                        let default = if self.eat(":=") {
                            Some(self.expr_single()?)
                        } else {
                            None
                        };
                        (default, true)
                    } else {
                        self.expect(":=")?;
                        (Some(self.expr_single()?), false)
                    };
                    self.expect(";")?;
                    prolog.variables.push(VarDecl {
                        name,
                        ty,
                        value,
                        external,
                    });
                } else if self.peek_keyword("updating") || self.peek_keyword("function") {
                    let updating = self.eat_keyword("updating");
                    self.expect_keyword("function")?;
                    let f = self.function_decl(updating)?;
                    self.expect(";")?;
                    prolog.functions.push(f);
                } else {
                    // Unknown declare (boundary-space, construction, ...):
                    // skip to the next `;` for forward compatibility.
                    self.pos = save;
                    self.skip_declaration()?;
                }
            } else if self.peek_keyword("import") {
                self.expect_keyword("import")?;
                if self.eat_keyword("module") {
                    self.expect_keyword("namespace")?;
                    let prefix = self.ncname()?;
                    self.expect("=")?;
                    let ns_uri = self.string_literal()?;
                    let mut at_hints = Vec::new();
                    if self.eat_keyword("at") {
                        at_hints.push(self.string_literal()?);
                        while self.eat(",") {
                            at_hints.push(self.string_literal()?);
                        }
                    }
                    self.expect(";")?;
                    prolog.module_imports.push(ModuleImport {
                        prefix,
                        ns_uri,
                        at_hints,
                    });
                } else if self.eat_keyword("schema") {
                    // Schema imports are accepted and ignored (we do not
                    // implement XML Schema validation; see DESIGN.md).
                    self.skip_declaration()?;
                } else {
                    return self.err("expected `module` or `schema` after `import`");
                }
            } else {
                break;
            }
        }
        Ok(prolog)
    }

    fn skip_declaration(&mut self) -> XdmResult<()> {
        while let Some(c) = self.peek_ch() {
            if c == ';' {
                self.bump(1);
                return Ok(());
            }
            if c == '"' || c == '\'' {
                let _ = self.string_literal()?;
            } else {
                self.bump(c.len_utf8());
            }
        }
        self.err("unterminated declaration")
    }

    fn function_decl(&mut self, updating: bool) -> XdmResult<FunctionDecl> {
        let name = self.qname()?;
        self.expect("(")?;
        let mut params = Vec::new();
        self.skip_ws();
        if !self.rest().starts_with(')') {
            loop {
                self.expect("$")?;
                let pname = self.qname()?;
                let ty = if self.eat_keyword("as") {
                    Some(self.sequence_type()?)
                } else {
                    None
                };
                params.push((pname, ty));
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(")")?;
        let ret = if self.eat_keyword("as") {
            Some(self.sequence_type()?)
        } else {
            None
        };
        self.expect("{")?;
        let body = self.expr()?;
        self.expect("}")?;
        Ok(FunctionDecl {
            name,
            params,
            ret,
            body,
            updating,
        })
    }

    // ------------------------------------------------------------------
    // Sequence types
    // ------------------------------------------------------------------

    fn sequence_type(&mut self) -> XdmResult<SeqType> {
        self.skip_ws();
        if self.eat_keyword("empty-sequence") {
            self.expect("(")?;
            self.expect(")")?;
            return Ok(SeqType::empty());
        }
        let kind = self.item_kind()?;
        let occurrence = if self.eat("?") {
            Occurrence::ZeroOrOne
        } else if self.eat("*") {
            Occurrence::ZeroOrMore
        } else if self.eat("+") {
            Occurrence::OneOrMore
        } else {
            Occurrence::One
        };
        Ok(SeqType { kind, occurrence })
    }

    fn item_kind(&mut self) -> XdmResult<ItemKind> {
        self.skip_ws();
        for (kw, kind) in [
            ("item", ItemKind::AnyItem),
            ("node", ItemKind::AnyNode),
            ("text", ItemKind::Text),
            ("comment", ItemKind::Comment),
            ("document-node", ItemKind::DocumentNode),
            ("processing-instruction", ItemKind::Pi),
        ] {
            if self.peek_kind_test(kw) {
                self.expect_keyword(kw)?;
                self.expect("(")?;
                // allow (and ignore) an inner test for document-node(...)
                self.skip_to_matching_paren()?;
                return Ok(kind);
            }
        }
        if self.peek_kind_test("element") {
            self.expect_keyword("element")?;
            self.expect("(")?;
            self.skip_ws();
            let name = if self.rest().starts_with(')') || self.rest().starts_with('*') {
                let _ = self.eat("*");
                None
            } else {
                Some(self.qname()?.lexical())
            };
            self.skip_to_matching_paren()?;
            return Ok(ItemKind::Element(name));
        }
        if self.peek_kind_test("attribute") {
            self.expect_keyword("attribute")?;
            self.expect("(")?;
            self.skip_ws();
            let name = if self.rest().starts_with(')') || self.rest().starts_with('*') {
                let _ = self.eat("*");
                None
            } else {
                Some(self.qname()?.lexical())
            };
            self.skip_to_matching_paren()?;
            return Ok(ItemKind::Attribute(name));
        }
        // Atomic type name.
        let name = self.qname()?;
        match AtomicType::from_xs_name(&name.lexical()) {
            Some(t) => Ok(ItemKind::Atomic(t)),
            // Unknown named types (user-defined schema types) are treated as
            // item() — we accept but cannot check them.
            None => Ok(ItemKind::AnyItem),
        }
    }

    fn peek_kind_test(&mut self, kw: &str) -> bool {
        let save = self.pos;
        let ok = self.eat_keyword(kw) && self.eat("(");
        self.pos = save;
        ok
    }

    fn skip_to_matching_paren(&mut self) -> XdmResult<()> {
        let mut depth = 1usize;
        while let Some(c) = self.peek_ch() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump(1);
                        return Ok(());
                    }
                }
                _ => {}
            }
            self.bump(c.len_utf8());
        }
        self.err("unbalanced parentheses in type")
    }

    // ------------------------------------------------------------------
    // Expressions (precedence chain)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> XdmResult<Expr> {
        let first = self.expr_single()?;
        if !self.peek_comma() {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(",") {
            items.push(self.expr_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    fn peek_comma(&mut self) -> bool {
        self.skip_ws();
        self.rest().starts_with(',')
    }

    fn expr_single(&mut self) -> XdmResult<Expr> {
        self.skip_ws();
        if self.peek_flwor_start() {
            return self.flwor();
        }
        if self.peek_keyword2("some", "$") || self.peek_quantified("some") {
            return self.quantified(Quantifier::Some);
        }
        if self.peek_quantified("every") {
            return self.quantified(Quantifier::Every);
        }
        if self.peek_keyword2("typeswitch", "(") || self.peek_typeswitch() {
            return self.typeswitch();
        }
        if self.peek_if() {
            return self.if_expr();
        }
        // XQUF expressions
        if self.peek_keyword2("insert", "node") || self.peek_keyword2("insert", "nodes") {
            return self.insert_expr();
        }
        if self.peek_keyword2("delete", "node") || self.peek_keyword2("delete", "nodes") {
            return self.delete_expr();
        }
        if self.peek_keyword2("replace", "node") || self.peek_keyword2("replace", "value") {
            return self.replace_expr();
        }
        if self.peek_keyword2("rename", "node") {
            return self.rename_expr();
        }
        self.or_expr()
    }

    fn peek_flwor_start(&mut self) -> bool {
        // `for $` or `let $`
        let save = self.pos;
        let ok = (self.eat_keyword("for") || {
            self.pos = save;
            self.eat_keyword("let")
        }) && self.eat("$");
        self.pos = save;
        ok
    }

    fn peek_quantified(&mut self, kw: &str) -> bool {
        let save = self.pos;
        let ok = self.eat_keyword(kw) && self.eat("$");
        self.pos = save;
        ok
    }

    fn peek_typeswitch(&mut self) -> bool {
        let save = self.pos;
        let ok = self.eat_keyword("typeswitch") && self.eat("(");
        self.pos = save;
        ok
    }

    fn peek_if(&mut self) -> bool {
        let save = self.pos;
        let ok = self.eat_keyword("if") && self.eat("(");
        self.pos = save;
        ok
    }

    fn flwor(&mut self) -> XdmResult<Expr> {
        let mut clauses = Vec::new();
        loop {
            if self.peek_keyword("for") && {
                let save = self.pos;
                let ok = self.eat_keyword("for") && self.eat("$");
                self.pos = save;
                ok
            } {
                self.expect_keyword("for")?;
                loop {
                    self.expect("$")?;
                    let var = self.qname()?;
                    let pos_var = if self.eat_keyword("at") {
                        self.expect("$")?;
                        Some(self.qname()?)
                    } else {
                        None
                    };
                    // optional type declaration, accepted and ignored
                    if self.eat_keyword("as") {
                        let _ = self.sequence_type()?;
                    }
                    self.expect_keyword("in")?;
                    let seq = self.expr_single()?;
                    clauses.push(FlworClause::For { var, pos_var, seq });
                    if !self.eat(",") {
                        break;
                    }
                }
            } else if self.peek_keyword("let") && {
                let save = self.pos;
                let ok = self.eat_keyword("let") && self.eat("$");
                self.pos = save;
                ok
            } {
                self.expect_keyword("let")?;
                loop {
                    self.expect("$")?;
                    let var = self.qname()?;
                    if self.eat_keyword("as") {
                        let _ = self.sequence_type()?;
                    }
                    self.expect(":=")?;
                    let value = self.expr_single()?;
                    clauses.push(FlworClause::Let { var, value });
                    if !self.eat(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if self.eat_keyword("where") {
            let w = self.expr_single()?;
            clauses.push(FlworClause::Where(w));
        }
        if self.peek_keyword2("order", "by") || self.peek_keyword2("stable", "order") {
            let _ = self.eat_keyword("stable");
            self.expect_keyword("order")?;
            self.expect_keyword("by")?;
            let mut specs = Vec::new();
            loop {
                let key = self.expr_single()?;
                let descending = if self.eat_keyword("descending") {
                    true
                } else {
                    let _ = self.eat_keyword("ascending");
                    false
                };
                let mut empty_least = true;
                if self.eat_keyword("empty") {
                    if self.eat_keyword("greatest") {
                        empty_least = false;
                    } else {
                        self.expect_keyword("least")?;
                    }
                }
                specs.push(OrderSpec {
                    key,
                    descending,
                    empty_least,
                });
                if !self.eat(",") {
                    break;
                }
            }
            clauses.push(FlworClause::OrderBy(specs));
        }
        self.expect_keyword("return")?;
        let ret = self.expr_single()?;
        Ok(Expr::Flwor {
            clauses,
            ret: Box::new(ret),
        })
    }

    fn quantified(&mut self, quantifier: Quantifier) -> XdmResult<Expr> {
        self.expect_keyword(match quantifier {
            Quantifier::Some => "some",
            Quantifier::Every => "every",
        })?;
        let mut bindings = Vec::new();
        loop {
            self.expect("$")?;
            let var = self.qname()?;
            if self.eat_keyword("as") {
                let _ = self.sequence_type()?;
            }
            self.expect_keyword("in")?;
            let seq = self.expr_single()?;
            bindings.push((var, seq));
            if !self.eat(",") {
                break;
            }
        }
        self.expect_keyword("satisfies")?;
        let satisfies = self.expr_single()?;
        Ok(Expr::Quantified {
            quantifier,
            bindings,
            satisfies: Box::new(satisfies),
        })
    }

    fn typeswitch(&mut self) -> XdmResult<Expr> {
        self.expect_keyword("typeswitch")?;
        self.expect("(")?;
        let operand = self.expr()?;
        self.expect(")")?;
        let mut cases = Vec::new();
        while self.eat_keyword("case") {
            let var = if self.eat("$") {
                let v = self.qname()?;
                self.expect_keyword("as")?;
                Some(v)
            } else {
                None
            };
            let ty = self.sequence_type()?;
            self.expect_keyword("return")?;
            let body = self.expr_single()?;
            cases.push(TypeswitchCase { var, ty, body });
        }
        self.expect_keyword("default")?;
        let default_var = if self.eat("$") {
            Some(self.qname()?)
        } else {
            None
        };
        self.expect_keyword("return")?;
        let default = self.expr_single()?;
        Ok(Expr::Typeswitch {
            operand: Box::new(operand),
            cases,
            default_var,
            default: Box::new(default),
        })
    }

    fn if_expr(&mut self) -> XdmResult<Expr> {
        self.expect_keyword("if")?;
        self.expect("(")?;
        let cond = self.expr()?;
        self.expect(")")?;
        self.expect_keyword("then")?;
        let then = self.expr_single()?;
        self.expect_keyword("else")?;
        let els = self.expr_single()?;
        Ok(Expr::If {
            cond: Box::new(cond),
            then: Box::new(then),
            els: Box::new(els),
        })
    }

    fn insert_expr(&mut self) -> XdmResult<Expr> {
        self.expect_keyword("insert")?;
        if !self.eat_keyword("nodes") {
            self.expect_keyword("node")?;
        }
        let source = self.expr_single()?;
        let pos = if self.eat_keyword("into") {
            InsertPos::Into
        } else if self.eat_keyword("as") {
            let p = if self.eat_keyword("first") {
                InsertPos::AsFirstInto
            } else {
                self.expect_keyword("last")?;
                InsertPos::AsLastInto
            };
            self.expect_keyword("into")?;
            p
        } else if self.eat_keyword("before") {
            InsertPos::Before
        } else if self.eat_keyword("after") {
            InsertPos::After
        } else {
            return self.err("expected `into`, `as first/last into`, `before` or `after`");
        };
        let target = self.expr_single()?;
        Ok(Expr::Insert {
            source: Box::new(source),
            target: Box::new(target),
            pos,
        })
    }

    fn delete_expr(&mut self) -> XdmResult<Expr> {
        self.expect_keyword("delete")?;
        if !self.eat_keyword("nodes") {
            self.expect_keyword("node")?;
        }
        let target = self.expr_single()?;
        Ok(Expr::Delete {
            target: Box::new(target),
        })
    }

    fn replace_expr(&mut self) -> XdmResult<Expr> {
        self.expect_keyword("replace")?;
        let value_of = self.eat_keyword("value");
        if value_of {
            self.expect_keyword("of")?;
        }
        self.expect_keyword("node")?;
        let target = self.expr_single()?;
        self.expect_keyword("with")?;
        let with = self.expr_single()?;
        Ok(if value_of {
            Expr::ReplaceValue {
                target: Box::new(target),
                with: Box::new(with),
            }
        } else {
            Expr::ReplaceNode {
                target: Box::new(target),
                with: Box::new(with),
            }
        })
    }

    fn rename_expr(&mut self) -> XdmResult<Expr> {
        self.expect_keyword("rename")?;
        self.expect_keyword("node")?;
        let target = self.expr_single()?;
        self.expect_keyword("as")?;
        let name = self.expr_single()?;
        Ok(Expr::Rename {
            target: Box::new(target),
            name: Box::new(name),
        })
    }

    fn or_expr(&mut self) -> XdmResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> XdmResult<Expr> {
        let mut lhs = self.comparison_expr()?;
        while self.eat_keyword("and") {
            let rhs = self.comparison_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn comparison_expr(&mut self) -> XdmResult<Expr> {
        let lhs = self.range_expr()?;
        self.skip_ws();
        // value comparisons
        for (kw, op) in [
            ("eq", CompOp::Eq),
            ("ne", CompOp::Ne),
            ("lt", CompOp::Lt),
            ("le", CompOp::Le),
            ("gt", CompOp::Gt),
            ("ge", CompOp::Ge),
        ] {
            if self.peek_keyword(kw) {
                self.expect_keyword(kw)?;
                let rhs = self.range_expr()?;
                return Ok(Expr::ValueComp(op, Box::new(lhs), Box::new(rhs)));
            }
        }
        // node comparisons
        if self.peek_keyword("is") {
            self.expect_keyword("is")?;
            let rhs = self.range_expr()?;
            return Ok(Expr::NodeComp(NodeCompOp::Is, Box::new(lhs), Box::new(rhs)));
        }
        if self.rest().starts_with("<<") {
            self.bump(2);
            let rhs = self.range_expr()?;
            return Ok(Expr::NodeComp(
                NodeCompOp::Precedes,
                Box::new(lhs),
                Box::new(rhs),
            ));
        }
        if self.rest().starts_with(">>") {
            self.bump(2);
            let rhs = self.range_expr()?;
            return Ok(Expr::NodeComp(
                NodeCompOp::Follows,
                Box::new(lhs),
                Box::new(rhs),
            ));
        }
        // general comparisons (careful: `<` could begin a constructor only
        // at primary positions, which we are past)
        let op = if self.rest().starts_with("!=") {
            self.bump(2);
            Some(CompOp::Ne)
        } else if self.rest().starts_with("<=") {
            self.bump(2);
            Some(CompOp::Le)
        } else if self.rest().starts_with(">=") {
            self.bump(2);
            Some(CompOp::Ge)
        } else if self.rest().starts_with('=') {
            self.bump(1);
            Some(CompOp::Eq)
        } else if self.rest().starts_with('<') && !self.rest().starts_with("<<") {
            self.bump(1);
            Some(CompOp::Lt)
        } else if self.rest().starts_with('>') && !self.rest().starts_with(">>") {
            self.bump(1);
            Some(CompOp::Gt)
        } else {
            None
        };
        if let Some(op) = op {
            let rhs = self.range_expr()?;
            return Ok(Expr::GeneralComp(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn range_expr(&mut self) -> XdmResult<Expr> {
        let lhs = self.additive_expr()?;
        if self.eat_keyword("to") {
            let rhs = self.additive_expr()?;
            return Ok(Expr::Range(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn additive_expr(&mut self) -> XdmResult<Expr> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            self.skip_ws();
            if self.rest().starts_with('+') {
                self.bump(1);
                let rhs = self.multiplicative_expr()?;
                lhs = Expr::Arith(ArithOp::Add, Box::new(lhs), Box::new(rhs));
            } else if self.rest().starts_with('-') {
                self.bump(1);
                let rhs = self.multiplicative_expr()?;
                lhs = Expr::Arith(ArithOp::Sub, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn multiplicative_expr(&mut self) -> XdmResult<Expr> {
        let mut lhs = self.union_expr()?;
        loop {
            self.skip_ws();
            if self.rest().starts_with('*') {
                self.bump(1);
                let rhs = self.union_expr()?;
                lhs = Expr::Arith(ArithOp::Mul, Box::new(lhs), Box::new(rhs));
            } else if self.peek_keyword("div") {
                self.expect_keyword("div")?;
                let rhs = self.union_expr()?;
                lhs = Expr::Arith(ArithOp::Div, Box::new(lhs), Box::new(rhs));
            } else if self.peek_keyword("idiv") {
                self.expect_keyword("idiv")?;
                let rhs = self.union_expr()?;
                lhs = Expr::Arith(ArithOp::IDiv, Box::new(lhs), Box::new(rhs));
            } else if self.peek_keyword("mod") {
                self.expect_keyword("mod")?;
                let rhs = self.union_expr()?;
                lhs = Expr::Arith(ArithOp::Mod, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn union_expr(&mut self) -> XdmResult<Expr> {
        let mut lhs = self.intersect_except_expr()?;
        loop {
            self.skip_ws();
            if self.peek_keyword("union") {
                self.expect_keyword("union")?;
            } else if self.rest().starts_with('|') && !self.rest().starts_with("||") {
                self.bump(1);
            } else {
                return Ok(lhs);
            }
            let rhs = self.intersect_except_expr()?;
            lhs = Expr::Union(Box::new(lhs), Box::new(rhs));
        }
    }

    fn intersect_except_expr(&mut self) -> XdmResult<Expr> {
        let mut lhs = self.instanceof_expr()?;
        loop {
            if self.peek_keyword("intersect") {
                self.expect_keyword("intersect")?;
                let rhs = self.instanceof_expr()?;
                lhs = Expr::Intersect(Box::new(lhs), Box::new(rhs));
            } else if self.peek_keyword("except") {
                self.expect_keyword("except")?;
                let rhs = self.instanceof_expr()?;
                lhs = Expr::Except(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn instanceof_expr(&mut self) -> XdmResult<Expr> {
        let lhs = self.treat_expr()?;
        if self.peek_keyword2("instance", "of") {
            self.expect_keyword("instance")?;
            self.expect_keyword("of")?;
            let ty = self.sequence_type()?;
            return Ok(Expr::InstanceOf(Box::new(lhs), ty));
        }
        Ok(lhs)
    }

    fn treat_expr(&mut self) -> XdmResult<Expr> {
        let lhs = self.castable_expr()?;
        if self.peek_keyword2("treat", "as") {
            self.expect_keyword("treat")?;
            self.expect_keyword("as")?;
            let ty = self.sequence_type()?;
            return Ok(Expr::TreatAs(Box::new(lhs), ty));
        }
        Ok(lhs)
    }

    fn castable_expr(&mut self) -> XdmResult<Expr> {
        let lhs = self.cast_expr()?;
        if self.peek_keyword2("castable", "as") {
            self.expect_keyword("castable")?;
            self.expect_keyword("as")?;
            let ty = self.qname()?;
            let allow_empty = self.eat("?");
            return Ok(Expr::CastableAs {
                expr: Box::new(lhs),
                ty,
                allow_empty,
            });
        }
        Ok(lhs)
    }

    fn cast_expr(&mut self) -> XdmResult<Expr> {
        let lhs = self.unary_expr()?;
        if self.peek_keyword2("cast", "as") {
            self.expect_keyword("cast")?;
            self.expect_keyword("as")?;
            let ty = self.qname()?;
            let allow_empty = self.eat("?");
            return Ok(Expr::CastAs {
                expr: Box::new(lhs),
                ty,
                allow_empty,
            });
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> XdmResult<Expr> {
        self.skip_ws();
        let mut neg = false;
        loop {
            if self.rest().starts_with('-') {
                self.bump(1);
                neg = !neg;
                self.skip_ws();
            } else if self.rest().starts_with('+') {
                self.bump(1);
                self.skip_ws();
            } else {
                break;
            }
        }
        let e = self.path_expr()?;
        Ok(if neg { Expr::Neg(Box::new(e)) } else { e })
    }

    // ------------------------------------------------------------------
    // Paths
    // ------------------------------------------------------------------

    fn path_expr(&mut self) -> XdmResult<Expr> {
        self.skip_ws();
        if self.rest().starts_with("//") {
            self.bump(2);
            let rel = self.relative_path()?;
            // `//x` == root()/descendant-or-self::node()/x
            let dos = Expr::AxisStep {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::AnyKind,
                predicates: vec![],
            };
            return Ok(Expr::PathStep(
                Box::new(Expr::PathStep(Box::new(Expr::Root(None)), Box::new(dos))),
                Box::new(rel),
            ));
        }
        if self.rest().starts_with('/') {
            self.bump(1);
            // A lone `/` (not followed by a step start) is the root itself.
            self.skip_ws();
            if self.at_step_start() {
                let rel = self.relative_path()?;
                return Ok(Expr::PathStep(Box::new(Expr::Root(None)), Box::new(rel)));
            }
            return Ok(Expr::Root(None));
        }
        self.relative_path()
    }

    fn at_step_start(&mut self) -> bool {
        match self.peek_ch() {
            Some(c) if c.is_alphabetic() || c == '_' => true,
            Some('@') | Some('*') | Some('.') | Some('(') | Some('$') => true,
            _ => false,
        }
    }

    fn relative_path(&mut self) -> XdmResult<Expr> {
        let mut lhs = self.step_expr()?;
        loop {
            self.skip_ws();
            if self.rest().starts_with("//") {
                self.bump(2);
                let dos = Expr::AxisStep {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyKind,
                    predicates: vec![],
                };
                lhs = Expr::PathStep(Box::new(lhs), Box::new(dos));
                let rhs = self.step_expr()?;
                lhs = Expr::PathStep(Box::new(lhs), Box::new(rhs));
            } else if self.rest().starts_with('/') {
                self.bump(1);
                let rhs = self.step_expr()?;
                lhs = Expr::PathStep(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn step_expr(&mut self) -> XdmResult<Expr> {
        self.skip_ws();
        // Reverse/forward axis step or node test?
        if let Some(step) = self.try_axis_step()? {
            return Ok(step);
        }
        // Filter expr: primary + predicates
        let primary = self.primary_expr()?;
        let predicates = self.predicate_list()?;
        if predicates.is_empty() {
            Ok(primary)
        } else {
            Ok(Expr::Filter(Box::new(primary), predicates))
        }
    }

    fn try_axis_step(&mut self) -> XdmResult<Option<Expr>> {
        self.skip_ws();
        // `..`
        if self.rest().starts_with("..") {
            self.bump(2);
            let predicates = self.predicate_list()?;
            return Ok(Some(Expr::AxisStep {
                axis: Axis::Parent,
                test: NodeTest::AnyKind,
                predicates,
            }));
        }
        // `@name`
        if self.rest().starts_with('@') {
            self.bump(1);
            let test = self.node_test()?;
            let predicates = self.predicate_list()?;
            return Ok(Some(Expr::AxisStep {
                axis: Axis::Attribute,
                test,
                predicates,
            }));
        }
        // `axis::test`
        let save = self.pos;
        for (kw, axis) in [
            ("child", Axis::Child),
            ("descendant-or-self", Axis::DescendantOrSelf),
            ("descendant", Axis::Descendant),
            ("parent", Axis::Parent),
            ("ancestor-or-self", Axis::AncestorOrSelf),
            ("ancestor", Axis::Ancestor),
            ("following-sibling", Axis::FollowingSibling),
            ("preceding-sibling", Axis::PrecedingSibling),
            ("following", Axis::Following),
            ("preceding", Axis::Preceding),
            ("attribute", Axis::Attribute),
            ("self", Axis::SelfAxis),
        ] {
            if self.peek_keyword(kw) {
                let s2 = self.pos;
                self.expect_keyword(kw)?;
                if self.rest().starts_with("::") {
                    self.bump(2);
                    let test = self.node_test()?;
                    let predicates = self.predicate_list()?;
                    return Ok(Some(Expr::AxisStep {
                        axis,
                        test,
                        predicates,
                    }));
                }
                self.pos = s2;
                break;
            }
        }
        self.pos = save;
        // Bare node test (child axis)? Only if this is a name/wildcard/kind
        // test that is NOT a function call or keyword-led expression.
        if self.rest().starts_with('*') && !self.rest().starts_with("**") {
            // `*` or `*:local`
            self.bump(1);
            if self.rest().starts_with(':') && !self.rest().starts_with("::") {
                self.bump(1);
                let local = self.ncname_nows()?;
                let predicates = self.predicate_list()?;
                return Ok(Some(Expr::AxisStep {
                    axis: Axis::Child,
                    test: NodeTest::LocalWildcard(local),
                    predicates,
                }));
            }
            let predicates = self.predicate_list()?;
            return Ok(Some(Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::AnyName,
                predicates,
            }));
        }
        // kind tests on the child axis
        for kw in [
            "node",
            "text",
            "comment",
            "processing-instruction",
            "element",
            "attribute",
            "document-node",
        ] {
            if self.peek_kind_test(kw) {
                let test = self.node_test()?;
                let predicates = self.predicate_list()?;
                return Ok(Some(Expr::AxisStep {
                    axis: if kw == "attribute" {
                        Axis::Attribute
                    } else {
                        Axis::Child
                    },
                    test,
                    predicates,
                }));
            }
        }
        // name test (not followed by `(` which is a function call, nor by
        // `{` which would be a computed constructor keyword)
        let c = match self.peek_ch() {
            Some(c) if c.is_alphabetic() || c == '_' => c,
            _ => return Ok(None),
        };
        let _ = c;
        let save = self.pos;
        let name = self.qname()?;
        self.skip_ws();
        if self.rest().starts_with('(') {
            self.pos = save;
            return Ok(None); // function call → primary
        }
        // Computed constructor keywords are primaries too. They may be
        // followed directly by `{` (computed name / enclosed content) or by
        // a constant QName and then `{` (`element foo { ... }`).
        if matches!(
            name.lexical().as_str(),
            "element"
                | "attribute"
                | "text"
                | "comment"
                | "document"
                | "processing-instruction"
                | "ordered"
                | "unordered"
                | "validate"
                | "execute"
        ) {
            let here = self.pos;
            self.skip_ws();
            let direct_brace = self.rest().starts_with('{');
            let named_brace = !direct_brace && self.qname().is_ok() && {
                self.skip_ws();
                self.rest().starts_with('{')
            };
            self.pos = here;
            if direct_brace || named_brace {
                self.pos = save;
                return Ok(None);
            }
        }
        if name.lexical() == "execute" && self.peek_keyword("at") {
            self.pos = save;
            return Ok(None);
        }
        // namespace wildcard `prefix:*`
        if name.prefix.is_none() && self.rest().starts_with(":*") {
            self.bump(2);
            let predicates = self.predicate_list()?;
            return Ok(Some(Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::NsWildcard(name.local),
                predicates,
            }));
        }
        let predicates = self.predicate_list()?;
        Ok(Some(Expr::AxisStep {
            axis: Axis::Child,
            test: NodeTest::Name(name),
            predicates,
        }))
    }

    fn node_test(&mut self) -> XdmResult<NodeTest> {
        self.skip_ws();
        if self.rest().starts_with('*') {
            self.bump(1);
            if self.rest().starts_with(':') {
                self.bump(1);
                let local = self.ncname_nows()?;
                return Ok(NodeTest::LocalWildcard(local));
            }
            return Ok(NodeTest::AnyName);
        }
        for (kw, mk) in [
            ("node", NodeTest::AnyKind),
            ("text", NodeTest::Text),
            ("comment", NodeTest::Comment),
            ("document-node", NodeTest::DocumentTest),
        ] {
            if self.peek_kind_test(kw) {
                self.expect_keyword(kw)?;
                self.expect("(")?;
                self.skip_to_matching_paren()?;
                return Ok(mk);
            }
        }
        if self.peek_kind_test("processing-instruction") {
            self.expect_keyword("processing-instruction")?;
            self.expect("(")?;
            self.skip_ws();
            let target = if self.rest().starts_with(')') {
                None
            } else if self.rest().starts_with('"') || self.rest().starts_with('\'') {
                Some(self.string_literal()?)
            } else {
                Some(self.ncname()?)
            };
            self.expect(")")?;
            return Ok(NodeTest::Pi(target));
        }
        if self.peek_kind_test("element") {
            self.expect_keyword("element")?;
            self.expect("(")?;
            self.skip_ws();
            let name = if self.rest().starts_with(')') || self.rest().starts_with('*') {
                let _ = self.eat("*");
                None
            } else {
                Some(self.qname()?)
            };
            self.skip_to_matching_paren()?;
            return Ok(NodeTest::Element(name));
        }
        if self.peek_kind_test("attribute") {
            self.expect_keyword("attribute")?;
            self.expect("(")?;
            self.skip_ws();
            let name = if self.rest().starts_with(')') || self.rest().starts_with('*') {
                let _ = self.eat("*");
                None
            } else {
                Some(self.qname()?)
            };
            self.skip_to_matching_paren()?;
            return Ok(NodeTest::AttributeTest(name));
        }
        let name = self.qname()?;
        if name.prefix.is_none() && self.rest().starts_with(":*") {
            self.bump(2);
            return Ok(NodeTest::NsWildcard(name.local));
        }
        Ok(NodeTest::Name(name))
    }

    fn predicate_list(&mut self) -> XdmResult<Vec<Expr>> {
        let mut preds = Vec::new();
        loop {
            self.skip_ws();
            if self.rest().starts_with('[') {
                self.bump(1);
                let e = self.expr()?;
                self.expect("]")?;
                preds.push(e);
            } else {
                return Ok(preds);
            }
        }
    }

    // ------------------------------------------------------------------
    // Primary expressions
    // ------------------------------------------------------------------

    fn primary_expr(&mut self) -> XdmResult<Expr> {
        self.skip_ws();
        match self.peek_ch() {
            Some('$') => {
                self.bump(1);
                let name = self.qname()?;
                Ok(Expr::VarRef(name))
            }
            Some('"') | Some('\'') => {
                let s = self.string_literal()?;
                Ok(Expr::Literal(AtomicValue::String(s)))
            }
            Some(c) if c.is_ascii_digit() => self.numeric_literal(),
            Some('.') => {
                // `.5` numeric or `.` context item (`..` handled in steps)
                if self.rest()[1..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit())
                {
                    self.numeric_literal()
                } else {
                    self.bump(1);
                    Ok(Expr::ContextItem)
                }
            }
            Some('(') => {
                self.bump(1);
                self.skip_ws();
                if self.rest().starts_with(')') {
                    self.bump(1);
                    return Ok(Expr::Sequence(vec![]));
                }
                let e = self.expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Some('<') => self.direct_constructor(),
            Some(c) if c.is_alphabetic() || c == '_' => self.name_led_primary(),
            _ => self.err("expected an expression"),
        }
    }

    fn numeric_literal(&mut self) -> XdmResult<Expr> {
        self.skip_ws();
        let start = self.pos;
        let mut saw_dot = false;
        let mut saw_exp = false;
        let bytes = self.input.as_bytes();
        while self.pos < self.input.len() {
            let b = bytes[self.pos];
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !saw_dot && !saw_exp => {
                    saw_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !saw_exp => {
                    saw_exp = true;
                    self.pos += 1;
                    if self.pos < self.input.len() && matches!(bytes[self.pos], b'+' | b'-') {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if saw_exp {
            let d: f64 = text
                .parse()
                .map_err(|_| XdmError::syntax(format!("bad double literal `{text}`")))?;
            Ok(Expr::Literal(AtomicValue::Double(d)))
        } else if saw_dot {
            Ok(Expr::Literal(AtomicValue::Decimal(Decimal::parse(text)?)))
        } else {
            let i: i64 = text
                .parse()
                .map_err(|_| XdmError::syntax(format!("bad integer literal `{text}`")))?;
            Ok(Expr::Literal(AtomicValue::Integer(i)))
        }
    }

    fn name_led_primary(&mut self) -> XdmResult<Expr> {
        // `execute at { .. } { f(..) }`
        if self.peek_keyword2("execute", "at") {
            self.expect_keyword("execute")?;
            self.expect_keyword("at")?;
            self.expect("{")?;
            let dest = self.expr_single()?;
            self.expect("}")?;
            self.expect("{")?;
            let call = self.function_call_expr()?;
            self.expect("}")?;
            return Ok(Expr::ExecuteAt {
                dest: Box::new(dest),
                call: Box::new(call),
            });
        }
        // Computed constructors.
        if self.peek_comp_ctor("element") {
            self.expect_keyword("element")?;
            let name = self.comp_name()?;
            let content = self.enclosed_opt()?;
            return Ok(Expr::CompElem { name, content });
        }
        if self.peek_comp_ctor("attribute") {
            self.expect_keyword("attribute")?;
            let name = self.comp_name()?;
            let content = self.enclosed_opt()?;
            return Ok(Expr::CompAttr { name, content });
        }
        if self.peek_keyword2("text", "{") {
            self.expect_keyword("text")?;
            self.expect("{")?;
            let e = self.expr()?;
            self.expect("}")?;
            return Ok(Expr::CompText(Box::new(e)));
        }
        if self.peek_keyword2("comment", "{") {
            self.expect_keyword("comment")?;
            self.expect("{")?;
            let e = self.expr()?;
            self.expect("}")?;
            return Ok(Expr::CompComment(Box::new(e)));
        }
        if self.peek_keyword2("document", "{") {
            self.expect_keyword("document")?;
            self.expect("{")?;
            let e = self.expr()?;
            self.expect("}")?;
            return Ok(Expr::CompDoc(Box::new(e)));
        }
        if self.peek_comp_ctor("processing-instruction") {
            self.expect_keyword("processing-instruction")?;
            let target = self.comp_name()?;
            let content = self.enclosed_opt()?;
            return Ok(Expr::CompPi { target, content });
        }
        if self.peek_keyword2("ordered", "{") || self.peek_keyword2("unordered", "{") {
            let _ = self.eat_keyword("ordered") || self.eat_keyword("unordered");
            self.expect("{")?;
            let e = self.expr()?;
            self.expect("}")?;
            return Ok(e);
        }
        // Function call.
        self.function_call_expr()
    }

    fn peek_comp_ctor(&mut self, kw: &str) -> bool {
        // `element {` or `element qname {`
        let save = self.pos;
        let mut ok = false;
        if self.eat_keyword(kw) {
            ok = self.eat("{") || (self.qname().is_ok() && self.eat("{"));
        }
        self.pos = save;
        ok
    }

    fn comp_name(&mut self) -> XdmResult<CompName> {
        self.skip_ws();
        if self.rest().starts_with('{') {
            self.bump(1);
            let e = self.expr()?;
            self.expect("}")?;
            Ok(CompName::Computed(Box::new(e)))
        } else {
            Ok(CompName::Const(self.qname()?))
        }
    }

    fn enclosed_opt(&mut self) -> XdmResult<Option<Box<Expr>>> {
        self.expect("{")?;
        self.skip_ws();
        if self.rest().starts_with('}') {
            self.bump(1);
            return Ok(None);
        }
        let e = self.expr()?;
        self.expect("}")?;
        Ok(Some(Box::new(e)))
    }

    fn function_call_expr(&mut self) -> XdmResult<Expr> {
        let name = self.qname()?;
        self.skip_ws();
        if !self.rest().starts_with('(') {
            return self.err(format!(
                "expected `(` after function name `{}`",
                name.lexical()
            ));
        }
        self.bump(1);
        let mut args = Vec::new();
        self.skip_ws();
        if !self.rest().starts_with(')') {
            loop {
                args.push(self.expr_single()?);
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(")")?;
        Ok(Expr::FunctionCall { name, args })
    }

    // ------------------------------------------------------------------
    // Direct constructors
    // ------------------------------------------------------------------

    fn direct_constructor(&mut self) -> XdmResult<Expr> {
        Ok(Expr::DirectElem(self.dir_elem()?))
    }

    fn dir_elem(&mut self) -> XdmResult<DirElem> {
        self.expect("<")?;
        let name = self.qname_nows()?;
        let mut attrs: Vec<(Name, Vec<AttrContent>)> = Vec::new();
        let mut ns_decls: Vec<(String, String)> = Vec::new();
        let self_closing;
        loop {
            self.skip_ws_raw();
            if self.rest().starts_with("/>") {
                self.bump(2);
                self_closing = true;
                break;
            }
            if self.rest().starts_with('>') {
                self.bump(1);
                self_closing = false;
                break;
            }
            let aname = self.qname_nows()?;
            self.skip_ws_raw();
            if !self.rest().starts_with('=') {
                return self.err("expected `=` in attribute");
            }
            self.bump(1);
            self.skip_ws_raw();
            let parts = self.dir_attr_value()?;
            // Extract namespace declarations.
            if aname.prefix.is_none() && aname.local == "xmlns" {
                let uri = attr_static_text(&parts)
                    .ok_or_else(|| XdmError::syntax("xmlns value must be a literal"))?;
                ns_decls.push((String::new(), uri));
            } else if aname.prefix.as_deref() == Some("xmlns") {
                let uri = attr_static_text(&parts)
                    .ok_or_else(|| XdmError::syntax("xmlns value must be a literal"))?;
                ns_decls.push((aname.local.clone(), uri));
            } else {
                attrs.push((aname, parts));
            }
        }
        let mut content = Vec::new();
        if !self_closing {
            loop {
                if self.rest().starts_with("</") {
                    self.bump(2);
                    let close = self.qname_nows()?;
                    if close != name {
                        return self.err(format!(
                            "mismatched constructor end tag </{}>, expected </{}>",
                            close.lexical(),
                            name.lexical()
                        ));
                    }
                    self.skip_ws_raw();
                    if !self.rest().starts_with('>') {
                        return self.err("expected `>`");
                    }
                    self.bump(1);
                    break;
                } else if self.rest().starts_with("<!--") {
                    self.bump(4);
                    match self.rest().find("-->") {
                        Some(i) => {
                            content.push(DirContent::Comment(self.rest()[..i].to_string()));
                            self.bump(i + 3);
                        }
                        None => return self.err("unterminated comment in constructor"),
                    }
                } else if self.rest().starts_with("<![CDATA[") {
                    self.bump(9);
                    match self.rest().find("]]>") {
                        Some(i) => {
                            content.push(DirContent::Text(self.rest()[..i].to_string()));
                            self.bump(i + 3);
                        }
                        None => return self.err("unterminated CDATA in constructor"),
                    }
                } else if self.rest().starts_with("<?") {
                    self.bump(2);
                    let target = self.ncname_nows()?;
                    match self.rest().find("?>") {
                        Some(i) => {
                            content.push(DirContent::Pi(
                                target,
                                self.rest()[..i].trim_start().to_string(),
                            ));
                            self.bump(i + 2);
                        }
                        None => return self.err("unterminated PI in constructor"),
                    }
                } else if self.rest().starts_with('<') {
                    content.push(DirContent::Element(self.dir_elem()?));
                } else if self.rest().starts_with('{') {
                    if self.rest().starts_with("{{") {
                        self.bump(2);
                        push_text(&mut content, "{");
                    } else {
                        self.bump(1);
                        let e = self.expr()?;
                        self.expect("}")?;
                        content.push(DirContent::Enclosed(e));
                    }
                } else if self.rest().starts_with("}}") {
                    self.bump(2);
                    push_text(&mut content, "}");
                } else if self.rest().starts_with('&') {
                    let c = self.entity_ref()?;
                    push_text(&mut content, &c.to_string());
                } else if let Some(c) = self.peek_ch() {
                    self.bump(c.len_utf8());
                    push_text(&mut content, &c.to_string());
                } else {
                    return self.err("unterminated element constructor");
                }
            }
        }
        Ok(DirElem {
            name,
            attrs,
            ns_decls,
            content,
        })
    }

    /// Skip plain whitespace only (inside tags; XQuery comments do not
    /// apply there).
    fn skip_ws_raw(&mut self) {
        while matches!(self.peek_ch(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn qname_nows(&mut self) -> XdmResult<Name> {
        let first = self.ncname_nows()?;
        if self.rest().starts_with(':') {
            self.bump(1);
            let second = self.ncname_nows()?;
            Ok(Name::prefixed(first, second))
        } else {
            Ok(Name::local(first))
        }
    }

    fn dir_attr_value(&mut self) -> XdmResult<Vec<AttrContent>> {
        let quote = match self.peek_ch() {
            Some(q @ ('"' | '\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        self.bump(1);
        let mut parts: Vec<AttrContent> = Vec::new();
        let mut text = String::new();
        loop {
            match self.peek_ch() {
                Some(c) if c == quote => {
                    self.bump(1);
                    if self.peek_ch() == Some(quote) {
                        text.push(quote);
                        self.bump(1);
                    } else {
                        if !text.is_empty() {
                            parts.push(AttrContent::Text(text));
                        }
                        return Ok(parts);
                    }
                }
                Some('{') => {
                    if self.rest().starts_with("{{") {
                        text.push('{');
                        self.bump(2);
                    } else {
                        if !text.is_empty() {
                            parts.push(AttrContent::Text(std::mem::take(&mut text)));
                        }
                        self.bump(1);
                        let e = self.expr()?;
                        self.expect("}")?;
                        parts.push(AttrContent::Enclosed(e));
                    }
                }
                Some('}') => {
                    if self.rest().starts_with("}}") {
                        text.push('}');
                        self.bump(2);
                    } else {
                        return self.err("unescaped `}` in attribute value");
                    }
                }
                Some('&') => text.push(self.entity_ref()?),
                Some(c) => {
                    text.push(c);
                    self.bump(c.len_utf8());
                }
                None => return self.err("unterminated attribute value"),
            }
        }
    }
}

fn push_text(content: &mut Vec<DirContent>, s: &str) {
    if let Some(DirContent::Text(t)) = content.last_mut() {
        t.push_str(s);
    } else {
        content.push(DirContent::Text(s.to_string()));
    }
}

fn attr_static_text(parts: &[AttrContent]) -> Option<String> {
    let mut out = String::new();
    for p in parts {
        match p {
            AttrContent::Text(t) => out.push_str(t),
            AttrContent::Enclosed(_) => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Does `e` hold an `execute at` anywhere?
    fn has_execute_at(e: &Expr) -> bool {
        let mut found = false;
        e.walk(&mut |x| found |= matches!(x, Expr::ExecuteAt { .. }));
        found
    }

    fn parse_expr(q: &str) -> Expr {
        parse_main_module(q)
            .unwrap_or_else(|e| panic!("parse `{q}`: {e}"))
            .body
    }

    #[test]
    fn literals() {
        assert_eq!(parse_expr("42"), Expr::Literal(AtomicValue::Integer(42)));
        assert_eq!(
            parse_expr("3.14"),
            Expr::Literal(AtomicValue::Decimal(Decimal::parse("3.14").unwrap()))
        );
        assert!(matches!(
            parse_expr("1e3"),
            Expr::Literal(AtomicValue::Double(d)) if d == 1000.0
        ));
        assert_eq!(
            parse_expr(r#""don""t""#),
            Expr::Literal(AtomicValue::String("don\"t".into()))
        );
        assert_eq!(
            parse_expr("'a&amp;b'"),
            Expr::Literal(AtomicValue::String("a&b".into()))
        );
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        match parse_expr("1 + 2 * 3") {
            Expr::Arith(ArithOp::Add, l, r) => {
                assert_eq!(*l, Expr::Literal(AtomicValue::Integer(1)));
                assert!(matches!(*r, Expr::Arith(ArithOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comparison_kinds() {
        assert!(matches!(
            parse_expr("1 = 2"),
            Expr::GeneralComp(CompOp::Eq, ..)
        ));
        assert!(matches!(
            parse_expr("1 eq 2"),
            Expr::ValueComp(CompOp::Eq, ..)
        ));
        assert!(matches!(
            parse_expr("$a is $b"),
            Expr::NodeComp(NodeCompOp::Is, ..)
        ));
        assert!(matches!(
            parse_expr("$a << $b"),
            Expr::NodeComp(NodeCompOp::Precedes, ..)
        ));
        assert!(matches!(
            parse_expr("1 < 2"),
            Expr::GeneralComp(CompOp::Lt, ..)
        ));
    }

    #[test]
    fn flwor_full() {
        let e = parse_expr(
            "for $x at $i in (1 to 5), $y in (1, 2) let $z := $x + $y \
             where $z > 2 order by $z descending return ($i, $z)",
        );
        match e {
            Expr::Flwor { clauses, .. } => {
                assert_eq!(clauses.len(), 5);
                assert!(matches!(
                    &clauses[0],
                    FlworClause::For {
                        pos_var: Some(_),
                        ..
                    }
                ));
                assert!(matches!(
                    &clauses[1],
                    FlworClause::For { pos_var: None, .. }
                ));
                assert!(matches!(&clauses[2], FlworClause::Let { .. }));
                assert!(matches!(&clauses[3], FlworClause::Where(_)));
                assert!(matches!(&clauses[4], FlworClause::OrderBy(s) if s[0].descending));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paths_and_axes() {
        // //name desugars into root/dos/name
        let e = parse_expr("//name");
        let printed = crate::pretty::pretty_print(&e);
        assert!(printed.contains("descendant-or-self::node()"));
        // abbreviated attribute axis
        match parse_expr("@id") {
            Expr::AxisStep { axis, test, .. } => {
                assert_eq!(axis, Axis::Attribute);
                assert_eq!(test, NodeTest::Name(Name::local("id")));
            }
            other => panic!("{other:?}"),
        }
        // parent abbreviation
        assert!(matches!(
            parse_expr(".."),
            Expr::AxisStep {
                axis: Axis::Parent,
                test: NodeTest::AnyKind,
                ..
            }
        ));
        // explicit axes
        assert!(matches!(
            parse_expr("ancestor-or-self::div"),
            Expr::AxisStep {
                axis: Axis::AncestorOrSelf,
                ..
            }
        ));
        // predicates
        match parse_expr("film[name = 'x'][2]") {
            Expr::AxisStep { predicates, .. } => assert_eq!(predicates.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcards() {
        assert!(matches!(
            parse_expr("child::*"),
            Expr::AxisStep {
                test: NodeTest::AnyName,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("f:*"),
            Expr::AxisStep {
                test: NodeTest::NsWildcard(_),
                ..
            }
        ));
        assert!(matches!(
            parse_expr("*:local"),
            Expr::AxisStep {
                test: NodeTest::LocalWildcard(_),
                ..
            }
        ));
    }

    #[test]
    fn execute_at_shape() {
        let e =
            parse_expr(r#"execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}"#);
        match e {
            Expr::ExecuteAt { dest, call } => {
                assert!(matches!(*dest, Expr::Literal(AtomicValue::String(_))));
                match *call {
                    Expr::FunctionCall { name, args } => {
                        assert_eq!(name, Name::prefixed("f", "filmsByActor"));
                        assert_eq!(args.len(), 1);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_at_with_computed_dest() {
        let e = parse_expr(r#"for $dst in ("a", "b") return execute at {$dst} {f:g()}"#);
        assert!(has_execute_at(&e));
    }

    #[test]
    fn direct_constructor_with_attrs_and_enclosed() {
        let e = parse_expr(r#"<films count="{1+1}" lang="en">{ $x }</films>"#);
        match e {
            Expr::DirectElem(d) => {
                assert_eq!(d.name, Name::local("films"));
                assert_eq!(d.attrs.len(), 2);
                assert!(matches!(d.attrs[0].1[0], AttrContent::Enclosed(_)));
                assert!(matches!(d.attrs[1].1[0], AttrContent::Text(_)));
                assert_eq!(d.content.len(), 1);
                assert!(matches!(d.content[0], DirContent::Enclosed(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn direct_constructor_ns_decls_extracted() {
        let e = parse_expr(r#"<a xmlns:p="urn:x" xmlns="urn:d"><p:b/></a>"#);
        match e {
            Expr::DirectElem(d) => {
                assert_eq!(d.ns_decls.len(), 2);
                assert!(d.attrs.is_empty());
                assert!(matches!(d.content[0], DirContent::Element(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn direct_constructor_brace_escapes() {
        let e = parse_expr("<a>{{literal}}</a>");
        match e {
            Expr::DirectElem(d) => {
                assert_eq!(d.content, vec![DirContent::Text("{literal}".into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_element_constructors() {
        let e = parse_expr("<films>{ for $f in //film return <f>{$f/name}</f> }</films>");
        assert!(matches!(e, Expr::DirectElem(_)));
    }

    #[test]
    fn xquf_expressions() {
        assert!(matches!(
            parse_expr("delete node /a/b"),
            Expr::Delete { .. }
        ));
        assert!(matches!(
            parse_expr("insert node <x/> into /a"),
            Expr::Insert {
                pos: InsertPos::Into,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("insert nodes (<x/>, <y/>) as last into /a"),
            Expr::Insert {
                pos: InsertPos::AsLastInto,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("insert node <x/> before /a/b"),
            Expr::Insert {
                pos: InsertPos::Before,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("replace node /a with <b/>"),
            Expr::ReplaceNode { .. }
        ));
        assert!(matches!(
            parse_expr("replace value of node /a with 'v'"),
            Expr::ReplaceValue { .. }
        ));
        assert!(matches!(
            parse_expr("rename node /a as 'b'"),
            Expr::Rename { .. }
        ));
    }

    #[test]
    fn library_module_with_function() {
        let m = parse_library_module(
            r#"module namespace film = "films";
               declare function film:filmsByActor($actor as xs:string) as node()*
               { doc("filmDB.xml")//name[../actor = $actor] };"#,
        )
        .unwrap();
        assert_eq!(m.prefix, "film");
        assert_eq!(m.ns_uri, "films");
        assert_eq!(m.prolog.functions.len(), 1);
        let f = &m.prolog.functions[0];
        assert_eq!(f.name, Name::prefixed("film", "filmsByActor"));
        assert_eq!(f.arity(), 1);
        assert!(!f.updating);
        assert!(f.ret.is_some());
    }

    #[test]
    fn updating_function_flag() {
        let m = parse_library_module(
            r#"module namespace t = "test";
               declare updating function t:ins($d as node()) { insert node <x/> into $d };"#,
        )
        .unwrap();
        assert!(m.prolog.functions[0].updating);
    }

    #[test]
    fn prolog_imports_and_options() {
        let m = parse_main_module(
            r#"import module namespace f = "films" at "http://x.example.org/film.xq";
               declare option xrpc:isolation "repeatable";
               declare option xrpc:timeout "30";
               1"#,
        )
        .unwrap();
        assert_eq!(m.prolog.module_imports.len(), 1);
        assert_eq!(
            m.prolog.module_imports[0].at_hints[0],
            "http://x.example.org/film.xq"
        );
        assert_eq!(m.prolog.option("xrpc", "isolation"), Some("repeatable"));
        assert_eq!(m.prolog.option("xrpc", "timeout"), Some("30"));
    }

    #[test]
    fn prolog_variable_decl() {
        let m = parse_main_module(r#"declare variable $n as xs:integer := 5; $n"#).unwrap();
        assert_eq!(m.prolog.variables.len(), 1);
        assert_eq!(m.prolog.variables[0].name, Name::local("n"));
        assert!(m.prolog.variables[0].ty.is_some());
        assert!(!m.prolog.variables[0].external);
    }

    #[test]
    fn prolog_external_variable_decls() {
        let m = parse_main_module(
            r#"declare variable $a external;
               declare variable $b as xs:string external;
               declare variable $c as xs:integer external := 7;
               ($a, $b, $c)"#,
        )
        .unwrap();
        let v = &m.prolog.variables;
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|d| d.external));
        assert!(v[0].ty.is_none() && v[0].value.is_none());
        assert!(v[1].ty.is_some() && v[1].value.is_none());
        assert!(v[2].value.is_some(), "external with default keeps it");
    }

    #[test]
    fn prolog_base_uri_and_default_collation() {
        let m = parse_main_module(
            r#"declare base-uri "http://x.example.org/app/";
               declare default collation "http://www.w3.org/2005/xpath-functions/collation/codepoint";
               1"#,
        )
        .unwrap();
        assert_eq!(
            m.prolog.base_uri.as_deref(),
            Some("http://x.example.org/app/")
        );
        assert_eq!(
            m.prolog.default_collation.as_deref(),
            Some("http://www.w3.org/2005/xpath-functions/collation/codepoint")
        );
    }

    #[test]
    fn base_uri_and_external_roundtrip_through_pretty() {
        let q = r#"declare base-uri "app/";
                   declare variable $pid as xs:string external;
                   $pid"#;
        let m = parse_main_module(q).unwrap();
        let printed = crate::pretty::pretty_print_main(&m);
        let reparsed = parse_main_module(&printed).unwrap();
        assert_eq!(reparsed.prolog.base_uri.as_deref(), Some("app/"));
        assert!(reparsed.prolog.variables[0].external);
    }

    #[test]
    fn version_decl_and_comments() {
        let m = parse_main_module("xquery version \"1.0\"; (: outer (: nested :) comment :) 1 + 1")
            .unwrap();
        assert!(matches!(m.body, Expr::Arith(..)));
    }

    #[test]
    fn paper_query_q1() {
        let q = r#"
            import module namespace f="films" at "http://x.example.org/film.xq";
            <films> {
              execute at {"xrpc://y.example.org"}
              {f:filmsByActor("Sean Connery")}
            } </films>"#;
        let m = parse_main_module(q).unwrap();
        assert!(has_execute_at(&m.body));
    }

    #[test]
    fn paper_query_q3_multi_dest() {
        let q = r#"
            import module namespace f="films" at "http://x.example.org/film.xq";
            <films> {
              for $actor in ("Julie Andrews", "Sean Connery")
              for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
              return execute at {$dst} {f:filmsByActor($actor)}
            } </films>"#;
        assert!(has_execute_at(&parse_main_module(q).unwrap().body));
    }

    #[test]
    fn paper_query_q7_join() {
        let q = r#"
            for $p in doc("persons.xml")//person,
                $ca in doc("xrpc://B/auctions.xml")//closed_auction
            where $p/@id = $ca/buyer/@person
            return <result>{$p, $ca/annotation}</result>"#;
        let m = parse_main_module(q).unwrap();
        assert!(matches!(m.body, Expr::Flwor { .. }));
    }

    #[test]
    fn quantified_and_typeswitch() {
        assert!(matches!(
            parse_expr("every $x in (1, 2) satisfies $x > 0"),
            Expr::Quantified {
                quantifier: Quantifier::Every,
                ..
            }
        ));
        assert!(matches!(
            parse_expr(
                "typeswitch ($v) case xs:string return 1 case node() return 2 default $d return 3"
            ),
            Expr::Typeswitch { .. }
        ));
    }

    #[test]
    fn union_intersect_except() {
        assert!(matches!(parse_expr("$a union $b"), Expr::Union(..)));
        assert!(matches!(parse_expr("$a | $b"), Expr::Union(..)));
        assert!(matches!(parse_expr("$a intersect $b"), Expr::Intersect(..)));
        assert!(matches!(parse_expr("$a except $b"), Expr::Except(..)));
    }

    #[test]
    fn type_operators() {
        assert!(matches!(
            parse_expr("$a instance of xs:integer+"),
            Expr::InstanceOf(..)
        ));
        assert!(matches!(
            parse_expr("$a treat as node()"),
            Expr::TreatAs(..)
        ));
        assert!(matches!(
            parse_expr("$a cast as xs:date?"),
            Expr::CastAs {
                allow_empty: true,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("$a castable as xs:double"),
            Expr::CastableAs { .. }
        ));
    }

    #[test]
    fn computed_constructors() {
        assert!(matches!(
            parse_expr("element {concat('a','b')} {1}"),
            Expr::CompElem {
                name: CompName::Computed(_),
                ..
            }
        ));
        assert!(matches!(
            parse_expr("element foo {}"),
            Expr::CompElem {
                name: CompName::Const(_),
                content: None
            }
        ));
        assert!(matches!(
            parse_expr("attribute id {'x'}"),
            Expr::CompAttr { .. }
        ));
        assert!(matches!(parse_expr("text {'x'}"), Expr::CompText(_)));
        assert!(matches!(parse_expr("comment {'x'}"), Expr::CompComment(_)));
        assert!(matches!(parse_expr("document {<a/>}"), Expr::CompDoc(_)));
        assert!(matches!(
            parse_expr("processing-instruction t {'d'}"),
            Expr::CompPi { .. }
        ));
    }

    #[test]
    fn errors_reported() {
        assert!(parse_main_module("for $x in").is_err());
        assert!(parse_main_module("1 +").is_err());
        assert!(parse_main_module("<a><b></a>").is_err());
        assert!(parse_main_module("execute at {1}").is_err());
        assert!(parse_main_module("'unterminated").is_err());
    }

    #[test]
    fn filter_on_parenthesized() {
        assert!(matches!(parse_expr("(1, 2, 3)[2]"), Expr::Filter(..)));
        assert!(matches!(parse_expr("$seq[last()]"), Expr::Filter(..)));
    }

    #[test]
    fn kind_tests_in_paths() {
        assert!(matches!(
            parse_expr("a/text()"),
            Expr::PathStep(_, b) if matches!(*b, Expr::AxisStep { test: NodeTest::Text, .. })
        ));
        assert!(matches!(
            parse_expr("self::node()"),
            Expr::AxisStep {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyKind,
                ..
            }
        ));
    }

    #[test]
    fn range_and_neg() {
        assert!(matches!(parse_expr("1 to 10"), Expr::Range(..)));
        assert!(matches!(parse_expr("-$x"), Expr::Neg(_)));
        assert!(matches!(parse_expr("--1"), Expr::Literal(_))); // double negation cancels
    }
}
