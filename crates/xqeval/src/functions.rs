//! The built-in function library (`fn:` namespace plus the two `xrpc:`
//! helpers the paper introduces in §5 for URL-based push-down rewrites).

use crate::eval::{Ctx, EvalState, Evaluator};
use std::cmp::Ordering;
use xdm::atomic::AtomicValue;
use xdm::ops::{arith, ArithOp};
use xdm::types::AtomicType;
use xdm::{Item, Sequence, XdmError, XdmResult};
use xmldom::{NodeHandle, NodeKind};

/// True if `local` names a built-in we implement (used for call resolution).
pub fn is_builtin(local: &str) -> bool {
    BUILTINS.contains(&local)
}

const BUILTINS: &[&str] = &[
    "doc",
    "put",
    "root",
    "position",
    "last",
    "count",
    "empty",
    "exists",
    "not",
    "boolean",
    "true",
    "false",
    "string",
    "string-length",
    "concat",
    "string-join",
    "substring",
    "contains",
    "starts-with",
    "ends-with",
    "upper-case",
    "lower-case",
    "normalize-space",
    "substring-before",
    "substring-after",
    "translate",
    "number",
    "sum",
    "avg",
    "min",
    "max",
    "abs",
    "floor",
    "ceiling",
    "round",
    "data",
    "distinct-values",
    "index-of",
    "insert-before",
    "remove",
    "reverse",
    "subsequence",
    "zero-or-one",
    "one-or-more",
    "exactly-one",
    "deep-equal",
    "name",
    "local-name",
    "namespace-uri",
    "error",
    "trace",
    "doc-available",
    "string-to-codepoints",
    "codepoints-to-string",
    "exists",
    "node-name",
    "nilled",
    "base-uri",
    "document-uri",
];

/// Evaluate a built-in function call.
pub fn call_builtin(
    ev: &Evaluator,
    name: &str,
    args: Vec<Sequence>,
    st: &mut EvalState,
    ctx: &Ctx,
) -> XdmResult<Sequence> {
    if let Some(f) = ScalarFn::named(name, args.len()) {
        return f.call(&args);
    }
    match (name, args.len()) {
        ("doc", 1) => {
            let uri = one_string(&args[0], "fn:doc")?;
            // relative URIs resolve against the in-scope base URI, with a
            // fallback to the raw URI so stores keyed by unresolved names
            // (every pre-base-uri caller) keep working
            let resolved = ev.sctx.resolve_doc_uri(&uri);
            let doc = match ev.env.docs.resolve(&resolved) {
                Ok(d) => d,
                Err(e) if resolved != uri => ev.env.docs.resolve(&uri).map_err(|_| e)?,
                Err(e) => return Err(e),
            };
            Ok(Sequence::one(Item::Node(NodeHandle::root(doc))))
        }
        ("doc-available", 1) => {
            let uri = one_string(&args[0], "fn:doc-available")?;
            let resolved = ev.sctx.resolve_doc_uri(&uri);
            Ok(Sequence::one(Item::boolean(
                ev.env.docs.resolve(&resolved).is_ok() || ev.env.docs.resolve(&uri).is_ok(),
            )))
        }
        ("put", 2) => {
            // XQUF fn:put is an updating function: record a Put primitive.
            let node = match args[0].singleton()? {
                Item::Node(n) => n.clone(),
                _ => return Err(XdmError::type_error("fn:put expects a node")),
            };
            let uri = one_string(&args[1], "fn:put")?;
            st.pul.push(crate::pul::UpdatePrimitive::Put { node, uri });
            Ok(Sequence::empty())
        }
        ("root", 0) => {
            let n = ctx_node(ctx, "fn:root")?;
            Ok(Sequence::one(Item::Node(NodeHandle::root(n.doc.clone()))))
        }
        ("root", 1) => match args[0].zero_or_one()? {
            None => Ok(Sequence::empty()),
            Some(Item::Node(n)) => Ok(Sequence::one(Item::Node(NodeHandle::root(n.doc.clone())))),
            Some(_) => Err(XdmError::type_error("fn:root expects a node")),
        },
        ("position", 0) => Ok(Sequence::one(Item::integer(ctx.pos as i64))),
        ("last", 0) => Ok(Sequence::one(Item::integer(ctx.size as i64))),
        ("count", 1) => Ok(Sequence::one(Item::integer(args[0].len() as i64))),
        ("empty", 1) => Ok(Sequence::one(Item::boolean(args[0].is_empty()))),
        ("exists", 1) => Ok(Sequence::one(Item::boolean(!args[0].is_empty()))),
        ("boolean", 1) => Ok(Sequence::one(Item::boolean(args[0].ebv()?))),
        ("true", 0) => Ok(Sequence::one(Item::boolean(true))),
        ("false", 0) => Ok(Sequence::one(Item::boolean(false))),
        ("string", 0) => {
            let n = ctx_item(ctx, "fn:string")?;
            Ok(Sequence::one(Item::string(n.string_value())))
        }
        ("string-length", 0) => {
            let i = ctx_item(ctx, "fn:string-length")?;
            Ok(Sequence::one(Item::integer(
                i.string_value().chars().count() as i64,
            )))
        }
        ("string-join", 2) => {
            let sep = one_string(&args[1], "fn:string-join")?;
            let parts: Vec<String> = args[0].iter().map(|i| i.string_value()).collect();
            Ok(Sequence::one(Item::string(parts.join(&sep))))
        }
        ("substring-before", 2) => {
            let a = opt_string(&args[0]);
            let b = opt_string(&args[1]);
            let r = a.find(&b).map(|i| a[..i].to_string()).unwrap_or_default();
            Ok(Sequence::one(Item::string(r)))
        }
        ("substring-after", 2) => {
            let a = opt_string(&args[0]);
            let b = opt_string(&args[1]);
            let r = a
                .find(&b)
                .map(|i| a[i + b.len()..].to_string())
                .unwrap_or_default();
            Ok(Sequence::one(Item::string(r)))
        }
        ("normalize-space", 0) => {
            let i = ctx_item(ctx, "fn:normalize-space")?;
            Ok(Sequence::one(Item::string(normalize_space(
                &i.string_value(),
            ))))
        }
        ("normalize-space", 1) => Ok(Sequence::one(Item::string(normalize_space(&opt_string(
            &args[0],
        ))))),
        ("translate", 3) => {
            let s = opt_string(&args[0]);
            let from: Vec<char> = one_string(&args[1], "fn:translate")?.chars().collect();
            let to: Vec<char> = one_string(&args[2], "fn:translate")?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(Sequence::one(Item::string(out)))
        }
        ("number", 0) => {
            let i = ctx_item(ctx, "fn:number")?;
            Ok(Sequence::one(to_number(Some(i))))
        }
        ("sum", 1) | ("sum", 2) => {
            if args[0].is_empty() {
                if args.len() == 2 {
                    return Ok(args[1].clone());
                }
                return Ok(Sequence::one(Item::integer(0)));
            }
            let mut acc = args[0].items()[0].atomize();
            if matches!(acc, AtomicValue::UntypedAtomic(_)) {
                acc = acc.cast_to(AtomicType::Double)?;
            }
            for it in &args[0].items()[1..] {
                acc = arith(ArithOp::Add, &acc, &it.atomize())?;
            }
            Ok(Sequence::one(Item::Atomic(acc)))
        }
        ("avg", 1) => {
            if args[0].is_empty() {
                return Ok(Sequence::empty());
            }
            let sum = call_builtin(ev, "sum", vec![args[0].clone()], st, ctx)?;
            let n = AtomicValue::Integer(args[0].len() as i64);
            let v = arith(ArithOp::Div, sum.singleton()?.as_atomic().unwrap(), &n)?;
            Ok(Sequence::one(Item::Atomic(v)))
        }
        ("min", 1) | ("max", 1) => {
            if args[0].is_empty() {
                return Ok(Sequence::empty());
            }
            let want = if name == "min" {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best = args[0].items()[0].atomize();
            if matches!(best, AtomicValue::UntypedAtomic(_)) {
                best = best.cast_to(AtomicType::Double)?;
            }
            for it in &args[0].items()[1..] {
                let mut v = it.atomize();
                if matches!(v, AtomicValue::UntypedAtomic(_)) {
                    v = v.cast_to(AtomicType::Double)?;
                }
                if v.value_cmp(&best)? == want {
                    best = v;
                }
            }
            Ok(Sequence::one(Item::Atomic(best)))
        }
        ("distinct-values", 1) => {
            let mut out: Vec<AtomicValue> = Vec::new();
            for v in args[0].atomized() {
                let v = match v {
                    AtomicValue::UntypedAtomic(s) => AtomicValue::String(s),
                    other => other,
                };
                if !out.iter().any(|o| {
                    o.value_cmp(&v)
                        .map(|c| c == Ordering::Equal)
                        .unwrap_or(false)
                }) {
                    out.push(v);
                }
            }
            Ok(Sequence::from_items(
                out.into_iter().map(Item::Atomic).collect(),
            ))
        }
        ("index-of", 2) => {
            let needle = args[1].singleton()?.atomize();
            let mut out = Vec::new();
            for (i, it) in args[0].iter().enumerate() {
                if it.atomize().general_eq(&needle).unwrap_or(false) {
                    out.push(Item::integer(i as i64 + 1));
                }
            }
            Ok(Sequence::from_items(out))
        }
        ("insert-before", 3) => {
            let pos = one_integer(&args[1], "fn:insert-before")?.max(1) as usize;
            let mut items = args[0].items().to_vec();
            let pos = (pos - 1).min(items.len());
            for (i, it) in args[2].iter().enumerate() {
                items.insert(pos + i, it.clone());
            }
            Ok(Sequence::from_items(items))
        }
        ("remove", 2) => {
            let pos = one_integer(&args[1], "fn:remove")?;
            let items: Vec<Item> = args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as i64 + 1) != pos)
                .map(|(_, it)| it.clone())
                .collect();
            Ok(Sequence::from_items(items))
        }
        ("reverse", 1) => {
            let mut items = args[0].items().to_vec();
            items.reverse();
            Ok(Sequence::from_items(items))
        }
        ("subsequence", 2) | ("subsequence", 3) => {
            let start = one_number(&args[1], "fn:subsequence")?;
            let len = if args.len() == 3 {
                Some(one_number(&args[2], "fn:subsequence")?)
            } else {
                None
            };
            let items = args[0].items();
            let mut out = Vec::new();
            for (i, it) in items.iter().enumerate() {
                let p = i as f64 + 1.0;
                let keep = p >= start.round() && len.is_none_or(|l| p < start.round() + l.round());
                if keep {
                    out.push(it.clone());
                }
            }
            Ok(Sequence::from_items(out))
        }
        ("zero-or-one", 1) => {
            args[0].zero_or_one()?;
            Ok(args[0].clone())
        }
        ("one-or-more", 1) => {
            if args[0].is_empty() {
                return Err(XdmError::type_error("fn:one-or-more got an empty sequence"));
            }
            Ok(args[0].clone())
        }
        ("exactly-one", 1) => {
            args[0].singleton()?;
            Ok(args[0].clone())
        }
        ("deep-equal", 2) => Ok(Sequence::one(Item::boolean(deep_equal_seq(
            &args[0], &args[1],
        )?))),
        ("name", 0) | ("local-name", 0) | ("namespace-uri", 0) => {
            let n = ctx_node(ctx, name)?;
            Ok(Sequence::one(Item::string(node_name_part(n, name))))
        }
        ("name", 1) | ("local-name", 1) | ("namespace-uri", 1) => match args[0].zero_or_one()? {
            None => Ok(Sequence::one(Item::string(""))),
            Some(Item::Node(n)) => Ok(Sequence::one(Item::string(node_name_part(n, name)))),
            Some(_) => Err(XdmError::type_error(format!("fn:{name} expects a node"))),
        },
        ("node-name", 1) => match args[0].zero_or_one()? {
            Some(Item::Node(n)) => match n.name() {
                Some(q) => Ok(Sequence::one(Item::Atomic(AtomicValue::QNameV(Box::new(
                    q.clone(),
                ))))),
                None => Ok(Sequence::empty()),
            },
            Some(_) => Err(XdmError::type_error("fn:node-name expects a node")),
            None => Ok(Sequence::empty()),
        },
        ("nilled", 1) => Ok(Sequence::one(Item::boolean(false))),
        ("base-uri", 1) | ("document-uri", 1) => match args[0].zero_or_one()? {
            Some(Item::Node(n)) => Ok(n
                .doc
                .uri
                .clone()
                .map(|u| Sequence::one(Item::string(u)))
                .unwrap_or_else(Sequence::empty)),
            _ => Ok(Sequence::empty()),
        },
        ("error", 0) => Err(XdmError::new("FOER0000", "fn:error()")),
        ("error", 1) | ("error", 2) => {
            let code = args[0]
                .zero_or_one()?
                .map(|i| i.string_value())
                .unwrap_or_else(|| "FOER0000".into());
            let msg = args
                .get(1)
                .and_then(|s| s.first())
                .map(|i| i.string_value())
                .unwrap_or_else(|| "fn:error".into());
            Err(XdmError::new(&code, msg))
        }
        ("trace", 2) => Ok(args[0].clone()),
        ("string-to-codepoints", 1) => {
            let s = opt_string(&args[0]);
            Ok(Sequence::from_items(
                s.chars().map(|c| Item::integer(c as i64)).collect(),
            ))
        }
        ("codepoints-to-string", 1) => {
            let mut out = String::new();
            for it in args[0].iter() {
                let cp = match it.atomize() {
                    AtomicValue::Integer(i) => i,
                    other => {
                        return Err(XdmError::type_error(format!(
                            "codepoints-to-string expects integers, got {}",
                            other.atomic_type()
                        )))
                    }
                };
                out.push(
                    char::from_u32(cp as u32)
                        .ok_or_else(|| XdmError::new("FOCH0001", "invalid code point"))?,
                );
            }
            Ok(Sequence::one(Item::string(out)))
        }
        _ => Err(XdmError::unknown_function(format!(
            "unknown function fn:{name}#{}",
            args.len()
        ))),
    }
}

/// The `xrpc:host` / `xrpc:path` helpers (paper §5 "Advanced Pushdown"):
/// default host is "localhost" and path is the argument, except for
/// `xrpc://host[:port]/path` URLs which are split.
pub fn call_xrpc_builtin(name: &str, args: Vec<Sequence>) -> XdmResult<Sequence> {
    match (name, args.len()) {
        ("host", 1) => {
            let url = one_string(&args[0], "xrpc:host")?;
            Ok(Sequence::one(Item::string(split_xrpc_url(&url).0)))
        }
        ("path", 1) => {
            let url = one_string(&args[0], "xrpc:path")?;
            Ok(Sequence::one(Item::string(split_xrpc_url(&url).1)))
        }
        _ => Err(XdmError::unknown_function(format!(
            "unknown function xrpc:{name}#{}",
            args.len()
        ))),
    }
}

/// Split an `xrpc://host[:port]/path` URL into (peer URI, local path).
pub fn split_xrpc_url(url: &str) -> (String, String) {
    if let Some(rest) = url.strip_prefix("xrpc://") {
        match rest.split_once('/') {
            Some((host, path)) => (format!("xrpc://{host}"), path.to_string()),
            None => (url.to_string(), String::new()),
        }
    } else {
        ("localhost".to_string(), url.to_string())
    }
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

fn ctx_item<'c>(ctx: &'c Ctx, who: &str) -> XdmResult<&'c Item> {
    ctx.item
        .as_ref()
        .ok_or_else(|| XdmError::new("XPDY0002", format!("{who}: no context item")))
}

fn ctx_node<'c>(ctx: &'c Ctx, who: &str) -> XdmResult<&'c NodeHandle> {
    match ctx_item(ctx, who)? {
        Item::Node(n) => Ok(n),
        _ => Err(XdmError::type_error(format!(
            "{who}: context item is not a node"
        ))),
    }
}

fn one_string(s: &Sequence, who: &str) -> XdmResult<String> {
    Ok(s.singleton()
        .map_err(|e| XdmError::type_error(format!("{who}: {}", e.message)))?
        .string_value())
}

fn opt_string(s: &Sequence) -> String {
    s.first().map(|i| i.string_value()).unwrap_or_default()
}

fn one_integer(s: &Sequence, who: &str) -> XdmResult<i64> {
    match s.singleton()?.atomize().cast_to(AtomicType::Integer) {
        Ok(AtomicValue::Integer(i)) => Ok(i),
        _ => Err(XdmError::type_error(format!("{who}: expected an integer"))),
    }
}

fn one_number(s: &Sequence, who: &str) -> XdmResult<f64> {
    match s.singleton()?.atomize().cast_to(AtomicType::Double) {
        Ok(AtomicValue::Double(d)) => Ok(d),
        _ => Err(XdmError::type_error(format!("{who}: expected a number"))),
    }
}

/// The built-ins whose value is a function of at most one item of each
/// argument and of nothing else — no focus, no documents, no state. The tree
/// engine calls them through [`ScalarFn::call`]; the loop-lifted engine's map
/// operator resolves one once ([`ScalarFn::named`]) and applies it row by
/// row ([`ScalarFn::apply`]), so both compute with the same code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarFn {
    String,
    StringLength,
    Concat,
    Substring,
    Contains,
    StartsWith,
    EndsWith,
    UpperCase,
    LowerCase,
    Number,
    Abs,
    Floor,
    Ceiling,
    Round,
    Data,
    Not,
}

impl ScalarFn {
    pub fn named(name: &str, arity: usize) -> Option<ScalarFn> {
        Some(match (name, arity) {
            ("string", 1) => ScalarFn::String,
            ("string-length", 1) => ScalarFn::StringLength,
            ("concat", 2..) => ScalarFn::Concat,
            ("substring", 2 | 3) => ScalarFn::Substring,
            ("contains", 2) => ScalarFn::Contains,
            ("starts-with", 2) => ScalarFn::StartsWith,
            ("ends-with", 2) => ScalarFn::EndsWith,
            ("upper-case", 1) => ScalarFn::UpperCase,
            ("lower-case", 1) => ScalarFn::LowerCase,
            ("number", 1) => ScalarFn::Number,
            ("abs", 1) => ScalarFn::Abs,
            ("floor", 1) => ScalarFn::Floor,
            ("ceiling", 1) => ScalarFn::Ceiling,
            ("round", 1) => ScalarFn::Round,
            ("data", 1) => ScalarFn::Data,
            ("not", 1) => ScalarFn::Not,
            _ => return None,
        })
    }

    /// Apply to argument sequences: what each function makes of an argument
    /// of several items — a type error, its first item, all of them — is
    /// decided here; what it computes, in [`apply`](Self::apply).
    fn call(self, args: &[Sequence]) -> XdmResult<Sequence> {
        let mut few = [None; 4];
        let mut many = Vec::new();
        let rows: &mut [Option<&Item>] = match few.get_mut(..args.len()) {
            Some(rows) => rows,
            None => {
                many.resize(args.len(), None);
                &mut many
            }
        };
        for (k, (row, arg)) in rows.iter_mut().zip(args).enumerate() {
            *row = match self {
                ScalarFn::Data => {
                    let atoms = arg.iter().map(|i| Item::Atomic(i.atomize()));
                    return Ok(Sequence::from_items(atoms.collect()));
                }
                ScalarFn::Not => return Ok(Sequence::one(Item::boolean(!arg.ebv()?))),
                // these read the string value of their argument's first item
                ScalarFn::StringLength
                | ScalarFn::Contains
                | ScalarFn::StartsWith
                | ScalarFn::EndsWith
                | ScalarFn::UpperCase
                | ScalarFn::LowerCase => arg.first(),
                ScalarFn::Substring if k == 0 => arg.first(),
                _ => arg.zero_or_one()?,
            };
        }
        let value = self.apply(rows)?;
        Ok(value.map_or_else(Sequence::empty, Sequence::one))
    }

    /// Apply to arguments that are empty (`None`) or one item each.
    pub fn apply(self, args: &[Option<&Item>]) -> XdmResult<Option<Item>> {
        let string = |k: usize| args[k].map(string_of).unwrap_or_default();
        Ok(Some(match self {
            ScalarFn::String => Item::string(string(0).into_owned()),
            ScalarFn::StringLength => Item::integer(string(0).chars().count() as i64),
            ScalarFn::Concat => {
                // one block: what is a string already says how long it is,
                // a number rarely prints longer than this
                let len = |i: &&Item| match i {
                    Item::Atomic(AtomicValue::String(s)) => s.len(),
                    _ => 24,
                };
                let mut out = String::with_capacity(args.iter().flatten().map(len).sum());
                for arg in args.iter().flatten() {
                    out.push_str(&string_of(arg));
                }
                Item::string(out)
            }
            ScalarFn::Substring => {
                let number = |k: usize| -> XdmResult<f64> {
                    match args[k].map(|i| i.atomize().cast_to(AtomicType::Double)) {
                        Some(Ok(AtomicValue::Double(d))) => Ok(d),
                        _ => Err(XdmError::type_error("fn:substring: expected a number")),
                    }
                };
                let len = (args.len() == 3).then(|| number(2)).transpose()?;
                Item::string(substring(&string(0), number(1)?, len))
            }
            ScalarFn::Contains => Item::boolean(string(0).contains(&*string(1))),
            ScalarFn::StartsWith => Item::boolean(string(0).starts_with(&*string(1))),
            ScalarFn::EndsWith => Item::boolean(string(0).ends_with(&*string(1))),
            ScalarFn::UpperCase => Item::string(string(0).to_uppercase()),
            ScalarFn::LowerCase => Item::string(string(0).to_lowercase()),
            ScalarFn::Number => to_number(args[0]),
            ScalarFn::Abs => {
                return num_unary(args[0], |v| match v {
                    AtomicValue::Integer(i) => Ok(AtomicValue::Integer(i.abs())),
                    AtomicValue::Decimal(d) => Ok(AtomicValue::Decimal(d.abs())),
                    AtomicValue::Double(d) => Ok(AtomicValue::Double(d.abs())),
                    AtomicValue::Float(f) => Ok(AtomicValue::Float(f.abs())),
                    other => Err(XdmError::type_error(format!(
                        "fn:abs on {}",
                        other.atomic_type()
                    ))),
                })
            }
            ScalarFn::Floor => {
                return num_unary(args[0], |v| match v {
                    AtomicValue::Integer(i) => Ok(AtomicValue::Integer(i)),
                    AtomicValue::Decimal(d) => Ok(AtomicValue::Integer(d.floor())),
                    AtomicValue::Double(d) => Ok(AtomicValue::Double(d.floor())),
                    AtomicValue::Float(f) => Ok(AtomicValue::Float(f.floor())),
                    other => Err(XdmError::type_error(format!(
                        "fn:floor on {}",
                        other.atomic_type()
                    ))),
                })
            }
            ScalarFn::Ceiling => {
                return num_unary(args[0], |v| match v {
                    AtomicValue::Integer(i) => Ok(AtomicValue::Integer(i)),
                    AtomicValue::Decimal(d) => Ok(AtomicValue::Integer(d.ceiling())),
                    AtomicValue::Double(d) => Ok(AtomicValue::Double(d.ceil())),
                    AtomicValue::Float(f) => Ok(AtomicValue::Float(f.ceil())),
                    other => Err(XdmError::type_error(format!(
                        "fn:ceiling on {}",
                        other.atomic_type()
                    ))),
                })
            }
            ScalarFn::Round => {
                return num_unary(args[0], |v| match v {
                    AtomicValue::Integer(i) => Ok(AtomicValue::Integer(i)),
                    AtomicValue::Decimal(d) => Ok(AtomicValue::Integer(d.round())),
                    AtomicValue::Double(d) => Ok(AtomicValue::Double((d + 0.5).floor())),
                    AtomicValue::Float(f) => Ok(AtomicValue::Float((f + 0.5).floor())),
                    other => Err(XdmError::type_error(format!(
                        "fn:round on {}",
                        other.atomic_type()
                    ))),
                })
            }
            ScalarFn::Data => return Ok(args[0].map(|i| Item::Atomic(i.atomize()))),
            ScalarFn::Not => {
                let row = args[0].map_or(&[][..], std::slice::from_ref);
                Item::boolean(!xdm::item::ebv(row)?)
            }
        }))
    }
}

/// `fn:string` of one item, borrowed where the item is a string already.
fn string_of(item: &Item) -> std::borrow::Cow<'_, str> {
    use std::borrow::Cow;
    match item {
        Item::Atomic(
            AtomicValue::String(s) | AtomicValue::UntypedAtomic(s) | AtomicValue::AnyUri(s),
        ) => Cow::Borrowed(s),
        other => Cow::Owned(other.string_value()),
    }
}

fn to_number(item: Option<&Item>) -> Item {
    match item {
        None => Item::double(f64::NAN),
        Some(i) => match i.atomize().cast_to(AtomicType::Double) {
            Ok(AtomicValue::Double(d)) => Item::double(d),
            _ => Item::double(f64::NAN),
        },
    }
}

/// `f` of a numeric argument: empty for the empty sequence, an untyped
/// value as a double.
fn num_unary(
    arg: Option<&Item>,
    f: impl Fn(AtomicValue) -> XdmResult<AtomicValue>,
) -> XdmResult<Option<Item>> {
    let Some(i) = arg else {
        return Ok(None);
    };
    let mut v = i.atomize();
    if matches!(v, AtomicValue::UntypedAtomic(_)) {
        v = v.cast_to(AtomicType::Double)?;
    }
    Ok(Some(Item::Atomic(f(v)?)))
}

fn substring(s: &str, start: f64, len: Option<f64>) -> String {
    let chars: Vec<char> = s.chars().collect();
    let mut out = String::new();
    for (i, c) in chars.iter().enumerate() {
        let p = i as f64 + 1.0;
        let keep = p >= start.round() && len.is_none_or(|l| p < start.round() + l.round());
        if keep {
            out.push(*c);
        }
    }
    out
}

fn normalize_space(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn node_name_part(n: &NodeHandle, which: &str) -> String {
    match which {
        "name" => n.name().map(|q| q.lexical()).unwrap_or_default(),
        "local-name" => n.name().map(|q| q.local.clone()).unwrap_or_default(),
        _ => n.name().and_then(|q| q.ns_uri.clone()).unwrap_or_default(),
    }
}

/// `fn:deep-equal` over sequences.
pub fn deep_equal_seq(a: &Sequence, b: &Sequence) -> XdmResult<bool> {
    if a.len() != b.len() {
        return Ok(false);
    }
    for (x, y) in a.iter().zip(b.iter()) {
        if !deep_equal_item(x, y)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn deep_equal_item(a: &Item, b: &Item) -> XdmResult<bool> {
    match (a, b) {
        (Item::Atomic(x), Item::Atomic(y)) => Ok(x
            .value_cmp(y)
            .map(|c| c == Ordering::Equal)
            .unwrap_or(false)),
        (Item::Node(x), Item::Node(y)) => Ok(deep_equal_node(x, y)),
        _ => Ok(false),
    }
}

fn deep_equal_node(a: &NodeHandle, b: &NodeHandle) -> bool {
    if a.kind() != b.kind() {
        return false;
    }
    match a.kind() {
        NodeKind::Text | NodeKind::Comment => a.value() == b.value(),
        NodeKind::ProcessingInstruction | NodeKind::Attribute => {
            a.name() == b.name() && a.value() == b.value()
        }
        NodeKind::Element => {
            if a.name() != b.name() {
                return false;
            }
            // attributes: set-equal
            let aa = a.doc.attributes(a.id);
            let bb = b.doc.attributes(b.id);
            if aa.clone().count() != bb.clone().count() {
                return false;
            }
            for x in aa {
                let xn = NodeHandle::new(a.doc.clone(), x);
                if !bb.clone().any(|y| {
                    let yn = NodeHandle::new(b.doc.clone(), y);
                    deep_equal_node(&xn, &yn)
                }) {
                    return false;
                }
            }
            children_equal(a, b)
        }
        NodeKind::Document => children_equal(a, b),
    }
}

fn children_equal(a: &NodeHandle, b: &NodeHandle) -> bool {
    // comments and PIs are ignored by deep-equal
    let ac: Vec<NodeHandle> = a
        .doc
        .children(a.id)
        .map(|c| NodeHandle::new(a.doc.clone(), c))
        .filter(|h| {
            !matches!(
                h.kind(),
                NodeKind::Comment | NodeKind::ProcessingInstruction
            )
        })
        .collect();
    let bc: Vec<NodeHandle> = b
        .doc
        .children(b.id)
        .map(|c| NodeHandle::new(b.doc.clone(), c))
        .filter(|h| {
            !matches!(
                h.kind(),
                NodeKind::Comment | NodeKind::ProcessingInstruction
            )
        })
        .collect();
    if ac.len() != bc.len() {
        return false;
    }
    ac.iter().zip(bc.iter()).all(|(x, y)| deep_equal_node(x, y))
}
