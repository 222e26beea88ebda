//! The macro expander: surface Scheme → core language.

use crate::assignconv::collect_assigned;
use crate::core::{Expr, GlobalId, Lambda, Program, TopItem, VarId};
use crate::scoped::ScopedMap;
use std::collections::{HashMap, HashSet};
use std::fmt;
use sxr_sexp::Datum;

/// An error produced during expansion, with the offending form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandError {
    /// Human-readable description.
    pub message: String,
    /// The form being expanded when the error occurred (printed).
    pub form: String,
}

impl ExpandError {
    fn new(message: impl Into<String>, form: &Datum) -> ExpandError {
        ExpandError {
            message: message.into(),
            form: form.to_string(),
        }
    }
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expand error: {} in `{}`", self.message, self.form)
    }
}

impl std::error::Error for ExpandError {}

/// The expanded form of one compilation unit (e.g. the prelude, or the user
/// program), sharing the [`Expander`]'s global table with other units.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Top-level items in order.
    pub items: Vec<TopItem>,
}

/// Names treated as syntax when not lexically shadowed.
const KEYWORDS: &[&str] = &[
    "quote",
    "quasiquote",
    "unquote",
    "unquote-splicing",
    "if",
    "lambda",
    "define",
    "set!",
    "begin",
    "let",
    "let*",
    "letrec",
    "letrec*",
    "cond",
    "case",
    "when",
    "unless",
    "and",
    "or",
    "do",
    "else",
    "=>",
    "define-record-type",
    "guard",
];

/// The macro expander.
///
/// One expander instance owns the global-name table and the alpha-renaming
/// counter for a whole program; expand the prelude and the user program
/// through the *same* expander, then call [`Expander::into_program`].
#[derive(Debug, Default, Clone)]
pub struct Expander {
    global_names: Vec<String>,
    global_index: HashMap<String, GlobalId>,
    var_names: Vec<String>,
    /// The lexical environment: each name in scope and its variable. A
    /// form that opens a scope unwinds it on the way out (see
    /// [`Expander::scoped`]), so it is empty between top-level forms.
    scope: ScopedMap<String, VarId>,
}

impl Expander {
    /// Creates an empty expander.
    pub fn new() -> Expander {
        Expander::default()
    }

    /// Declares (or looks up) a global slot for `name`.
    pub fn declare_global(&mut self, name: &str) -> GlobalId {
        if let Some(&g) = self.global_index.get(name) {
            return g;
        }
        let g = self.global_names.len() as GlobalId;
        self.global_names.push(name.to_string());
        self.global_index.insert(name.to_string(), g);
        g
    }

    /// Looks up an existing global slot.
    pub fn global(&self, name: &str) -> Option<GlobalId> {
        self.global_index.get(name).copied()
    }

    /// Allocates a fresh alpha-renamed variable.
    pub fn fresh_var(&mut self, name: &str) -> VarId {
        let v = self.var_names.len() as VarId;
        self.var_names.push(name.to_string());
        v
    }

    /// Runs `f` in a new lexical scope: whatever it binds is unbound again
    /// when it returns, whether it succeeds or fails.
    fn scoped<T>(
        &mut self,
        f: impl FnOnce(&mut Expander) -> Result<T, ExpandError>,
    ) -> Result<T, ExpandError> {
        let mark = self.scope.mark();
        let out = f(self);
        self.scope.unwind(mark);
        out
    }

    /// Binds each of `names` to a fresh variable in the current scope. A
    /// name that repeats is an error (a duplicate `what`).
    fn bind_distinct(
        &mut self,
        names: &[String],
        what: &str,
        at: &Datum,
    ) -> Result<Vec<VarId>, ExpandError> {
        let mut seen = HashSet::new();
        names
            .iter()
            .map(|n| {
                let v = self.fresh_var(n);
                if !seen.insert(n) {
                    return Err(ExpandError::new(format!("duplicate {what} `{n}`"), at));
                }
                self.scope.insert(n.clone(), v);
                Ok(v)
            })
            .collect()
    }

    /// Expands a sequence of top-level forms into a [`Unit`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExpandError`] on syntax errors or unbound variables.
    pub fn expand_unit(&mut self, forms: &[Datum]) -> Result<Unit, ExpandError> {
        // Splice top-level (begin ...) forms.
        let mut flat0 = Vec::new();
        flatten_toplevel(forms, &mut flat0);
        // Desugar record definitions into ordinary defines over the
        // representation facility.
        let mut flat = Vec::new();
        for d in flat0 {
            if d.is_form("define-record-type") {
                flat.extend(expand_record_type(&d)?);
            } else {
                flat.push(d);
            }
        }
        // Pre-declare all defines so forward references resolve.
        for d in &flat {
            if let Some((name, _)) = parse_define(d)? {
                self.declare_global(&name);
            }
        }
        let mut items = Vec::new();
        for d in &flat {
            if let Some((name, init)) = parse_define(d)? {
                let g = self.declare_global(&name);
                let init_expr = match init {
                    Some(form) => self.expand_named(&form, Some(&name))?,
                    None => Expr::Unspecified,
                };
                items.push(TopItem::Def(g, init_expr));
            } else {
                items.push(TopItem::Expr(self.expand(d)?));
            }
        }
        Ok(Unit { items })
    }

    /// Consumes the expander, assembling units (in order) into a [`Program`].
    /// The last unit is the user's; the ones before it are library code.
    pub fn into_program(self, units: Vec<Unit>) -> Program {
        let mut items = Vec::new();
        let mut user_start = 0;
        for u in units {
            user_start = items.len();
            items.extend(u.items);
        }
        Program {
            items,
            var_names: self.var_names,
            global_names: self.global_names,
            user_start,
        }
    }

    fn expand(&mut self, d: &Datum) -> Result<Expr, ExpandError> {
        self.expand_named(d, None)
    }

    /// `name_hint` propagates a `define`d name onto a lambda for diagnostics.
    fn expand_named(&mut self, d: &Datum, name_hint: Option<&str>) -> Result<Expr, ExpandError> {
        match d {
            Datum::Fixnum(_)
            | Datum::Bool(_)
            | Datum::Char(_)
            | Datum::String(_)
            | Datum::Vector(_) => Ok(Expr::Const(d.clone())),
            Datum::Symbol(s) => self.expand_var(s, d),
            Datum::Improper(..) => Err(ExpandError::new("dotted list in expression position", d)),
            Datum::List(items) => {
                if items.is_empty() {
                    return Err(ExpandError::new("empty application", d));
                }
                if let Some(head) = items[0].as_symbol() {
                    if self.scope.get(head).is_none() {
                        if KEYWORDS.contains(&head) {
                            return self.expand_special(head, d, items, name_hint);
                        }
                        if let Some(prim) = head.strip_prefix('%') {
                            let args = self.expand_all(&items[1..])?;
                            return Ok(Expr::Prim(prim.to_string(), args));
                        }
                    }
                }
                let f = self.expand(&items[0])?;
                let args = self.expand_all(&items[1..])?;
                Ok(Expr::Call(Box::new(f), args))
            }
        }
    }

    fn expand_var(&mut self, s: &str, d: &Datum) -> Result<Expr, ExpandError> {
        if let Some(&v) = self.scope.get(s) {
            return Ok(Expr::Var(v));
        }
        if let Some(g) = self.global(s) {
            return Ok(Expr::Global(g));
        }
        if s.starts_with('%') {
            return Err(ExpandError::new(
                "sub-primitives are not first-class values; wrap in a lambda",
                d,
            ));
        }
        if KEYWORDS.contains(&s) {
            return Err(ExpandError::new("keyword used as a variable", d));
        }
        Err(ExpandError::new(format!("unbound variable `{s}`"), d))
    }

    fn expand_all(&mut self, ds: &[Datum]) -> Result<Vec<Expr>, ExpandError> {
        ds.iter().map(|d| self.expand(d)).collect()
    }

    fn global_ref(&mut self, name: &str, at: &Datum) -> Result<Expr, ExpandError> {
        match self.global(name) {
            Some(g) => Ok(Expr::Global(g)),
            None => Err(ExpandError::new(
                format!("expansion requires library procedure `{name}` (is the prelude loaded?)"),
                at,
            )),
        }
    }

    fn expand_special(
        &mut self,
        head: &str,
        d: &Datum,
        items: &[Datum],
        name_hint: Option<&str>,
    ) -> Result<Expr, ExpandError> {
        let args = &items[1..];
        match head {
            "quote" => match args {
                [q] => Ok(Expr::Const(q.clone())),
                _ => Err(ExpandError::new("quote takes one argument", d)),
            },
            "if" => match args {
                [c, t] => Ok(Expr::If(
                    Box::new(self.expand(c)?),
                    Box::new(self.expand(t)?),
                    Box::new(Expr::Unspecified),
                )),
                [c, t, e] => Ok(Expr::If(
                    Box::new(self.expand(c)?),
                    Box::new(self.expand(t)?),
                    Box::new(self.expand(e)?),
                )),
                _ => Err(ExpandError::new("if takes 2 or 3 arguments", d)),
            },
            "lambda" => {
                if args.is_empty() {
                    return Err(ExpandError::new(
                        "lambda needs a parameter list and body",
                        d,
                    ));
                }
                let lam = self.expand_lambda(&args[0], &args[1..], name_hint)?;
                Ok(Expr::Lambda(Box::new(lam)))
            }
            "begin" => {
                if args.is_empty() {
                    Ok(Expr::Unspecified)
                } else {
                    let es = self.expand_all(args)?;
                    Ok(seq(es))
                }
            }
            "set!" => match args {
                [Datum::Symbol(name), value] => {
                    let v = self.expand(value)?;
                    if let Some(&var) = self.scope.get(name) {
                        Ok(Expr::SetVar(var, Box::new(v)))
                    } else if let Some(g) = self.global(name) {
                        Ok(Expr::SetGlobal(g, Box::new(v)))
                    } else {
                        Err(ExpandError::new(
                            format!("set! of unbound variable `{name}`"),
                            d,
                        ))
                    }
                }
                _ => Err(ExpandError::new("set! takes a variable and a value", d)),
            },
            "define" => Err(ExpandError::new(
                "define is only allowed at top level or at the head of a body",
                d,
            )),
            "let" => self.expand_let(d, args),
            "let*" => self.expand_let_star(d, args),
            "letrec" | "letrec*" => {
                let binds = parse_bindings(d, args.first())?;
                let named: Vec<(String, Datum)> = binds
                    .iter()
                    .map(|(n, init)| (n.clone(), init.clone()))
                    .collect();
                self.expand_letrec(d, &named, &args[1..])
            }
            "cond" => self.expand_cond(d, args),
            "case" => self.expand_case(d, args),
            "when" => match args {
                [] => Err(ExpandError::new("when needs a test", d)),
                [test, body @ ..] => {
                    let t = self.expand(test)?;
                    let b = if body.is_empty() {
                        Expr::Unspecified
                    } else {
                        seq(self.expand_all(body)?)
                    };
                    Ok(Expr::If(
                        Box::new(t),
                        Box::new(b),
                        Box::new(Expr::Unspecified),
                    ))
                }
            },
            "unless" => match args {
                [] => Err(ExpandError::new("unless needs a test", d)),
                [test, body @ ..] => {
                    let t = self.expand(test)?;
                    let b = if body.is_empty() {
                        Expr::Unspecified
                    } else {
                        seq(self.expand_all(body)?)
                    };
                    Ok(Expr::If(
                        Box::new(t),
                        Box::new(Expr::Unspecified),
                        Box::new(b),
                    ))
                }
            },
            "and" => self.expand_and(args),
            "or" => self.expand_or(args),
            "do" => self.expand_do(d, args),
            "quasiquote" => match args {
                [q] => self.expand_quasi(q, 1, d),
                _ => Err(ExpandError::new("quasiquote takes one argument", d)),
            },
            "unquote" | "unquote-splicing" => {
                Err(ExpandError::new("unquote outside quasiquote", d))
            }
            "define-record-type" => Err(ExpandError::new(
                "define-record-type is only allowed at top level",
                d,
            )),
            "guard" => self.expand_guard(d, args),
            "else" | "=>" => Err(ExpandError::new("misplaced keyword", d)),
            _ => unreachable!("keyword list covers all cases"),
        }
    }

    /// `(guard (var clause ...) body ...)` — R7RS-style condition catch,
    /// desugared onto the trap primitive:
    ///
    /// ```text
    /// (%trap-call (lambda (var) (cond clause ... (else (%raise var))))
    ///             (lambda () body ...))
    /// ```
    ///
    /// The `else` arm is added only when the clauses lack one, so an
    /// unmatched condition re-raises to the next enclosing handler.
    fn expand_guard(&mut self, d: &Datum, args: &[Datum]) -> Result<Expr, ExpandError> {
        let [spec, body @ ..] = args else {
            return Err(ExpandError::new(
                "guard needs a (var clause ...) spec and a body",
                d,
            ));
        };
        let Some(spec_items) = spec.as_list() else {
            return Err(ExpandError::new("guard spec must be (var clause ...)", d));
        };
        let [Datum::Symbol(var), clauses @ ..] = spec_items else {
            return Err(ExpandError::new("guard spec must start with a variable", d));
        };
        if body.is_empty() {
            return Err(ExpandError::new("guard needs a body", d));
        }
        let mut cond_clauses: Vec<Datum> = clauses.to_vec();
        if !clauses.iter().any(|c| c.is_form("else")) {
            cond_clauses.push(Datum::form(
                "else",
                vec![Datum::form("%raise", vec![Datum::Symbol(var.clone())])],
            ));
        }
        let mut handler_parts = vec![Datum::List(vec![Datum::Symbol(var.clone())])];
        handler_parts.push(Datum::form("cond", cond_clauses));
        let handler = Datum::form("lambda", handler_parts);
        let mut thunk_parts = vec![Datum::nil()];
        thunk_parts.extend(body.iter().cloned());
        let thunk = Datum::form("lambda", thunk_parts);
        let desugared = Datum::form("%trap-call", vec![handler, thunk]);
        self.expand(&desugared)
    }

    fn expand_lambda(
        &mut self,
        params: &Datum,
        body: &[Datum],
        name_hint: Option<&str>,
    ) -> Result<Lambda, ExpandError> {
        let sym_of = |p: &Datum| -> Result<String, ExpandError> {
            p.as_symbol()
                .map(str::to_string)
                .ok_or_else(|| ExpandError::new("parameter must be a symbol", p))
        };
        let (names, rest_name): (Vec<String>, Option<String>) = match params {
            Datum::List(ps) => (ps.iter().map(&sym_of).collect::<Result<_, _>>()?, None),
            Datum::Symbol(r) => (Vec::new(), Some(r.clone())),
            Datum::Improper(ps, tail) => (
                ps.iter().map(&sym_of).collect::<Result<_, _>>()?,
                Some(sym_of(tail)?),
            ),
            _ => return Err(ExpandError::new("bad parameter list", params)),
        };
        let has_rest = rest_name.is_some();
        let all: Vec<String> = names.into_iter().chain(rest_name).collect();
        self.scoped(|ex| {
            let mut ids = ex.bind_distinct(&all, "parameter", params)?;
            let rest = if has_rest { ids.pop() } else { None };
            Ok(Lambda {
                params: ids,
                rest,
                body: ex.expand_body(body, params)?,
                name: name_hint.map(str::to_string),
            })
        })
    }

    /// Expands a `<body>`: leading internal defines become a letrec*.
    fn expand_body(&mut self, forms: &[Datum], at: &Datum) -> Result<Expr, ExpandError> {
        if forms.is_empty() {
            return Err(ExpandError::new("empty body", at));
        }
        let mut defines = Vec::new();
        let mut rest = forms;
        while let Some(first) = rest.first() {
            match parse_define(first)? {
                Some((name, init)) => {
                    defines.push((name, init.unwrap_or_else(|| Datum::form("begin", vec![]))));
                    rest = &rest[1..];
                }
                None => break,
            }
        }
        if rest.is_empty() {
            return Err(ExpandError::new("body has only definitions", at));
        }
        if defines.is_empty() {
            let es = self.expand_all(rest)?;
            return Ok(seq(es));
        }
        self.expand_letrec(at, &defines, rest)
    }

    fn expand_let(&mut self, d: &Datum, args: &[Datum]) -> Result<Expr, ExpandError> {
        // Named let?
        if let Some(Datum::Symbol(loop_name)) = args.first() {
            let binds = parse_bindings(d, args.get(1))?;
            let body = &args[2..];
            // (let loop ((x e) ...) body) =>
            // (letrec ((loop (lambda (x ...) body))) (loop e ...))
            let lambda = Datum::form("lambda", {
                let params = Datum::List(
                    binds
                        .iter()
                        .map(|(n, _)| Datum::Symbol(n.clone()))
                        .collect(),
                );
                let mut v = vec![params];
                v.extend_from_slice(body);
                v
            });
            let call = Datum::List({
                let mut v = vec![Datum::Symbol(loop_name.clone())];
                v.extend(binds.iter().map(|(_, init)| init.clone()));
                v
            });
            return self.scoped(|ex| {
                let loop_var = ex.fresh_var(loop_name);
                ex.scope.insert(loop_name.clone(), loop_var);
                ex.expand_letrec_prebound(d, vec![(loop_var, lambda)], &[call])
            });
        }
        let binds = parse_bindings(d, args.first())?;
        let body = &args[1..];
        // Expand initializers in the outer environment.
        let inits = binds
            .iter()
            .map(|(n, init)| self.expand_named(init, Some(n)))
            .collect::<Result<Vec<_>, _>>()?;
        let (ids, body) = self.scoped(|ex| {
            let ids: Vec<VarId> = binds
                .iter()
                .map(|(n, _)| {
                    let v = ex.fresh_var(n);
                    ex.scope.insert(n.clone(), v);
                    v
                })
                .collect();
            Ok((ids, ex.expand_body(body, d)?))
        })?;
        Ok(Expr::Call(
            Box::new(Expr::Lambda(Box::new(Lambda {
                params: ids,
                rest: None,
                body,
                name: None,
            }))),
            inits,
        ))
    }

    /// `(let* ((x init) ...) body ...)`: each binding's scope is the
    /// bindings after it and the body.
    fn expand_let_star(&mut self, d: &Datum, args: &[Datum]) -> Result<Expr, ExpandError> {
        let binds = parse_bindings(d, args.first())?;
        let body = &args[1..];
        let (lets, body) = self.scoped(|ex| {
            let mut lets = Vec::with_capacity(binds.len());
            for (name, init) in &binds {
                let init_e = ex.expand_named(init, Some(name))?;
                let v = ex.fresh_var(name);
                ex.scope.insert(name.clone(), v);
                lets.push((v, name, init_e));
            }
            Ok((lets, ex.expand_body(body, d)?))
        })?;
        Ok(lets
            .into_iter()
            .rev()
            .fold(body, |inner, (v, name, init_e)| {
                Expr::let1(v, Some(name.clone()), init_e, inner)
            }))
    }

    /// Expands letrec bindings given as `(name, init-datum)` pairs, with
    /// `body` forms, creating the recursive scope itself.
    fn expand_letrec(
        &mut self,
        d: &Datum,
        binds: &[(String, Datum)],
        body: &[Datum],
    ) -> Result<Expr, ExpandError> {
        let names: Vec<String> = binds.iter().map(|(n, _)| n.clone()).collect();
        self.scoped(|ex| {
            let ids = ex.bind_distinct(&names, "letrec binding", d)?;
            let prebound = ids
                .into_iter()
                .zip(binds.iter().map(|(_, init)| init.clone()))
                .collect();
            ex.expand_letrec_prebound(d, prebound, body)
        })
    }

    /// The core of letrec expansion ("fixing letrec"): bindings whose
    /// initializers are all lambdas and whose variables are never assigned
    /// become [`Expr::LetRec`]; otherwise the bindings become parameters
    /// initialized by `set!`, which assignment conversion turns into the
    /// library's boxes.
    fn expand_letrec_prebound(
        &mut self,
        d: &Datum,
        binds: Vec<(VarId, Datum)>,
        body: &[Datum],
    ) -> Result<Expr, ExpandError> {
        let mut inits = Vec::new();
        for (v, init) in &binds {
            let name = self.var_names[*v as usize].clone();
            inits.push(self.expand_named(init, Some(&name))?);
        }
        let body = self.expand_body(body, d)?;
        let ids: Vec<VarId> = binds.iter().map(|(v, _)| *v).collect();
        let mut assigned = HashSet::new();
        for e in inits.iter().chain(std::iter::once(&body)) {
            collect_assigned(e, &mut assigned);
        }
        let all_lambda = inits.iter().all(|e| matches!(e, Expr::Lambda(_)));
        if all_lambda && !ids.iter().any(|v| assigned.contains(v)) {
            let bindings = ids
                .into_iter()
                .zip(inits)
                .map(|(v, e)| match e {
                    Expr::Lambda(l) => (v, *l),
                    _ => unreachable!("checked all_lambda"),
                })
                .collect();
            return Ok(Expr::LetRec(bindings, Box::new(body)));
        }
        // Fallback: ((lambda (x ...) (set! x init) ... body) <unspecified> ...).
        let mut forms: Vec<Expr> = ids
            .iter()
            .zip(inits)
            .map(|(v, init)| Expr::SetVar(*v, Box::new(init)))
            .collect();
        forms.push(body);
        let lam = Lambda {
            params: ids,
            rest: None,
            body: seq(forms),
            name: None,
        };
        let unspecified = vec![Expr::Unspecified; lam.params.len()];
        Ok(Expr::Call(
            Box::new(Expr::Lambda(Box::new(lam))),
            unspecified,
        ))
    }

    fn expand_cond(&mut self, d: &Datum, clauses: &[Datum]) -> Result<Expr, ExpandError> {
        let Some((clause, rest)) = clauses.split_first() else {
            return Ok(Expr::Unspecified);
        };
        let parts = clause
            .as_list()
            .ok_or_else(|| ExpandError::new("cond clause must be a list", clause))?;
        match parts {
            [] => Err(ExpandError::new("empty cond clause", clause)),
            [Datum::Symbol(s), body @ ..] if s == "else" => {
                if !rest.is_empty() {
                    return Err(ExpandError::new("else clause must be last", d));
                }
                if body.is_empty() {
                    return Err(ExpandError::new("empty else clause", clause));
                }
                Ok(seq(self.expand_all(body)?))
            }
            [test] => {
                // (cond (t) rest...) => (let ((x t)) (if x x rest))
                let t = self.expand(test)?;
                let v = self.fresh_var("cond-t");
                let k = self.expand_cond(d, rest)?;
                Ok(Expr::let1(
                    v,
                    None,
                    t,
                    Expr::If(Box::new(Expr::Var(v)), Box::new(Expr::Var(v)), Box::new(k)),
                ))
            }
            [test, Datum::Symbol(arrow), recv] if arrow == "=>" => {
                let t = self.expand(test)?;
                let f = self.expand(recv)?;
                let v = self.fresh_var("cond-t");
                let k = self.expand_cond(d, rest)?;
                Ok(Expr::let1(
                    v,
                    None,
                    t,
                    Expr::If(
                        Box::new(Expr::Var(v)),
                        Box::new(Expr::Call(Box::new(f), vec![Expr::Var(v)])),
                        Box::new(k),
                    ),
                ))
            }
            [test, body @ ..] => {
                let t = self.expand(test)?;
                let b = seq(self.expand_all(body)?);
                let k = self.expand_cond(d, rest)?;
                Ok(Expr::If(Box::new(t), Box::new(b), Box::new(k)))
            }
        }
    }

    fn expand_case(&mut self, d: &Datum, args: &[Datum]) -> Result<Expr, ExpandError> {
        let Some((key, clauses)) = args.split_first() else {
            return Err(ExpandError::new("case needs a key", d));
        };
        let key_e = self.expand(key)?;
        let v = self.fresh_var("case-k");
        let eqv = self.global_ref("eqv?", d)?;
        let body = self.expand_case_clauses(d, clauses, v, &eqv)?;
        Ok(Expr::let1(v, None, key_e, body))
    }

    fn expand_case_clauses(
        &mut self,
        d: &Datum,
        clauses: &[Datum],
        key: VarId,
        eqv: &Expr,
    ) -> Result<Expr, ExpandError> {
        let Some((clause, rest)) = clauses.split_first() else {
            return Ok(Expr::Unspecified);
        };
        let parts = clause
            .as_list()
            .ok_or_else(|| ExpandError::new("case clause must be a list", clause))?;
        match parts {
            [Datum::Symbol(s), body @ ..] if s == "else" => {
                if !rest.is_empty() {
                    return Err(ExpandError::new("else clause must be last", d));
                }
                Ok(seq(self.expand_all(body)?))
            }
            [Datum::List(data), body @ ..] => {
                // (or (eqv? k 'd1) (eqv? k 'd2) ...)
                let mut test: Option<Expr> = None;
                for datum in data.iter().rev() {
                    let cmp = Expr::Call(
                        Box::new(eqv.clone()),
                        vec![Expr::Var(key), Expr::Const(datum.clone())],
                    );
                    test = Some(match test {
                        None => cmp,
                        Some(t) => Expr::If(
                            Box::new(cmp),
                            Box::new(Expr::Const(Datum::Bool(true))),
                            Box::new(t),
                        ),
                    });
                }
                let test = test.unwrap_or(Expr::Const(Datum::Bool(false)));
                let b = seq(self.expand_all(body)?);
                let k = self.expand_case_clauses(d, rest, key, eqv)?;
                Ok(Expr::If(Box::new(test), Box::new(b), Box::new(k)))
            }
            _ => Err(ExpandError::new("bad case clause", clause)),
        }
    }

    fn expand_and(&mut self, args: &[Datum]) -> Result<Expr, ExpandError> {
        match args {
            [] => Ok(Expr::Const(Datum::Bool(true))),
            [e] => self.expand(e),
            [e, rest @ ..] => {
                let head = self.expand(e)?;
                let tail = self.expand_and(rest)?;
                Ok(Expr::If(
                    Box::new(head),
                    Box::new(tail),
                    Box::new(Expr::Const(Datum::Bool(false))),
                ))
            }
        }
    }

    fn expand_or(&mut self, args: &[Datum]) -> Result<Expr, ExpandError> {
        match args {
            [] => Ok(Expr::Const(Datum::Bool(false))),
            [e] => self.expand(e),
            [e, rest @ ..] => {
                let head = self.expand(e)?;
                let v = self.fresh_var("or-t");
                let tail = self.expand_or(rest)?;
                Ok(Expr::let1(
                    v,
                    None,
                    head,
                    Expr::If(
                        Box::new(Expr::Var(v)),
                        Box::new(Expr::Var(v)),
                        Box::new(tail),
                    ),
                ))
            }
        }
    }

    fn expand_do(&mut self, d: &Datum, args: &[Datum]) -> Result<Expr, ExpandError> {
        let [specs, exit, commands @ ..] = args else {
            return Err(ExpandError::new("do needs bindings and an exit clause", d));
        };
        let specs = specs
            .as_list()
            .ok_or_else(|| ExpandError::new("do bindings must be a list", d))?;
        let mut names = Vec::new();
        let mut inits = Vec::new();
        let mut steps = Vec::new();
        for s in specs {
            let parts = s
                .as_list()
                .ok_or_else(|| ExpandError::new("bad do binding", s))?;
            match parts {
                [Datum::Symbol(n), init] => {
                    names.push(n.clone());
                    inits.push(init.clone());
                    steps.push(Datum::Symbol(n.clone()));
                }
                [Datum::Symbol(n), init, step] => {
                    names.push(n.clone());
                    inits.push(init.clone());
                    steps.push(step.clone());
                }
                _ => return Err(ExpandError::new("bad do binding", s)),
            }
        }
        let exit_parts = exit
            .as_list()
            .ok_or_else(|| ExpandError::new("bad do exit clause", exit))?;
        let [test, results @ ..] = exit_parts else {
            return Err(ExpandError::new("do exit clause needs a test", exit));
        };
        // (do ((v i s)...) (test r...) cmd...) =>
        // (let %do-loop ((v i)...)
        //   (if test (begin r...) (begin cmd... (%do-loop s...))))
        let loop_sym = Datum::Symbol("do-loop".to_string());
        let recur = Datum::List({
            let mut v = vec![loop_sym.clone()];
            v.extend(steps);
            v
        });
        let mut else_branch = commands.to_vec();
        else_branch.push(recur);
        let then_branch = if results.is_empty() {
            Datum::form("begin", vec![])
        } else {
            Datum::form("begin", results.to_vec())
        };
        let if_form = Datum::form(
            "if",
            vec![test.clone(), then_branch, Datum::form("begin", else_branch)],
        );
        let named_let = Datum::form("let", {
            let mut v = vec![loop_sym];
            v.push(Datum::List(
                names
                    .iter()
                    .zip(&inits)
                    .map(|(n, i)| Datum::List(vec![Datum::Symbol(n.clone()), i.clone()]))
                    .collect(),
            ));
            v.push(if_form);
            v
        });
        self.expand(&named_let)
    }

    fn expand_quasi(&mut self, d: &Datum, depth: u32, at: &Datum) -> Result<Expr, ExpandError> {
        // (unquote x)
        if let Datum::List(items) = d {
            if items.len() == 2 && items[0].as_symbol() == Some("unquote") {
                if depth == 1 {
                    return self.expand(&items[1]);
                }
                let inner = self.expand_quasi(&items[1], depth - 1, at)?;
                return self.qq_list2(Expr::Const(Datum::Symbol("unquote".into())), inner, at);
            }
            if items.len() == 2 && items[0].as_symbol() == Some("quasiquote") {
                let inner = self.expand_quasi(&items[1], depth + 1, at)?;
                return self.qq_list2(Expr::Const(Datum::Symbol("quasiquote".into())), inner, at);
            }
        }
        match d {
            Datum::List(items) => self.expand_quasi_list(items, None, depth, at),
            Datum::Improper(items, tail) => self.expand_quasi_list(items, Some(tail), depth, at),
            Datum::Vector(items) => {
                let as_list = self.expand_quasi_list(items, None, depth, at)?;
                let l2v = self.global_ref("list->vector", at)?;
                Ok(Expr::Call(Box::new(l2v), vec![as_list]))
            }
            atom => Ok(Expr::Const(atom.clone())),
        }
    }

    fn expand_quasi_list(
        &mut self,
        items: &[Datum],
        tail: Option<&Datum>,
        depth: u32,
        at: &Datum,
    ) -> Result<Expr, ExpandError> {
        // Recognize the dotted-unquote case `(a . ,b)`, which the parser
        // normalizes to a proper list ending in [unquote, b].
        let mut items = items;
        let mut tail_expr = match tail {
            Some(t) => self.expand_quasi(t, depth, at)?,
            None => {
                if items.len() >= 3
                    && items[items.len() - 2].as_symbol() == Some("unquote")
                    && depth == 1
                {
                    let t = self.expand(&items[items.len() - 1])?;
                    items = &items[..items.len() - 2];
                    t
                } else {
                    Expr::Const(Datum::nil())
                }
            }
        };
        let cons = self.global_ref("cons", at)?;
        for item in items.iter().rev() {
            // (unquote-splicing x) at depth 1 splices with append.
            if let Datum::List(parts) = item {
                if parts.len() == 2
                    && parts[0].as_symbol() == Some("unquote-splicing")
                    && depth == 1
                {
                    let spliced = self.expand(&parts[1])?;
                    let append = self.global_ref("append", at)?;
                    tail_expr = Expr::Call(Box::new(append), vec![spliced, tail_expr]);
                    continue;
                }
            }
            let head = self.expand_quasi(item, depth, at)?;
            tail_expr = Expr::Call(Box::new(cons.clone()), vec![head, tail_expr]);
        }
        Ok(tail_expr)
    }

    fn qq_list2(&mut self, a: Expr, b: Expr, at: &Datum) -> Result<Expr, ExpandError> {
        let cons = self.global_ref("cons", at)?;
        let nil = Expr::Const(Datum::nil());
        let inner = Expr::Call(Box::new(cons.clone()), vec![b, nil]);
        Ok(Expr::Call(Box::new(cons), vec![a, inner]))
    }
}

/// Flattens a non-empty expression sequence into one expression.
fn seq(mut es: Vec<Expr>) -> Expr {
    debug_assert!(!es.is_empty(), "seq of zero expressions");
    if es.len() == 1 {
        es.pop().expect("len checked")
    } else {
        Expr::Seq(es)
    }
}

/// Splices top-level `(begin ...)` forms.
fn flatten_toplevel(forms: &[Datum], out: &mut Vec<Datum>) {
    for d in forms {
        if let Datum::List(items) = d {
            if items.first().and_then(Datum::as_symbol) == Some("begin") && items.len() > 1 {
                flatten_toplevel(&items[1..], out);
                continue;
            }
        }
        out.push(d.clone());
    }
}

/// Recognizes `(define name init?)` and `(define (name params...) body...)`.
/// Returns `Some((name, Some(init-form)))` on a define, `None` otherwise.
fn parse_define(d: &Datum) -> Result<Option<(String, Option<Datum>)>, ExpandError> {
    let Datum::List(items) = d else {
        return Ok(None);
    };
    if items.first().and_then(Datum::as_symbol) != Some("define") {
        return Ok(None);
    }
    match &items[1..] {
        [Datum::Symbol(name)] => Ok(Some((name.clone(), None))),
        [Datum::Symbol(name), init] => Ok(Some((name.clone(), Some(init.clone())))),
        [Datum::List(sig), body @ ..] if !sig.is_empty() => {
            let name = sig[0]
                .as_symbol()
                .ok_or_else(|| ExpandError::new("bad define signature", d))?;
            let params = Datum::List(sig[1..].to_vec());
            let lambda = Datum::form("lambda", {
                let mut v = vec![params];
                v.extend_from_slice(body);
                v
            });
            Ok(Some((name.to_string(), Some(lambda))))
        }
        [Datum::Improper(sig, tail), body @ ..] if !sig.is_empty() => {
            // (define (name a b . rest) body...)
            let name = sig[0]
                .as_symbol()
                .ok_or_else(|| ExpandError::new("bad define signature", d))?;
            let params = if sig.len() == 1 {
                (**tail).clone()
            } else {
                Datum::Improper(sig[1..].to_vec(), tail.clone())
            };
            let lambda = Datum::form("lambda", {
                let mut v = vec![params];
                v.extend_from_slice(body);
                v
            });
            Ok(Some((name.to_string(), Some(lambda))))
        }
        _ => Err(ExpandError::new("malformed define", d)),
    }
}

/// Parses a `((name init) ...)` binding list.
fn parse_bindings(at: &Datum, binds: Option<&Datum>) -> Result<Vec<(String, Datum)>, ExpandError> {
    let binds = binds.ok_or_else(|| ExpandError::new("missing binding list", at))?;
    let list = binds
        .as_list()
        .ok_or_else(|| ExpandError::new("binding list must be a list", binds))?;
    list.iter()
        .map(|b| match b.as_list() {
            Some([Datum::Symbol(n), init]) => Ok((n.clone(), init.clone())),
            _ => Err(ExpandError::new("bad binding", b)),
        })
        .collect()
}

/// Desugars R7RS-style `define-record-type` into ordinary definitions over
/// the first-class representation facility:
///
/// ```scheme
/// (define-record-type point
///   (make-point x y)
///   point?
///   (x point-x set-point-x!)
///   (y point-y))
/// ```
///
/// binds `point` to a fresh representation type (tagged with the library's
/// `record-tag`, discriminated by header type id) and defines the
/// constructor, predicate, accessors, and mutators as plain procedures.
/// When the optimizer can see these definitions they specialize exactly
/// like the built-in types.
fn expand_record_type(d: &Datum) -> Result<Vec<Datum>, ExpandError> {
    let Datum::List(items) = d else {
        unreachable!("checked by caller")
    };
    let [_, name_d, ctor_d, pred_d, field_ds @ ..] = &items[..] else {
        return Err(ExpandError::new(
            "define-record-type needs a name, constructor, predicate, and fields",
            d,
        ));
    };
    let name = name_d
        .as_symbol()
        .ok_or_else(|| ExpandError::new("record name must be a symbol", d))?;
    let ctor = ctor_d
        .as_list()
        .ok_or_else(|| ExpandError::new("bad record constructor spec", ctor_d))?;
    let [ctor_name, ctor_fields @ ..] = ctor else {
        return Err(ExpandError::new("empty record constructor spec", ctor_d));
    };
    let pred = pred_d
        .as_symbol()
        .ok_or_else(|| ExpandError::new("record predicate must be a symbol", pred_d))?;

    // Field table: (field accessor [mutator]) in declaration order.
    let mut fields: Vec<(String, String, Option<String>)> = Vec::new();
    for f in field_ds {
        match f.as_list() {
            Some([Datum::Symbol(fname), Datum::Symbol(acc)]) => {
                fields.push((fname.clone(), acc.clone(), None))
            }
            Some([Datum::Symbol(fname), Datum::Symbol(acc), Datum::Symbol(mt)]) => {
                fields.push((fname.clone(), acc.clone(), Some(mt.clone())))
            }
            _ => return Err(ExpandError::new("bad record field spec", f)),
        }
    }
    let index_of = |fname: &str| -> Result<usize, ExpandError> {
        fields
            .iter()
            .position(|(n, _, _)| n == fname)
            .ok_or_else(|| ExpandError::new(format!("unknown record field `{fname}`"), d))
    };
    let sym = |s: &str| Datum::Symbol(s.to_string());
    let fix = |n: usize| Datum::Fixnum(n as i64);
    let project_fix = |n: usize| Datum::form("%rep-project", vec![sym("fixnum-rep"), fix(n)]);

    let mut out = Vec::new();
    // (define <name> (%make-pointer-type '<name> record-tag #t))
    out.push(Datum::form(
        "define",
        vec![
            sym(name),
            Datum::form(
                "%make-pointer-type",
                vec![
                    Datum::quoted(sym(name)),
                    sym("record-tag"),
                    Datum::Bool(true),
                ],
            ),
        ],
    ));
    // Constructor: allocate, set the constructed fields, return.
    {
        let mut body = Vec::new();
        let alloc = Datum::form(
            "%rep-alloc",
            vec![sym(name), project_fix(fields.len()), Datum::Fixnum(0)],
        );
        let mut lets = vec![Datum::List(vec![Datum::List(vec![sym("r"), alloc])])];
        let mut let_body = Vec::new();
        for cf in ctor_fields {
            let fname = cf
                .as_symbol()
                .ok_or_else(|| ExpandError::new("constructor field must be a symbol", cf))?;
            let idx = index_of(fname)?;
            let_body.push(Datum::form(
                "%rep-set!",
                vec![sym(name), sym("r"), project_fix(idx), sym(fname)],
            ));
        }
        let_body.push(sym("r"));
        let mut let_form = vec![Datum::Symbol("let".to_string())];
        let_form.append(&mut lets);
        let_form.extend(let_body);
        let ctor_sym = ctor_name
            .as_symbol()
            .ok_or_else(|| ExpandError::new("constructor name must be a symbol", ctor_d))?;
        let mut sig = vec![sym(ctor_sym)];
        sig.extend(ctor_fields.iter().cloned());
        body.push(Datum::List(let_form));
        let mut define = vec![Datum::Symbol("define".to_string()), Datum::List(sig)];
        define.extend(body);
        out.push(Datum::List(define));
    }
    // Predicate.
    out.push(Datum::form(
        "define",
        vec![
            Datum::List(vec![sym(pred), sym("x")]),
            Datum::form(
                "%rep-inject",
                vec![
                    sym("boolean-rep"),
                    Datum::form("%rep-test", vec![sym(name), sym("x")]),
                ],
            ),
        ],
    ));
    // Accessors and mutators.
    for (i, (_, acc, mt)) in fields.iter().enumerate() {
        out.push(Datum::form(
            "define",
            vec![
                Datum::List(vec![sym(acc), sym("r")]),
                Datum::form("%rep-ref", vec![sym(name), sym("r"), project_fix(i)]),
            ],
        ));
        if let Some(mt) = mt {
            out.push(Datum::form(
                "define",
                vec![
                    Datum::List(vec![sym(mt), sym("r"), sym("v")]),
                    Datum::form(
                        "%rep-set!",
                        vec![sym(name), sym("r"), project_fix(i), sym("v")],
                    ),
                ],
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxr_sexp::parse_all;

    fn expander_with_lib() -> Expander {
        let mut ex = Expander::new();
        for g in [
            "cons",
            "append",
            "list->vector",
            "eqv?",
            "box",
            "unbox",
            "set-box!",
            "fx+",
            "fx-",
            "fx<",
        ] {
            ex.declare_global(g);
        }
        ex
    }

    fn expand1(src: &str) -> Expr {
        let mut ex = expander_with_lib();
        let forms = parse_all(src).unwrap();
        let unit = ex.expand_unit(&forms).unwrap();
        match unit.items.into_iter().next().unwrap() {
            TopItem::Expr(e) => e,
            TopItem::Def(_, e) => e,
        }
    }

    fn expand_err(src: &str) -> ExpandError {
        let mut ex = expander_with_lib();
        let forms = parse_all(src).unwrap();
        ex.expand_unit(&forms).unwrap_err()
    }

    #[test]
    fn constants() {
        assert_eq!(expand1("42"), Expr::Const(Datum::Fixnum(42)));
        assert_eq!(expand1("#t"), Expr::Const(Datum::Bool(true)));
        assert_eq!(
            expand1("'(a b)"),
            Expr::Const(Datum::List(vec!["a".into(), "b".into()]))
        );
    }

    #[test]
    fn unbound_variable_is_error() {
        let e = expand_err("nope");
        assert!(e.message.contains("unbound"));
    }

    #[test]
    fn lambda_and_shadowing() {
        let e = expand1("(lambda (x) x)");
        match e {
            Expr::Lambda(l) => {
                assert_eq!(l.params.len(), 1);
                assert_eq!(l.body, Expr::Var(l.params[0]));
            }
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn keywords_shadowable() {
        // `if` bound as a parameter is a variable, not syntax.
        let e = expand1("(lambda (if) (if if if))");
        match e {
            Expr::Lambda(l) => match l.body {
                Expr::Call(f, args) => {
                    assert_eq!(*f, Expr::Var(l.params[0]));
                    assert_eq!(args.len(), 2);
                }
                _ => panic!("expected call"),
            },
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn prim_application() {
        let e = expand1("(%word+ 1 2)");
        assert_eq!(
            e,
            Expr::Prim(
                "word+".to_string(),
                vec![Expr::Const(Datum::Fixnum(1)), Expr::Const(Datum::Fixnum(2))]
            )
        );
    }

    #[test]
    fn prim_not_first_class() {
        assert!(expand_err("%word+").message.contains("not first-class"));
    }

    #[test]
    fn let_is_application() {
        let e = expand1("(let ((x 1)) x)");
        assert!(matches!(e, Expr::Call(f, _) if matches!(*f, Expr::Lambda(_))));
    }

    #[test]
    fn named_let_is_letrec() {
        let e = expand1("(let loop ((i 0)) (if (fx< i 10) (loop (fx+ i 1)) i))");
        match e {
            Expr::LetRec(binds, body) => {
                assert_eq!(binds.len(), 1);
                assert!(matches!(*body, Expr::Call(..)));
            }
            other => panic!("expected LetRec, got {other:?}"),
        }
    }

    #[test]
    fn letrec_with_non_lambda_falls_back_to_boxes() {
        let mut ex = expander_with_lib();
        let forms = parse_all("(letrec ((x 1) (f (lambda () x))) (f))").unwrap();
        let unit = ex.expand_unit(&forms).unwrap();
        let mut prog = ex.into_program(vec![unit]);
        crate::convert_assignments(&mut prog).unwrap();
        let global = |name| Expr::Global(prog.global_by_name(name).unwrap());
        let (box_g, setbox_g) = (global("box"), global("set-box!"));
        // The fallback applies a lambda to one value per binding; assignment
        // conversion boxes each parameter on entry, one `let` at a time.
        let TopItem::Expr(Expr::Call(f, args)) = &prog.items[0] else {
            panic!("expected an application, got {:?}", prog.items[0]);
        };
        assert_eq!(args, &vec![Expr::Unspecified; 2]);
        let Expr::Lambda(l) = &**f else {
            panic!("expected a lambda, got {f:?}")
        };
        let mut boxed = Vec::new();
        let mut e = &l.body;
        while let Expr::Call(f, args) = e {
            let (Expr::Lambda(inner), [Expr::Call(g, raw)]) = (&**f, &args[..]) else {
                break;
            };
            assert_eq!(**g, box_g);
            boxed.extend(raw.iter().cloned());
            e = &inner.body;
        }
        boxed.reverse();
        let params: Vec<Expr> = l.params.iter().map(|&v| Expr::Var(v)).collect();
        assert_eq!(boxed, params, "every binding is boxed");
        // The initializers then fill the boxes in order.
        let Expr::Seq(body) = e else {
            panic!("expected the initializers and the body, got {e:?}")
        };
        assert_eq!(body.len(), 3);
        for init in &body[..2] {
            assert!(
                matches!(init, Expr::Call(g, _) if **g == setbox_g),
                "{init:?}"
            );
        }
    }

    #[test]
    fn internal_defines_make_letrec() {
        let e = expand1("(lambda () (define (f) (g)) (define (g) 1) (f))");
        match e {
            Expr::Lambda(l) => assert!(matches!(l.body, Expr::LetRec(ref b, _) if b.len() == 2)),
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn cond_expansion() {
        let e = expand1("(cond ((fx< 1 2) 'a) (else 'b))");
        assert!(matches!(e, Expr::If(..)));
        let e = expand1("(cond)");
        assert_eq!(e, Expr::Unspecified);
    }

    #[test]
    fn cond_arrow() {
        let e = expand1("(cond (1 => (lambda (x) x)) (else 2))");
        // let-bound temp applied through the receiver.
        assert!(matches!(e, Expr::Call(..)));
    }

    #[test]
    fn and_or() {
        assert_eq!(expand1("(and)"), Expr::Const(Datum::Bool(true)));
        assert_eq!(expand1("(or)"), Expr::Const(Datum::Bool(false)));
        assert!(matches!(expand1("(and 1 2)"), Expr::If(..)));
        assert!(matches!(expand1("(or 1 2)"), Expr::Call(..)));
    }

    #[test]
    fn case_expansion() {
        let e = expand1("(case 3 ((1 2) 'small) ((3) 'three) (else 'big))");
        assert!(matches!(e, Expr::Call(..))); // outer let
    }

    #[test]
    fn do_expansion() {
        let e = expand1("(do ((i 0 (fx+ i 1)) (acc 0 (fx+ acc i))) ((fx< 9 i) acc))");
        assert!(matches!(e, Expr::LetRec(..)));
    }

    #[test]
    fn quasiquote_simple() {
        // `(1 ,x) => (cons '1 (cons x '()))
        let mut ex = expander_with_lib();
        let forms = parse_all("(lambda (x) `(1 ,x))").unwrap();
        let unit = ex.expand_unit(&forms).unwrap();
        let TopItem::Expr(Expr::Lambda(l)) = &unit.items[0] else {
            panic!()
        };
        match &l.body {
            Expr::Call(f, args) => {
                assert!(matches!(**f, Expr::Global(_)));
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected cons call, got {other:?}"),
        }
    }

    #[test]
    fn quasiquote_splicing_uses_append() {
        let e = expand1("(lambda (xs) `(1 ,@xs 2))");
        let Expr::Lambda(l) = e else { panic!() };
        // outermost is (cons '1 (append xs (cons '2 '())))
        assert!(matches!(l.body, Expr::Call(..)));
    }

    #[test]
    fn quasiquote_nested_depth() {
        // ``(,x) at depth 2 keeps the inner unquote as data structure builders.
        let e = expand1("(lambda (x) ``(,x))");
        assert!(matches!(e, Expr::Lambda(_)));
    }

    #[test]
    fn dotted_unquote_tail() {
        let e = expand1("(lambda (b) `(a . ,b))");
        let Expr::Lambda(l) = e else { panic!() };
        // (cons 'a b)
        match &l.body {
            Expr::Call(_, args) => {
                assert_eq!(args.len(), 2);
                assert_eq!(args[1], Expr::Var(l.params[0]));
            }
            other => panic!("expected (cons 'a b), got {other:?}"),
        }
    }

    #[test]
    fn set_global_and_var() {
        let mut ex = expander_with_lib();
        let forms = parse_all("(define x 1) (set! x 2)").unwrap();
        let unit = ex.expand_unit(&forms).unwrap();
        assert!(matches!(unit.items[1], TopItem::Expr(Expr::SetGlobal(..))));
    }

    #[test]
    fn define_function_sugar() {
        let mut ex = expander_with_lib();
        let forms = parse_all("(define (id x) x)").unwrap();
        let unit = ex.expand_unit(&forms).unwrap();
        let TopItem::Def(_, Expr::Lambda(l)) = &unit.items[0] else {
            panic!()
        };
        assert_eq!(l.name.as_deref(), Some("id"));
    }

    #[test]
    fn toplevel_begin_splices() {
        let mut ex = expander_with_lib();
        let forms = parse_all("(begin (define a 1) (define b 2)) a").unwrap();
        let unit = ex.expand_unit(&forms).unwrap();
        assert_eq!(unit.items.len(), 3);
    }

    #[test]
    fn forward_reference_to_later_define() {
        let mut ex = expander_with_lib();
        let forms = parse_all("(define (f) (g)) (define (g) 1)").unwrap();
        assert!(ex.expand_unit(&forms).is_ok());
    }

    #[test]
    fn variadic_accepted() {
        let e = expand1("(lambda args args)");
        let Expr::Lambda(l) = e else { panic!() };
        assert!(l.params.is_empty());
        assert_eq!(l.body, Expr::Var(l.rest.unwrap()));

        let e = expand1("(lambda (a . b) b)");
        let Expr::Lambda(l) = e else { panic!() };
        assert_eq!(l.params.len(), 1);
        assert!(l.rest.is_some());

        let mut ex = expander_with_lib();
        let unit = ex
            .expand_unit(&parse_all("(define (f a . xs) xs)").unwrap())
            .unwrap();
        let TopItem::Def(_, Expr::Lambda(l)) = &unit.items[0] else {
            panic!()
        };
        assert_eq!(l.params.len(), 1);
        assert!(l.rest.is_some());
    }

    #[test]
    fn duplicate_parameter_rejected() {
        assert!(expand_err("(lambda (x x) x)").message.contains("duplicate"));
    }

    #[test]
    fn bad_forms() {
        assert!(expand_err("()").message.contains("empty application"));
        assert!(expand_err("(if)").message.contains("if takes"));
        assert!(expand_err("(set! 3 4)").message.contains("set!"));
        assert!(expand_err("(let ((x)) x)").message.contains("bad binding"));
        assert!(expand_err("(lambda (x) (define y 1))")
            .message
            .contains("only definitions"));
    }

    #[test]
    fn else_must_be_last() {
        assert!(expand_err("(cond (else 1) (2 3))").message.contains("last"));
    }

    #[test]
    fn one_armed_if_gets_unspecified() {
        let e = expand1("(if #t 1)");
        match e {
            Expr::If(_, _, els) => assert_eq!(*els, Expr::Unspecified),
            _ => panic!("expected if"),
        }
    }

    #[test]
    fn when_unless() {
        assert!(matches!(expand1("(when #t 1 2)"), Expr::If(..)));
        assert!(matches!(expand1("(unless #t 1)"), Expr::If(..)));
    }

    #[test]
    fn global_ids_stable_across_units() {
        let mut ex = Expander::new();
        let u1 = ex
            .expand_unit(&parse_all("(define lib 10)").unwrap())
            .unwrap();
        let u2 = ex.expand_unit(&parse_all("lib").unwrap()).unwrap();
        let TopItem::Def(g, _) = u1.items[0] else {
            panic!()
        };
        let TopItem::Expr(Expr::Global(g2)) = u2.items[0] else {
            panic!()
        };
        assert_eq!(g, g2);
        let p = ex.into_program(vec![u1, u2]);
        assert_eq!(p.global_names, vec!["lib".to_string()]);
        assert_eq!(p.global_by_name("lib"), Some(0));
        assert_eq!(p.user_start, 1, "the last unit is the user's");
    }
}
