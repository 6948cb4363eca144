//! Token-level call-graph extraction for one scanned file.
//!
//! The context pass (`serial-only-escape`, see [`crate::context`]) needs a
//! shallow structural view of every source file: which functions are
//! defined (and inside which `impl` block), where their bodies start and
//! end, which call sites they contain, and which closures run on pool
//! workers: the closure handed to `pool::run_jobs` and the job closure of
//! `pool::scope`. All of it is recovered from the scanner's token
//! stream — no syntax tree, no name resolution beyond what the tokens
//! carry. The limits of that shallowness are deliberate and documented in
//! DESIGN §5: no generics or trait-object resolution, no calls through
//! function-valued parameters, and method calls on receivers the
//! type-hint heuristic cannot pin down produce *no* edge rather than a
//! guessed one.

use crate::scanner::ScannedFile;
use std::collections::{BTreeMap, BTreeSet};

/// A function definition found in one file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The enclosing `impl` block's type name, if any (`impl Foo` and
    /// `impl Trait for Foo` both yield `Foo`); `None` for free functions.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range `[start, end)` of the body including its braces;
    /// `None` for bodyless declarations (trait methods ending in `;`).
    pub body: Option<(usize, usize)>,
    /// True when a `// ctx: serial-only` annotation attaches to this fn.
    pub serial_only: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `Owner::name(…)` — the token directly before the `::` path tail.
    Qualified(String),
    /// `.name(…)` with the nearest plain-identifier receiver, when one
    /// exists (`ledger.record(…)` → `Some("ledger")`; a chained receiver
    /// like `a().b.record(…)` → `None`).
    Method(Option<String>),
    /// A bare `name(…)` call.
    Bare,
}

/// One call site: `name(` at a token position.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee name as written.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Index of the name token in the scanned token stream.
    pub token_index: usize,
    /// The syntactic shape of the call.
    pub kind: CallKind,
}

/// A structural problem with the file's `ctx:` annotations — surfaced by
/// the context pass as hygiene findings.
#[derive(Debug, Clone)]
pub struct CtxProblem {
    /// 1-based line of the offending annotation.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

/// The extracted structure of one file.
#[derive(Debug, Default)]
pub struct FileGraph {
    /// Function definitions in token order.
    pub defs: Vec<FnDef>,
    /// Call sites in token order.
    pub calls: Vec<CallSite>,
    /// Worker-context token ranges `[start, end)`, each with the entry
    /// that seeded it as finding-message text:
    ///
    /// * the closure portion of every `run_jobs(…)` call (from the first
    ///   `|` inside the call's parentheses to their close). Conservative:
    ///   if an earlier argument also contains a closure the region starts
    ///   there, over- rather than under-approximating worker context;
    /// * the job closure of every `pool::scope(…)` call: its first closure
    ///   argument, from the opening `|` to the comma that ends the
    ///   argument. The body closure after it runs on the calling thread
    ///   and stays serial context.
    pub worker_regions: Vec<(usize, usize, &'static str)>,
    /// `ident → possible type names` gathered from `ident : …Type…`
    /// declaration windows (params, fields, typed lets) in this file.
    pub type_hints: BTreeMap<String, BTreeSet<String>>,
    /// Token ranges `[start, end)` of `#[cfg(test)]`-gated items; calls
    /// and defs inside them are excluded from workspace passes (tests may
    /// exercise serving invariants deliberately).
    pub test_ranges: Vec<(usize, usize)>,
    /// Annotation hygiene problems (dangling / unknown `ctx:` values).
    pub ctx_problems: Vec<CtxProblem>,
}

impl FileGraph {
    /// True when `token_index` falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, token_index: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| token_index >= s && token_index < e)
    }
}

/// Tokens that look like `name(` but are control flow or bindings, never
/// calls the graph should record.
const CALL_BLACKLIST: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "else", "let", "fn",
    "impl", "pub", "use", "mod", "where",
];

/// Finds the token index one past the matching closer for the opener at
/// `open` (`tokens[open]` must be the opener). Returns `tokens.len()` when
/// unbalanced (the compiler, not the lint, rejects that).
fn balanced(s: &ScannedFile, open: usize, opener: &str, closer: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < s.tokens.len() {
        let t = s.tokens[i].text.as_str();
        if t == opener {
            depth += 1;
        } else if t == closer {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    s.tokens.len()
}

/// Skips a generic-argument list starting at `tokens[i] == "<"`, honouring
/// `->`/`=>` (whose `>` is not a closer). Returns the index after the `>`.
fn skip_generics(s: &ScannedFile, mut i: usize) -> usize {
    let mut depth = 0isize;
    while i < s.tokens.len() {
        let t = s.tokens[i].text.as_str();
        if t == "<" {
            depth += 1;
        } else if t == ">" {
            let arrow = i > 0 && matches!(s.tokens[i - 1].text.as_str(), "-" | "=");
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        } else if depth == 1 && matches!(t, ";" | "{") {
            return i; // malformed / not generics after all; bail out
        }
        i += 1;
    }
    i
}

/// The first closure argument of the call whose `(` is at `open` and whose
/// balanced range ends at `end`: `[opening |, end of argument)`, where the
/// argument ends at the next top-level `,` or at the call's `)`. Nesting
/// in `()`/`[]`/`{}` and turbofish generics is skipped, and the closure's
/// parameter list is skipped to its closing `|` (parameters may hold
/// top-level commas). `None` when no argument starts a closure.
fn first_closure_argument(s: &ScannedFile, open: usize, end: usize) -> Option<(usize, usize)> {
    let close = end.checked_sub(1)?;
    let mut depth = 0usize;
    let mut bar: Option<usize> = None;
    let mut k = open + 1;
    while k < close {
        let t = s.tokens[k].text.as_str();
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "<" if k >= 2 && s.tokens[k - 1].text == ":" && s.tokens[k - 2].text == ":" => {
                k = skip_generics(s, k);
                continue;
            }
            "|" if depth == 0 && bar.is_none() => {
                bar = Some(k);
                // Skip the parameter list to its closing `|`.
                let mut inner = 0usize;
                k += 1;
                while k < close {
                    match s.tokens[k].text.as_str() {
                        "(" | "[" | "{" | "<" => inner += 1,
                        ")" | "]" | "}" | ">" => inner = inner.saturating_sub(1),
                        "|" if inner == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            "," if depth == 0 => {
                if let Some(start) = bar {
                    return Some((start, k));
                }
            }
            _ => {}
        }
        k += 1;
    }
    bar.map(|start| (start, close))
}

/// `impl` block spans: `(body_start, body_end, owner)` where the body is
/// the balanced `{…}` token range and `owner` is the implemented type's
/// last path segment (`impl fmt::Display for SiteId` → `SiteId`).
fn impl_ranges(s: &ScannedFile) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let n = s.tokens.len();
    for i in 0..n {
        if s.tokens[i].text != "impl" {
            continue;
        }
        let mut j = i + 1;
        if j < n && s.tokens[j].text == "<" {
            j = skip_generics(s, j);
        }
        // Collect top-level idents of the type path(s) up to the body.
        // After `for`, restart: the implemented type is the one after it.
        let mut owner: Option<String> = None;
        while j < n {
            let t = s.tokens[j].text.as_str();
            match t {
                "{" => break,
                ";" => break, // `impl Trait for Type;`-ish degenerate
                "for" => {
                    owner = None;
                    j += 1;
                }
                "<" => j = skip_generics(s, j),
                "where" => {
                    // Skip the where clause up to the body brace.
                    while j < n && s.tokens[j].text != "{" {
                        j += 1;
                    }
                }
                _ => {
                    if s.tokens[j]
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                    {
                        owner = Some(s.tokens[j].text.clone());
                    }
                    j += 1;
                }
            }
        }
        if j < n && s.tokens[j].text == "{" {
            if let Some(owner) = owner {
                out.push((j, balanced(s, j, "{", "}"), owner));
            }
        }
    }
    out
}

/// `#[cfg(test)]` item ranges: from the attribute to the end of the next
/// balanced `{…}` block (covers both `mod tests { … }` and gated fns).
fn cfg_test_ranges(s: &ScannedFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let n = s.tokens.len();
    let mut i = 0;
    while i + 6 < n {
        let is_cfg_test = s.tokens[i].text == "#"
            && s.tokens[i + 1].text == "["
            && s.tokens[i + 2].text == "cfg"
            && s.tokens[i + 3].text == "("
            && s.tokens[i + 4].text == "test"
            && s.tokens[i + 5].text == ")"
            && s.tokens[i + 6].text == "]";
        if is_cfg_test {
            let mut j = i + 7;
            while j < n && s.tokens[j].text != "{" && s.tokens[j].text != ";" {
                j += 1;
            }
            if j < n && s.tokens[j].text == "{" {
                let end = balanced(s, j, "{", "}");
                out.push((i, end));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Extracts the file's structural graph from its scanned tokens.
pub fn extract(s: &ScannedFile) -> FileGraph {
    let mut g = FileGraph {
        test_ranges: cfg_test_ranges(s),
        ..FileGraph::default()
    };
    let impls = impl_ranges(s);
    let n = s.tokens.len();

    // --- fn definitions ---------------------------------------------------
    for i in 0..n {
        if s.tokens[i].text != "fn" || i + 1 >= n {
            continue;
        }
        let name_tok = &s.tokens[i + 1];
        if !name_tok
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            continue; // `fn(` in a function-pointer type
        }
        let mut j = i + 2;
        if j < n && s.tokens[j].text == "<" {
            j = skip_generics(s, j);
        }
        if j >= n || s.tokens[j].text != "(" {
            continue;
        }
        j = balanced(s, j, "(", ")");
        // Return type / where clause: scan to the body `{` or a `;`.
        while j < n && s.tokens[j].text != "{" && s.tokens[j].text != ";" {
            j += 1;
        }
        let body = if j < n && s.tokens[j].text == "{" {
            Some((j, balanced(s, j, "{", "}")))
        } else {
            None
        };
        // Innermost impl block containing the `fn` token owns the method.
        let owner = impls
            .iter()
            .filter(|&&(start, end, _)| i > start && i < end)
            .min_by_key(|&&(start, end, _)| end - start)
            .map(|(_, _, o)| o.clone());
        g.defs.push(FnDef {
            name: name_tok.text.clone(),
            owner,
            line: s.tokens[i].line,
            body,
            serial_only: false,
        });
    }

    // --- ctx annotations attach to the next fn within 3 lines -------------
    for ann in &s.ctx_annotations {
        if ann.value != "serial-only" {
            g.ctx_problems.push(CtxProblem {
                line: ann.line,
                message: format!(
                    "unknown context annotation `ctx: {}` (only `serial-only` is defined)",
                    ann.value
                ),
            });
            continue;
        }
        let target = g
            .defs
            .iter_mut()
            .filter(|d| d.line >= ann.line && d.line <= ann.line + 3)
            .min_by_key(|d| d.line);
        match target {
            Some(def) => def.serial_only = true,
            None => g.ctx_problems.push(CtxProblem {
                line: ann.line,
                message: "dangling `ctx: serial-only` annotation: no fn definition within the \
                          next 3 lines"
                    .into(),
            }),
        }
    }

    // --- call sites -------------------------------------------------------
    for i in 0..n.saturating_sub(1) {
        if s.tokens[i + 1].text != "(" {
            continue;
        }
        let name = &s.tokens[i].text;
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            continue;
        }
        if CALL_BLACKLIST.contains(&name.as_str()) {
            continue;
        }
        let prev = i.checked_sub(1).map(|k| s.tokens[k].text.as_str());
        if prev == Some("fn") {
            continue; // definition, not a call
        }
        let kind = if prev == Some(".") {
            // Nearest receiver: a plain ident directly before the dot.
            let recv = i
                .checked_sub(2)
                .map(|k| &s.tokens[k].text)
                .filter(|t| {
                    t.chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                })
                .cloned();
            CallKind::Method(recv)
        } else if prev == Some(":") && i >= 3 && s.tokens[i - 2].text == ":" {
            let q = &s.tokens[i - 3].text;
            if q.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                CallKind::Qualified(q.clone())
            } else {
                CallKind::Bare
            }
        } else {
            CallKind::Bare
        };
        g.calls.push(CallSite {
            name: name.clone(),
            line: s.tokens[i].line,
            token_index: i,
            kind,
        });
    }

    // --- worker regions: run_jobs closures, pool::scope job closures -----
    for call in &g.calls {
        let open = call.token_index + 1;
        if call.name == "run_jobs" {
            let end = balanced(s, open, "(", ")");
            if let Some(bar) = (open..end).find(|&k| s.tokens[k].text == "|") {
                g.worker_regions.push((bar, end, "a `run_jobs` closure"));
            }
        } else if call.name == "scope" && call.kind == CallKind::Qualified("pool".to_string()) {
            let end = balanced(s, open, "(", ")");
            if let Some((bar, arg_end)) = first_closure_argument(s, open, end) {
                g.worker_regions
                    .push((bar, arg_end, "a `pool::scope` job closure"));
            }
        }
    }

    // --- type hints: `ident : …Type…` declaration windows ------------------
    for i in 0..n.saturating_sub(2) {
        if s.tokens[i + 1].text != ":" {
            continue;
        }
        // Exclude path segments (`a::b`) on either side of the colon.
        if s.tokens[i + 2].text == ":" || (i > 0 && s.tokens[i - 1].text == ":") {
            continue;
        }
        let name = &s.tokens[i].text;
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            continue;
        }
        let window_end = (i + 2 + 12).min(n);
        let mut depth = 0isize;
        for k in i + 2..window_end {
            let t = s.tokens[k].text.as_str();
            match t {
                "(" | "<" | "[" => depth += 1,
                ")" | ">" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                "," | ";" | "=" | "{" if depth == 0 => break,
                _ => {
                    if t.chars().next().is_some_and(|c| c.is_uppercase()) {
                        g.type_hints
                            .entry(name.clone())
                            .or_default()
                            .insert(t.to_string());
                    }
                }
            }
        }
    }

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn fn_defs_get_owners_and_bodies() {
        let s = scan(
            "struct A;\nimpl A {\n    pub fn m(&self) -> u64 { inner() }\n}\nfn free(x: u64) -> u64 { x }\nimpl From<u8> for A {\n    fn from(v: u8) -> Self { A }\n}",
        );
        let g = extract(&s);
        let names: Vec<(String, Option<String>)> = g
            .defs
            .iter()
            .map(|d| (d.name.clone(), d.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("m".into(), Some("A".into())),
                ("free".into(), None),
                ("from".into(), Some("A".into())),
            ]
        );
        assert!(g.defs.iter().all(|d| d.body.is_some()));
    }

    #[test]
    fn ctx_annotation_attaches_and_unknown_values_report() {
        let s = scan(
            "// ctx: serial-only\nfn fold() {}\n// ctx: parallel-fine\nfn other() {}\n// ctx: serial-only\nconst X: u64 = 1;",
        );
        let g = extract(&s);
        assert!(g.defs[0].serial_only, "fold is annotated");
        assert!(!g.defs[1].serial_only);
        assert_eq!(g.ctx_problems.len(), 2, "unknown value + dangling");
    }

    #[test]
    fn call_kinds_classify() {
        let s =
            scan("fn f() { a.g(); Reg::publish(x); free(1); pool::run_jobs(j, w, |_, x| h(x)); }");
        let g = extract(&s);
        let by_name = |n: &str| g.calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("g").kind, CallKind::Method(Some("a".into())));
        assert_eq!(by_name("publish").kind, CallKind::Qualified("Reg".into()));
        assert_eq!(by_name("free").kind, CallKind::Bare);
        assert_eq!(g.worker_regions.len(), 1);
        let (start, end, _) = g.worker_regions[0];
        let h = by_name("h");
        assert!(
            h.token_index >= start && h.token_index < end,
            "h is worker context"
        );
        assert!(by_name("free").token_index < start, "free is not");
    }

    #[test]
    fn pool_scope_region_covers_the_job_closure_only() {
        let s = scan(
            "fn f() { pool::scope(w(a, b), |_, (q, n): Job| -> R { priced(q, n) }, |pool| loop { serial(pool.run(j)); }); thread::scope(|t| other()); }",
        );
        let g = extract(&s);
        assert_eq!(g.worker_regions.len(), 1, "only pool::scope seeds a region");
        let (start, end, _) = g.worker_regions[0];
        let at = |n: &str| g.calls.iter().find(|c| c.name == n).unwrap().token_index;
        let inside = |n: &str| at(n) >= start && at(n) < end;
        assert!(inside("priced"), "the job closure is worker context");
        assert!(!inside("w"), "the worker-count argument is not");
        assert!(
            !inside("serial") && !inside("run"),
            "the body closure is not"
        );
        assert!(!inside("other"));
    }

    #[test]
    fn macros_are_not_calls() {
        let s = scan("fn f() { format!(\"x\"); assert_eq!(a, b); }");
        let g = extract(&s);
        assert!(g
            .calls
            .iter()
            .all(|c| c.name != "format" && c.name != "assert_eq"));
    }

    #[test]
    fn type_hints_collect_from_declaration_windows() {
        let s = scan("struct S { metrics: Option<MetricsRegistry>, n: u64 }\nfn f(ledger: &mut CorrectionLedger) {}");
        let g = extract(&s);
        assert!(g.type_hints["metrics"].contains("MetricsRegistry"));
        assert!(g.type_hints["ledger"].contains("CorrectionLedger"));
        assert!(!g.type_hints.contains_key("n"));
    }

    #[test]
    fn cfg_test_ranges_cover_test_modules() {
        let s = scan("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { live(); }\n}");
        let g = extract(&s);
        let call = g.calls.iter().find(|c| c.name == "live").unwrap();
        assert!(g.in_test_code(call.token_index));
    }
}
