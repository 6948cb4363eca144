//! The `serial-only-escape` context pass.
//!
//! PR 9's correction layer keeps serve runs byte-identical at any `--jobs`
//! only because every `CorrectionLedger` fold, `ModelRegistry::publish`,
//! flight-recorder stamp and maintenance entry point runs on the serial
//! event loop. This pass promotes that convention into a machine-checked
//! property:
//!
//! * a fn annotated `// ctx: serial-only` (directly above or trailing its
//!   `fn` line) must never be reachable from **worker context**;
//! * worker context is seeded by the closure argument of every
//!   `pool::run_jobs(…)` call and by the job closure (the first closure
//!   argument, not the serial body closure) of every `pool::scope(…)`
//!   call, and propagated through direct calls to a fixpoint (a fn called
//!   from worker context is itself worker context);
//! * any resolved call edge from worker context into a serial-only fn is a
//!   `serial-only-escape` finding at the call line, waivable with the
//!   usual `// lint:allow(serial-only-escape): <justification>`.
//!
//! ### Resolution limits, stated honestly
//!
//! The call graph is token-level (see [`crate::graph`]): no generics or
//! trait-object resolution, and no edges through function-valued
//! parameters (a closure handed onward by name is invisible). Method calls
//! resolve by candidate set: a name defined by exactly one in-tree `impl`
//! resolves unconditionally; an ambiguous name resolves only when the
//! receiver's declared type is visible in the same file (`ledger: &mut
//! CorrectionLedger` … `ledger.observe(…)`) or the receiver is `self`
//! inside an `impl`. Anything else produces *no* edge — the pass prefers a
//! documented blind spot over a guessed edge, and the runtime `--jobs`
//! byte-compare gates remain the backstop. `#[cfg(test)]` code is skipped:
//! tests may exercise torn publishes deliberately.

use crate::graph::CallKind;
use crate::rules::{push_unless_waived, SERIAL_ONLY_ESCAPE};
use crate::{AnalyzedFile, Finding};
use std::collections::BTreeMap;

/// A global function id: (file index, def index within that file).
type DefId = (usize, usize);

struct Workspace<'a> {
    files: &'a [AnalyzedFile],
    /// `(owner, name)` → method defs.
    methods: BTreeMap<(String, String), Vec<DefId>>,
    /// `name` → method defs (any owner).
    methods_by_name: BTreeMap<String, Vec<DefId>>,
    /// `name` → free-fn defs.
    free_by_name: BTreeMap<String, Vec<DefId>>,
}

impl<'a> Workspace<'a> {
    fn build(files: &'a [AnalyzedFile]) -> Self {
        let mut ws = Workspace {
            files,
            methods: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
        };
        for (fi, f) in files.iter().enumerate() {
            for (di, d) in f.graph.defs.iter().enumerate() {
                let id = (fi, di);
                match &d.owner {
                    Some(owner) => {
                        ws.methods
                            .entry((owner.clone(), d.name.clone()))
                            .or_default()
                            .push(id);
                        ws.methods_by_name
                            .entry(d.name.clone())
                            .or_default()
                            .push(id);
                    }
                    None => ws.free_by_name.entry(d.name.clone()).or_default().push(id),
                }
            }
        }
        ws
    }

    /// The innermost fn def in `file` whose body contains `token_index`.
    fn enclosing_def(&self, file: usize, token_index: usize) -> Option<DefId> {
        self.files[file]
            .graph
            .defs
            .iter()
            .enumerate()
            .filter_map(|(di, d)| {
                d.body
                    .filter(|&(s, e)| token_index > s && token_index < e)
                    .map(|(s, e)| (e - s, (file, di)))
            })
            .min_by_key(|&(span, _)| span)
            .map(|(_, id)| id)
    }

    /// Resolves one call site in `file` to its possible in-tree callees.
    fn resolve(&self, file: usize, call_index: usize) -> Vec<DefId> {
        let call = &self.files[file].graph.calls[call_index];
        let hints = &self.files[file].graph.type_hints;
        let enclosing_owner = || {
            self.enclosing_def(file, call.token_index)
                .and_then(|(fi, di)| self.files[fi].graph.defs[di].owner.clone())
        };
        match &call.kind {
            CallKind::Qualified(q) => {
                let owner = if q == "Self" {
                    match enclosing_owner() {
                        Some(o) => o,
                        None => return Vec::new(),
                    }
                } else {
                    q.clone()
                };
                if let Some(ids) = self.methods.get(&(owner, call.name.clone())) {
                    return ids.clone();
                }
                // `module::free_fn(…)`: the qualifier is a module path
                // segment, not a type — fall back to a unique free fn.
                match self.free_by_name.get(&call.name) {
                    Some(ids) if ids.len() == 1 => ids.clone(),
                    _ => Vec::new(),
                }
            }
            CallKind::Method(receiver) => {
                let candidates = match self.methods_by_name.get(&call.name) {
                    Some(ids) => ids,
                    None => return Vec::new(),
                };
                if candidates.len() == 1 {
                    return candidates.clone();
                }
                // Ambiguous name: pin the receiver's type down, or refuse.
                let owner_hints: Vec<String> = match receiver.as_deref() {
                    Some("self") => enclosing_owner().into_iter().collect(),
                    Some(recv) => hints
                        .get(recv)
                        .map(|set| set.iter().cloned().collect())
                        .unwrap_or_default(),
                    None => Vec::new(),
                };
                if owner_hints.is_empty() {
                    return Vec::new();
                }
                candidates
                    .iter()
                    .filter(|&&(fi, di)| {
                        self.files[fi].graph.defs[di]
                            .owner
                            .as_deref()
                            .is_some_and(|o| owner_hints.iter().any(|h| h == o))
                    })
                    .copied()
                    .collect()
            }
            CallKind::Bare => {
                // Same-file free fn first; otherwise a unique workspace one.
                if let Some(ids) = self.free_by_name.get(&call.name) {
                    let local: Vec<DefId> =
                        ids.iter().filter(|&&(fi, _)| fi == file).copied().collect();
                    if !local.is_empty() {
                        return local;
                    }
                    if ids.len() == 1 {
                        return ids.clone();
                    }
                }
                Vec::new()
            }
        }
    }
}

fn def_label(files: &[AnalyzedFile], (fi, di): DefId) -> String {
    let d = &files[fi].graph.defs[di];
    match &d.owner {
        Some(o) => format!("{}::{}", o, d.name),
        None => d.name.clone(),
    }
}

/// Runs the context pass over the analyzed `crates/*/src` files.
pub fn check_context(files: &[AnalyzedFile]) -> Vec<Finding> {
    let ws = Workspace::build(files);
    let mut findings = Vec::new();

    // Annotation hygiene first: dangling / unknown ctx values.
    for f in files {
        for p in &f.graph.ctx_problems {
            push_unless_waived(
                &f.scanned,
                &mut findings,
                &f.path,
                p.line,
                SERIAL_ONLY_ESCAPE,
                p.message.clone(),
            );
        }
    }

    // Seed: every call site inside a worker region, with a provenance
    // chain for the finding message.
    // worker[def] = (the seeding region's entry, chain of fn labels from
    // the closure to that def).
    let mut worker: BTreeMap<DefId, (&str, Vec<String>)> = BTreeMap::new();
    let mut queue: Vec<DefId> = Vec::new();

    let consider = |files: &[AnalyzedFile],
                    findings: &mut Vec<Finding>,
                    worker: &mut BTreeMap<DefId, (&'static str, Vec<String>)>,
                    queue: &mut Vec<DefId>,
                    file: usize,
                    call_index: usize,
                    entry: &'static str,
                    chain: &[String]| {
        let call = &files[file].graph.calls[call_index];
        for target in ws.resolve(file, call_index) {
            let def = &files[target.0].graph.defs[target.1];
            if def.serial_only {
                let via = if chain.is_empty() {
                    format!("directly inside {entry}")
                } else {
                    format!("via worker-context fn(s) {}", chain.join(" -> "))
                };
                push_unless_waived(
                    &files[file].scanned,
                    findings,
                    &files[file].path,
                    call.line,
                    SERIAL_ONLY_ESCAPE,
                    format!(
                        "worker-context call into serial-only fn `{}` ({}:{}) {via}",
                        def_label(files, target),
                        files[target.0].path,
                        def.line
                    ),
                );
            } else if let std::collections::btree_map::Entry::Vacant(e) = worker.entry(target) {
                let mut next = chain.to_vec();
                next.push(def_label(files, target));
                e.insert((entry, next));
                queue.push(target);
            }
        }
    };

    for (fi, f) in files.iter().enumerate() {
        for &(start, end, entry) in &f.graph.worker_regions {
            if f.graph.in_test_code(start) {
                continue;
            }
            for (ci, c) in f.graph.calls.iter().enumerate() {
                if c.token_index >= start && c.token_index < end {
                    consider(
                        files,
                        &mut findings,
                        &mut worker,
                        &mut queue,
                        fi,
                        ci,
                        entry,
                        &[],
                    );
                }
            }
        }
    }

    // Fixpoint: propagate worker context through resolved bodies.
    while let Some(id) = queue.pop() {
        let (entry, chain) = worker.get(&id).cloned().unwrap_or_default();
        let (fi, di) = id;
        let Some((bs, be)) = files[fi].graph.defs[di].body else {
            continue;
        };
        if files[fi].graph.in_test_code(bs) {
            continue;
        }
        for (ci, c) in files[fi].graph.calls.iter().enumerate() {
            if c.token_index > bs && c.token_index < be {
                consider(
                    files,
                    &mut findings,
                    &mut worker,
                    &mut queue,
                    fi,
                    ci,
                    entry,
                    &chain,
                );
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_source;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<AnalyzedFile> = srcs.iter().map(|(p, s)| analyze_source(p, s)).collect();
        check_context(&files)
    }

    const LEDGER: &str = "pub struct Ledger;\nimpl Ledger {\n    // ctx: serial-only\n    pub fn fold(&mut self, x: u64) { let _ = x; }\n}\n";

    #[test]
    fn direct_escape_in_run_jobs_closure_is_found() {
        let src = format!(
            "{LEDGER}pub fn bad(l: &mut Ledger) {{\n    pool::run_jobs(vec![1u64], 2, |_, j| l.fold(j));\n}}\n"
        );
        let f = run(&[("crates/x/src/lib.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, SERIAL_ONLY_ESCAPE);
        assert_eq!(f[0].line, 7);
        assert!(f[0].message.contains("Ledger::fold"), "{}", f[0].message);
    }

    #[test]
    fn transitive_escape_propagates_through_helpers() {
        let src = format!(
            "{LEDGER}fn helper(l: &mut Ledger) {{ l.fold(3); }}\npub fn bad(l: &mut Ledger) {{\n    pool::run_jobs(vec![1u64], 2, |_, _j| helper(l));\n}}\n"
        );
        let f = run(&[("crates/x/src/lib.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6, "finding lands on the call inside helper");
        assert!(f[0].message.contains("via worker-context fn(s) helper"));
    }

    #[test]
    fn serial_calls_are_fine_and_waivers_suppress() {
        let ok = format!("{LEDGER}pub fn fine(l: &mut Ledger) {{ l.fold(1); }}\n");
        assert!(run(&[("crates/x/src/lib.rs", &ok)]).is_empty());
        let waived = format!(
            "{LEDGER}pub fn bad(l: &mut Ledger) {{\n    pool::run_jobs(vec![1u64], 2, |_, j| {{\n        // lint:allow(serial-only-escape): test double, not the live ledger\n        l.fold(j)\n    }});\n}}\n"
        );
        assert!(run(&[("crates/x/src/lib.rs", &waived)]).is_empty());
    }

    #[test]
    fn ambiguous_method_without_hints_produces_no_edge() {
        // Two `fold` methods and an untyped receiver: the pass refuses to
        // guess rather than flagging `Other::fold` users.
        let other =
            "pub struct Other;\nimpl Other {\n    pub fn fold(&self, x: u64) -> u64 { x }\n}\n";
        let src = format!(
            "{LEDGER}pub fn ok(o: u64) {{\n    pool::run_jobs(vec![o], 2, |_, j| untyped.fold(j));\n}}\n"
        );
        let f = run(&[
            ("crates/x/src/lib.rs", &src),
            ("crates/y/src/lib.rs", other),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hinted_receiver_resolves_among_ambiguous_candidates() {
        let other =
            "pub struct Other;\nimpl Other {\n    pub fn fold(&self, x: u64) -> u64 { x }\n}\n";
        let src = format!(
            "{LEDGER}pub fn bad(l: &mut Ledger, o: &Other) {{\n    pool::run_jobs(vec![1u64], 2, |_, j| l.fold(j));\n    o.fold(2);\n}}\n"
        );
        let f = run(&[
            ("crates/x/src/lib.rs", &src),
            ("crates/y/src/lib.rs", other),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Ledger::fold"));
    }

    #[test]
    fn pool_scope_job_closure_is_worker_context_and_its_body_is_not() {
        let bad = format!(
            "{LEDGER}pub fn bad(l: &Ledger, m: &mut Ledger) {{\n    pool::scope(\n        2,\n        |_, j: u64| l.fold(j),\n        |pool| {{\n            m.fold(1);\n            pool.run(vec![1u64])\n        }},\n    );\n}}\n"
        );
        let f = run(&[("crates/x/src/lib.rs", &bad)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 9, "the job closure's call, not the body's");
        assert!(
            f[0].message
                .contains("directly inside a `pool::scope` job closure"),
            "{}",
            f[0].message
        );

        let ok = format!(
            "{LEDGER}pub fn ok(m: &mut Ledger) {{\n    pool::scope(2, |_, j: u64| j + 1, |pool| {{\n        m.fold(1);\n        pool.run(vec![1u64])\n    }});\n}}\n"
        );
        assert!(run(&[("crates/x/src/lib.rs", &ok)]).is_empty());
    }

    #[test]
    fn cfg_test_worker_regions_are_exempt() {
        let src = format!(
            "{LEDGER}#[cfg(test)]\nmod tests {{\n    fn stress(l: &mut super::Ledger) {{\n        pool::run_jobs(vec![1u64], 2, |_, j| l.fold(j));\n    }}\n}}\n"
        );
        assert!(run(&[("crates/x/src/lib.rs", &src)]).is_empty());
    }
}
