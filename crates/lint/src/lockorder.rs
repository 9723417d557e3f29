//! Static lock-acquisition graph over the concurrent crates
//! (`serve`, `tenant`) and cycle detection — a cheap deadlock
//! detector over the SessionHub / TenantService / worker-queue
//! mutexes.
//!
//! The model, deliberately simple and conservative:
//!
//! * **Locks** are *named* `Mutex`/`RwLock` fields or bindings; the
//!   graph is over names (two fields with one name collapse — fine
//!   for this workspace, where lock names are globally distinct).
//! * **Acquisition** is `<name>.lock()` / `.read()` / `.write()`. A
//!   guard is assumed held until the end of its enclosing block —
//!   an over-approximation (temporaries drop earlier), so the graph
//!   can only have *more* edges than runtime, never fewer.
//! * **One-level call inlining**: a call to a known function while a
//!   lock is held contributes edges from the held lock to every lock
//!   that function acquires anywhere in its body.
//! * **Multi-instance (sharded) locks**: the per-shard queue mutexes
//!   and the event-loop state all share one *name* across many
//!   instances, so "two shards held at once" shows up as a *self*
//!   edge (`queue -> queue`). A direct nested acquisition of an
//!   already-held name is therefore kept as a self edge — it is a
//!   deadlock the moment two threads pick opposite instance orders
//!   (or a single-instance re-entrant lock, which self-deadlocks
//!   outright). Self edges from call inlining are still dropped:
//!   the callee's guard lives inside the callee's own block, and
//!   the block-scope over-approximation would make them pure noise.
//! * **Cycle** in the resulting digraph ⇒ `lock-order` violation
//!   (a self edge is a one-node cycle).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::report::{Diagnostic, LockEdge, LockGraph};
use crate::rules::FileCtx;

/// Lock-acquisition or call event inside one function body.
#[derive(Debug)]
enum Event {
    /// `<lock>.lock()` at brace `depth` (relative to the body).
    Acquire { lock: String, depth: i32, line: u32 },
    /// Call to a known workspace function while scanning the body.
    Call { callee: String, line: u32 },
    /// A `}` dropped the depth to this value: guards above it die.
    CloseTo { depth: i32 },
}

#[derive(Debug)]
struct FnBody {
    name: String,
    file: String,
    events: Vec<Event>,
}

/// Extract the acquisition graph from the lock crates' files and
/// report any cycles as `lock-order` diagnostics.
#[must_use]
pub fn analyze(files: &[&FileCtx]) -> (LockGraph, Vec<Diagnostic>) {
    // Pass 1: lock names and function names, across all files.
    let mut locks: BTreeSet<String> = BTreeSet::new();
    let mut fn_names: BTreeSet<String> = BTreeSet::new();
    for ctx in files {
        collect_lock_names(ctx, &mut locks);
        for i in 0..ctx.n_code().saturating_sub(1) {
            if ctx.ct(i).is_ident("fn") && ctx.ct(i + 1).kind == TokKind::Ident {
                fn_names.insert(ctx.ct(i + 1).text.clone());
            }
        }
    }

    // Pass 2: per-function event streams.
    let mut bodies: Vec<FnBody> = Vec::new();
    for ctx in files {
        parse_bodies(ctx, &locks, &fn_names, &mut bodies);
    }

    // Locks each function acquires anywhere in its body (for the
    // one-level call inlining). Name collisions merge — conservative.
    let mut fn_locks: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for b in &bodies {
        let entry = fn_locks.entry(b.name.as_str()).or_default();
        for e in &b.events {
            if let Event::Acquire { lock, .. } = e {
                entry.insert(lock.as_str());
            }
        }
    }

    // Pass 3: simulate held-lock scopes, emit edges.
    let mut edges: BTreeMap<(String, String), (String, String, u32)> = BTreeMap::new();
    let mut add_edge =
        |from: &str, to: &str, func: &str, file: &str, line: u32, allow_self: bool| {
            if from != to || allow_self {
                edges
                    .entry((from.to_string(), to.to_string()))
                    .or_insert_with(|| (func.to_string(), file.to_string(), line));
            }
        };
    for b in &bodies {
        let mut held: Vec<(&str, i32)> = Vec::new();
        for e in &b.events {
            match e {
                Event::Acquire { lock, depth, line } => {
                    for &(h, _) in &held {
                        // A direct re-acquisition of a held name is a
                        // self edge: either two instances of a sharded
                        // lock (deadlocks under opposite instance
                        // orders) or a re-entrant single Mutex
                        // (deadlocks immediately).
                        add_edge(h, lock, &b.name, &b.file, *line, true);
                    }
                    held.push((lock.as_str(), *depth));
                }
                Event::Call { callee, line } => {
                    if held.is_empty() {
                        continue;
                    }
                    if let Some(acquired) = fn_locks.get(callee.as_str()) {
                        for &(h, _) in &held {
                            for &l in acquired {
                                add_edge(h, l, &b.name, &b.file, *line, false);
                            }
                        }
                    }
                }
                Event::CloseTo { depth } => {
                    held.retain(|&(_, d)| d <= *depth);
                }
            }
        }
    }

    let graph_edges: Vec<LockEdge> = edges
        .iter()
        .map(|((from, to), (func, file, line))| LockEdge {
            from: from.clone(),
            to: to.clone(),
            func: func.clone(),
            file: file.clone(),
            line: *line,
        })
        .collect();
    let cycles = find_cycles(&locks, &edges);

    let mut diags = Vec::new();
    for cycle in &cycles {
        // Anchor the diagnostic at the first edge of the cycle.
        let names: Vec<&str> = cycle.split(" -> ").collect();
        let anchor = edges
            .get(&(names[0].to_string(), names[1].to_string()))
            .cloned();
        let (func, file, line) = anchor.unwrap_or_else(|| ("?".to_string(), "?".to_string(), 0));
        let excerpt = files
            .iter()
            .find(|c| c.rel_path == file)
            .map(|c| c.excerpt(line))
            .unwrap_or_default();
        let message = if names.len() == 2 && names[0] == names[1] {
            format!(
                "lock-order self cycle `{cycle}` (in `{func}`) — two instances \
                 of this lock are held at once; shard it by a total instance \
                 order (e.g. ascending index) or release the first guard"
            )
        } else {
            format!(
                "lock-order cycle `{cycle}` (in `{func}`) — a consistent \
                 acquisition order is required to rule out deadlock"
            )
        };
        diags.push(Diagnostic {
            file,
            line,
            rule: "lock-order".to_string(),
            message,
            excerpt,
        });
    }

    (
        LockGraph {
            nodes: locks.into_iter().collect(),
            edges: graph_edges,
            cycles,
        },
        diags,
    )
}

/// `name: Mutex<…>` fields, `static NAME: Mutex<…>`, and
/// `let name = Mutex::new(…)` bindings.
fn collect_lock_names(ctx: &FileCtx, out: &mut BTreeSet<String>) {
    for i in 0..ctx.n_code() {
        let t = ctx.ct(i);
        if !(t.is_ident("Mutex") || t.is_ident("RwLock")) {
            continue;
        }
        let mut j = i;
        while j > 0 {
            let p = ctx.ct(j - 1);
            if p.is_punct(':') || p.is_ident("std") || p.is_ident("sync") {
                j -= 1;
            } else {
                break;
            }
        }
        if j > 0 && ctx.ct(j - 1).is_punct('=') {
            j -= 1;
        }
        if j > 0 && j < i {
            let cand = ctx.ct(j - 1);
            if cand.kind == TokKind::Ident
                && !matches!(
                    cand.text.as_str(),
                    "let" | "mut" | "pub" | "use" | "new" | "Arc" | "sync"
                )
            {
                out.insert(cand.text.clone());
            }
        }
    }
}

fn parse_bodies(
    ctx: &FileCtx,
    locks: &BTreeSet<String>,
    fn_names: &BTreeSet<String>,
    out: &mut Vec<FnBody>,
) {
    let n = ctx.n_code();
    let mut i = 0;
    while i + 1 < n {
        if !(ctx.ct(i).is_ident("fn") && ctx.ct(i + 1).kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let name = ctx.ct(i + 1).text.clone();
        // Find the body's opening brace (signatures in this workspace
        // put no braces before it).
        let mut j = i + 2;
        while j < n && !ctx.ct(j).is_punct('{') && !ctx.ct(j).is_punct(';') {
            j += 1;
        }
        if j >= n || ctx.ct(j).is_punct(';') {
            i = j.max(i + 1);
            continue; // trait method declaration without a body
        }
        let mut depth = 0i32;
        let mut events = Vec::new();
        let body_start = j;
        while j < n {
            let t = ctx.ct(j);
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                events.push(Event::CloseTo { depth });
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident
                && locks.contains(&t.text)
                && j + 3 < n
                && ctx.ct(j + 1).is_punct('.')
                && (ctx.ct(j + 2).is_ident("lock")
                    || ctx.ct(j + 2).is_ident("read")
                    || ctx.ct(j + 2).is_ident("write"))
                && ctx.ct(j + 3).is_punct('(')
            {
                events.push(Event::Acquire {
                    lock: t.text.clone(),
                    depth,
                    line: t.line,
                });
            } else if t.kind == TokKind::Ident
                && j > body_start
                && fn_names.contains(&t.text)
                && j + 1 < n
                && ctx.ct(j + 1).is_punct('(')
                && !ctx.ct(j - 1).is_ident("fn")
            {
                events.push(Event::Call {
                    callee: t.text.clone(),
                    line: t.line,
                });
            }
            j += 1;
        }
        out.push(FnBody {
            name,
            file: ctx.rel_path.clone(),
            events,
        });
        i = j + 1;
    }
}

/// Cycles in the edge set, canonicalized (`smallest -> … -> smallest`)
/// and sorted. DFS with an explicit stack-path, nodes visited in
/// sorted order, so the output is deterministic.
fn find_cycles(
    nodes: &BTreeSet<String>,
    edges: &BTreeMap<(String, String), (String, String, u32)>,
) -> Vec<String> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut cycles: BTreeSet<String> = BTreeSet::new();
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    for start in nodes {
        if visited.contains(start.as_str()) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        dfs(start, &adj, &mut visited, &mut path, &mut cycles);
    }
    cycles.into_iter().collect()
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    visited: &mut BTreeSet<&'a str>,
    path: &mut Vec<&'a str>,
    cycles: &mut BTreeSet<String>,
) {
    if let Some(pos) = path.iter().position(|&n| n == node) {
        let cycle = &path[pos..];
        // Rotate so the lexicographically smallest node leads.
        let min_idx = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| **n)
            .map_or(0, |(i, _)| i);
        let mut rotated: Vec<&str> = Vec::with_capacity(cycle.len() + 1);
        rotated.extend_from_slice(&cycle[min_idx..]);
        rotated.extend_from_slice(&cycle[..min_idx]);
        rotated.push(rotated[0]);
        cycles.insert(rotated.join(" -> "));
        return;
    }
    if visited.contains(node) {
        return;
    }
    path.push(node);
    if let Some(nexts) = adj.get(node) {
        for &next in nexts {
            dfs(next, adj, visited, path, cycles);
        }
    }
    path.pop();
    visited.insert(node);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/serve/src/x.rs", "serve", src)
    }

    #[test]
    fn nested_acquisition_produces_an_edge() {
        let c = ctx("struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                     fn f(s: &S) {\n  let ga = s.a.lock().unwrap();\n  let gb = s.b.lock().unwrap();\n  use_both(ga, gb);\n}\n");
        let (g, d) = analyze(&[&c]);
        assert_eq!(g.nodes, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(
            (g.edges[0].from.as_str(), g.edges[0].to.as_str()),
            ("a", "b")
        );
        assert!(g.cycles.is_empty());
        assert!(d.is_empty());
    }

    #[test]
    fn scoped_guard_release_cuts_the_edge() {
        let c = ctx("struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                     fn f(s: &S) {\n  { let ga = s.a.lock().unwrap(); use_it(ga); }\n  let gb = s.b.lock().unwrap();\n  use_it(gb);\n}\n");
        let (g, _) = analyze(&[&c]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn inverted_orders_form_a_cycle() {
        let c = ctx("struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                     fn f(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); use_both(ga, gb); }\n\
                     fn g(s: &S) { let gb = s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); use_both(ga, gb); }\n");
        let (g, d) = analyze(&[&c]);
        assert_eq!(g.cycles, vec!["a -> b -> a".to_string()]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lock-order");
    }

    #[test]
    fn one_level_call_inlining_finds_the_cycle() {
        let c = ctx("struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                     fn inner(s: &S) { let ga = s.a.lock().unwrap(); use_it(ga); }\n\
                     fn outer(s: &S) { let gb = s.b.lock().unwrap(); inner(s); use_it(gb); }\n\
                     fn other(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); use_both(ga, gb); }\n");
        let (g, d) = analyze(&[&c]);
        assert!(g.cycles.contains(&"a -> b -> a".to_string()), "{:?}", g);
        assert!(!d.is_empty());
    }

    #[test]
    fn sharded_double_acquisition_is_a_self_cycle() {
        // Two instances of one named lock (per-shard queues) held at
        // the same time: collapses to a `queue -> queue` self edge,
        // which is a one-node cycle.
        let c = ctx("struct Shard { queue: Mutex<u32> }\n\
                     struct S { shards: Vec<Shard> }\n\
                     fn steal(s: &S) {\n  let mine = s.shards[0].queue.lock().unwrap();\n  let theirs = s.shards[1].queue.lock().unwrap();\n  use_both(mine, theirs);\n}\n");
        let (g, d) = analyze(&[&c]);
        assert_eq!(g.cycles, vec!["queue -> queue".to_string()]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("self cycle"), "{}", d[0].message);
    }

    #[test]
    fn sharded_scoped_acquisition_is_clean() {
        // Taking shard queues one at a time (guard dropped before the
        // next instance) is the work-stealing pattern the server uses;
        // it must not produce a self edge.
        let c = ctx("struct Shard { queue: Mutex<u32> }\n\
                     struct S { shards: Vec<Shard> }\n\
                     fn scan(s: &S) {\n  { let mine = s.shards[0].queue.lock().unwrap(); use_it(mine); }\n  { let theirs = s.shards[1].queue.lock().unwrap(); use_it(theirs); }\n}\n");
        let (g, d) = analyze(&[&c]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert!(g.cycles.is_empty());
        assert!(d.is_empty());
    }

    #[test]
    fn call_inlined_self_edges_stay_dropped() {
        // The callee's guard is block-scoped inside the callee, so a
        // call-inlined same-name edge would be pure noise — only
        // *direct* nested acquisitions count as self edges.
        let c = ctx("struct S { completions: Mutex<u32> }\n\
                     fn push_one(s: &S) { let g = s.completions.lock().unwrap(); use_it(g); }\n\
                     fn flush(s: &S) { let g = s.completions.lock().unwrap(); use_it(g); push_one(s); }\n");
        let (g, _) = analyze(&[&c]);
        assert!(g.cycles.is_empty(), "{:?}", g.cycles);
    }

    #[test]
    fn rwlock_read_write_count_as_acquisitions() {
        let c = ctx("struct S { cfg: RwLock<u32>, log: Mutex<u32> }\n\
                     fn f(s: &S) { let c = s.cfg.read().unwrap(); let l = s.log.lock().unwrap(); use_both(c, l); }\n");
        let (g, _) = analyze(&[&c]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(
            (g.edges[0].from.as_str(), g.edges[0].to.as_str()),
            ("cfg", "log")
        );
    }
}
