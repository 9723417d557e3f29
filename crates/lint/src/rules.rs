//! The determinism rules, each a pass over the token stream of one
//! file.
//!
//! Every rule is a *heuristic over tokens*, not a type-checked
//! analysis — by design: the linter must stay std-only and offline.
//! The heuristics are tuned to the shapes that actually occur in this
//! workspace (and pinned by the fixture corpus in
//! `tests/fixtures/`); anything they over-approximate can be waived
//! in source with `// lint:allow(<rule>) reason`.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::Diagnostic;

/// Rule identifiers, in report order. Waivers must name one of these.
pub const RULE_IDS: &[&str] = &[
    "no-wall-clock",
    "no-hash-iter",
    "float-total-order",
    "no-ambient-entropy",
    "lock-order",
    "unsafe-safety",
    "unsafe-attr",
    "bad-waiver",
];

/// Hash-container methods whose call on a `HashMap`/`HashSet` name
/// counts as iteration (order-dependent unless waived).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Comparator-taking methods checked by `float-total-order`.
const COMPARATOR_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// Ambient-entropy identifiers forbidden outside `cli`/`serve`.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "ThreadRng", "RandomState", "from_entropy"];

/// `std::env` readers forbidden outside `cli`/`serve`.
const ENV_READERS: &[&str] = &["var", "var_os", "vars", "vars_os", "args", "args_os"];

/// An in-source waiver: `// lint:allow(<rule>) <reason>`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule being waived.
    pub rule: String,
    /// Mandatory justification (empty reason is itself a violation).
    pub reason: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Lines the waiver covers: its own line and the next code line.
    pub covers: Vec<u32>,
}

/// One file, lexed and preprocessed for the rules.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Owning crate (directory name under `crates/`, or `moldable`
    /// for the root facade).
    pub crate_name: String,
    /// Full token stream, comments included.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of code tokens (comments and `#[cfg(test)]`
    /// items excluded) — what the rules scan.
    pub code: Vec<usize>,
    /// Source lines, for excerpts.
    pub lines: Vec<String>,
    /// Waivers parsed from comments.
    pub waivers: Vec<Waiver>,
}

impl FileCtx {
    /// Lex and preprocess one file.
    #[must_use]
    pub fn new(rel_path: &str, crate_name: &str, src: &str) -> Self {
        let toks = lex(src);
        let code = code_indices(&toks);
        let mut ctx = Self {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            toks,
            code,
            lines: src.lines().map(str::to_string).collect(),
            waivers: Vec::new(),
        };
        ctx.waivers = parse_waivers(&ctx);
        ctx
    }

    /// The code token at code-index `i` (panics past the end — callers
    /// bound their scans).
    #[must_use]
    pub fn ct(&self, i: usize) -> &Tok {
        &self.toks[self.code[i]]
    }

    /// Number of code tokens.
    #[must_use]
    pub fn n_code(&self) -> usize {
        self.code.len()
    }

    /// Trimmed source line `line` (1-based), for excerpts.
    #[must_use]
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Build a diagnostic for this file.
    #[must_use]
    pub fn diag(&self, rule: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            file: self.rel_path.clone(),
            line,
            rule: rule.to_string(),
            message,
            excerpt: self.excerpt(line),
        }
    }

    /// Whether the file declares the inner attribute
    /// `#![<action>(<name>)]` (e.g. `forbid(unsafe_code)`).
    #[must_use]
    pub fn has_inner_attr(&self, action: &str, name: &str) -> bool {
        (0..self.n_code().saturating_sub(7)).any(|i| {
            self.ct(i).is_punct('#')
                && self.ct(i + 1).is_punct('!')
                && self.ct(i + 2).is_punct('[')
                && self.ct(i + 3).is_ident(action)
                && self.ct(i + 4).is_punct('(')
                && self.ct(i + 5).is_ident(name)
                && self.ct(i + 6).is_punct(')')
                && self.ct(i + 7).is_punct(']')
        })
    }
}

/// Indices of code tokens: comments dropped, and every item annotated
/// `#[cfg(test)]` skipped wholesale (test code may freely use wall
/// clocks, temp dirs, and hash iteration).
fn code_indices(toks: &[Tok]) -> Vec<usize> {
    let is_comment = |t: &Tok| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment);
    let mut code = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_comment(&toks[i]) {
            i += 1;
            continue;
        }
        // `#[cfg(test)]` — exactly this spelling, which is the only
        // one the workspace uses.
        let is_cfg_test = toks[i].is_punct('#')
            && toks.len() > i + 6
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_cfg_test {
            code.push(i);
            i += 1;
            continue;
        }
        i += 7;
        // Skip any further outer attributes on the same item.
        loop {
            while i < toks.len() && is_comment(&toks[i]) {
                i += 1;
            }
            if i + 1 < toks.len() && toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
                let mut depth = 0i32;
                while i < toks.len() {
                    if toks[i].is_punct('[') {
                        depth += 1;
                    } else if toks[i].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // Skip one item: up to a `;` at bracket depth 0, or to the
        // closing brace of the item body.
        let mut depth = 0i32;
        while i < toks.len() {
            let t = &toks[i];
            i += 1;
            if is_comment(t) {
                continue;
            }
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
        }
    }
    code
}

/// Parse `// lint:allow(<rule>) <reason>` waivers from comments. A
/// waiver covers its own line (trailing-comment style) and the first
/// following line that carries code (comment-above style).
fn parse_waivers(ctx: &FileCtx) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in &ctx.toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        // Only an actual waiver counts: the comment body must *start*
        // with `lint:allow(` once the comment markers are stripped.
        // Prose that merely mentions the syntax (docs, this comment)
        // does not.
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim_start();
        if !body.starts_with("lint:allow(") {
            continue;
        }
        let rest = &body["lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim()
            .trim_end_matches("*/")
            .trim()
            .to_string();
        let mut covers = vec![t.line];
        if let Some(next) = ctx
            .code
            .iter()
            .map(|&i| ctx.toks[i].line)
            .find(|&l| l > t.line)
        {
            covers.push(next);
        }
        out.push(Waiver {
            rule,
            reason,
            line: t.line,
            covers,
        });
    }
    out
}

/// Which rules apply to which crates / paths.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Crates whose output feeds deterministic schedules/event logs:
    /// `no-hash-iter` and the `f32` half of `float-total-order` apply.
    pub deterministic_crates: Vec<String>,
    /// Path fragments where wall-clock reads are expected (bench
    /// timing, loadgen, the server's event loop and request deadlines).
    pub wallclock_allow_paths: Vec<String>,
    /// Crates allowed ambient entropy / env reads (CLI + daemon
    /// configuration surface).
    pub entropy_crates: Vec<String>,
    /// Crates that must carry `#![forbid(unsafe_code)]`.
    pub pure_crates: Vec<String>,
    /// Crates that keep FFI and must carry
    /// `#![deny(unsafe_op_in_unsafe_fn)]`.
    pub ffi_crates: Vec<String>,
    /// Crates the `lock-order` rule analyzes.
    pub lock_crates: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        let v = |s: &[&str]| s.iter().map(ToString::to_string).collect();
        Self {
            deterministic_crates: v(&[
                "core",
                "graph",
                "model",
                "sim",
                "tenant",
                "adversary",
                "offline",
                "hetero",
            ]),
            wallclock_allow_paths: v(&[
                "crates/bench/",
                "crates/serve/src/loadgen.rs",
                "crates/serve/src/server/",
            ]),
            entropy_crates: v(&["cli", "serve"]),
            pure_crates: v(&[
                "core",
                "graph",
                "model",
                "sim",
                "tenant",
                "chaos",
                "adversary",
                "analysis",
                "offline",
                "hetero",
                "resilience",
                "lint",
                "moldable",
            ]),
            ffi_crates: v(&["serve", "bench", "cli"]),
            lock_crates: v(&["serve", "tenant"]),
        }
    }
}

/// Run every per-file rule on `ctx`, returning raw (pre-waiver)
/// diagnostics. The cross-file rules (`lock-order`, `unsafe-attr`)
/// live in [`crate::lockorder`] and the workspace driver.
#[must_use]
pub fn check_file(ctx: &FileCtx, cfg: &RuleConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    no_wall_clock(ctx, cfg, &mut out);
    no_hash_iter(ctx, cfg, &mut out);
    float_total_order(ctx, cfg, &mut out);
    no_ambient_entropy(ctx, cfg, &mut out);
    unsafe_safety(ctx, &mut out);
    out
}

fn no_wall_clock(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    if cfg
        .wallclock_allow_paths
        .iter()
        .any(|p| ctx.rel_path.starts_with(p.as_str()))
    {
        return;
    }
    for i in 0..ctx.n_code() {
        let t = ctx.ct(i);
        let hit = if t.is_ident("SystemTime") || t.is_ident("UNIX_EPOCH") {
            true
        } else {
            t.is_ident("Instant")
                && i + 3 < ctx.n_code()
                && ctx.ct(i + 1).is_punct(':')
                && ctx.ct(i + 2).is_punct(':')
                && ctx.ct(i + 3).is_ident("now")
        };
        if hit {
            out.push(ctx.diag(
                "no-wall-clock",
                t.line,
                format!(
                    "wall-clock read `{}` outside the timing allowlist \
                     (bench, loadgen, server event loop); simulated time \
                     must come from the engine",
                    t.text
                ),
            ));
        }
    }
}

/// Names declared with a `HashMap`/`HashSet` type or initializer in
/// this file. Heuristic back-scan from the type name over path
/// segments to the `name :` / `name =` that introduced it.
fn hash_container_names(ctx: &FileCtx) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..ctx.n_code() {
        let t = ctx.ct(i);
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        let mut j = i;
        while j > 0 {
            let p = ctx.ct(j - 1);
            if p.is_punct(':')
                || p.is_punct('&')
                || p.is_ident("mut")
                || p.is_ident("std")
                || p.is_ident("collections")
            {
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
                && !matches!(cand.text.as_str(), "let" | "mut" | "pub" | "use" | "in")
            {
                names.push(cand.text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn no_hash_iter(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    if !cfg.deterministic_crates.contains(&ctx.crate_name) {
        return;
    }
    let names = hash_container_names(ctx);
    if names.is_empty() {
        return;
    }
    let is_hash_name = |t: &Tok| t.kind == TokKind::Ident && names.binary_search(&t.text).is_ok();
    for i in 0..ctx.n_code() {
        let t = ctx.ct(i);
        // `map.keys()`, `set.iter()`, `map.drain()` …
        if is_hash_name(t)
            && i + 3 < ctx.n_code()
            && ctx.ct(i + 1).is_punct('.')
            && ctx.ct(i + 2).kind == TokKind::Ident
            && ITER_METHODS.contains(&ctx.ct(i + 2).text.as_str())
            && ctx.ct(i + 3).is_punct('(')
        {
            out.push(ctx.diag(
                "no-hash-iter",
                t.line,
                format!(
                    "iteration over hash container `{}.{}()` in deterministic \
                     crate `{}` — use BTreeMap/BTreeSet or a sorted drain",
                    t.text,
                    ctx.ct(i + 2).text,
                    ctx.crate_name
                ),
            ));
        }
        // `for x in &map { … }`
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut in_pos = None;
            while j < ctx.n_code() && j < i + 40 && !ctx.ct(j).is_punct('{') {
                if ctx.ct(j).is_ident("in") {
                    in_pos = Some(j);
                }
                j += 1;
            }
            if let Some(k) = in_pos {
                let span = &ctx.code[k + 1..j.min(ctx.n_code())];
                let has_call = span.iter().any(|&x| ctx.toks[x].is_punct('('));
                let hash_hit = span
                    .iter()
                    .map(|&x| &ctx.toks[x])
                    .find(|tok| is_hash_name(tok));
                if let (false, Some(h)) = (has_call, hash_hit) {
                    out.push(ctx.diag(
                        "no-hash-iter",
                        h.line,
                        format!(
                            "for-loop over hash container `{}` in deterministic \
                             crate `{}` — use BTreeMap/BTreeSet or a sorted drain",
                            h.text, ctx.crate_name
                        ),
                    ));
                }
            }
        }
    }
}

fn float_total_order(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.n_code() {
        let t = ctx.ct(i);
        // `sort_by(|a, b| a.partial_cmp(b).unwrap())` and friends.
        if t.kind == TokKind::Ident
            && COMPARATOR_METHODS.contains(&t.text.as_str())
            && i + 1 < ctx.n_code()
            && ctx.ct(i + 1).is_punct('(')
        {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < ctx.n_code() {
                let a = ctx.ct(j);
                if a.is_punct('(') {
                    depth += 1;
                } else if a.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.is_ident("partial_cmp") {
                    out.push(ctx.diag(
                        "float-total-order",
                        a.line,
                        format!(
                            "`{}` comparator uses `partial_cmp` — NaN breaks the \
                             total order; use `f64::total_cmp`",
                            t.text
                        ),
                    ));
                }
                j += 1;
            }
        }
        // `as f32` truncation in schedule-affecting crates.
        if cfg.deterministic_crates.contains(&ctx.crate_name)
            && t.is_ident("as")
            && i + 1 < ctx.n_code()
            && ctx.ct(i + 1).is_ident("f32")
        {
            out.push(ctx.diag(
                "float-total-order",
                t.line,
                format!(
                    "`as f32` truncation in deterministic crate `{}` — \
                     schedule-affecting arithmetic stays f64",
                    ctx.crate_name
                ),
            ));
        }
    }
}

fn no_ambient_entropy(ctx: &FileCtx, cfg: &RuleConfig, out: &mut Vec<Diagnostic>) {
    if cfg.entropy_crates.contains(&ctx.crate_name) {
        return;
    }
    for i in 0..ctx.n_code() {
        let t = ctx.ct(i);
        if t.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(ctx.diag(
                "no-ambient-entropy",
                t.line,
                format!(
                    "ambient entropy source `{}` — seeds come from the in-tree \
                     PRNG, hashers from explicit state",
                    t.text
                ),
            ));
        }
        if t.is_ident("env")
            && i + 3 < ctx.n_code()
            && ctx.ct(i + 1).is_punct(':')
            && ctx.ct(i + 2).is_punct(':')
            && ctx.ct(i + 3).kind == TokKind::Ident
            && ENV_READERS.contains(&ctx.ct(i + 3).text.as_str())
        {
            out.push(ctx.diag(
                "no-ambient-entropy",
                t.line,
                format!(
                    "environment read `env::{}` outside cli/serve configuration",
                    ctx.ct(i + 3).text
                ),
            ));
        }
    }
}

/// Every `unsafe` token must sit under a `SAFETY:` comment within the
/// preceding few lines (or the same line).
fn unsafe_safety(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let mut safety_lines: Vec<u32> = ctx
        .toks
        .iter()
        .filter(|t| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && t.text.contains("SAFETY:")
        })
        .map(|t| t.line)
        .collect();
    safety_lines.sort_unstable();
    for i in 0..ctx.n_code() {
        let t = ctx.ct(i);
        if !t.is_ident("unsafe") {
            continue;
        }
        let covered = safety_lines.iter().any(|&l| l <= t.line && t.line - l <= 8);
        if !covered {
            out.push(ctx.diag(
                "unsafe-safety",
                t.line,
                "`unsafe` without a `// SAFETY:` comment in the preceding lines".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str, src: &str) -> FileCtx {
        FileCtx::new(&format!("crates/{crate_name}/src/x.rs"), crate_name, src)
    }

    #[test]
    fn wall_clock_flagged_and_allowlisted() {
        let src = "fn f() { let t = Instant::now(); }";
        let d = check_file(&ctx("sim", src), &RuleConfig::default());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "no-wall-clock");
        let bench = FileCtx::new("crates/bench/src/timing.rs", "bench", src);
        assert!(check_file(&bench, &RuleConfig::default()).is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { let t = Instant::now(); }\n}\n";
        assert!(check_file(&ctx("sim", src), &RuleConfig::default()).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_only_in_deterministic_crates() {
        let src = "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) { for (k, v) in s.m.iter() { use_it(k, v); } }";
        let det = check_file(&ctx("graph", src), &RuleConfig::default());
        assert_eq!(det.len(), 1, "{det:?}");
        assert_eq!(det[0].rule, "no-hash-iter");
        let non_det = check_file(&ctx("chaos", src), &RuleConfig::default());
        assert!(non_det.is_empty());
    }

    #[test]
    fn hash_lookup_is_clean() {
        let src = "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) -> Option<&u32> { s.m.get(&1) }";
        assert!(check_file(&ctx("graph", src), &RuleConfig::default()).is_empty());
    }

    #[test]
    fn for_loop_over_hash_set_flagged() {
        let src = "fn f() { let s: HashSet<u32> = HashSet::new(); for x in &s { use_it(x); } }";
        let d = check_file(&ctx("core", src), &RuleConfig::default());
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn partial_cmp_comparator_flagged_total_cmp_clean() {
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let good = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }";
        let cfg = RuleConfig::default();
        assert_eq!(check_file(&ctx("serve", bad), &cfg).len(), 1);
        assert!(check_file(&ctx("serve", good), &cfg).is_empty());
        // A PartialOrd impl is not a comparator call site.
        let impl_src = "impl PartialOrd for T { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) } }";
        assert!(check_file(&ctx("sim", impl_src), &cfg).is_empty());
    }

    #[test]
    fn as_f32_flagged_in_deterministic_crate_only() {
        let src = "fn f(x: f64) -> f32 { x as f32 }";
        let cfg = RuleConfig::default();
        assert_eq!(check_file(&ctx("model", src), &cfg).len(), 1);
        assert!(check_file(&ctx("cli", src), &cfg).is_empty());
    }

    #[test]
    fn entropy_flagged_outside_cli_serve() {
        let src = "fn f() -> String { std::env::var(\"HOME\").unwrap() }";
        let cfg = RuleConfig::default();
        assert_eq!(check_file(&ctx("graph", src), &cfg).len(), 1);
        assert!(check_file(&ctx("serve", src), &cfg).is_empty());
        let rng = "fn f() { let r = thread_rng(); }";
        assert_eq!(check_file(&ctx("chaos", rng), &cfg).len(), 1);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { danger(); } }";
        let good = "fn f() {\n  // SAFETY: no-op in tests.\n  unsafe { danger(); }\n}";
        let cfg = RuleConfig::default();
        let d = check_file(&ctx("serve", bad), &cfg);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unsafe-safety");
        assert!(check_file(&ctx("serve", good), &cfg).is_empty());
    }

    #[test]
    fn waiver_parsing_covers_next_code_line() {
        let src =
            "// lint:allow(no-hash-iter) order folded into a sum\nfor x in &s { total += x; }";
        let c = ctx("core", src);
        assert_eq!(c.waivers.len(), 1);
        let w = &c.waivers[0];
        assert_eq!(w.rule, "no-hash-iter");
        assert_eq!(w.reason, "order folded into a sum");
        assert_eq!(w.covers, vec![1, 2]);
    }

    #[test]
    fn inner_attr_detection() {
        let c = ctx("core", "#![forbid(unsafe_code)]\npub fn f() {}\n");
        assert!(c.has_inner_attr("forbid", "unsafe_code"));
        assert!(!c.has_inner_attr("deny", "unsafe_op_in_unsafe_fn"));
    }
}
