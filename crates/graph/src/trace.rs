//! Workflow-trace import: DOT and JSON workflow files.
//!
//! The generators in [`crate::gen`] produce *synthetic* shapes; real
//! scheduler studies (Beránek et al., *Analysis of Workflow Schedulers
//! in Simulated Distributed Environments*) replay traces of actual
//! workflows. This module imports two common trace encodings into the
//! same frozen [`TaskGraph`] form the rest of the stack consumes:
//!
//! * **DOT** (a pragmatic subset): `digraph { a [weight=2]; a -> b; }`
//!   with `//` and `#` line comments, quoted or bare node names,
//!   optional `weight=` node attributes (default 1), edge chains
//!   (`a -> b -> c`), and `graph`/`node`/`edge` default-attribute
//!   statements ignored.
//! * **JSON** (a wfcommons-like schema): `{"name": …, "tasks":
//!   [{"id": "t0", "weight": 3.5, "parents": ["t1"], "children":
//!   [...]}]}` — `parents` and `children` both contribute edges,
//!   unknown keys are skipped, and `runtime` is accepted as a weight
//!   alias.
//!
//! Imported traces are *untrusted input* and pass the same guard
//! rails as the synthetic shapes in [`crate::gen::by_name`]: the task
//! count is bounded by [`TraceLimits::max_tasks`] **during** the
//! parse (a hostile file is rejected before its tasks materialize,
//! mirroring [`crate::gen::estimated_tasks`]'s pre-construction
//! check), ids must fit the `u32` task-id space, and edges go through
//! the checked [`GraphBuilder`] so cycles and duplicates surface as
//! structured [`TraceError`]s, never panics.
//!
//! Model assignment mirrors the generators exactly: the trace
//! supplies topology and relative weights, and
//! [`WorkflowTrace::into_graph`] samples per-task speedup models from
//! the default [`ParamDistribution`] of a [`ModelClass`], scaled by
//! the trace weight, under a caller seed (same arguments →
//! byte-identical graph).

use std::collections::HashMap;
use std::fmt;

use moldable_model::rng::StdRng;
use moldable_model::sample::ParamDistribution;
use moldable_model::ModelClass;

use crate::gen::{self, TaskCtx};
use crate::{GraphBuilder, GraphError, TaskGraph, TaskId};

/// Guard rails applied while parsing a trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceLimits {
    /// Reject traces declaring more tasks than this. The effective
    /// bound is `min(max_tasks, u32::MAX)` — the task-id space caps
    /// everything, exactly as for generated shapes.
    pub max_tasks: u64,
}

impl Default for TraceLimits {
    fn default() -> Self {
        Self {
            max_tasks: u64::from(u32::MAX),
        }
    }
}

impl TraceLimits {
    /// The binding task bound: the configured limit clamped to the
    /// `u32` id space.
    #[must_use]
    pub fn effective_max_tasks(&self) -> u64 {
        self.max_tasks.min(u64::from(u32::MAX))
    }
}

/// Structured import failures; every variant names the offending line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Syntax error in the trace text.
    Parse {
        /// 1-based line of the problem.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A task id was declared twice (JSON format; DOT merges).
    DuplicateTask {
        /// 1-based line of the second declaration.
        line: usize,
        /// The repeated id.
        id: String,
    },
    /// An edge references a task the trace never declares.
    UnknownTask {
        /// 1-based line of the reference.
        line: usize,
        /// The unknown id.
        id: String,
    },
    /// The trace declares more tasks than the configured limit — the
    /// analogue of the pre-construction `estimated_tasks` check for
    /// synthetic shapes; detected mid-parse, before the excess
    /// materializes.
    TooManyTasks {
        /// Tasks seen when the limit broke.
        tasks: u64,
        /// The limit it broke.
        limit: u64,
    },
    /// A task weight is non-finite or not positive.
    BadWeight {
        /// 1-based line of the weight.
        line: usize,
        /// The offending task id.
        id: String,
    },
    /// The edge was rejected by the graph builder (cycle, duplicate…).
    Graph {
        /// 1-based line of the edge.
        line: usize,
        /// The builder's rejection.
        source: GraphError,
    },
    /// The trace declares no tasks.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            Self::DuplicateTask { line, id } => {
                write!(f, "line {line}: task `{id}` declared twice")
            }
            Self::UnknownTask { line, id } => {
                write!(f, "line {line}: edge references unknown task `{id}`")
            }
            Self::TooManyTasks { tasks, limit } => {
                write!(f, "trace has {tasks}+ tasks, more than the limit {limit}")
            }
            Self::BadWeight { line, id } => {
                write!(f, "line {line}: task `{id}` has a non-positive weight")
            }
            Self::Graph { line, source } => write!(f, "line {line}: {source}"),
            Self::Empty => write!(f, "trace declares no tasks"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Which trace encoding to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The DOT subset.
    Dot,
    /// The JSON workflow schema.
    Json,
}

impl TraceFormat {
    /// Guess the format from the text: JSON documents start with `{`.
    #[must_use]
    pub fn sniff(text: &str) -> Self {
        match text.trim_start().as_bytes().first() {
            Some(b'{') => Self::Json,
            _ => Self::Dot,
        }
    }
}

#[derive(Debug, Clone)]
struct TraceEdge {
    from: u32,
    to: u32,
    line: usize,
}

/// A parsed workflow trace: topology plus relative task weights,
/// not yet bound to speedup models.
#[derive(Debug, Clone)]
pub struct WorkflowTrace {
    /// Workflow name, when the trace declares one.
    pub name: Option<String>,
    task_names: Vec<String>,
    weights: Vec<f64>,
    edges: Vec<TraceEdge>,
}

impl WorkflowTrace {
    /// Number of tasks.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.task_names.len()
    }

    /// Number of edges (before deduplication by the builder).
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The trace-level name of task `i` (declaration order).
    #[must_use]
    pub fn task_name(&self, i: usize) -> &str {
        &self.task_names[i]
    }

    /// The relative weight of task `i`.
    #[must_use]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Bind the trace to speedup models and freeze it: tasks keep
    /// their declaration order as dense ids, models are sampled from
    /// the default distribution of `class` scaled by each task's
    /// weight (the exact scheme of [`gen::by_name`]), and edges go
    /// through the checked builder so cycles surface as
    /// [`TraceError::Graph`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] for a task-less trace,
    /// [`TraceError::Graph`] for cyclic or duplicate edges.
    pub fn into_graph(
        &self,
        class: ModelClass,
        p_total: u32,
        seed: u64,
    ) -> Result<TaskGraph, TraceError> {
        if self.task_names.is_empty() {
            return Err(TraceError::Empty);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = ParamDistribution::default();
        let mut assign = gen::weighted_sampler(class, dist, p_total, &mut rng);
        let mut b = GraphBuilder::new();
        for (i, &w) in self.weights.iter().enumerate() {
            b.add_task(assign(TaskCtx {
                index: i,
                kind: "trace",
                weight: w,
            }));
        }
        for e in &self.edges {
            b.add_edge(TaskId(e.from), TaskId(e.to))
                .map_err(|source| TraceError::Graph {
                    line: e.line,
                    source,
                })?;
        }
        Ok(b.freeze())
    }
}

/// Parse a trace in the given (or sniffed) format under `limits`.
///
/// # Errors
///
/// The first [`TraceError`] encountered.
pub fn parse_trace(
    text: &str,
    format: TraceFormat,
    limits: &TraceLimits,
) -> Result<WorkflowTrace, TraceError> {
    match format {
        TraceFormat::Dot => parse_dot_trace(text, limits),
        TraceFormat::Json => parse_json_trace(text, limits),
    }
}

/// Interned task table shared by both parsers; enforces the task
/// budget *as tasks appear*.
#[derive(Default)]
struct TaskTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
    weights: Vec<f64>,
}

impl TaskTable {
    fn intern(&mut self, name: &str, line: usize, limits: &TraceLimits) -> Result<u32, TraceError> {
        if let Some(&i) = self.by_name.get(name) {
            return Ok(i);
        }
        let count = self.names.len() as u64 + 1;
        if count > limits.effective_max_tasks() {
            return Err(TraceError::TooManyTasks {
                tasks: count,
                limit: limits.effective_max_tasks(),
            });
        }
        let _ = line;
        let i = u32::try_from(self.names.len()).expect("bounded by u32 id space");
        self.by_name.insert(name.to_string(), i);
        self.names.push(name.to_string());
        self.weights.push(1.0);
        Ok(i)
    }
}

// ---------------------------------------------------------------- DOT

/// Parse the DOT subset.
///
/// # Errors
///
/// The first [`TraceError`] encountered.
pub fn parse_dot_trace(text: &str, limits: &TraceLimits) -> Result<WorkflowTrace, TraceError> {
    let mut table = TaskTable::default();
    let mut edges: Vec<TraceEdge> = Vec::new();
    let mut name = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        // Strip line comments ( // and # ), then split on `;` so
        // several statements may share a line.
        let mut code = raw;
        for marker in ["//", "#"] {
            if let Some(i) = code.find(marker) {
                code = &code[..i];
            }
        }
        for stmt in code.split(';') {
            let mut stmt = stmt.trim();
            // Peel the `digraph <name> {` header — it may share a line
            // (and even a statement) with the first node or edge.
            if let Some(rest) = stmt.strip_prefix("digraph") {
                let (header, tail) = match rest.find('{') {
                    Some(i) => (&rest[..i], &rest[i + 1..]),
                    None => (rest, ""),
                };
                let header = header.trim().trim_matches('"');
                if !header.is_empty() {
                    name = Some(header.to_string());
                }
                stmt = tail.trim();
            }
            stmt = stmt.trim_start_matches('{').trim_end_matches('}').trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("graph")
                || stmt.starts_with("node")
                || stmt.starts_with("edge")
                || stmt.starts_with("rankdir")
                || stmt.starts_with("label")
            {
                continue; // default-attribute / cosmetic statements
            }
            if stmt.starts_with("subgraph") {
                return Err(TraceError::Parse {
                    line,
                    msg: "subgraphs are not supported".to_string(),
                });
            }
            parse_dot_statement(stmt, line, limits, &mut table, &mut edges)?;
        }
    }
    if table.names.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(WorkflowTrace {
        name,
        task_names: table.names,
        weights: table.weights,
        edges,
    })
}

/// One node or edge(-chain) statement: `a [weight=2]` or `a -> b -> c`.
fn parse_dot_statement(
    stmt: &str,
    line: usize,
    limits: &TraceLimits,
    table: &mut TaskTable,
    edges: &mut Vec<TraceEdge>,
) -> Result<(), TraceError> {
    if stmt.contains("->") {
        let mut prev: Option<u32> = None;
        for part in stmt.split("->") {
            // Attributes on edges are ignored.
            let part = match part.find('[') {
                Some(i) => &part[..i],
                None => part,
            };
            let id = parse_dot_name(part.trim(), line)?;
            let node = table.intern(&id, line, limits)?;
            if let Some(p) = prev {
                edges.push(TraceEdge {
                    from: p,
                    to: node,
                    line,
                });
            }
            prev = Some(node);
        }
        return Ok(());
    }
    // Node statement with optional attributes.
    let (name_part, attrs) = match stmt.find('[') {
        Some(i) => {
            // The closing `]` must follow the opening one.
            let attrs = &stmt[i + 1..];
            let close = attrs.rfind(']').ok_or(TraceError::Parse {
                line,
                msg: "unterminated `[` attribute list".to_string(),
            })?;
            (&stmt[..i], &attrs[..close])
        }
        None => (stmt, ""),
    };
    let id = parse_dot_name(name_part.trim(), line)?;
    let node = table.intern(&id, line, limits)?;
    for attr in attrs.split(',') {
        let attr = attr.trim();
        if let Some(v) = attr.strip_prefix("weight") {
            let v = v.trim().strip_prefix('=').ok_or(TraceError::Parse {
                line,
                msg: "expected `weight=<number>`".to_string(),
            })?;
            let w: f64 = v
                .trim()
                .trim_matches('"')
                .parse()
                .map_err(|_| TraceError::Parse {
                    line,
                    msg: format!("bad weight `{}`", v.trim()),
                })?;
            if !(w.is_finite() && w > 0.0) {
                return Err(TraceError::BadWeight { line, id });
            }
            table.weights[node as usize] = w;
        }
    }
    Ok(())
}

fn parse_dot_name(part: &str, line: usize) -> Result<String, TraceError> {
    let part = part.trim();
    if part.is_empty() {
        return Err(TraceError::Parse {
            line,
            msg: "empty node name".to_string(),
        });
    }
    if let Some(stripped) = part.strip_prefix('"') {
        let inner = stripped.strip_suffix('"').ok_or(TraceError::Parse {
            line,
            msg: format!("unterminated quoted name `{part}`"),
        })?;
        return Ok(inner.to_string());
    }
    if part
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    {
        Ok(part.to_string())
    } else {
        Err(TraceError::Parse {
            line,
            msg: format!("bad node name `{part}`"),
        })
    }
}

// --------------------------------------------------------------- JSON

/// Parse the JSON workflow schema.
///
/// # Errors
///
/// The first [`TraceError`] encountered.
pub fn parse_json_trace(text: &str, limits: &TraceLimits) -> Result<WorkflowTrace, TraceError> {
    let mut cur = Cursor::new(text);
    let mut table = TaskTable::default();
    // Edges by *name*, resolved after the whole document is read so
    // forward references work; direction is already parent → child.
    let mut by_name_edges: Vec<(String, u32, usize)> = Vec::new(); // (parent, child, line)
    let mut child_edges: Vec<(u32, String, usize)> = Vec::new(); // (parent, child-name, line)
    let mut wf_name = None;

    cur.skip_ws();
    cur.expect(b'{')?;
    loop {
        cur.skip_ws();
        if cur.eat(b'}') {
            break;
        }
        let key = cur.parse_string()?;
        cur.skip_ws();
        cur.expect(b':')?;
        cur.skip_ws();
        match key.as_str() {
            "name" => wf_name = Some(cur.parse_string()?),
            "tasks" => {
                cur.expect(b'[')?;
                cur.skip_ws();
                if !cur.eat(b']') {
                    loop {
                        parse_json_task(
                            &mut cur,
                            limits,
                            &mut table,
                            &mut by_name_edges,
                            &mut child_edges,
                        )?;
                        cur.skip_ws();
                        if cur.eat(b',') {
                            cur.skip_ws();
                            continue;
                        }
                        cur.expect(b']')?;
                        break;
                    }
                }
            }
            // Inside the root object.
            _ => cur.skip_value(1)?,
        }
        cur.skip_ws();
        if cur.eat(b',') {
            continue;
        }
        cur.expect(b'}')?;
        break;
    }

    if table.names.is_empty() {
        return Err(TraceError::Empty);
    }
    let mut edges = Vec::with_capacity(by_name_edges.len() + child_edges.len());
    for (parent, child, line) in by_name_edges {
        let from = *table.by_name.get(&parent).ok_or(TraceError::UnknownTask {
            line,
            id: parent.clone(),
        })?;
        edges.push(TraceEdge {
            from,
            to: child,
            line,
        });
    }
    for (parent, child, line) in child_edges {
        let to = *table.by_name.get(&child).ok_or(TraceError::UnknownTask {
            line,
            id: child.clone(),
        })?;
        edges.push(TraceEdge {
            from: parent,
            to,
            line,
        });
    }
    Ok(WorkflowTrace {
        name: wf_name,
        task_names: table.names,
        weights: table.weights,
        edges,
    })
}

fn parse_json_task(
    cur: &mut Cursor<'_>,
    limits: &TraceLimits,
    table: &mut TaskTable,
    by_name_edges: &mut Vec<(String, u32, usize)>,
    child_edges: &mut Vec<(u32, String, usize)>,
) -> Result<(), TraceError> {
    cur.skip_ws();
    let open_line = cur.line;
    cur.expect(b'{')?;
    let mut id: Option<(String, usize)> = None;
    let mut weight: Option<(f64, usize)> = None;
    let mut parents: Vec<(String, usize)> = Vec::new();
    let mut children: Vec<(String, usize)> = Vec::new();
    loop {
        cur.skip_ws();
        if cur.eat(b'}') {
            break;
        }
        let key = cur.parse_string()?;
        cur.skip_ws();
        cur.expect(b':')?;
        cur.skip_ws();
        let line = cur.line;
        match key.as_str() {
            "id" | "name" => {
                let v = cur.parse_string()?;
                if id.is_none() {
                    id = Some((v, line));
                }
            }
            "weight" | "runtime" => {
                let v = cur.parse_number()?;
                if weight.is_none() {
                    weight = Some((v, line));
                }
            }
            "parents" => parse_json_string_array(cur, &mut parents)?,
            "children" => parse_json_string_array(cur, &mut children)?,
            // Inside the root object, `tasks` and this task.
            _ => cur.skip_value(3)?,
        }
        cur.skip_ws();
        if cur.eat(b',') {
            continue;
        }
        cur.expect(b'}')?;
        break;
    }
    let (id, id_line) = id.ok_or(TraceError::Parse {
        line: open_line,
        msg: "task object needs an `id` (or `name`) string".to_string(),
    })?;
    if table.by_name.contains_key(&id) {
        return Err(TraceError::DuplicateTask { line: id_line, id });
    }
    let node = table.intern(&id, id_line, limits)?;
    if let Some((w, wline)) = weight {
        if !(w.is_finite() && w > 0.0) {
            return Err(TraceError::BadWeight { line: wline, id });
        }
        table.weights[node as usize] = w;
    }
    for (p, line) in parents {
        by_name_edges.push((p, node, line));
    }
    for (c, line) in children {
        child_edges.push((node, c, line));
    }
    Ok(())
}

fn parse_json_string_array(
    cur: &mut Cursor<'_>,
    out: &mut Vec<(String, usize)>,
) -> Result<(), TraceError> {
    cur.expect(b'[')?;
    cur.skip_ws();
    if cur.eat(b']') {
        return Ok(());
    }
    loop {
        cur.skip_ws();
        let line = cur.line;
        out.push((cur.parse_string()?, line));
        cur.skip_ws();
        if cur.eat(b',') {
            continue;
        }
        cur.expect(b']')?;
        return Ok(());
    }
}

/// Maximum nesting depth of a JSON trace (the serve codec's bound): a
/// deeper unknown value is a parse error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// A minimal JSON cursor — just enough for the workflow schema. The
/// serve crate's full codec lives above this crate in the dependency
/// graph, so the importer carries its own ~100-line reader rather
/// than inverting the layering.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> TraceError {
        TraceError::Parse {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found `{}`",
                b as char,
                self.peek()
                    .map_or("end of input".to_string(), |c| { (c as char).to_string() })
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, TraceError> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.bump().ok_or_else(|| self.err("bad escape"))?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let h = self.bump().ok_or_else(|| self.err("bad \\u"))?;
                                code = code * 16
                                    + (h as char)
                                        .to_digit(16)
                                        .ok_or_else(|| self.err("bad \\u escape"))?;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                byte if byte < 0x80 => out.push(byte as char),
                byte => {
                    // Reassemble a UTF-8 multibyte sequence verbatim
                    // (the input is a &str, so it is always valid).
                    let len = if byte >= 0xF0 {
                        4
                    } else if byte >= 0xE0 {
                        3
                    } else {
                        2
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8 in string"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, TraceError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.bump();
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        s.parse().map_err(|_| self.err(format!("bad number `{s}`")))
    }

    /// Skip any JSON value (used for unknown keys). `depth` counts the
    /// containers open around it, so the recursion is bounded by
    /// [`MAX_DEPTH`].
    fn skip_value(&mut self, depth: usize) -> Result<(), TraceError> {
        self.skip_ws();
        let first = self.peek().ok_or_else(|| self.err("unexpected end"))?;
        if matches!(first, b'{' | b'[') && depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match first {
            b'"' => {
                self.parse_string()?;
                Ok(())
            }
            b'{' => {
                self.bump();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_value(depth + 1)?;
                    self.skip_ws();
                    if self.eat(b',') {
                        self.skip_ws();
                        continue;
                    }
                    return self.expect(b'}');
                }
            }
            b'[' => {
                self.bump();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    return self.expect(b']');
                }
            }
            b't' | b'f' | b'n' => {
                while matches!(self.peek(), Some(b'a'..=b'z')) {
                    self.bump();
                }
                Ok(())
            }
            _ => {
                self.parse_number()?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOT: &str = r#"
        // a tiny diamond with weights
        digraph diamond {
          rankdir=LR;
          src [weight=2.0];
          mid_a [weight=1.5]; mid_b;
          sink [weight="3"];
          src -> mid_a -> sink;
          src -> mid_b;
          mid_b -> sink;  # trailing comment
        }
    "#;

    const WF_JSON: &str = r#"{
        "name": "toy",
        "schema": "ignored-key",
        "tasks": [
            {"id": "a", "weight": 2.0, "parents": []},
            {"id": "b", "runtime": 1.5, "parents": ["a"], "extra": {"nested": [1, 2]}},
            {"id": "c", "parents": ["a"], "children": ["d"]},
            {"id": "d", "parents": ["b"]}
        ]
    }"#;

    #[test]
    fn dot_round_trips_topology_and_weights() {
        let t = parse_dot_trace(DOT, &TraceLimits::default()).unwrap();
        assert_eq!(t.name.as_deref(), Some("diamond"));
        assert_eq!(t.n_tasks(), 4);
        assert_eq!(t.n_edges(), 4);
        assert_eq!(t.task_name(0), "src");
        assert_eq!(t.weight(0), 2.0);
        assert_eq!(t.weight(1), 1.5);
        assert_eq!(t.weight(2), 1.0, "undeclared weight defaults to 1");
        assert_eq!(t.weight(3), 3.0, "quoted weight accepted");
        let g = t.into_graph(ModelClass::Amdahl, 8, 7).unwrap();
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.sources(), &[TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
    }

    #[test]
    fn json_round_trips_with_forward_refs_and_children() {
        let t = parse_json_trace(WF_JSON, &TraceLimits::default()).unwrap();
        assert_eq!(t.name.as_deref(), Some("toy"));
        assert_eq!(t.n_tasks(), 4);
        // a->b, a->c, c->d (children), b->d (parents) = 4 edges.
        assert_eq!(t.n_edges(), 4);
        let g = t.into_graph(ModelClass::General, 16, 1).unwrap();
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.sources(), &[TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
    }

    #[test]
    fn sniffing_picks_the_right_format() {
        assert_eq!(TraceFormat::sniff(WF_JSON), TraceFormat::Json);
        assert_eq!(TraceFormat::sniff(DOT), TraceFormat::Dot);
        assert!(parse_trace(DOT, TraceFormat::sniff(DOT), &TraceLimits::default()).is_ok());
    }

    #[test]
    fn same_seed_same_graph() {
        let t = parse_dot_trace(DOT, &TraceLimits::default()).unwrap();
        let a = t.into_graph(ModelClass::Amdahl, 8, 42).unwrap();
        let b = t.into_graph(ModelClass::Amdahl, 8, 42).unwrap();
        for i in 0..a.n_tasks() {
            let id = TaskId(u32::try_from(i).unwrap());
            assert!(a.model(id).bitwise_eq(b.model(id)), "task {i}");
        }
        let c = t.into_graph(ModelClass::Amdahl, 8, 43).unwrap();
        assert!(
            (0..a.n_tasks()).any(|i| {
                let id = TaskId(u32::try_from(i).unwrap());
                !a.model(id).bitwise_eq(c.model(id))
            }),
            "a different seed samples different models"
        );
    }

    #[test]
    fn task_budget_is_enforced_mid_parse() {
        // 5 tasks against a limit of 3: the parse must stop at the
        // 4th task, mirroring the pre-construction estimate check of
        // synthetic shapes.
        let text = "digraph g { a -> b -> c -> d -> e; }";
        let err = parse_dot_trace(text, &TraceLimits { max_tasks: 3 }).unwrap_err();
        assert_eq!(
            err,
            TraceError::TooManyTasks { tasks: 4, limit: 3 },
            "{err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("more than the limit"), "{msg}");

        let json = r#"{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d"}]}"#;
        let err = parse_json_trace(json, &TraceLimits { max_tasks: 3 }).unwrap_err();
        assert_eq!(err, TraceError::TooManyTasks { tasks: 4, limit: 3 });
    }

    #[test]
    fn id_space_clamp_matches_by_name_guard() {
        // A limit beyond u32::MAX clamps to the task-id space, the
        // same ceiling `gen::by_name` enforces for synthetic shapes.
        let lim = TraceLimits {
            max_tasks: u64::MAX,
        };
        assert_eq!(lim.effective_max_tasks(), u64::from(u32::MAX));
    }

    #[test]
    fn structured_errors_name_their_line() {
        let cases: &[(&str, TraceFormat, &str)] = &[
            ("digraph { a -> ; }", TraceFormat::Dot, "empty node name"),
            ("digraph { a [weight=x]; }", TraceFormat::Dot, "bad weight"),
            (
                "digraph { a [weight=-2]; }",
                TraceFormat::Dot,
                "non-positive weight",
            ),
            ("digraph { subgraph x { } }", TraceFormat::Dot, "subgraph"),
            ("digraph { }", TraceFormat::Dot, "no tasks"),
            ("digraph { a [weight=1; }", TraceFormat::Dot, "unterminated"),
            ("digraph { a ][ }", TraceFormat::Dot, "unterminated"),
            ("{\"tasks\": [{}]}", TraceFormat::Json, "needs an `id`"),
            (
                "{\"tasks\": [{\"id\":\"a\"},{\"id\":\"a\"}]}",
                TraceFormat::Json,
                "declared twice",
            ),
            (
                "{\"tasks\": [{\"id\":\"a\",\"parents\":[\"ghost\"]}]}",
                TraceFormat::Json,
                "unknown task `ghost`",
            ),
            (
                "{\"tasks\": [{\"id\":\"a\",\"weight\":-1}]}",
                TraceFormat::Json,
                "non-positive weight",
            ),
            ("{\"tasks\": [", TraceFormat::Json, "expected"),
        ];
        for (text, fmt, needle) in cases {
            let err = parse_trace(text, *fmt, &TraceLimits::default())
                .map(|t| t.n_tasks())
                .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "`{text}`: `{msg}` missing `{needle}`");
        }
    }

    #[test]
    fn deep_unknown_values_are_rejected_not_overflowed() {
        let nest = |n: usize| {
            format!(
                "{{\n\"x\": {}{},\n\"tasks\": [{{\"id\": \"a\"}}]}}",
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        let limits = TraceLimits::default();
        // The root object is level 1, so `x` may nest 63 more.
        assert!(parse_json_trace(&nest(MAX_DEPTH - 1), &limits).is_ok());
        for n in [MAX_DEPTH, 100_000] {
            match parse_json_trace(&nest(n), &limits) {
                Err(TraceError::Parse { line: 2, msg }) => {
                    assert!(msg.contains("nesting"), "{msg}")
                }
                other => panic!("depth {n}: {other:?}"),
            }
        }
        // The same bound holds for an unknown key inside a task (level 3).
        let deep_in_task = format!(
            "{{\"tasks\": [{{\"id\": \"a\", \"x\": {}{}}}]}}",
            "[".repeat(100_000),
            "]".repeat(100_000)
        );
        let err = parse_json_trace(&deep_in_task, &limits).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn cycles_are_rejected_with_the_edge_line() {
        let text = "digraph g {\n a -> b;\n b -> a;\n}";
        let t = parse_dot_trace(text, &TraceLimits::default()).unwrap();
        let err = t.into_graph(ModelClass::Amdahl, 4, 1).unwrap_err();
        match &err {
            TraceError::Graph { line, .. } => assert_eq!(*line, 3, "{err}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn edge_chains_and_shared_statement_lines_parse() {
        let t = parse_dot_trace(
            "digraph { a -> b -> c; d; a -> d; }",
            &TraceLimits::default(),
        )
        .unwrap();
        assert_eq!(t.n_tasks(), 4);
        assert_eq!(t.n_edges(), 3);
    }
}
