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
//!   alias. It is read with [`crate::json`], the wire protocol's
//!   grammar and depth bound: a document [`json::parse`] rejects is a
//!   [`TraceError::Parse`] on the line of the byte it names.
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
use crate::json::{self, JsonError};
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
    fn intern(&mut self, name: &str, limits: &TraceLimits) -> Result<u32, TraceError> {
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
            let node = table.intern(&id, limits)?;
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
    let node = table.intern(&id, limits)?;
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

/// A `parents` or `children` entry: (parent name, child name, line).
type NamedEdge = (String, String, usize);

/// Parse the JSON workflow schema with [`json::Reader`], the wire
/// protocol's grammar and depth bound.
///
/// # Errors
///
/// The first [`TraceError`] encountered. A malformed document is a
/// [`TraceError::Parse`] on the line where [`json::parse`] rejects it,
/// even when a schema error comes earlier in the text.
pub fn parse_json_trace(text: &str, limits: &TraceLimits) -> Result<WorkflowTrace, TraceError> {
    let mut doc = JsonDoc {
        r: json::Reader::new(text),
        text: text.as_bytes(),
        counted: 0,
        line: 1,
    };
    let mut table = TaskTable::default();
    // Edges from `parents` keys, then from `children` keys, resolved
    // after the whole document is read so forward references work.
    let mut named: [Vec<NamedEdge>; 2] = Default::default();
    let mut wf_name = None;

    doc.r.skip_ws();
    let read = doc
        .object(|doc, key| match key {
            "name" => doc.read(json::Reader::string).map(|n| wf_name = Some(n)),
            "tasks" => doc.seq(b'[', b']', |doc| {
                parse_json_task(doc, limits, &mut table, &mut named)
            }),
            // An unknown key's value, inside the root object.
            _ => doc.read(|r| r.value(1).map(drop)),
        })
        .and_then(|()| doc.read(json::Reader::finish));
    if let Err(e) = read {
        // The read stops at the first error, schema or syntax; a
        // syntax error further on still wins.
        return Err(match json::parse(text) {
            Err(syntax) => doc.error(syntax),
            Ok(_) => e,
        });
    }

    if table.names.is_empty() {
        return Err(TraceError::Empty);
    }
    let node = |id: String, line| {
        let known = table.by_name.get(&id).copied();
        known.ok_or(TraceError::UnknownTask { line, id })
    };
    let edges = named
        .into_iter()
        .flatten()
        .map(|(parent, child, line)| {
            Ok(TraceEdge {
                from: node(parent, line)?,
                to: node(child, line)?,
                line,
            })
        })
        .collect::<Result<_, TraceError>>()?;
    Ok(WorkflowTrace {
        name: wf_name,
        task_names: table.names,
        weights: table.weights,
        edges,
    })
}

fn parse_json_task(
    doc: &mut JsonDoc<'_>,
    limits: &TraceLimits,
    table: &mut TaskTable,
    named: &mut [Vec<NamedEdge>; 2],
) -> Result<(), TraceError> {
    let open_line = doc.line();
    let mut id: Option<(String, usize)> = None;
    let mut weight: Option<(f64, usize)> = None;
    let mut parents: Vec<(String, usize)> = Vec::new();
    let mut children: Vec<(String, usize)> = Vec::new();
    doc.object(|doc, key| {
        let line = doc.line();
        match key {
            "id" | "name" => {
                let v = doc.read(json::Reader::string)?;
                id.get_or_insert((v, line));
            }
            "weight" | "runtime" => {
                let v = doc.read(json::Reader::number)?;
                weight.get_or_insert((v, line));
            }
            "parents" => doc.strings(&mut parents)?,
            "children" => doc.strings(&mut children)?,
            // An unknown key's value, inside the root object, `tasks`
            // and this task.
            _ => doc.read(|r| r.value(3).map(drop))?,
        }
        Ok(())
    })?;
    let (id, id_line) = id.ok_or(TraceError::Parse {
        line: open_line,
        msg: "task object needs an `id` (or `name`) string".to_string(),
    })?;
    if table.by_name.contains_key(&id) {
        return Err(TraceError::DuplicateTask { line: id_line, id });
    }
    let node = table.intern(&id, limits)?;
    if let Some((w, wline)) = weight {
        if !(w.is_finite() && w > 0.0) {
            return Err(TraceError::BadWeight { line: wline, id });
        }
        table.weights[node as usize] = w;
    }
    named[0].extend(parents.into_iter().map(|(p, line)| (p, id.clone(), line)));
    named[1].extend(children.into_iter().map(|(c, line)| (id.clone(), c, line)));
    Ok(())
}

/// A [`json::Reader`] plus the line numbers trace errors name. The
/// codec counts bytes only, so the wire path never pays for lines;
/// here a forward-only counter maps reader offsets to lines.
struct JsonDoc<'a> {
    r: json::Reader<'a>,
    text: &'a [u8],
    /// Newlines are counted up to this offset, which is on `line`.
    counted: usize,
    line: usize,
}

impl<'a> JsonDoc<'a> {
    /// The 1-based line of byte `at`. Offsets come from the reader,
    /// which only moves forward; an earlier one keeps the last line.
    fn line_at(&mut self, at: usize) -> usize {
        if let Some(skipped) = self.text.get(self.counted..at) {
            self.line += skipped.iter().filter(|&&b| b == b'\n').count();
            self.counted = at;
        }
        self.line
    }

    /// The line of the next unread byte.
    fn line(&mut self) -> usize {
        self.line_at(self.r.pos())
    }

    fn error(&mut self, e: JsonError) -> TraceError {
        TraceError::Parse {
            line: self.line_at(e.at),
            msg: e.msg,
        }
    }

    /// One reader step, its error mapped to its line.
    fn read<T>(
        &mut self,
        step: impl FnOnce(&mut json::Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, TraceError> {
        step(&mut self.r).map_err(|e| self.error(e))
    }

    /// Read an array of strings, each with its line.
    fn strings(&mut self, out: &mut Vec<(String, usize)>) -> Result<(), TraceError> {
        self.seq(b'[', b']', |doc| {
            let line = doc.line();
            out.push((doc.read(json::Reader::string)?, line));
            Ok(())
        })
    }

    /// Read a `[`…`]` or `{`…`}` sequence, calling `item` at the first
    /// byte of each element.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        self.read(|r| r.expect(open))?;
        self.r.skip_ws();
        if self.r.eat(close) {
            return Ok(());
        }
        loop {
            self.r.skip_ws();
            item(self)?;
            self.r.skip_ws();
            if !self.r.eat(b',') {
                return self.read(|r| r.expect(close));
            }
        }
    }

    /// Read an object, handing each key to `member` with the reader at
    /// the start of its value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        self.seq(b'{', b'}', |doc| {
            let key = doc.read(json::Reader::string)?;
            doc.r.skip_ws();
            doc.read(|r| r.expect(b':'))?;
            doc.r.skip_ws();
            member(doc, &key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::MAX_DEPTH;

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

    /// Trace import reads with the wire grammar: on each edge input,
    /// placed where the importer reads that kind of value, it gives the
    /// codec's verdict.
    #[test]
    fn trace_import_and_the_codec_agree_on_edge_inputs() {
        let unknown = |v: &str| format!("{{\"x\": {v}, \"tasks\": [{{\"id\": \"a\"}}]}}");
        let id = |v: &str| format!("{{\"tasks\": [{{\"id\": {v}}}]}}");
        let weight = |v: &str| format!("{{\"tasks\": [{{\"id\": \"a\", \"weight\": {v}}}]}}");
        let nested = |n: usize| unknown(&("[".repeat(n) + &"]".repeat(n)));
        let cases = [
            ("trailing garbage", id("\"a\"") + " x", false),
            ("nul", unknown("nul"), false),
            ("trueee", unknown("trueee"), false),
            ("raw U+0001", id("\"a\u{1}b\""), false),
            ("lone high surrogate", id(r#""\ud800""#), false),
            ("backspace escape", id(r#""a\b""#), true),
            ("leading plus", weight("+1"), false),
            ("leading dot", weight(".5"), false),
            ("overflow", weight("1e999"), false),
            ("two dots", weight("1.2.3"), false),
            ("63 arrays under the root", nested(63), true),
            ("64 arrays under the root", nested(64), false),
        ];
        let limits = TraceLimits::default();
        for (what, text, ok) in cases {
            assert_eq!(json::parse(&text).is_ok(), ok, "codec, {what}: {text}");
            let trace = parse_json_trace(&text, &limits);
            assert_eq!(trace.is_ok(), ok, "trace, {what}: {text} -> {trace:?}");
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
