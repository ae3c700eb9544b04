//! The traced replay: the same request stream, run in-process through the
//! public function of each layer in the order `srl-serve` calls them
//! (`crates/srl-serve/src/server.rs`, `handle_line` and the functions it
//! dispatches to), with a span around every call.
//!
//! The replay owns real `srl_serve::Tenant`s (configuration, bindings and
//! `ProgramCache`), so cache hits, misses and evictions are the cache's own.
//! `ProgramCache::lookup_or_compile` parses, checks and lowers a missed
//! text inside one call; the replay times that call as a whole and, outside
//! the request's span tree, re-runs those three stages on the same text to
//! split it (`compile.breakdown` spans).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use srl_core::api::{self, Json, Request, RequestKind};
use srl_core::pipeline::PipelineConfig;
use srl_core::setrepr::set_atom_tier_enabled;
use srl_core::{EvalStats, Expr, Value};
use srl_serve::Tenant;

use crate::workload::{Req, Workload};

/// One recorded span. Times are ns from the start of the replay.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Query label for `core.eval` spans, empty otherwise.
    pub label: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// In-memory span recorder; records nothing when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            label: "",
            start,
            end: start,
            parent,
            req: self.req,
        });
        let index = (self.spans.len() - 1) as u32;
        self.stack.push(index);
        index
    }

    fn end(&mut self, span: u32) {
        if self.on {
            let end = self.now();
            self.spans[span as usize].end = end;
            self.stack.pop();
        }
    }

    fn rename(&mut self, span: u32, name: &'static str, label: &'static str) {
        if self.on {
            self.spans[span as usize].name = name;
            self.spans[span as usize].label = label;
        }
    }
}

/// Totals the replay reports besides its spans. Every field is an exact
/// count that repeats from run to run.
#[derive(Default)]
pub struct Counts {
    pub steps: u64,
    pub reduce_iterations: u64,
    pub inserts: u64,
    pub parallel_folds: u64,
    pub tier_atoms: u64,
    pub tier_bits: u64,
    pub tier_rows: u64,
    pub resp_bytes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

pub struct Replay {
    pub tracer: Tracer,
    pub counts: Counts,
    /// Wall time of each replayed request (setup first), ns.
    pub totals_ns: Vec<u64>,
    pub failed: usize,
    pub errors: Vec<String>,
}

struct State<'a> {
    tenants: Vec<Tenant>,
    /// (tenant, fingerprint) of compiled programs whose bytecode has not
    /// been generated yet.
    fresh: HashSet<(usize, u64)>,
    /// Tenants whose bare-expression program has no bytecode yet.
    fresh_empty: Vec<bool>,
    counts: Counts,
    labels: &'a [&'static str],
    missed: Vec<String>,
}

/// Replays `reqs` (ids from 0) against fresh tenants configured from the
/// workload's tenant document.
pub fn replay(wl: &Workload, reqs: &[Req], trace: bool) -> Result<Replay, String> {
    let doc = Json::parse(&wl.tenant_doc)?;
    let mut tenants = Vec::new();
    for name in &wl.tenants {
        let config = match doc.get("tenants").and_then(|t| t.get(name)) {
            Some(config) => api::pipeline_config_from_json(config)?,
            None => PipelineConfig::default(),
        };
        tenants.push(Tenant::new(name, config, cache_cap(wl)));
    }
    let labels: Vec<&'static str> = reqs.iter().map(|r| wl.label(r)).collect();
    let mut state = State {
        fresh_empty: vec![true; tenants.len()],
        tenants,
        fresh: HashSet::new(),
        counts: Counts::default(),
        labels: &labels,
        missed: Vec::new(),
    };
    let mut tr = Tracer::new(trace);
    let mut totals_ns = Vec::with_capacity(reqs.len());
    let (mut failed, mut errors) = (0, Vec::new());
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u64;
        let line = wl.line(req, id);
        tr.req = id;
        let t = Instant::now();
        let root = tr.begin("serve.request");
        let body = handle_line(&mut state, &mut tr, i, &line);
        tr.end(root);
        totals_ns.push(t.elapsed().as_nanos() as u64);
        state.counts.resp_bytes += body.len() as u64 + 1;
        for text in std::mem::take(&mut state.missed) {
            breakdown(&state.tenants[req.tenant as usize], &mut tr, &text);
        }
        if let Err(e) = wl.check(req, id, &body) {
            failed += 1;
            if errors.len() < 5 {
                errors.push(format!("replay: {e}"));
            }
        }
    }
    let mut counts = state.counts;
    for t in &state.tenants {
        counts.hits += t.cache.hits;
        counts.misses += t.cache.misses;
        counts.evictions += t.cache.evictions;
    }
    Ok(Replay {
        tracer: tr,
        counts,
        totals_ns,
        failed,
        errors,
    })
}

/// The `--cache-cap` the workload starts the server with.
pub fn cache_cap(wl: &Workload) -> usize {
    wl.server_flags
        .windows(2)
        .find(|w| w[0] == "--cache-cap")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(srl_serve::ServeConfig::default().cache_cap)
}

/// Splits a missed compile into its stages, outside any request's tree.
fn breakdown(t: &Tenant, tr: &mut Tracer, text: &str) {
    let root = tr.begin("compile.breakdown");
    let pipeline = t.config.pipeline();
    let s = tr.begin("syntax.parse_program");
    let program = srl_syntax::parse_program(text);
    tr.end(s);
    if let Ok(program) = program {
        let s = tr.begin("core.check");
        let checked = pipeline.check(program);
        tr.end(s);
        if let Ok(checked) = checked {
            let s = tr.begin("core.lower");
            std::hint::black_box(pipeline.compile(checked));
            tr.end(s);
        }
    }
    tr.end(root);
}

fn id_extras(request: &Request) -> Vec<(&'static str, String)> {
    request
        .id
        .map(|id| vec![("id", id.to_string())])
        .unwrap_or_default()
}

fn error_body(kind: &str, message: &str, extras: &[(&str, String)]) -> String {
    api::compact(&api::error_json(
        kind,
        message,
        api::EXIT_USAGE,
        None,
        extras,
    ))
}

/// Mirrors `srl_serve::server::handle_line`.
fn handle_line(st: &mut State, tr: &mut Tracer, index: usize, line: &str) -> String {
    let s = tr.begin("api.decode");
    let request = Request::parse(line);
    tr.end(s);
    let request = match request {
        Ok(request) => request,
        Err(e) => return error_body("proto", &e, &[]),
    };
    let extras = id_extras(&request);
    let name = request
        .tenant
        .as_deref()
        .unwrap_or(srl_serve::DEFAULT_TENANT);
    let Some(ti) = st.tenants.iter().position(|t| t.name == name) else {
        return error_body("proto", "tenant not configured in the replay", &extras);
    };
    match request.kind.expect("parse requires a kind") {
        RequestKind::Bind => bind(&mut st.tenants[ti], tr, &request, &extras),
        RequestKind::Stats => stats(&st.tenants[ti], tr, &extras),
        kind => {
            st.tenants[ti].stats.queries += 1;
            let previous = set_atom_tier_enabled(st.tenants[ti].config.tiers);
            let body = match kind {
                RequestKind::Run => run(st, tr, ti, index, &request, &extras),
                RequestKind::Check => check(&mut st.tenants[ti], tr, &request, &extras),
                _ => analyze(st, tr, ti, &request, &extras),
            };
            set_atom_tier_enabled(previous);
            body
        }
    }
}

fn compacted(tr: &mut Tracer, body: String) -> String {
    let s = tr.begin("api.compact");
    let out = api::compact(&body);
    tr.end(s);
    out
}

fn cache_extras(
    t: &Tenant,
    hit: bool,
    extras: &[(&'static str, String)],
) -> Vec<(&'static str, String)> {
    let mut full = vec![(
        "cache",
        format!(
            "{{ \"hit\": {hit}, \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
            t.cache.hits, t.cache.misses, t.cache.evictions
        ),
    )];
    full.extend(extras.iter().cloned());
    full
}

/// `ProgramCache::lookup_or_compile`, named by its outcome.
fn lookup(st: &mut State, tr: &mut Tracer, ti: usize, text: &str) -> Result<(u64, bool), String> {
    let pipeline = st.tenants[ti].config.pipeline();
    let s = tr.begin("serve.cache.lookup");
    let resolved = st.tenants[ti].cache.lookup_or_compile(&pipeline, text);
    tr.end(s);
    let (fp, hit) = resolved.map_err(|e| e.to_string())?;
    tr.rename(
        s,
        if hit {
            "serve.cache.lookup_hit"
        } else {
            "serve.cache.lookup_miss"
        },
        "",
    );
    if !hit {
        st.fresh.insert((ti, fp));
        st.missed.push(text.to_string());
    }
    Ok((fp, hit))
}

fn parse_value(tr: &mut Tracer, literal: &str) -> Result<Value, String> {
    let s = tr.begin("syntax.parse_value");
    let v = srl_syntax::parse_value(literal);
    tr.end(s);
    v.map_err(|e| e.to_string())
}

/// Evaluates and renders a `run` outcome (the tail shared by both paths).
fn finish_run(
    st: &mut State,
    tr: &mut Tracer,
    outcome: Result<Value, srl_core::EvalError>,
    stats: EvalStats,
    folds: u64,
    tiers: srl_core::eval::TierEngagements,
    extras: &[(&'static str, String)],
) -> String {
    match outcome {
        Ok(value) => {
            let c = &mut st.counts;
            c.steps += stats.steps;
            c.reduce_iterations += stats.reduce_iterations;
            c.inserts += stats.inserts;
            c.parallel_folds += folds;
            c.tier_atoms += tiers.atoms;
            c.tier_bits += tiers.bits;
            c.tier_rows += tiers.rows;
            let s = tr.begin("api.encode");
            let body = api::run_json(&value, &stats, &tiers, extras);
            tr.end(s);
            compacted(tr, body)
        }
        Err(e) => error_body(e.kind(), &e.to_string(), extras),
    }
}

fn run(
    st: &mut State,
    tr: &mut Tracer,
    ti: usize,
    index: usize,
    request: &Request,
    extras: &[(&'static str, String)],
) -> String {
    let label = st.labels[index];
    let expr: Option<Expr> = match &request.expr {
        Some(text) => {
            let s = tr.begin("syntax.parse_expr");
            let parsed = srl_syntax::parse_expr(text);
            tr.end(s);
            match parsed {
                Ok(e) => Some(e),
                Err(e) => return error_body("parse", &e.to_string(), extras),
            }
        }
        None => None,
    };
    let mut args = Vec::with_capacity(request.args.len());
    for literal in &request.args {
        match parse_value(tr, literal) {
            Ok(v) => args.push(v),
            Err(e) => return error_body("parse", &e, extras),
        }
    }
    let Some(text) = &request.program else {
        // A bare expression over the tenant environment.
        let Some(expr) = expr else {
            return error_body("proto", "run needs program or expr", extras);
        };
        let t = &mut st.tenants[ti];
        let env = t.env.clone();
        let compiled = Arc::clone(t.empty_artifact().compiled());
        if std::mem::take(&mut st.fresh_empty[ti]) {
            let s = tr.begin("core.codegen");
            std::hint::black_box(compiled.code());
            tr.end(s);
        }
        let evaluator = t.expr_evaluator();
        let s = tr.begin("core.lower_expr");
        let lowered = evaluator.lower(&expr, &env);
        tr.end(s);
        let s = tr.begin("core.codegen_expr");
        std::hint::black_box(lowered.code(&compiled));
        tr.end(s);
        let s = tr.begin("core.eval");
        let outcome = evaluator.eval_lowered(&lowered, &env);
        tr.end(s);
        tr.rename(s, "core.eval", label);
        let (stats, folds, tiers) = (
            *evaluator.stats(),
            evaluator.parallel_folds(),
            evaluator.tier_engagement_breakdown(),
        );
        return finish_run(st, tr, outcome, stats, folds, tiers, extras);
    };
    let (fp, hit) = match lookup(st, tr, ti, text) {
        Ok(resolved) => resolved,
        Err(e) => return error_body("check", &e, extras),
    };
    let full = cache_extras(&st.tenants[ti], hit, extras);
    let env = st.tenants[ti].env.clone();
    let fresh = st.fresh.remove(&(ti, fp));
    let entry = st.tenants[ti].cache.entry_mut(fp);
    if fresh {
        let s = tr.begin("core.codegen");
        std::hint::black_box(entry.artifact.compiled().code());
        tr.end(s);
    }
    entry.evaluator.reset_stats();
    let outcome = match &expr {
        Some(expr) => {
            let s = tr.begin("core.lower_expr");
            let lowered = entry.evaluator.lower(expr, &env);
            tr.end(s);
            let s = tr.begin("core.codegen_expr");
            std::hint::black_box(lowered.code(entry.artifact.compiled()));
            tr.end(s);
            let s = tr.begin("core.eval");
            let outcome = entry.evaluator.eval_lowered(&lowered, &env);
            tr.end(s);
            tr.rename(s, "core.eval", label);
            outcome
        }
        None => {
            let name = request.call.clone().unwrap_or_else(|| "main".to_string());
            let s = tr.begin("core.eval");
            let outcome = entry.evaluator.call(&name, &args);
            tr.end(s);
            tr.rename(s, "core.eval", label);
            outcome
        }
    };
    let (stats, folds, tiers) = (
        *entry.evaluator.stats(),
        entry.evaluator.parallel_folds(),
        entry.evaluator.tier_engagement_breakdown(),
    );
    finish_run(st, tr, outcome, stats, folds, tiers, &full)
}

fn check(
    t: &mut Tenant,
    tr: &mut Tracer,
    request: &Request,
    extras: &[(&'static str, String)],
) -> String {
    let Some(text) = &request.program else {
        return error_body("proto", "check needs program", extras);
    };
    let pipeline = t.config.pipeline();
    let s = tr.begin("syntax.parse_program");
    let program = srl_syntax::parse_program(text);
    tr.end(s);
    let Ok(program) = program else {
        return error_body("parse", "program does not parse", extras);
    };
    let s = tr.begin("core.check");
    let checked = pipeline.check(program);
    tr.end(s);
    let Ok(checked) = checked else {
        return error_body("check", "program does not check", extras);
    };
    let s = tr.begin("analysis.classify");
    let verdict = srl_analysis::classify_program(checked.program(), 1);
    tr.end(s);
    let s = tr.begin("api.encode");
    let body = api::check_json(
        &checked.program().def_names(),
        &verdict.fragment.to_string(),
        &verdict.explanation,
        extras,
    );
    tr.end(s);
    compacted(tr, body)
}

fn analyze(
    st: &mut State,
    tr: &mut Tracer,
    ti: usize,
    request: &Request,
    extras: &[(&'static str, String)],
) -> String {
    let Some(text) = &request.program else {
        return error_body("proto", "analyze needs program", extras);
    };
    let (fp, hit) = match lookup(st, tr, ti, text) {
        Ok(resolved) => resolved,
        Err(e) => return error_body("check", &e, extras),
    };
    let full = cache_extras(&st.tenants[ti], hit, extras);
    let entry = st.tenants[ti].cache.entry_mut(fp);
    let s = tr.begin("analysis.classify");
    let verdict = srl_analysis::classify_program(entry.artifact.program(), 1);
    tr.end(s);
    let s = tr.begin("analysis.analyze");
    let report = srl_analysis::analyze_compiled(entry.artifact.compiled());
    tr.end(s);
    let s = tr.begin("api.encode");
    let body = srl_analysis::analyze_json_with(&verdict, &report, &full);
    tr.end(s);
    compacted(tr, body)
}

fn bind(
    t: &mut Tenant,
    tr: &mut Tracer,
    request: &Request,
    extras: &[(&'static str, String)],
) -> String {
    let (Some(name), Some(literal)) = (&request.name, &request.value) else {
        return error_body("proto", "bind needs name and value", extras);
    };
    let s = tr.begin("syntax.parse_expr");
    let is_var = matches!(srl_syntax::parse_expr(name), Ok(Expr::Var(v)) if v == *name);
    tr.end(s);
    if !is_var {
        return error_body("proto", "not a plain variable", extras);
    }
    let value = match parse_value(tr, literal) {
        Ok(v) => v,
        Err(e) => return error_body("parse", &e, extras),
    };
    let s = tr.begin("api.encode");
    let rendered = value.to_string();
    let mut fields = vec![
        ("ok", "true".to_string()),
        ("name", format!("\"{}\"", api::escape(name))),
        ("value", format!("\"{}\"", api::escape(&rendered))),
    ];
    fields.extend(extras.iter().cloned());
    let body = api::versioned(&fields);
    tr.end(s);
    t.env.insert(name, value);
    compacted(tr, body)
}

fn stats(t: &Tenant, tr: &mut Tracer, extras: &[(&'static str, String)]) -> String {
    let s = tr.begin("api.encode");
    let mut fields = vec![
        ("tenant", format!("\"{}\"", api::escape(&t.name))),
        ("queries", t.stats.queries.to_string()),
        ("errors", t.stats.errors.to_string()),
        ("shed", t.stats.shed.to_string()),
        ("bindings", t.env.len().to_string()),
        (
            "cache",
            format!(
                "{{ \"entries\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
                t.cache.len(),
                t.cache.hits,
                t.cache.misses,
                t.cache.evictions
            ),
        ),
        ("inflight", "0".to_string()),
        (
            "max_inflight",
            srl_serve::ServeConfig::default().max_inflight.to_string(),
        ),
    ];
    fields.extend(extras.iter().cloned());
    let body = api::versioned(&fields);
    tr.end(s);
    compacted(tr, body)
}

/// Self time of every span: its duration minus the time its children
/// cover (children are strictly nested and sequential).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end - s.start) - c)
        .collect()
}

/// Whether a span belongs to a request's tree (not a compile breakdown).
pub fn in_request_tree(spans: &[Span]) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    for i in 0..spans.len() {
        let s = &spans[i];
        inside[i] = if s.parent == NO_PARENT {
            s.name == "serve.request"
        } else {
            inside[s.parent as usize]
        };
    }
    inside
}
