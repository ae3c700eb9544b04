//! The three workloads: seeded request streams, the server configuration
//! they run against, and the reference every response is checked with.
//!
//! A stream is a list of compact [`Req`] descriptors; the JSON line of a
//! request is rendered from its descriptor and id only when it is sent (or
//! replayed), so a long open-loop stream costs a few bytes per request.
//!
//! References are computed in-process with the tree-walk evaluator, the
//! repository's reference semantics, once per distinct (query, input)
//! pair, before any server is started. `analyze` bodies are checked
//! against the committed `examples/srl/analysis/*.analyze.json` goldens.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use srl_core::api::Json;
use srl_core::pipeline::{PipelineConfig, Source};
use srl_core::program::Program;
use srl_core::{Dialect, Env, EvalStats, ExecBackend, Value};
use srl_syntax::TextFrontend;
use workloads::digraph::Digraph;
use workloads::tables::CompanyDatabase;

/// SplitMix64: a tiny seeded generator whose output is fixed forever, so a
/// seed names the same inputs in every later version of the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn pick(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut x = self.below(u64::from(total)) as u32;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        unreachable!("x < total")
    }

    /// `k` distinct atoms drawn from `d0 .. d{universe-1}`, as a set value.
    pub fn atom_set(&mut self, k: usize, universe: u64) -> Value {
        let mut ids: Vec<u64> = Vec::with_capacity(k);
        while ids.len() < k {
            let id = self.below(universe);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        Value::set(ids.into_iter().map(Value::atom))
    }
}

/// What a request does. Indices point into the [`Workload`] tables.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `run` of a program definition; `cold` prefixes a never-seen
    /// definition so the text misses the program cache.
    Call {
        query: u8,
        input: u32,
        cold: bool,
    },
    /// `run` of a bare expression over the tenant's bindings.
    Expr {
        query: u8,
        input: u32,
    },
    Analyze {
        program: u8,
    },
    Check {
        program: u8,
    },
    Bind {
        literal: u32,
    },
    Stats,
}

/// Which end-to-end population a request's latency belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Counted in `lat_p50_us`/`lat_p99_us`/`slo_ok_frac` (and `ops_per_s`).
    Query,
    /// A `stats` request: counted in `stats_lat_*`.
    Stats,
    /// Load that shapes the workload but is not itself a latency population
    /// (binds, the contention lane's heavy queries).
    Background,
}

#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub op: Op,
    pub tenant: u8,
    pub conn: u8,
    pub class: Class,
    /// Open loop: when the request is due, in µs from the start of the
    /// schedule. Closed loop: unused.
    pub due_us: u64,
}

/// A query kind: how its request line is built.
pub struct Query {
    pub label: &'static str,
    /// `Some((program index, definition))` for a program call, `None` for a
    /// bare expression (`expr` is then the text).
    pub call: Option<(u8, &'static str)>,
    pub expr: String,
}

/// One distinct (query, input) pair and its tree-walk reference.
pub struct RunInput {
    pub query: u8,
    /// Argument values of a call.
    pub args: Vec<Value>,
    /// The tenant bindings an expression sees, by name.
    pub env: Vec<(String, u32)>,
    /// The expected body prefix, up to and including `"tiers": `.
    pub expected: String,
}

pub struct ProgramText {
    pub name: &'static str,
    pub text: String,
    /// The compacted committed golden without its closing brace.
    pub analyze_prefix: String,
    /// The expected compacted `check` body without its closing brace.
    pub check_prefix: String,
}

pub struct Literal {
    pub name: String,
    pub value: Value,
    pub text: String,
}

pub enum Load {
    /// Requests sent on a schedule regardless of completions.
    Open,
    /// One connection; each request is sent when the previous one has been
    /// answered.
    Closed,
}

pub struct Workload {
    pub name: &'static str,
    pub tenant_doc: String,
    pub server_flags: Vec<String>,
    pub tenants: Vec<String>,
    pub connections: usize,
    pub load: Load,
    /// Requests that must be answered before the load starts.
    pub setup: Vec<Req>,
    /// The load stream. Open loop: sorted by `due_us`, the first
    /// `warmup_us` of it unmeasured.
    pub stream: Vec<Req>,
    pub warmup_us: u64,
    /// The latency limit of `slo_ok_frac`, in µs.
    pub slo_us: f64,
    /// How many stream requests the traced replay re-runs.
    pub replay_len: usize,
    /// Closed loop: stream requests in one whole cycle of the weighted mix,
    /// over which `ops_per_s` and `cpu_us_per_op` are taken (0: open loop).
    pub cycle: usize,
    pub queries: Vec<Query>,
    pub programs: Vec<ProgramText>,
    pub literals: Vec<Literal>,
    pub inputs: Vec<RunInput>,
    /// Escaped program texts, indexed like `programs`.
    escaped: Vec<String>,
}

pub const WORKLOADS: [&str; 3] = ["serve_mix", "paper_heavy", "tenant_contention"];

/// Programs every workload may use, with their committed analyze goldens.
const PROGRAMS: [&str; 4] = ["powerset", "arith", "membership", "apath"];
const POWERSET: u8 = 0;
const ARITH: u8 = 1;
const MEMBERSHIP: u8 = 2;

fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
}

/// Collapses a pretty-printed JSON body onto one line the way the wire
/// contract does: a newline and the indentation after it are dropped,
/// string literals are kept verbatim. Written here rather than borrowed
/// from the server's code so the reference does not share its encoder.
fn compact(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let (mut in_str, mut escaped, mut skipping) = (false, false, false);
    for c in json.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '\n' {
            skipping = true;
        } else if !(skipping && c == ' ') {
            skipping = false;
            in_str = c == '"';
            out.push(c);
        }
    }
    out
}

/// JSON string escaping for the reference side.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The expected start of a successful `run` body.
fn run_prefix(value: &Value, stats: &EvalStats) -> String {
    format!(
        "{{\"v\": 1,\"result\": \"{}\",\"stats\": {{ \"steps\": {}, \"reduce_iterations\": {}, \"inserts\": {}, \"max_value_weight\": {}, \"max_accumulator_weight\": {}, \"max_depth\": {}, \"new_values\": {} }},\"tiers\": ",
        escape(&value.to_string()),
        stats.steps,
        stats.reduce_iterations,
        stats.inserts,
        stats.max_value_weight,
        stats.max_accumulator_weight,
        stats.max_depth,
        stats.new_values
    )
}

impl Workload {
    /// Builds workload `name` for `seed`: inputs, stream and references.
    pub fn build(
        name: &str,
        seed: u64,
        seconds: f64,
        nproc: usize,
        root: &Path,
    ) -> Result<Workload, String> {
        let mut programs = Vec::new();
        for p in PROGRAMS {
            let text = read(root, &format!("examples/srl/{p}.srl"))?;
            let golden =
                compact(read(root, &format!("examples/srl/analysis/{p}.analyze.json"))?.trim_end());
            programs.push(ProgramText {
                name: p,
                check_prefix: check_prefix(&text)?,
                analyze_prefix: golden[..golden.len() - 1].to_string(),
                text,
            });
        }
        let escaped = programs.iter().map(|p| escape(&p.text)).collect();
        let expr = |file: &str| -> Result<String, String> {
            Ok(read(root, &format!("perfbench/queries/{file}.expr"))?
                .trim()
                .to_string())
        };
        let mut wl = Workload {
            name: "",
            tenant_doc: String::new(),
            server_flags: Vec::new(),
            tenants: Vec::new(),
            connections: 1,
            load: Load::Open,
            setup: Vec::new(),
            stream: Vec::new(),
            warmup_us: 0,
            slo_us: 0.0,
            replay_len: 0,
            cycle: 0,
            queries: Vec::new(),
            programs,
            literals: Vec::new(),
            inputs: Vec::new(),
            escaped,
        };
        let mut rng = Rng::new(seed);
        let mut gen = Gen::default();
        match name {
            "serve_mix" => wl.serve_mix(&mut rng, &mut gen, seconds, &expr)?,
            "paper_heavy" => wl.paper_heavy(&mut rng, &mut gen, nproc, &expr)?,
            "tenant_contention" => wl.tenant_contention(&mut rng, &mut gen, seconds, &expr)?,
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {WORKLOADS:?})"
                ))
            }
        }
        wl.compute_references(nproc)?;
        Ok(wl)
    }

    /// Open loop at 1000 requests/s over 2 connections and 4 tenants: the
    /// experiment mix of the serving layer. The rate is far below capacity
    /// (README.md says why).
    fn serve_mix(
        &mut self,
        rng: &mut Rng,
        gen: &mut Gen,
        seconds: f64,
        expr: &dyn Fn(&str) -> Result<String, String>,
    ) -> Result<(), String> {
        self.name = "serve_mix";
        self.tenant_doc = "{}".to_string();
        self.server_flags = vec!["--cache-cap".into(), "16".into()];
        self.tenants = (0..4).map(|t| format!("t{t}")).collect();
        self.connections = 2;
        self.load = Load::Open;
        self.warmup_us = 1_000_000;
        self.slo_us = SERVE_MIX_SLO_US;
        self.replay_len = 3000;
        let member = self.add_call("e1_membership", MEMBERSHIP, "member");
        let powerset = self.add_call("e2_powerset_n7", POWERSET, "powerset");
        let add = self.add_call("e3_add", ARITH, "add");
        let project = self.add_expr("e9_project", expr("e9_project")?);
        let member_inputs: Vec<u32> = (0..32)
            .map(|_| {
                let set = rng.atom_set(16, 48);
                let probe = Value::atom(rng.below(48));
                self.add_input(gen, member, vec![set, probe], Vec::new())
            })
            .collect();
        let powerset_inputs: Vec<u32> = (0..8)
            .map(|_| {
                let set = rng.atom_set(7, 100);
                self.add_input(gen, powerset, vec![set], Vec::new())
            })
            .collect();
        let domain = Value::set((0..12).map(Value::atom));
        let add_inputs: Vec<u32> = (0..16)
            .map(|_| {
                let (a, b) = (Value::atom(rng.below(12)), Value::atom(rng.below(12)));
                self.add_input(gen, add, vec![domain.clone(), a, b], Vec::new())
            })
            .collect();
        let mut current_s = Vec::new();
        for t in 0..4u8 {
            let lit = self.add_relation(rng, "S");
            current_s.push(lit);
            self.setup.push(Req {
                op: Op::Bind { literal: lit },
                tenant: t,
                conn: t % 2,
                class: Class::Background,
                due_us: 0,
            });
            for program in 0..PROGRAMS.len() as u8 {
                self.setup.push(Req {
                    op: Op::Analyze { program },
                    tenant: t,
                    conn: t % 2,
                    class: Class::Background,
                    due_us: 0,
                });
            }
        }
        // Per tenant one bind in about 27 requests, stats in about 1 in 5,
        // and a quarter of the program-carrying requests with never-seen text.
        let weights = [20, 14, 14, 20, 8, 7, 20, 4];
        let mean_gap = 1e6 / SERVE_MIX_RPS;
        let mut due = 0.0;
        let end = (self.warmup_us as f64) + seconds * 1e6;
        loop {
            due += rng.exp(mean_gap);
            if due >= end {
                break;
            }
            let tenant = rng.below(4) as u8;
            let (op, class) = match rng.pick(&weights) {
                0 => (
                    Op::Call {
                        query: member,
                        input: member_inputs[rng.below(32) as usize],
                        cold: rng.unit() < COLD_SHARE,
                    },
                    Class::Query,
                ),
                1 => (
                    Op::Call {
                        query: powerset,
                        input: powerset_inputs[rng.below(8) as usize],
                        cold: rng.unit() < COLD_SHARE,
                    },
                    Class::Query,
                ),
                2 => (
                    Op::Call {
                        query: add,
                        input: add_inputs[rng.below(16) as usize],
                        cold: rng.unit() < COLD_SHARE,
                    },
                    Class::Query,
                ),
                3 => {
                    let env = vec![("S".to_string(), current_s[tenant as usize])];
                    (
                        Op::Expr {
                            query: project,
                            input: self.add_input(gen, project, Vec::new(), env),
                        },
                        Class::Query,
                    )
                }
                4 => (
                    Op::Analyze {
                        program: rng.below(PROGRAMS.len() as u64) as u8,
                    },
                    Class::Query,
                ),
                5 => (
                    Op::Check {
                        program: rng.below(PROGRAMS.len() as u64) as u8,
                    },
                    Class::Query,
                ),
                6 => (Op::Stats, Class::Stats),
                _ => {
                    let lit = self.add_relation(rng, "S");
                    current_s[tenant as usize] = lit;
                    (Op::Bind { literal: lit }, Class::Background)
                }
            };
            self.stream.push(Req {
                op,
                tenant,
                conn: tenant % 2,
                class,
                due_us: due as u64,
            });
        }
        Ok(())
    }

    /// Closed loop, 1 connection, the paper's experiments at report sizes
    /// over inputs bound once at setup; every query is followed by a `stats`.
    fn paper_heavy(
        &mut self,
        rng: &mut Rng,
        gen: &mut Gen,
        nproc: usize,
        expr: &dyn Fn(&str) -> Result<String, String>,
    ) -> Result<(), String> {
        self.name = "paper_heavy";
        self.tenant_doc = format!("{{ \"tenants\": {{ \"heavy\": {{ \"limits\": \"benchmark\", \"threads\": {nproc} }} }} }}");
        self.tenants = vec!["heavy".to_string()];
        self.connections = 1;
        self.load = Load::Closed;
        self.warmup_us = 1_000_000;
        self.slo_us = PAPER_HEAVY_SLO_US;
        self.replay_len = 64;
        // Each query is followed by a `stats`.
        self.cycle = 2 * PAPER_HEAVY_WEIGHTS.iter().sum::<usize>();
        // The digraphs are the report's own (perfprobe's structural seeds
        // `23 + n`): the closure and reach sizes, and so the work, would
        // otherwise swing several-fold from seed to seed at this sparsity.
        // The reach digraph's vertices are relabelled by the seed. The
        // 14-vertex one is not: tc and dtc pivot over the vertices in
        // order, and a relabelling moved their work by up to 40%.
        let g14 = Digraph::random(14, 2.0 / 14.0, 23 + 14);
        let db = CompanyDatabase::generate(256, 64, 4, rng.next_u64());
        let g4096 = relabel(&Digraph::random(4096, 2.0 / 4096.0, 23 + 4096), rng);
        let bound = [
            ("D14", g14.vertices_value()),
            ("E14", g14.edges_value()),
            ("EMP", db.employees_value()),
            ("DEPT", db.departments_value()),
            ("DR", g4096.vertices_value()),
            ("ER", g4096.edges_value()),
            ("K", Value::set((0..16).map(Value::atom))),
        ];
        let mut env = Vec::new();
        for (name, value) in bound {
            let lit = self.add_literal(name, value);
            env.push((name.to_string(), lit));
            self.setup.push(Req {
                op: Op::Bind { literal: lit },
                tenant: 0,
                conn: 0,
                class: Class::Background,
                due_us: 0,
            });
        }
        self.setup.push(Req {
            op: Op::Analyze { program: POWERSET },
            tenant: 0,
            conn: 0,
            class: Class::Background,
            due_us: 0,
        });
        let powerset = self.add_call("e2_powerset_n12", POWERSET, "powerset");
        let tc = self.add_expr(
            "e5_tc_dtc_n14",
            format!(
                "let D = D14 in let E = E14 in [{}, {}]",
                expr("e5_tc")?,
                expr("e5_dtc")?
            ),
        );
        let join = self.add_expr("e9_join_n256", expr("e9_join")?);
        let reach = self.add_expr(
            "e5_reach_n4096",
            format!("let D = DR in let E = ER in {}", expr("e5_reach")?),
        );
        let powerset_inputs: Vec<u32> = (0..4)
            .map(|_| {
                let set = rng.atom_set(12, 64);
                self.add_input(gen, powerset, vec![set], Vec::new())
            })
            .collect();
        let tc_input = self.add_input(gen, tc, Vec::new(), env.clone());
        let join_input = self.add_input(gen, join, Vec::new(), env.clone());
        let reach_input = self.add_input(gen, reach, Vec::new(), env);
        // Whole cycles of the weighted kinds, each cycle shuffled by the
        // seed: every seed runs the same mix, and the traced replay's first
        // cycle covers every kind.
        let mut kinds: Vec<usize> = Vec::new();
        while kinds.len() < PAPER_HEAVY_STREAM {
            let mut cycle: Vec<usize> = (0..4)
                .flat_map(|k| std::iter::repeat_n(k, PAPER_HEAVY_WEIGHTS[k]))
                .collect();
            for i in (1..cycle.len()).rev() {
                cycle.swap(i, rng.below(i as u64 + 1) as usize);
            }
            kinds.extend(cycle);
        }
        for kind in kinds {
            let op = match kind {
                0 => Op::Call {
                    query: powerset,
                    input: powerset_inputs[rng.below(4) as usize],
                    cold: false,
                },
                1 => Op::Expr {
                    query: tc,
                    input: tc_input,
                },
                2 => Op::Expr {
                    query: join,
                    input: join_input,
                },
                _ => Op::Expr {
                    query: reach,
                    input: reach_input,
                },
            };
            self.stream.push(Req {
                op,
                tenant: 0,
                conn: 0,
                class: Class::Query,
                due_us: 0,
            });
            self.stream.push(Req {
                op: Op::Stats,
                tenant: 0,
                conn: 0,
                class: Class::Stats,
                due_us: 0,
            });
        }
        Ok(())
    }

    /// Open loop over 2 connections: lane A keeps tenant `hot` busy with
    /// powerset queries; lane B reads from tenant `cool` and sends `stats`
    /// and `bind` to `hot`.
    fn tenant_contention(
        &mut self,
        rng: &mut Rng,
        gen: &mut Gen,
        seconds: f64,
        expr: &dyn Fn(&str) -> Result<String, String>,
    ) -> Result<(), String> {
        self.name = "tenant_contention";
        self.tenant_doc =
            "{ \"tenants\": { \"hot\": { \"limits\": \"benchmark\" }, \"cool\": {} } }".to_string();
        self.tenants = vec!["hot".to_string(), "cool".to_string()];
        let (hot, cool) = (0u8, 1u8);
        self.connections = 2;
        self.load = Load::Open;
        self.warmup_us = 1_000_000;
        self.slo_us = CONTENTION_SLO_US;
        self.replay_len = 600;
        let powerset = self.add_call(CONTENTION_POWERSET_LABEL, POWERSET, "powerset");
        let member = self.add_call("e1_membership", MEMBERSHIP, "member");
        let project = self.add_expr("e9_project", expr("e9_project")?);
        let powerset_inputs: Vec<u32> = (0..4)
            .map(|_| {
                let set = rng.atom_set(CONTENTION_POWERSET_N, 64);
                self.add_input(gen, powerset, vec![set], Vec::new())
            })
            .collect();
        let member_inputs: Vec<u32> = (0..32)
            .map(|_| {
                let set = rng.atom_set(16, 48);
                let probe = Value::atom(rng.below(48));
                self.add_input(gen, member, vec![set, probe], Vec::new())
            })
            .collect();
        let cool_s = self.add_relation(rng, "S");
        let project_input =
            self.add_input(gen, project, Vec::new(), vec![("S".to_string(), cool_s)]);
        self.setup.push(Req {
            op: Op::Bind { literal: cool_s },
            tenant: cool,
            conn: 1,
            class: Class::Background,
            due_us: 0,
        });
        let hot_s = self.add_relation(rng, "S");
        self.setup.push(Req {
            op: Op::Bind { literal: hot_s },
            tenant: hot,
            conn: 1,
            class: Class::Background,
            due_us: 0,
        });
        self.setup.push(Req {
            op: Op::Analyze { program: POWERSET },
            tenant: hot,
            conn: 0,
            class: Class::Background,
            due_us: 0,
        });
        self.setup.push(Req {
            op: Op::Analyze {
                program: MEMBERSHIP,
            },
            tenant: cool,
            conn: 1,
            class: Class::Background,
            due_us: 0,
        });
        let end = (self.warmup_us as f64) + seconds * 1e6;
        // Lane A arrives evenly spaced: a Poisson lane at 70% would build
        // queues whose busy periods starve lane B's lock waits without
        // bound, and the run would measure that instability, not the lock.
        // Every other lane-A query is followed, CONTENTION_STATS_DELAY_US
        // later, by a `stats` to `hot`, so each one meets a busy tenant.
        let mut lane_a = Vec::new();
        let mut lane_b = Vec::new();
        let period = 1e6 / CONTENTION_HEAVY_RPS;
        let mut due = rng.unit() * period;
        let mut k = 0u64;
        loop {
            due += period;
            if due >= end {
                break;
            }
            let input = powerset_inputs[rng.below(4) as usize];
            lane_a.push(Req {
                op: Op::Call {
                    query: powerset,
                    input,
                    cold: false,
                },
                tenant: hot,
                conn: 0,
                class: Class::Background,
                due_us: due as u64,
            });
            if k.is_multiple_of(2) {
                lane_b.push(Req {
                    op: Op::Stats,
                    tenant: hot,
                    conn: 1,
                    class: Class::Stats,
                    due_us: (due + CONTENTION_STATS_DELAY_US) as u64,
                });
            }
            k += 1;
        }
        // Light reads on `cool` and rebinds on `hot`, Poisson.
        let mut due = 0.0;
        let weights = [15, 10, 1];
        loop {
            due += rng.exp(1e6 / CONTENTION_LIGHT_RPS);
            if due >= end {
                break;
            }
            let (op, tenant, class) = match rng.pick(&weights) {
                0 => (
                    Op::Call {
                        query: member,
                        input: member_inputs[rng.below(32) as usize],
                        cold: false,
                    },
                    cool,
                    Class::Query,
                ),
                1 => (
                    Op::Expr {
                        query: project,
                        input: project_input,
                    },
                    cool,
                    Class::Query,
                ),
                _ => (
                    Op::Bind {
                        literal: self.add_relation(rng, "S"),
                    },
                    hot,
                    Class::Background,
                ),
            };
            lane_b.push(Req {
                op,
                tenant,
                conn: 1,
                class,
                due_us: due as u64,
            });
        }
        self.stream = lane_a;
        self.stream.extend(lane_b);
        self.stream.sort_by_key(|r| r.due_us);
        Ok(())
    }

    fn add_call(&mut self, label: &'static str, program: u8, def: &'static str) -> u8 {
        self.queries.push(Query {
            label,
            call: Some((program, def)),
            expr: String::new(),
        });
        (self.queries.len() - 1) as u8
    }

    fn add_expr(&mut self, label: &'static str, text: String) -> u8 {
        self.queries.push(Query {
            label,
            call: None,
            expr: text,
        });
        (self.queries.len() - 1) as u8
    }

    fn add_literal(&mut self, name: &str, value: Value) -> u32 {
        let text = value.to_string();
        self.literals.push(Literal {
            name: name.to_string(),
            value,
            text,
        });
        (self.literals.len() - 1) as u32
    }

    /// A fresh seeded relation of about 300 pairs, bound as `name`.
    fn add_relation(&mut self, rng: &mut Rng, name: &str) -> u32 {
        let g = Digraph::random(150, 300.0 / (150.0 * 149.0), rng.next_u64());
        self.add_literal(name, g.edges_value())
    }

    /// The input index of a (query, input) pair, shared with every earlier
    /// request that asked the same thing.
    fn add_input(
        &mut self,
        gen: &mut Gen,
        query: u8,
        args: Vec<Value>,
        env: Vec<(String, u32)>,
    ) -> u32 {
        let key = (
            query,
            args.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            env.clone(),
        );
        if let Some(&i) = gen.inputs.get(&key) {
            return i;
        }
        self.inputs.push(RunInput {
            query,
            args,
            env,
            expected: String::new(),
        });
        let i = (self.inputs.len() - 1) as u32;
        gen.inputs.insert(key, i);
        i
    }

    /// Evaluates every distinct (query, input) pair with the tree-walk
    /// evaluator, on `nproc` threads.
    fn compute_references(&mut self, nproc: usize) -> Result<(), String> {
        let pipeline = PipelineConfig::new()
            .with_limits(srl_core::EvalLimits::benchmark())
            .with_backend(ExecBackend::TreeWalk)
            .pipeline();
        let mut compiled = HashMap::new();
        for query in &self.queries {
            if let Some((program, _)) = query.call {
                let text = &self.programs[program as usize];
                let source = Source::new(text.name, text.text.clone());
                compiled.insert(
                    program,
                    pipeline
                        .compile_source(&source)
                        .map_err(|e| e.to_string())?,
                );
            }
        }
        let empty = pipeline
            .prepare(Program::new(Dialect::full()))
            .map_err(|e| e.to_string())?;
        let reference = |input: &RunInput| -> Result<String, String> {
            let query = &self.queries[input.query as usize];
            let outcome = match query.call {
                Some((program, def)) => compiled[&program].call(def, &input.args),
                None => {
                    let expr = srl_syntax::parse_expr(&query.expr)
                        .map_err(|e| format!("{}: {e}", query.label))?;
                    let mut env = Env::new();
                    for (name, lit) in &input.env {
                        env.insert(name, self.literals[*lit as usize].value.clone());
                    }
                    empty.eval(&expr, &env)
                }
            };
            let (value, stats) =
                outcome.map_err(|e| format!("reference for {}: {e}", query.label))?;
            Ok(run_prefix(&value, &stats))
        };
        // The costliest inputs are generated last; start from the end.
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Result<String, String>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..nproc.max(1) {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= self.inputs.len() {
                        break;
                    }
                    let i = self.inputs.len() - 1 - k;
                    let r = reference(&self.inputs[i]);
                    results
                        .lock()
                        .expect("a reference thread panicked")
                        .push((i, r));
                });
            }
        });
        for (i, r) in results.into_inner().expect("a reference thread panicked") {
            self.inputs[i].expected = r?;
        }
        Ok(())
    }

    /// Makes one reference wrong, so every response checked against it
    /// fails: the benchmark's own test that checking is not vacuous.
    pub fn corrupt_reference(&mut self) {
        if let Some(input) = self.inputs.first_mut() {
            input
                .expected
                .insert_str("{\"v\": 1,\"result\": \"".len(), "d0, ");
        }
    }

    pub fn tenant(&self, req: &Req) -> &str {
        &self.tenants[req.tenant as usize]
    }

    /// A label for per-kind reporting.
    pub fn label(&self, req: &Req) -> &'static str {
        match req.op {
            Op::Call { query, .. } | Op::Expr { query, .. } => self.queries[query as usize].label,
            Op::Analyze { .. } => "analyze",
            Op::Check { .. } => "check",
            Op::Bind { .. } => "bind",
            Op::Stats => "stats",
        }
    }

    /// The request line (without its newline).
    pub fn line(&self, req: &Req, id: u64) -> String {
        let head = format!(
            "{{\"v\": 1, \"id\": {id}, \"tenant\": \"{}\", ",
            self.tenant(req)
        );
        match req.op {
            Op::Call { query, input, cold } => {
                let (program, def) = self.queries[query as usize].call.expect("a call query");
                let cold = if cold {
                    format!("cold_{id}(cx) = cx\\n")
                } else {
                    String::new()
                };
                let args: Vec<String> = self.inputs[input as usize]
                    .args
                    .iter()
                    .map(|v| format!("\"{}\"", escape(&v.to_string())))
                    .collect();
                format!(
                    "{head}\"kind\": \"run\", \"program\": \"{cold}{}\", \"call\": \"{def}\", \"args\": [{}]}}",
                    self.escaped[program as usize],
                    args.join(", ")
                )
            }
            Op::Expr { query, .. } => format!(
                "{head}\"kind\": \"run\", \"expr\": \"{}\"}}",
                escape(&self.queries[query as usize].expr)
            ),
            Op::Analyze { program } => format!(
                "{head}\"kind\": \"analyze\", \"program\": \"{}\"}}",
                self.escaped[program as usize]
            ),
            Op::Check { program } => format!(
                "{head}\"kind\": \"check\", \"program\": \"{}\"}}",
                self.escaped[program as usize]
            ),
            Op::Bind { literal } => {
                let lit = &self.literals[literal as usize];
                format!(
                    "{head}\"kind\": \"bind\", \"name\": \"{}\", \"value\": \"{}\"}}",
                    lit.name,
                    escape(&lit.text)
                )
            }
            Op::Stats => format!("{head}\"kind\": \"stats\"}}"),
        }
    }

    /// Checks one response body (without its newline) against the
    /// reference for `req`.
    pub fn check(&self, req: &Req, id: u64, body: &str) -> Result<(), String> {
        let tail = format!("\"id\": {id}}}");
        if !body.ends_with(&tail) {
            return Err(format!("response does not end with the echoed id {id}"));
        }
        let ok = match req.op {
            Op::Call { input, .. } | Op::Expr { input, .. } => {
                body.starts_with(&self.inputs[input as usize].expected)
            }
            Op::Analyze { program } => {
                let prefix = &self.programs[program as usize].analyze_prefix;
                body.starts_with(prefix) && body[prefix.len()..].starts_with(",\"cache\": ")
            }
            Op::Check { program } => {
                let prefix = &self.programs[program as usize].check_prefix;
                body.starts_with(prefix) && body[prefix.len()..].starts_with(",\"id\": ")
            }
            Op::Bind { literal } => {
                let lit = &self.literals[literal as usize];
                body == format!(
                    "{{\"v\": 1,\"ok\": true,\"name\": \"{}\",\"value\": \"{}\",{tail}",
                    lit.name,
                    escape(&lit.text)
                )
            }
            Op::Stats => {
                body.starts_with(&format!(
                    "{{\"v\": 1,\"tenant\": \"{}\",\"queries\": ",
                    self.tenant(req)
                )) && body.contains(",\"errors\": 0,\"shed\": 0,")
            }
        };
        if ok {
            Ok(())
        } else {
            let shown: String = body.chars().take(300).collect();
            Err(format!(
                "{} (id {id}) differs from its reference: {shown}",
                self.label(req)
            ))
        }
    }
}

/// `g` with vertices `1..n` permuted by `rng`; vertex 0 keeps label `d0`,
/// so `choose(D)` starts a reach from the same vertex on every seed.
fn relabel(g: &Digraph, rng: &mut Rng) -> Digraph {
    let mut label: Vec<usize> = (0..g.n).collect();
    for i in (2..g.n).rev() {
        label.swap(i, 1 + rng.below(i as u64) as usize);
    }
    Digraph::new(g.n, g.edges.iter().map(|&(u, v)| (label[u], label[v])))
}

/// A (query, rendered arguments, bindings) triple.
type InputKey = (u8, Vec<String>, Vec<(String, u32)>);

/// Deduplication state used while a stream is generated.
#[derive(Default)]
struct Gen {
    inputs: HashMap<InputKey, u32>,
}

/// The expected `check` body of a program text (without the closing brace).
fn check_prefix(text: &str) -> Result<String, String> {
    let program = srl_syntax::parse_program(text).map_err(|e| e.to_string())?;
    let names: Vec<String> = program
        .def_names()
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    let verdict = srl_analysis::classify_program(&program, 1);
    Ok(format!(
        "{{\"v\": 1,\"ok\": true,\"definitions\": [{}],\"fragment\": \"{}\",\"explanation\": \"{}\"",
        names.join(", "),
        escape(&verdict.fragment.to_string()),
        escape(&verdict.explanation)
    ))
}

/// Reads one counter out of a `stats` body's `cache` object.
pub fn cache_counter(body: &str, name: &str) -> Option<u64> {
    Json::parse(body).ok()?.get("cache")?.get(name)?.as_u64()
}

// Workload constants, fixed on the host described in README.md.

/// serve_mix offered rate (requests per second, Poisson arrivals).
const SERVE_MIX_RPS: f64 = 1000.0;
const SERVE_MIX_SLO_US: f64 = 5000.0;
/// Share of program calls carrying a never-seen definition.
const COLD_SHARE: f64 = 0.35;
/// paper_heavy query weights: E2 n=12, E5 tc+dtc n=14, E9 join n=256,
/// E5 reach n=4096.
const PAPER_HEAVY_WEIGHTS: [usize; 4] = [10, 1, 1, 2];
const PAPER_HEAVY_STREAM: usize = 20_000;
const PAPER_HEAVY_SLO_US: f64 = 1_000_000.0;
const CONTENTION_POWERSET_N: usize = 9;
const CONTENTION_POWERSET_LABEL: &str = "e2_powerset_n9";
const CONTENTION_HEAVY_RPS: f64 = 150.0;
/// Lane B's Poisson rate of light reads and rebinds.
const CONTENTION_LIGHT_RPS: f64 = 260.0;
const CONTENTION_STATS_DELAY_US: f64 = 1000.0;
const CONTENTION_SLO_US: f64 = 5000.0;
