//! The tier-differential harness shared by `set_tier_differential.rs`
//! (atom-set inputs) and `tuple_tier_differential.rs` (relational
//! inputs): run one program under every (tier, backend) configuration
//! and assert the results are indistinguishable.
//!
//! The toggle (`set_atom_tier_enabled`) is thread-local; inputs are
//! rebuilt under each configuration's toggle so the "off" runs really
//! evaluate generic-store values, not columnar values built earlier.

use std::collections::BTreeSet;
use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::setrepr::set_atom_tier_enabled;
use srl_core::{
    Env, EvalError, EvalLimits, EvalStats, Evaluator, ExecBackend, Expr, Lambda, Program,
    TierEngagements, Value,
};
use srl_stdlib::derived::{difference, intersection, member, union};

/// Restores the ambient tier toggle when dropped, so a failing assertion
/// in one test cannot leak a disabled tier into the rest of its thread.
struct TierGuard(bool);

impl TierGuard {
    fn set(on: bool) -> Self {
        TierGuard(set_atom_tier_enabled(on))
    }
}

impl Drop for TierGuard {
    fn drop(&mut self) {
        set_atom_tier_enabled(self.0);
    }
}

/// Deep structural rebuild: every set in the result is re-constructed
/// under the *current* toggle, so the value's storage tiers reflect the
/// configuration under measurement rather than the one it was built in.
fn rebuild(v: &Value) -> Value {
    match v {
        Value::Bool(_) | Value::Atom(_) | Value::Nat(_) => v.clone(),
        Value::Tuple(items) => Value::tuple(items.iter().map(rebuild)),
        Value::Set(items) => Value::set(items.iter().map(|e| rebuild(&e))),
        Value::List(items) => Value::list(items.iter().map(rebuild)),
    }
}

/// A set of pair tuples `(i, j)`.
pub fn pair_set(pairs: impl IntoIterator<Item = (u64, u64)>) -> Value {
    Value::set(
        pairs
            .into_iter()
            .map(|(i, j)| Value::tuple([Value::atom(i), Value::atom(j)])),
    )
}

fn backends() -> Vec<(&'static str, ExecBackend)> {
    vec![
        ("tree-walk", ExecBackend::TreeWalk),
        ("vm[1]", ExecBackend::vm()),
        ("vm[2]", ExecBackend::vm_with_threads(2)),
        ("vm[4]", ExecBackend::vm_with_threads(4)),
    ]
}

pub struct Outcome {
    config: String,
    tier_on: bool,
    result: Result<(Value, EvalStats), EvalError>,
    engagements: TierEngagements,
}

/// Runs `f` under every (tier, backend) configuration over one shared
/// compiled program. `inputs` are rebuilt under each configuration's
/// toggle and handed to `f` in order.
pub fn run_matrix(
    program: &Program,
    limits: EvalLimits,
    inputs: &[Value],
    mut f: impl FnMut(&mut Evaluator, &[Value]) -> Result<Value, EvalError>,
) -> Vec<Outcome> {
    let compiled = Arc::new(program.compile());
    let mut out = Vec::new();
    for tier_on in [true, false] {
        let _guard = TierGuard::set(tier_on);
        let rebuilt: Vec<Value> = inputs.iter().map(rebuild).collect();
        for (name, backend) in backends() {
            let mut ev = Evaluator::with_compiled(program, Arc::clone(&compiled), limits)
                .expect("compiled from this program")
                .with_backend(backend);
            let result = f(&mut ev, &rebuilt).map(|v| (v, *ev.stats()));
            out.push(Outcome {
                config: format!("tier-{} {name}", if tier_on { "on" } else { "off" }),
                tier_on,
                result,
                engagements: ev.tier_engagement_breakdown(),
            });
        }
    }
    out
}

/// Asserts every configuration produced the same value (structurally
/// *and* as printed — named-atom copies must not drift), byte-identical
/// `EvalStats`, that the disabled tier never reported an engagement, and
/// that no configuration reported a `rows` engagement (the slot of the
/// retired struct-of-arrays store, kept at 0 for `v:1` compatibility).
/// Returns the value and the minimum engagement count over the tier-on
/// configurations (so callers can assert the tier provably engaged on
/// every backend, not just one).
pub fn assert_tier_identical(label: &str, outcomes: &[Outcome]) -> (Value, u64) {
    let (first, rest) = outcomes.split_first().expect("matrix is non-empty");
    let (v0, s0) = first
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("{label} [{}]: failed: {e}", first.config));
    for o in rest {
        let (v, s) = o
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} [{}]: failed: {e}", o.config));
        assert_eq!(v0, v, "{label} [{}]: values differ", o.config);
        assert_eq!(
            format!("{v0}"),
            format!("{v}"),
            "{label} [{}]: printed values differ",
            o.config
        );
        assert_eq!(s0, s, "{label} [{}]: EvalStats differ", o.config);
    }
    for o in outcomes {
        assert_eq!(
            o.engagements.rows, 0,
            "{label} [{}]: the retired rows slot reported engagements",
            o.config
        );
    }
    for o in outcomes.iter().filter(|o| !o.tier_on) {
        assert_eq!(
            o.engagements.total(),
            0,
            "{label} [{}]: disabled tier reported engagements",
            o.config
        );
    }
    let on_min = outcomes
        .iter()
        .filter(|o| o.tier_on)
        .map(|o| o.engagements.total())
        .min()
        .expect("tier-on configurations exist");
    (v0.clone(), on_min)
}

/// Asserts every configuration failed with the same error (kind and
/// payload) and returns it. Partial counters on error paths may differ by
/// instruction reordering, so only the error itself is compared.
pub fn assert_error_identical(label: &str, outcomes: &[Outcome]) -> EvalError {
    let errors: Vec<&EvalError> = outcomes
        .iter()
        .map(|o| match &o.result {
            Ok((v, _)) => panic!("{label} [{}]: expected an error, got {v}", o.config),
            Err(e) => e,
        })
        .collect();
    for (o, e) in outcomes.iter().zip(&errors) {
        assert_eq!(errors[0], *e, "{label} [{}]: errors differ", o.config);
    }
    errors[0].clone()
}

/// Runs an expression with named inputs through the full matrix.
pub fn run_expr(
    program: &Program,
    limits: EvalLimits,
    names: &[&str],
    inputs: &[Value],
    expr: &Expr,
) -> Vec<Outcome> {
    run_matrix(program, limits, inputs, |ev, vals| {
        let mut env = Env::new();
        for (name, value) in names.iter().zip(vals) {
            env.insert(*name, value.clone());
        }
        ev.eval(expr, &env)
    })
}

/// Identity over an expression with named inputs, under benchmark limits.
pub fn assert_expr_identical(
    program: &Program,
    names: &[&str],
    inputs: &[Value],
    expr: &Expr,
    label: &str,
) -> (Value, u64) {
    let outcomes = run_expr(program, EvalLimits::benchmark(), names, inputs, expr);
    assert_tier_identical(label, &outcomes)
}

/// Folds the set of sets `SLICES` into the accumulator `base` one slice
/// at a time with `union(slice, acc)` — the combiner of the stdlib
/// `cartesian`, which compiles to the fused union with the accumulator
/// moved out of its slot. Whether a slice appends in place or merges
/// depends on its order against the accumulator, the accumulator's store
/// and whether it is shared (`SetRepr::append_after` in srl-core).
pub fn slice_fold(base: Expr) -> Expr {
    set_reduce(
        var("SLICES"),
        Lambda::identity(),
        lam("slice", "acc", union(var("slice"), var("acc"))),
        base,
        empty_set(),
    )
}

/// Deterministic case stream (SplitMix64 — same construction as the other
/// property suites; failures print the case index for exact replay).
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Runs union, intersection, difference and membership of `probe` over the
/// sets `a` and `b` (native elements, converted by `value_of`) through the
/// full matrix, and cross-checks each result against `BTreeSet`: the tier
/// must not change *what* is computed either.
pub fn assert_algebra_matches_native<T: Ord + std::fmt::Debug>(
    case: usize,
    a: &[T],
    b: &[T],
    probe: &T,
    value_of: impl Fn(&T) -> Value,
) {
    let program = Program::srl();
    let set_of = |xs: Vec<&T>| Value::set(xs.into_iter().map(&value_of));
    let inputs = [set_of(a.iter().collect()), set_of(b.iter().collect())];
    let sa: BTreeSet<&T> = a.iter().collect();
    let sb: BTreeSet<&T> = b.iter().collect();
    for (op, expr, expect) in [
        (
            "union",
            union(var("A"), var("B")),
            set_of(sa.union(&sb).copied().collect()),
        ),
        (
            "intersection",
            intersection(var("A"), var("B")),
            set_of(sa.intersection(&sb).copied().collect()),
        ),
        (
            "difference",
            difference(var("A"), var("B")),
            set_of(sa.difference(&sb).copied().collect()),
        ),
        (
            "member",
            member(const_v(value_of(probe)), var("A")),
            Value::Bool(sa.contains(probe)),
        ),
    ] {
        let (v, _) = assert_expr_identical(
            &program,
            &["A", "B"],
            &inputs,
            &expr,
            &format!("case {case} {op}"),
        );
        assert_eq!(
            v, expect,
            "case {case} {op}: a={a:?} b={b:?} probe={probe:?}"
        );
    }
}
