//! Property-style tests on the core invariants.
//!
//! The build runs offline (no proptest), so these drive the same properties
//! with a small deterministic case generator: a SplitMix64 stream per test
//! seed, 64 cases per property — failures print the generating seed so the
//! case can be replayed exactly.

use std::collections::BTreeSet;
use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::eval::eval_expr;
use srl_core::setrepr::{set_atom_tier_enabled, SetRepr};
use srl_core::{BigNat, Env, EvalLimits, Value};
use srl_integration_tests::atom_set;
use srl_stdlib::derived::{difference, intersection, member, set_eq, subset, union};
use srl_stdlib::hom;
use workloads::orderings::DomainRenaming;

const CASES: u64 = 64;

/// Deterministic case stream (SplitMix64 — same construction as the vendored
/// `rand` shim, but independent of it so core invariants don't depend on the
/// shim's stream).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
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

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A vector of up to 9 atom ranks drawn from `0..24` (duplicates kept, as
    /// proptest's `vec(0u64..24, 0..10)` would produce).
    fn small_set(&mut self) -> Vec<u64> {
        let len = self.below(10);
        (0..len).map(|_| self.below(24)).collect()
    }

    /// A subset of `0..universe` at one of four densities (about 2, 10%,
    /// 50% or 95% of the universe), so that built as a set it lands on
    /// every store: inline, sorted ids, dense bits — or spilled values
    /// when built with the columnar tier off.
    fn subset(&mut self, universe: u64) -> BTreeSet<u64> {
        let per_universe = [2, universe / 10, universe / 2, universe * 19 / 20];
        let keep = per_universe[self.below(4) as usize];
        (0..universe)
            .filter(|_| self.below(universe) < keep)
            .collect()
    }
}

/// The atom set `ids` built with the columnar tier `columnar` (on: inline,
/// sorted-id or bitset store; off: inline or spilled values).
fn stored(ids: &BTreeSet<u64>, columnar: bool) -> SetRepr {
    let previous = set_atom_tier_enabled(columnar);
    let set = ids.iter().map(|&i| Value::atom(i)).collect();
    set_atom_tier_enabled(previous);
    set
}

fn ids_of(set: &SetRepr) -> Vec<u64> {
    set.iter()
        .map(|v| v.as_atom().expect("atom set").index)
        .collect()
}

fn eval(expr: &srl_core::Expr, env: &Env) -> Value {
    eval_expr(expr, env, EvalLimits::default()).expect("evaluation succeeds")
}

#[test]
fn bignat_addition_is_commutative_and_matches_u64() {
    let mut g = Gen::new(1);
    for case in 0..CASES {
        let a = g.below(1_000_000);
        let b = g.below(1_000_000);
        let x = BigNat::from_u64(a);
        let y = BigNat::from_u64(b);
        assert_eq!(x.add(&y), y.add(&x), "case {case}: a={a} b={b}");
        assert_eq!(x.add(&y).to_u64(), Some(a + b), "case {case}: a={a} b={b}");
        assert_eq!(x.mul(&y), y.mul(&x), "case {case}: a={a} b={b}");
    }
}

#[test]
fn bignat_shifts_invert() {
    let mut g = Gen::new(2);
    for case in 0..CASES {
        let a = g.next_u64();
        let k = g.below(100) as usize;
        let x = BigNat::from_u64(a);
        assert_eq!(x.shl(k).shr(k), x, "case {case}: a={a} k={k}");
    }
}

#[test]
fn srl_union_is_commutative_idempotent_and_matches_native() {
    let mut g = Gen::new(3);
    for case in 0..CASES {
        let a = g.small_set();
        let b = g.small_set();
        let env = Env::new()
            .bind("A", atom_set(a.clone()))
            .bind("B", atom_set(b.clone()));
        let ab = eval(&union(var("A"), var("B")), &env);
        let ba = eval(&union(var("B"), var("A")), &env);
        assert_eq!(ab, ba, "case {case}: a={a:?} b={b:?}");
        let native: std::collections::BTreeSet<u64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(ab.len(), Some(native.len()), "case {case}: a={a:?} b={b:?}");
        let aa = eval(&union(var("A"), var("A")), &env);
        assert_eq!(aa, atom_set(a.clone()), "case {case}: a={a:?}");
    }
}

#[test]
fn srl_set_algebra_matches_native() {
    let mut g = Gen::new(4);
    for case in 0..CASES {
        let a = g.small_set();
        let b = g.small_set();
        let env = Env::new()
            .bind("A", atom_set(a.clone()))
            .bind("B", atom_set(b.clone()));
        let sa: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<u64> = b.iter().copied().collect();
        let inter = eval(&intersection(var("A"), var("B")), &env);
        assert_eq!(
            inter,
            atom_set(sa.intersection(&sb).copied().collect::<Vec<_>>()),
            "case {case}: a={a:?} b={b:?}"
        );
        let diff = eval(&difference(var("A"), var("B")), &env);
        assert_eq!(
            diff,
            atom_set(sa.difference(&sb).copied().collect::<Vec<_>>()),
            "case {case}: a={a:?} b={b:?}"
        );
        let sub = eval(&subset(var("A"), var("B")), &env);
        assert_eq!(sub, Value::bool(sa.is_subset(&sb)), "case {case}");
        let eq_sets = eval(&set_eq(var("A"), var("B")), &env);
        assert_eq!(eq_sets, Value::bool(sa == sb), "case {case}");
    }
}

#[test]
fn srl_membership_matches_native() {
    let mut g = Gen::new(5);
    for case in 0..CASES {
        let a = g.small_set();
        let probe = g.below(24);
        let env = Env::new().bind("A", atom_set(a.clone()));
        let v = eval(&member(atom(probe), var("A")), &env);
        assert_eq!(
            v,
            Value::bool(a.contains(&probe)),
            "case {case}: a={a:?} probe={probe}"
        );
    }
}

#[test]
fn proper_hom_queries_are_invariant_under_renaming() {
    let mut g = Gen::new(6);
    for case in 0..CASES {
        let a = g.small_set();
        let seed = g.below(1000);
        let s = atom_set(a.clone());
        let renaming = DomainRenaming::random(24, seed);
        let env = Env::new().bind("S", s.clone());
        let renamed_env = Env::new().bind("S", renaming.apply(&s));
        // EVEN via proper hom: same boolean either way.
        assert_eq!(
            eval(&hom::even(var("S")), &env),
            eval(&hom::even(var("S")), &renamed_env),
            "case {case}: a={a:?} seed={seed}"
        );
        // Union-style rebuild corresponds modulo the renaming.
        let rebuilt = eval(&union(var("S"), empty_set()), &env);
        let rebuilt_renamed = eval(&union(var("S"), empty_set()), &renamed_env);
        assert_eq!(
            renaming.apply(&rebuilt),
            rebuilt_renamed,
            "case {case}: a={a:?} seed={seed}"
        );
    }
}

#[test]
fn basrl_arithmetic_matches_native_addition() {
    let mut g = Gen::new(7);
    for case in 0..CASES {
        let n = 6 + g.below(18);
        let a = g.below(12) % n;
        let b = g.below(12) % n;
        let program = srl_stdlib::arith::arithmetic_program();
        let (value, _) = srl_core::eval::run_program(
            &program,
            srl_stdlib::arith::names::ADD,
            &[srl_stdlib::arith::domain(n), Value::atom(a), Value::atom(b)],
            EvalLimits::benchmark(),
        )
        .unwrap();
        assert_eq!(
            value,
            Value::atom((a + b).min(n - 1)),
            "case {case}: n={n} a={a} b={b}"
        );
    }
}

#[test]
fn evaluation_is_deterministic() {
    let mut g = Gen::new(8);
    for case in 0..CASES {
        let a = g.small_set();
        let env = Env::new().bind("A", atom_set(a.clone()));
        let q = hom::count(var("A"));
        let program = srl_core::Program::new(srl_core::Dialect::full());
        let mut ev1 = srl_core::Evaluator::new(&program, EvalLimits::default());
        let mut ev2 = srl_core::Evaluator::new(&program, EvalLimits::default());
        assert_eq!(
            ev1.eval(&q, &env).unwrap(),
            ev2.eval(&q, &env).unwrap(),
            "case {case}: a={a:?}"
        );
    }
}

/// The four set stores obey the set laws on mixed-store operands: the bulk
/// `merge_union` and `merge_sorted_difference`, intersection (as
/// `A − (A − B)` and as the SRL `intersection` query) agree with a
/// `BTreeSet` reference, and the complement identities hold over a bounded
/// universe U, with `−X = U − X`: `A − B = −(−A ∪ B)` and
/// `A ∩ B = −(−A ∪ −B)`.
#[test]
fn set_stores_obey_the_set_laws_on_mixed_operands() {
    const U: u64 = 192;
    let mut g = Gen::new(9);
    let mut stores = BTreeSet::new();
    for case in 0..CASES {
        let (ra, rb) = (g.subset(U), g.subset(U));
        // Shared, not cloned: a clone would re-tier the set.
        let a = Arc::new(stored(&ra, g.below(2) == 0));
        let b = Arc::new(stored(&rb, g.below(2) == 0));
        let universe = stored(&(0..U).collect(), g.below(2) == 0);
        let complement = |x: &SetRepr| universe.merge_sorted_difference(x);
        let label = format!("case {case}: {} × {}", a.tier_label(), b.tier_label());
        stores.extend([a.tier_label(), b.tier_label()]);

        let union_ref: Vec<u64> = ra.union(&rb).copied().collect();
        let diff_ref: Vec<u64> = ra.difference(&rb).copied().collect();
        let inter_ref: Vec<u64> = ra.intersection(&rb).copied().collect();
        assert_eq!(ids_of(&a.merge_union(&b)), union_ref, "{label}: A ∪ B");
        assert_eq!(
            ids_of(&a.merge_sorted_difference(&b)),
            diff_ref,
            "{label}: A − B"
        );
        assert_eq!(
            ids_of(&a.merge_sorted_difference(&a.merge_sorted_difference(&b))),
            inter_ref,
            "{label}: A − (A − B)"
        );
        let env = Env::new()
            .bind("A", Value::Set(Arc::clone(&a)))
            .bind("B", Value::Set(Arc::clone(&b)));
        assert_eq!(
            eval(&intersection(var("A"), var("B")), &env),
            atom_set(inter_ref.iter().copied()),
            "{label}: intersection(A, B)"
        );

        let not_a = complement(&a);
        assert_eq!(
            ids_of(&complement(&not_a.merge_union(&b))),
            diff_ref,
            "{label}: −(−A ∪ B)"
        );
        assert_eq!(
            ids_of(&complement(&not_a.merge_union(&complement(&b)))),
            inter_ref,
            "{label}: −(−A ∪ −B)"
        );
    }
    assert_eq!(
        stores,
        BTreeSet::from(["atoms", "bits", "inline", "spilled"]),
        "every store must appear as an operand"
    );
}
