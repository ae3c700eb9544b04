//! Differential test: generic vs. columnar *atom-set* storage.
//!
//! The columnar small-atom stores (`srl-core::setrepr`: sorted-u32 `Atoms`
//! and dense `Bits` storage) promise to be **pure representation**: for
//! every program, identical `Value` results, identical *printed* results
//! (named-atom copies included), and byte-identical `EvalStats` whether
//! the tier is enabled or disabled, on every backend (tree-walk,
//! sequential VM, pooled VM at 2 and 4 threads). This suite drives the
//! full 2×4 matrix — tier {on, off} × backend — over every srl-bench
//! query workload (E1–E9), proves the tier actually *engages* where it
//! should (via the `Evaluator::tier_engagements` diagnostic) and provably
//! stays out when disabled, and stresses the promotion/demotion edges and
//! mixed-tier adversaries the adaptive storage decisions hinge on.
//!
//! The same matrix over relational inputs (tuple sets) lives in
//! `tuple_tier_differential.rs`; both run on the shared `tier_harness`.

mod tier_harness;

use srl_core::dsl::*;
use srl_core::{Dialect, EvalError, EvalLimits, Program, Value};
use srl_integration_tests::atom_set;
use srl_stdlib::derived::{difference, intersection, member, union};
use tier_harness::{
    assert_algebra_matches_native, assert_error_identical, assert_expr_identical,
    assert_tier_identical, pair_set, run_expr, run_matrix, slice_fold, Gen,
};

// ---------------------------------------------------------------------------
// The srl-bench query workloads, E1–E9: the storage tier must be
// unobservable in values, display, and stats.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    let program = apath_program();
    let graph = AlternatingGraph::random(6, 0.25, 13);
    let inputs = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::APATH, vals)
    });
    assert_tier_identical("E1 APATH", &outcomes);
}

#[test]
fn e2_powerset_agrees_and_engages() {
    use srl_stdlib::blowup::{names, powerset_program};

    let program = powerset_program();
    for n in [0u64, 1, 3, 8] {
        let inputs = [atom_set(0..n)];
        let outcomes = run_matrix(&program, EvalLimits::default(), &inputs, |ev, vals| {
            ev.call(names::POWERSET, vals)
        });
        let (v, on_min) = assert_tier_identical("E2 powerset", &outcomes);
        assert_eq!(v.len(), Some(1usize << n));
        if n == 8 {
            // The outer fold traverses the columnar input set on every
            // backend: the tier provably engages.
            assert!(on_min > 0, "E2 n=8: tier did not engage on some backend");
        }
    }
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let program = arithmetic_program();
    let d = domain(16);
    for (name, extra) in [
        (names::ADD, vec![5u64, 4]),
        (names::MULT, vec![3, 4]),
        (names::BIT, vec![1, 5]),
    ] {
        let mut inputs = vec![d.clone()];
        inputs.extend(extra.iter().map(|&x| Value::atom(x)));
        let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
            ev.call(name, vals)
        });
        assert_tier_identical(name, &outcomes);
    }
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    let program = perm_program();
    let instance = IteratedProductInstance::random(5, 5, 17);
    let inputs = [
        padded_domain(&instance),
        instance.to_srl_value(),
        Value::atom(2),
    ];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::IP, vals)
    });
    assert_tier_identical("E4 IP", &outcomes);
}

#[test]
fn e5_tc_dtc_agree() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    let program = Program::new(Dialect::full());
    for n in [6usize, 14] {
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let inputs = [g.vertices_value(), g.edges_value()];
        for (label, expr) in [
            ("E5 TC", queries::tc_query()),
            ("E5 DTC", queries::dtc_query()),
        ] {
            assert_expr_identical(
                &program,
                &["D", "E"],
                &inputs,
                &expr,
                &format!("{label} n={n}"),
            );
        }
    }
}

#[test]
fn e5_reachability_agrees_and_engages() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    // The vertex-set core of E5: a round-driven reachability whose
    // accumulator is a set of atoms — the shape the columnar tier is for.
    let program = Program::new(Dialect::full());
    let n = 256usize;
    let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
    let inputs = [
        g.vertices_value(),
        g.edges_value(),
        atom_set(0..8u64), // rounds
    ];
    let (_, on_min) = assert_expr_identical(
        &program,
        &["D", "E", "K"],
        &inputs,
        &queries::reach_query(),
        "E5 reach",
    );
    assert!(on_min > 0, "E5 reach: tier did not engage on some backend");
}

#[test]
fn e6_primrec_and_lrl_doubling_agree() {
    use machines::primrec::library;
    use srl_stdlib::blowup::{lrl_doubling_program, names as blow_names};
    use srl_stdlib::primrec_compile::{compile, encode_nat};

    let add = compile(&library::add()).expect("add compiles");
    let entry = add.entry.clone();
    let inputs = [encode_nat(5), encode_nat(3)];
    let outcomes = run_matrix(
        &add.program,
        EvalLimits::benchmark(),
        &inputs,
        |ev, vals| ev.call(&entry, vals),
    );
    assert_tier_identical("E6 PR add", &outcomes);

    let doubling = lrl_doubling_program();
    let inputs = [Value::list((0..5u64).map(Value::atom))];
    let outcomes = run_matrix(&doubling, EvalLimits::default(), &inputs, |ev, vals| {
        ev.call(blow_names::DOUBLING, vals)
    });
    assert_tier_identical("E6 LRL doubling", &outcomes);
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    let program = compile(&even_parity());
    let n = 16usize;
    let input: Vec<u8> = (0..n)
        .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
        .collect();
    let inputs = [position_domain(n), encode_input(&input)];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::ACCEPTS, vals)
    });
    assert_tier_identical("E7 accepts", &outcomes);
}

#[test]
fn e8_order_dependence_probes_agree() {
    use srl_stdlib::hom;

    let program = Program::srl();
    let inputs = [atom_set([0, 2, 4, 6]), atom_set([6])];
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::purple_first(var("S"), var("P")),
        "E8 purple_first",
    );
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::even(var("S")),
        "E8 even",
    );
}

#[test]
fn e9_relational_queries_agree() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

    let program = Program::new(Dialect::full());
    let db = CompanyDatabase::generate(32, 8, 4, 47);
    let inputs = [db.employees_value(), db.departments_value()];
    assert_expr_identical(
        &program,
        &["EMP", "DEPT"],
        &inputs,
        &queries::company_join(),
        "E9 join",
    );
    assert_expr_identical(
        &program,
        &["EMP", "DEPT"],
        &inputs,
        &queries::employees_in_department(db.departments[0].id),
        "E9 select/project",
    );
}

#[test]
fn e9_id_intersection_agrees_and_engages() {
    use srl_bench::queries;

    // The id-set core of E9: intersecting an id column with a dense
    // universe — a Filter fold whose probes hit the bitset tier.
    let program = Program::new(Dialect::full());
    let inputs = [
        atom_set(0..512u64),
        atom_set((0..512u64).filter(|i| i % 4 != 3)),
    ];
    let (v, on_min) = assert_expr_identical(
        &program,
        &["IDS", "UNIV"],
        &inputs,
        &queries::id_intersection(),
        "E9 inter-ids",
    );
    assert_eq!(v.len(), Some(384));
    assert!(
        on_min > 0,
        "E9 inter-ids: tier did not engage on some backend"
    );
}

#[test]
fn dense_universe_union_agrees_and_engages() {
    use srl_bench::queries;

    // The dense-universe probe: interleaved even/odd atom sets whose union
    // is one bulk merge — word-parallel on the bitset tier.
    let program = Program::new(Dialect::full());
    let inputs = [
        atom_set((0..256u64).map(|i| 2 * i)),
        atom_set((0..256u64).map(|i| 2 * i + 1)),
    ];
    let (v, on_min) = assert_expr_identical(
        &program,
        &["A", "B"],
        &inputs,
        &queries::dense_union(),
        "dense universe",
    );
    assert_eq!(v.len(), Some(512));
    assert!(
        on_min > 0,
        "dense universe: tier did not engage on some backend"
    );
}

// ---------------------------------------------------------------------------
// Mixed-tier adversaries: elements of different shapes force promotions,
// demotions, and cross-tier merges mid-evaluation.
// ---------------------------------------------------------------------------

#[test]
fn cross_tier_union_with_tuples_agrees() {
    // A columnar atom set unioned with a generic tuple set: the merge
    // crosses tiers and the result must widen to generic storage.
    let program = Program::srl();
    let inputs = [atom_set(0..40u64), pair_set((0..40u64).map(|i| (i, i + 1)))];
    for (label, expr) in [
        ("atoms ∪ tuples", union(var("A"), var("B"))),
        ("tuples ∪ atoms", union(var("B"), var("A"))),
        ("atoms ∖ tuples", difference(var("A"), var("B"))),
    ] {
        assert_expr_identical(&program, &["A", "B"], &inputs, &expr, label);
    }
}

#[test]
fn mid_fold_promotion_then_demotion_agrees() {
    // The combiner inserts the bare atom for members of T and the whole
    // tuple otherwise: the accumulator promotes to columnar storage while
    // the early (member) inserts land, then demotes in place on the first
    // tuple. Identity must survive the round trip on every backend.
    let program = Program::srl();
    let expr = set_reduce(
        var("S"),
        lam("x", "t", tuple([var("x"), member(var("x"), var("t"))])),
        lam(
            "p",
            "acc",
            if_(
                sel(var("p"), 2),
                insert(sel(var("p"), 1), var("acc")),
                insert(var("p"), var("acc")),
            ),
        ),
        empty_set(),
        var("T"),
    );
    let inputs = [
        atom_set(0..48u64),
        atom_set((0..24u64).map(|i| i * 2)), // evens are members
    ];
    assert_expr_identical(&program, &["S", "T"], &inputs, &expr, "promote-demote");
}

#[test]
fn named_atom_first_wins_survives_the_tier() {
    // Named atoms are equal to their plain ranks but display differently;
    // first-wins must keep exactly the same copy whether the target set is
    // columnar or generic (a named duplicate must not widen a columnar set
    // or replace its plain copy). `assert_tier_identical` compares the
    // printed results, which is where a drifted copy would show.
    let program = Program::srl();
    let named = Value::set((0..30u64).map(|i| Value::named_atom(i, format!("v{i}"))));
    let inputs = [atom_set(0..60u64), named];
    // `union(x, y)` folds over `x` inserting into `y`: the base set's
    // copies arrive first and win. With N as base the named copies stay…
    let (v, _) = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("A"), var("N")),
        "fold A into N",
    );
    assert_eq!(v.len(), Some(60));
    assert!(format!("{v}").contains("v0"), "{v}");

    // …and with the columnar A as base the plain ranks stay: a named
    // duplicate answered `false` without widening the storage.
    let (v, _) = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("N"), var("A")),
        "fold N into A",
    );
    assert_eq!(v.len(), Some(60));
    assert!(!format!("{v}").contains("v0"), "{v}");
}

/// Atom slices `{4k, …, 4k+3}` for `k ∈ ks`, ascending; with `named`,
/// each slice's last atom is named `nI`.
fn atom_slices(ks: std::ops::Range<u64>, named: bool) -> Value {
    Value::set(ks.map(|k| {
        Value::set((4 * k..4 * k + 4).map(|i| {
            if named && i % 4 == 3 {
                Value::named_atom(i, format!("n{i}"))
            } else {
                Value::atom(i)
            }
        }))
    }))
}

/// `{d0, …, d4}` closed by the named atom `top` = index 5: a spilled
/// generic set whose last element is not a plain atom.
fn named_top() -> Value {
    Value::set(
        (0..5u64)
            .map(Value::atom)
            .chain([Value::named_atom(5, "top")]),
    )
}

#[test]
fn atom_slices_agree_on_append_and_merge() {
    // Plain atom slices keep the accumulator columnar, so every slice
    // merges. Slices closed by a named atom keep it generic and ending in
    // a name, so once a merge has unshared it every later slice appends —
    // from the empty set and from the environment-bound `N` alike. Atom
    // slices followed by tuple slices cross from a columnar accumulator to
    // a generic one that the second tuple slice appends to.
    let program = Program::srl();
    let tuples = |k: u64| pair_set((0..6u64).map(|j| (k, j)));
    let mixed = Value::set([atom_set(0..6u64), atom_set(6..12u64), tuples(0), tuples(1)]);
    for (label, slices, base, len) in [
        ("plain atoms", atom_slices(0..12, false), empty_set(), 48),
        (
            "named-closed atoms",
            atom_slices(0..12, true),
            empty_set(),
            48,
        ),
        (
            "named-closed atoms from N",
            atom_slices(2..12, true),
            var("N"),
            46,
        ),
        ("atoms then tuples", mixed, empty_set(), 24),
    ] {
        let (v, _) = assert_expr_identical(
            &program,
            &["SLICES", "N"],
            &[slices, named_top()],
            &slice_fold(base),
            label,
        );
        assert_eq!(v.len(), Some(len), "{label}");
        if label.starts_with("named") {
            let printed = format!("{v}");
            assert!(
                printed.contains("n11") && printed.contains("n47"),
                "{printed}"
            );
        }
        if label.ends_with("from N") {
            assert!(format!("{v}").contains("top"), "{v}");
        }
    }
}

#[test]
fn size_limit_inside_an_atom_union_fails_identically() {
    // 48 atoms of weight 1, all allocated by the union's inserts: the
    // budget runs out in a merge (plain slices, or the first named-closed
    // slice) or in an append (a later named-closed slice).
    let program = Program::srl();
    let limits = |max_value_weight| EvalLimits {
        max_value_weight,
        ..EvalLimits::benchmark()
    };
    for named in [false, true] {
        let inputs = [atom_slices(0..12, named)];
        let expr = slice_fold(empty_set());
        let outcomes = run_expr(&program, limits(48), &["SLICES"], &inputs, &expr);
        assert_tier_identical("budget 48", &outcomes);
        for max in [47, 30, 1] {
            let outcomes = run_expr(&program, limits(max), &["SLICES"], &inputs, &expr);
            let e = assert_error_identical(&format!("budget {max}, named {named}"), &outcomes);
            assert_eq!(e, EvalError::SizeLimitExceeded { limit: max });
        }
    }
}

// ---------------------------------------------------------------------------
// Promotion/demotion edges: the storage decisions flip at exact sizes
// (inline capacity, the bitset length floor, the density spread bound).
// ---------------------------------------------------------------------------

#[test]
fn storage_threshold_edges_agree() {
    let program = Program::srl();
    let cases: Vec<(&str, Vec<u64>)> = vec![
        // Inline capacity edge: 4 stays inline, 5 promotes to sorted ids.
        ("len 3", (0..3).collect()),
        ("len 4", (0..4).collect()),
        ("len 5", (0..5).collect()),
        // Bitset length floor: 63 stays sorted ids, 64 may densify.
        ("len 63", (0..63).collect()),
        ("len 64", (0..64).collect()),
        ("len 65", (0..65).collect()),
        // Density spread bound at len 64: ids to 1008 are dense enough,
        // ids to 1071 are not.
        ("spread dense", (0..64).map(|i| i * 16).collect()),
        ("spread sparse", (0..64).map(|i| i * 17).collect()),
    ];
    for (label, ids) in cases {
        let inputs = [
            atom_set(ids.iter().copied()),
            atom_set(ids.iter().map(|i| i + 1)),
        ];
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            (
                "member",
                member(atom(ids.last().copied().unwrap_or(0)), var("A")),
            ),
        ] {
            assert_expr_identical(
                &program,
                &["A", "B"],
                &inputs,
                &expr,
                &format!("{label} {op}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: random id sets across densities, the full matrix,
// cross-checked against native sets.
// ---------------------------------------------------------------------------

/// Up to 80 ids drawn dense (small universe) or sparse (wide universe),
/// so generated sets land on every storage tier.
fn id_set(g: &mut Gen) -> Vec<u64> {
    let len = g.below(80);
    let universe = if g.below(2) == 0 { 128 } else { 100_000 };
    (0..len).map(|_| g.below(universe)).collect()
}

#[test]
fn random_id_set_algebra_is_tier_invariant() {
    let mut g = Gen::new(11);
    for case in 0..24 {
        let a = id_set(&mut g);
        let b = id_set(&mut g);
        let probe = g.below(128);
        assert_algebra_matches_native(case, &a, &b, &probe, |&i| Value::atom(i));
    }
}
