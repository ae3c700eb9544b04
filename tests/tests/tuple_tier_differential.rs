//! Differential test: set storage under relational (tuple-set) inputs.
//!
//! Tuple sets live on the generic stores (`Small`/`Spilled`), but the
//! relational workloads fold them into, project them onto and probe them
//! against columnar atom sets (`Atoms`/`Bits`), so their evaluations cross
//! stores constantly. Representation must stay invisible here too: for
//! every program, identical `Value` results, identical *printed* results
//! (named-component copies included), and byte-identical `EvalStats`
//! whether the columnar tier is enabled or disabled, on every backend
//! (tree-walk, sequential VM, pooled VM at 2 and 4 threads). This suite
//! drives the full 2×4 matrix over the E1–E9 srl-bench workloads through
//! their *relational* lens — pair-edge closures (E5), table joins (E9),
//! product relations — and stresses the shape changes the adaptive
//! storage decisions hinge on (arity changes mid-fold, non-atom
//! components, named duplicates, the inline-capacity threshold).
//!
//! The atom-set matrix lives in `set_tier_differential.rs`; both run on
//! the shared `tier_harness`, which also pins the retired `rows`
//! engagement slot at 0 on every configuration.

mod tier_harness;

use std::ops::Range;

use srl_core::dsl::*;
use srl_core::{Dialect, Env, EvalError, EvalLimits, Program, Value};
use srl_integration_tests::atom_set;
use srl_stdlib::derived::{cartesian, difference, intersection, member, union};
use tier_harness::{
    assert_algebra_matches_native, assert_error_identical, assert_expr_identical,
    assert_tier_identical, pair_set, run_expr, run_matrix, slice_fold, Gen,
};

// ---------------------------------------------------------------------------
// The srl-bench workloads, E1–E9, through their relational lens: the
// storage must be unobservable in values, display, and stats, and the
// columnar tier must provably engage where the relational folds meet
// atom sets. The `_rows` names date from the retired rows store.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees_and_engages_rows() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    // The alternating-path edges are pair tuples on the generic stores;
    // the node sets the traversal accumulates are atom sets, which engage
    // the columnar tier on every backend.
    let program = apath_program();
    let graph = AlternatingGraph::random(6, 0.25, 13);
    let inputs = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::APATH, vals)
    });
    let (_, on_min) = assert_tier_identical("E1 APATH", &outcomes);
    assert!(on_min > 0, "E1: tier did not engage on some backend");
}

#[test]
fn e2_powerset_of_a_relation_agrees() {
    use srl_stdlib::blowup::{names, powerset_program};

    // Powerset over a *pair-tuple* ground set: the subsets are tuple sets
    // that spill as they cross the inline capacity.
    let program = powerset_program();
    let inputs = [pair_set((0..5u64).map(|i| (i, i + 1)))];
    let outcomes = run_matrix(&program, EvalLimits::default(), &inputs, |ev, vals| {
        ev.call(names::POWERSET, vals)
    });
    let (v, _) = assert_tier_identical("E2 powerset(pairs)", &outcomes);
    assert_eq!(v.len(), Some(1usize << 5));
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let program = arithmetic_program();
    let d = domain(16);
    let inputs = vec![d, Value::atom(5), Value::atom(4)];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::ADD, vals)
    });
    assert_tier_identical("E3 add", &outcomes);
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    // Permutations are tuple relations: the iterated product is the E4
    // tuple-accumulating workload.
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
fn e5_tc_dtc_agree_and_engage_rows() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    // The E5 closures accumulate the pair *relation* on the generic
    // stores while folding over the vertex set, an atom set: engagement
    // must hold on every backend.
    let program = Program::new(Dialect::full());
    for n in [6usize, 14] {
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let inputs = [g.vertices_value(), g.edges_value()];
        for (label, expr) in [
            ("E5 TC", queries::tc_query()),
            ("E5 DTC", queries::dtc_query()),
        ] {
            let (_, on_min) = assert_expr_identical(
                &program,
                &["D", "E"],
                &inputs,
                &expr,
                &format!("{label} n={n}"),
            );
            if n == 14 {
                assert!(
                    on_min > 0,
                    "{label} n={n}: tier did not engage on some backend"
                );
            }
        }
    }
}

#[test]
fn e6_lrl_doubling_agrees() {
    use srl_stdlib::blowup::{lrl_doubling_program, names};

    let program = lrl_doubling_program();
    let inputs = [Value::list((0..5u64).map(Value::atom))];
    let outcomes = run_matrix(&program, EvalLimits::default(), &inputs, |ev, vals| {
        ev.call(names::DOUBLING, vals)
    });
    assert_tier_identical("E6 LRL doubling", &outcomes);
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    // TM configurations are tuples threaded through the simulation folds.
    let program = compile(&even_parity());
    let n = 12usize;
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
fn e8_order_dependence_probes_agree_on_tuples() {
    use srl_stdlib::hom;

    // The E8 hom probes over *tuple* ground sets: scans and keep-last
    // folds must observe exactly the same traversal order either way.
    let program = Program::srl();
    let inputs = [
        pair_set([(0, 1), (2, 3), (4, 5), (6, 7)]),
        pair_set([(6, 7)]),
    ];
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::purple_first(var("S"), var("P")),
        "E8 purple_first(pairs)",
    );
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::even(var("S")),
        "E8 even(pairs)",
    );
}

#[test]
fn e9_relational_queries_agree_and_engage_rows() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

    // The E9 tables are fixed-arity atom-tuple relations; the join
    // traverses one and produces another. Both stay on the generic
    // stores, so the join must agree without engaging a columnar one.
    let program = Program::new(Dialect::full());
    let db = CompanyDatabase::generate(32, 8, 4, 47);
    let inputs = [db.employees_value(), db.departments_value()];
    let (_, on_min) = assert_expr_identical(
        &program,
        &["EMP", "DEPT"],
        &inputs,
        &queries::company_join(),
        "E9 join",
    );
    assert_eq!(
        on_min, 0,
        "E9 join: a tuple relation engaged a columnar store"
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
fn product_relation_agrees_and_engages_rows() {
    use srl_bench::queries;

    // A × B: every accumulated element is a plain pair, built by folding
    // over two atom sets that engage the columnar tier.
    let program = Program::new(Dialect::full());
    let inputs = [atom_set(0..12u64), atom_set(0..10u64)];
    let (v, on_min) = assert_expr_identical(
        &program,
        &["A", "B"],
        &inputs,
        &queries::product_relation(),
        "A × B",
    );
    assert_eq!(v.len(), Some(120));
    assert!(on_min > 0, "product: tier did not engage on some backend");
}

// ---------------------------------------------------------------------------
// Mixed-shape adversaries: shape changes and cross-store merges
// mid-evaluation.
// ---------------------------------------------------------------------------

#[test]
fn arity_change_mid_fold_agrees() {
    // The combiner inserts the pair for members of T and its first
    // component (a bare atom) otherwise: the accumulator alternates
    // between pairs and atoms. Identity must survive on every backend.
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
                insert(sel(sel(var("p"), 1), 1), var("acc")),
            ),
        ),
        empty_set(),
        var("T"),
    );
    let pairs = pair_set((0..48u64).map(|i| (i, i + 1)));
    let members = pair_set((0..24u64).map(|i| (2 * i, 2 * i + 1)));
    let inputs = [pairs, members];
    assert_expr_identical(&program, &["S", "T"], &inputs, &expr, "arity flip");
}

#[test]
fn widening_tuple_contents_agree() {
    // Mixed-arity unions, nat-component tuples, and tuple∪atom mixes
    // merge shapes within the generic stores and across the columnar one.
    let program = Program::srl();
    let unary = Value::set((0..20u64).map(|i| Value::tuple([Value::atom(i)])));
    let pairs = pair_set((0..20u64).map(|i| (i, i)));
    let with_nats = Value::set((0..20u64).map(|i| Value::tuple([Value::atom(i), Value::nat(i)])));
    for (label, a, b) in [
        ("unary ∪ pairs", unary.clone(), pairs.clone()),
        ("pairs ∪ unary", pairs.clone(), unary.clone()),
        ("pairs ∪ nats", pairs.clone(), with_nats.clone()),
        ("pairs ∪ atoms", pairs.clone(), atom_set(0..20u64)),
        ("pairs ∖ nats", pairs.clone(), with_nats),
    ] {
        let inputs = [a, b];
        let expr = if label.contains('∖') {
            difference(var("A"), var("B"))
        } else {
            union(var("A"), var("B"))
        };
        assert_expr_identical(&program, &["A", "B"], &inputs, &expr, label);
    }
}

#[test]
fn named_component_first_wins_survives_the_tier() {
    // Tuples with named components are equal to their plain-rank twins
    // but display differently; first-wins must keep exactly the same copy
    // whichever store the target set is on (a named duplicate must not
    // replace its plain copy).
    let program = Program::srl();
    let named = Value::set(
        (0..15u64)
            .map(|i| Value::tuple([Value::named_atom(i, format!("v{i}")), Value::atom(i + 1)])),
    );
    let plain = pair_set((0..30u64).map(|i| (i, i + 1)));
    let inputs = [plain, named];
    // `union(x, y)` folds over `x` inserting into `y`: the base set's
    // copies arrive first and win. With N as base the named copies stay…
    let (v, _) = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("A"), var("N")),
        "fold A into N",
    );
    assert_eq!(v.len(), Some(30));
    assert!(format!("{v}").contains("v0"), "{v}");
    // …and with A as base the plain ranks stay: a named duplicate
    // answered `false`.
    let (v, _) = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("N"), var("A")),
        "fold N into A",
    );
    assert_eq!(v.len(), Some(30));
    assert!(!format!("{v}").contains("v0"), "{v}");
}

// ---------------------------------------------------------------------------
// Storage edges: tuple sets spill at the inline capacity.
// ---------------------------------------------------------------------------

#[test]
fn tuple_storage_threshold_edges_agree() {
    let program = Program::srl();
    let cases: Vec<(&str, Vec<(u64, u64)>)> = vec![
        // Inline capacity edge: 4 stays inline, 5 spills.
        ("len 3", (0..3).map(|i| (i, i + 1)).collect()),
        ("len 4", (0..4).map(|i| (i, i + 1)).collect()),
        ("len 5", (0..5).map(|i| (i, i + 1)).collect()),
        // Shared first components stress the lexicographic order.
        ("shared prefix", (0..40).map(|i| (i / 8, i)).collect()),
        // Wide arity-3-like spread via big second components.
        ("wide ids", (0..40).map(|i| (i, i * 1_000)).collect()),
    ];
    for (label, ps) in cases {
        let inputs = [
            pair_set(ps.iter().copied()),
            pair_set(ps.iter().map(|&(i, j)| (i, j + 1))),
        ];
        let probe = ps.last().copied().unwrap_or((0, 0));
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            (
                "member",
                member(tuple([atom(probe.0), atom(probe.1)]), var("A")),
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
// Building a relation slice by slice: the fused union appends a slice that
// sorts wholly after its uniquely held accumulator in place and merges
// every other slice. Neither path may be observable.
// ---------------------------------------------------------------------------

/// The set of slices `{pair(k, j) | j ∈ cols}` for `k ∈ rows`.
fn slices(rows: Range<u64>, cols: Range<u64>, pair: impl Fn(u64, u64) -> (u64, u64)) -> Value {
    Value::set(rows.map(|k| pair_set(cols.clone().map(|j| pair(k, j)))))
}

#[test]
fn ascending_slices_append_and_agree() {
    let program = Program::srl();
    // Row-major slices: each sorts wholly after everything before it. From
    // the environment-bound base R (shared, and overlapping the first
    // slice) the first slice merges and the rest append.
    let inputs = [
        slices(0..12, 0..8, |k, j| (k, j)),
        pair_set((0..6u64).map(|j| (0, 2 * j))),
    ];
    for (label, base, len) in [
        ("row-major from emptyset", empty_set(), 96),
        ("row-major from R", var("R"), 98),
    ] {
        let (v, _) = assert_expr_identical(
            &program,
            &["SLICES", "R"],
            &inputs,
            &slice_fold(base),
            label,
        );
        assert_eq!(v.len(), Some(len), "{label}");
    }
    // The stdlib cartesian product: its combiner is this fold.
    let inputs = [atom_set(0..24u64), atom_set(0..9u64)];
    let (v, _) = assert_expr_identical(
        &program,
        &["A", "B"],
        &inputs,
        &cartesian(var("A"), var("B")),
        "cartesian A × B",
    );
    assert_eq!(v.len(), Some(24 * 9));
}

#[test]
fn interleaved_slices_merge_and_agree() {
    let program = Program::srl();
    // Column-major slices interleave with the accumulator; "touching"
    // slices open with a tuple equal to the accumulator's last one.
    for (label, slices, len) in [
        ("column-major", slices(0..12, 0..8, |k, j| (j, k)), 96),
        (
            "touching",
            Value::set((0..12u64).map(|k| pair_set((0..8).map(|j| (k, j)).chain([(k + 1, 0)])))),
            97,
        ),
    ] {
        let (v, _) = assert_expr_identical(
            &program,
            &["SLICES"],
            &[slices],
            &slice_fold(empty_set()),
            label,
        );
        assert_eq!(v.len(), Some(len), "{label}");
    }
}

/// Slices `k = 0..6` of `[k, 0..=7]`; from the second on, each also holds
/// a twin of the previous slice's last tuple `[k-1, 7]`, which is its
/// least element. With `named_in_acc` the slices end in the named copy
/// `[vK, 7]` and the twins are plain; otherwise the other way round.
fn twin_slices(named_in_acc: bool) -> Value {
    let pair = |k: u64, j: u64, named: bool| {
        let first = if named {
            Value::named_atom(k, format!("v{k}"))
        } else {
            Value::atom(k)
        };
        Value::tuple([first, Value::atom(j)])
    };
    Value::set((0..6u64).map(|k| {
        let body = (0..8).map(|j| pair(k, j, named_in_acc && j == 7));
        let twin = (k > 0).then(|| pair(k - 1, 7, !named_in_acc));
        Value::set(body.chain(twin))
    }))
}

#[test]
fn named_twin_at_a_slice_boundary_keeps_the_accumulator_copy() {
    // The twin equals the accumulator's last tuple, so the slice cannot
    // append; first-wins must keep the accumulator's copy, as printed.
    let program = Program::srl();
    for named_in_acc in [true, false] {
        let label = format!("twins, named in accumulator: {named_in_acc}");
        let (v, _) = assert_expr_identical(
            &program,
            &["SLICES"],
            &[twin_slices(named_in_acc)],
            &slice_fold(empty_set()),
            &label,
        );
        assert_eq!(v.len(), Some(48), "{label}");
        let printed = format!("{v}");
        if named_in_acc {
            assert!(
                (0..6).all(|k| printed.contains(&format!("[v{k}#{k}, d7]"))),
                "{printed}"
            );
        } else {
            assert!(!printed.contains('v'), "{printed}");
        }
    }
}

#[test]
fn size_limit_inside_the_union_fails_identically() {
    // Only the union's inserts allocate here: 60 pairs of weight 3. The
    // budget runs out in the first slice (a merge into the empty set) or
    // in a later one (an append).
    let program = Program::srl();
    let inputs = [slices(0..10, 0..6, |k, j| (k, j))];
    let expr = slice_fold(empty_set());
    let limits = |max_value_weight| EvalLimits {
        max_value_weight,
        ..EvalLimits::benchmark()
    };
    let outcomes = run_expr(&program, limits(180), &["SLICES"], &inputs, &expr);
    let (v, _) = assert_tier_identical("budget 180", &outcomes);
    assert_eq!(v.len(), Some(60));
    for max in [179, 100, 2] {
        let outcomes = run_expr(&program, limits(max), &["SLICES"], &inputs, &expr);
        let e = assert_error_identical(&format!("budget {max}"), &outcomes);
        assert_eq!(e, EvalError::SizeLimitExceeded { limit: max });
    }
}

#[test]
fn environment_bound_accumulator_is_never_mutated() {
    // The fold starts from the binding R itself, and R sorts wholly before
    // the slices: only R being shared with the environment keeps the
    // fused union from appending into it. Two runs on one evaluator must
    // agree and leave R as bound.
    let program = Program::srl();
    let bound = || pair_set((0..6u64).map(|j| (0, j)));
    let inputs = [bound(), slices(1..9, 0..6, |k, j| (k, j))];
    let expr = slice_fold(var("R"));
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        let env = Env::new()
            .bind("R", vals[0].clone())
            .bind("SLICES", vals[1].clone());
        let first = ev.eval(&expr, &env)?;
        ev.reset_stats();
        let second = ev.eval(&expr, &env)?;
        assert_eq!(format!("{first}"), format!("{second}"));
        assert_eq!(first, second);
        assert_eq!(env.get("R"), Some(&bound()));
        assert_eq!(vals[0], bound());
        Ok(second)
    });
    let (v, _) = assert_tier_identical("fold from R, run twice", &outcomes);
    assert_eq!(v.len(), Some(54));
}

// ---------------------------------------------------------------------------
// Property tests: random tuple sets across arities, the full matrix,
// cross-checked against native sets.
// ---------------------------------------------------------------------------

/// Up to 60 tuples of the given arity, drawn dense (small universe) or
/// sparse (wide universe).
fn tuple_set(g: &mut Gen, arity: usize) -> Vec<Vec<u64>> {
    let len = g.below(60);
    let universe = if g.below(2) == 0 { 16 } else { 100_000 };
    (0..len)
        .map(|_| (0..arity).map(|_| g.below(universe)).collect())
        .collect()
}

#[test]
fn random_tuple_set_algebra_is_tier_invariant() {
    let mut g = Gen::new(29);
    for case in 0..16 {
        let arity = 1 + (case % 3);
        let a = tuple_set(&mut g, arity);
        let b = tuple_set(&mut g, arity);
        let probe: Vec<u64> = (0..arity).map(|_| g.below(16)).collect();
        assert_algebra_matches_native(case, &a, &b, &probe, |t| {
            Value::tuple(t.iter().map(|&i| Value::atom(i)))
        });
    }
}
