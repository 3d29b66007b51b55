"""Tests for implication of comparison disjunctions (the Theorem 5.1 core)."""

import itertools
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.arith.implication import (
    equivalent_systems,
    implies,
    implies_disjunction,
    refuting_model,
)
from repro.arith.order import comparison_holds
from repro.datalog.atoms import Comparison, ComparisonOp
from repro.datalog.terms import Constant, Variable

S, T, U, V, X, Y, Z = (Variable(n) for n in "STUVXYZ")


def cmp(left, op, right):
    return Comparison(left, op, right)


class TestImplies:
    def test_reflexive(self):
        base = [cmp(X, ComparisonOp.LT, Y)]
        assert implies(base, base)

    def test_weakening(self):
        assert implies([cmp(X, ComparisonOp.LT, Y)], [cmp(X, ComparisonOp.LE, Y)])
        assert not implies([cmp(X, ComparisonOp.LE, Y)], [cmp(X, ComparisonOp.LT, Y)])

    def test_from_false_base(self):
        assert implies([cmp(X, ComparisonOp.LT, X)], [cmp(Y, ComparisonOp.EQ, Z)])

    def test_equivalence(self):
        assert equivalent_systems(
            [cmp(X, ComparisonOp.EQ, Y)],
            [cmp(X, ComparisonOp.LE, Y), cmp(Y, ComparisonOp.LE, X)],
        )


class TestImpliesDisjunction:
    def test_example_51(self):
        """The paper's worked implication: U=T & V=S => U<=V or S<=T."""
        base = [cmp(U, ComparisonOp.EQ, T), cmp(V, ComparisonOp.EQ, S)]
        assert implies_disjunction(
            base, [[cmp(U, ComparisonOp.LE, V)], [cmp(S, ComparisonOp.LE, T)]]
        )

    def test_example_51_single_mapping_insufficient(self):
        """Ullman's Example 14.7: either single disjunct alone fails —
        exactly why Theorem 5.1 needs ALL containment mappings."""
        base = [cmp(U, ComparisonOp.EQ, T), cmp(V, ComparisonOp.EQ, S)]
        assert not implies_disjunction(base, [[cmp(U, ComparisonOp.LE, V)]])
        assert not implies_disjunction(base, [[cmp(S, ComparisonOp.LE, T)]])

    def test_totality_tautology(self):
        # empty base: U <= V or V <= U is a tautology of total orders.
        assert implies_disjunction(
            [], [[cmp(U, ComparisonOp.LE, V)], [cmp(V, ComparisonOp.LE, U)]]
        )

    def test_empty_disjunction_iff_unsat_base(self):
        assert not implies_disjunction([cmp(X, ComparisonOp.LT, Y)], [])
        assert implies_disjunction([cmp(X, ComparisonOp.LT, X)], [])

    def test_interval_union_covering(self):
        """Example 5.3 in pure arithmetic: 4<=Z<=8 => (3<=Z<=6) or (5<=Z<=10)."""
        base = [
            cmp(Constant(4), ComparisonOp.LE, Z),
            cmp(Z, ComparisonOp.LE, Constant(8)),
        ]
        covering = [
            [
                cmp(Constant(3), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LE, Constant(6)),
            ],
            [
                cmp(Constant(5), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LE, Constant(10)),
            ],
        ]
        assert implies_disjunction(base, covering)
        # Neither interval alone covers [4, 8].
        assert not implies_disjunction(base, covering[:1])
        assert not implies_disjunction(base, covering[1:])

    def test_gap_detected(self):
        """[4,8] not covered by [3,5] u [6,10]: the gap (5,6) leaks."""
        base = [
            cmp(Constant(4), ComparisonOp.LE, Z),
            cmp(Z, ComparisonOp.LE, Constant(8)),
        ]
        gapped = [
            [
                cmp(Constant(3), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LE, Constant(5)),
            ],
            [
                cmp(Constant(6), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LE, Constant(10)),
            ],
        ]
        assert not implies_disjunction(base, gapped)

    def test_open_endpoint_gap(self):
        """[4,8] vs [3,6) u [6,10]: the point 6 is covered; (3,6) u (6,10]
        misses it."""
        base = [
            cmp(Constant(4), ComparisonOp.LE, Z),
            cmp(Z, ComparisonOp.LE, Constant(8)),
        ]
        closed_at_six = [
            [
                cmp(Constant(3), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LT, Constant(6)),
            ],
            [
                cmp(Constant(6), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LE, Constant(10)),
            ],
        ]
        assert implies_disjunction(base, closed_at_six)
        open_at_six = [
            [
                cmp(Constant(3), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LT, Constant(6)),
            ],
            [
                cmp(Constant(6), ComparisonOp.LT, Z),
                cmp(Z, ComparisonOp.LE, Constant(10)),
            ],
        ]
        assert not implies_disjunction(base, open_at_six)


class TestRefutingModel:
    def test_none_when_implication_holds(self):
        base = [cmp(X, ComparisonOp.LT, Y)]
        assert refuting_model(base, [[cmp(X, ComparisonOp.LE, Y)]]) is None

    def test_model_witnesses_failure(self):
        base = [
            cmp(Constant(4), ComparisonOp.LE, Z),
            cmp(Z, ComparisonOp.LE, Constant(8)),
        ]
        disjuncts = [
            [
                cmp(Constant(3), ComparisonOp.LE, Z),
                cmp(Z, ComparisonOp.LE, Constant(6)),
            ]
        ]
        model = refuting_model(base, disjuncts)
        assert model is not None
        value = model[Z]
        assert comparison_holds(ComparisonOp.LE, 4, value)
        assert comparison_holds(ComparisonOp.LE, value, 8)
        # And the disjunct fails: value must exceed 6.
        assert comparison_holds(ComparisonOp.GT, value, 6)

    def test_none_for_unsat_base(self):
        assert refuting_model([cmp(X, ComparisonOp.LT, X)], []) is None


class TestDeepDisjunctions:
    """The DNF search is one level per disjunct; it must not be bounded
    by the interpreter's recursion limit (a containment test against a
    large local relation builds one disjunct per mapping)."""

    WIDTH = 80

    def disjuncts(self):
        return [
            [cmp(Variable(f"X{i}"), ComparisonOp.LT, Variable(f"Y{i}"))]
            for i in range(self.WIDTH)
        ]

    def run_shallow(self, fn, *args):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            return fn(*args)
        finally:
            sys.setrecursionlimit(old)

    def test_implies_disjunction_past_recursion_limit(self):
        assert self.run_shallow(implies_disjunction, [], self.disjuncts()) is False

    def test_refuting_model_past_recursion_limit(self):
        model = self.run_shallow(refuting_model, [], self.disjuncts())
        assert model is not None
        for i in range(self.WIDTH):
            assert comparison_holds(
                ComparisonOp.GE, model[Variable(f"X{i}")], model[Variable(f"Y{i}")]
            )


VARS = [X, Y, Z]
TERMS = VARS + [Constant(0), Constant(1)]
CMP = st.builds(
    Comparison,
    st.sampled_from(TERMS),
    st.sampled_from(list(ComparisonOp)),
    st.sampled_from(TERMS),
)


def brute_force_implication(base, disjuncts, grid):
    """Check the implication over a value grid (sound refuter only)."""
    for combo in itertools.product(grid, repeat=len(VARS)):
        assignment = dict(zip(VARS, combo))

        def val(term):
            return assignment[term] if isinstance(term, Variable) else term.value

        if not all(comparison_holds(c.op, val(c.left), val(c.right)) for c in base):
            continue
        if not any(
            all(comparison_holds(c.op, val(c.left), val(c.right)) for c in d)
            for d in disjuncts
        ):
            return False, assignment
    return True, None


@settings(max_examples=120, deadline=None)
@given(st.lists(CMP, max_size=4), st.lists(st.lists(CMP, max_size=2), max_size=3))
def test_implication_vs_grid_refuter(base, disjuncts):
    result = implies_disjunction(base, disjuncts)
    grid = [Fraction(n, 2) for n in range(-2, 5)]
    brute_ok, witness = brute_force_implication(base, disjuncts, grid)
    if result:
        assert brute_ok, f"grid found counterexample {witness}"
    else:
        model = refuting_model(base, disjuncts)
        assert model is not None
