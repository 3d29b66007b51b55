"""Implication of a disjunction of comparison conjunctions.

Theorem 5.1 reduces CQC containment to one logical test:

    A(C1)  =>  OR over containment mappings h of  h(A(C2))

Each disjunct is a conjunction of atomic comparisons.  The implication
holds iff ``A(C1) AND (AND_h NOT h(A(C2)))`` is unsatisfiable; since the
negation of a conjunction is a disjunction of atomic negations (totality
of the order keeps every negation atomic), deciding it is a DNF search:
pick one negated literal from each disjunct and test the resulting
conjunction.  The implication holds iff *every* branch is unsatisfiable.

The search is exponential in the number of disjuncts in the worst case —
exactly the cost profile the paper describes ("the test for satisfaction
of the implication is exponential only in the number of variables / few
containment mappings in practice") — but two prunings keep real cases
fast:

* a branch prefix that is already unsatisfiable kills its whole subtree;
* a disjunct already entailed... rather, a disjunct whose every literal is
  *inconsistent* with the base can be dropped up front, and a disjunct
  fully entailed by the base makes the implication trivially true.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.arith.solver import ComparisonSystem
from repro.datalog.atoms import Comparison

__all__ = ["implies_disjunction", "implies", "equivalent_systems"]


def implies(base: Sequence[Comparison], conclusion: Sequence[Comparison]) -> bool:
    """Does the conjunction *base* imply the conjunction *conclusion*?"""
    system = ComparisonSystem(base)
    return system.entails_all(conclusion)


def implies_disjunction(
    base: Sequence[Comparison],
    disjuncts: Sequence[Sequence[Comparison]],
    prune: bool = True,
) -> bool:
    """Decide ``AND(base) => OR_i AND(disjuncts[i])``.

    With an empty disjunction the implication holds iff *base* is
    unsatisfiable (the paper's case "A(C1) is always false").

    ``prune=False`` disables the dead-subtree cut and the entailed-
    disjunct fast path, expanding the full DNF — kept only for the
    ablation benchmark that measures what the prunings buy.
    """
    system = ComparisonSystem(base)
    if not system.is_satisfiable():
        return True

    if prune:
        # Fast path: some disjunct is outright entailed by the base.
        for disjunct in disjuncts:
            if system.entails_all(disjunct):
                return True

    # General path: every DNF branch of the negation must be unsat.
    # Branch literals are the negations of the disjunct members.
    negated: list[list[Comparison]] = [
        [comparison.negated for comparison in disjunct] for disjunct in disjuncts
    ]
    # Order disjuncts by ascending width to fail fast.
    negated.sort(key=len)

    return next(_open_branches(system, negated, prune), None) is None


def _open_branches(
    system: ComparisonSystem,
    negated: Sequence[Sequence[Comparison]],
    prune: bool = True,
) -> Iterator[ComparisonSystem]:
    """Yield every satisfiable full branch of the DNF search, depth first.

    A branch extends *system* with one literal of each ``negated[i]``, in
    index order, each step on a fresh copy.  With *prune*, a satisfiable
    check at every prefix cuts its dead subtree.  The search keeps an
    explicit stack of literal iterators instead of recursing, so the
    depth (one level per disjunct) is not bounded by the interpreter's
    recursion limit.
    """
    if not negated:
        if system.is_satisfiable():
            yield system
        return
    systems = [system]
    choices = [iter(negated[0])]
    while choices:
        literal = next(choices[-1], None)
        if literal is None:
            choices.pop()
            systems.pop()
            continue
        extended = systems[-1].copy().add(literal)
        depth = len(choices)
        if depth == len(negated):
            if extended.is_satisfiable():
                yield extended
        elif not prune or extended.is_satisfiable():
            systems.append(extended)
            choices.append(iter(negated[depth]))


def refuting_model(
    base: Sequence[Comparison],
    disjuncts: Sequence[Sequence[Comparison]],
):
    """A variable assignment witnessing that the implication FAILS, or
    ``None`` when ``AND(base) => OR_i AND(disjuncts[i])`` holds.

    The assignment satisfies *base* and falsifies every disjunct — it is
    the instantiation ``g`` of the only-if direction of Theorem 5.1's
    proof, from which the completeness witnesses (the "some state of the
    information not accessed by the test" of Section 2) are built.
    """
    system = ComparisonSystem(base)
    if not system.is_satisfiable():
        return None
    negated = [
        [comparison.negated for comparison in disjunct] for disjunct in disjuncts
    ]
    negated.sort(key=len)

    branch = next(_open_branches(system, negated), None)
    return None if branch is None else branch.model()


def equivalent_systems(a: Sequence[Comparison], b: Sequence[Comparison]) -> bool:
    """True when the two conjunctions have the same models."""
    return implies(a, b) and implies(b, a)
