"""Workloads of the wittkit benchmark and the theory oracle for each query.

A query is either a CLI subcommand, run in-process as
``wittkit.cli.main([..., "--json"])``, or a direct call to
``verify_localcase_factorization``.  Every query carries the exit code and
the ``--json`` fields that theory predicts, with the reason.  Every bound
used is a stable bound, so the theory answer applies.

This module does not import wittkit at import time: ``set_up`` does, so that
a fresh interpreter can time the import.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    """One user query and the answer theory gives for it."""

    qid: str
    argv: tuple
    expect: dict
    why: str
    expect_exit: int = 0
    # kind "cli" runs argv through wittkit.cli.main; "localcase" calls
    # verify_localcase_factorization(ring, J, epsilon, bound) from argv
    kind: str = "cli"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    queries: tuple


# -- theory answers ----------------------------------------------------------

WHY_FQ_3MOD4 = ("W(F_q) is Z/4 for q = 3 mod 4; symmetric forms over a finite "
                "field are classified by rank and discriminant, two classes per rank")
WHY_FQ_1MOD4 = ("W(F_q) is Z/2 x Z/2 for q = 1 mod 4; two classes per rank "
                "(rank and discriminant)")
WHY_SKEW = ("W^-(F, id) is 0: alternating forms exist only in even rank, one class "
            "per rank, all hyperbolic")
WHY_HERM = ("hermitian W(F9/F3) is Z/2 for both signs: one class per rank, the "
            "rank mod 2 is the invariant; a skew unit turns -1 forms into +1 forms")
WHY_SWAP = ("W(F3 x F3, swap) is 0: a nondegenerate form needs equal ranks on both "
            "factors and is then hyperbolic, one class per even length")


def _witt(ring, eps, bound, group, factors, classes, why):
    return Query(
        qid=f"witt {ring} {eps} {bound}",
        argv=("witt", ring, eps, str(bound)),
        expect={"group": group, "factors": factors, "stable": True,
                "bound": bound, "epsilon": int(eps), "classes": classes},
        why=why,
    )


def _devissage(ring, eps, bound, source, target, why):
    return Query(
        qid=f"devissage-check {ring} {eps} {bound}",
        argv=("devissage-check", ring, eps, str(bound)),
        expect={"verdict": "ISOMORPHISM (stable)", "isomorphism": True,
                "stable": True, "source": source, "target": target,
                "bound": bound, "epsilon": int(eps)},
        why="devissage: transfer along R -> k is an isomorphism at a stable bound; " + why,
    )


FIELDS_ANISO = Workload(
    name="fields-aniso",
    why=("anisotropic classes exist: class dedup compares many distinct classes "
         "(fingerprints, norm tables) and is_metabolic must exhaust its search"),
    queries=(
        _witt("GF(3), sigma=id", "+1", 6, "Z/4", [4], 12, WHY_FQ_3MOD4),
        _witt("GF(5), sigma=id", "+1", 4, "Z/2 x Z/2", [2, 2], 8, WHY_FQ_1MOD4),
        _witt("GF(7), sigma=id", "+1", 4, "Z/4", [4], 8, WHY_FQ_3MOD4),
        _witt("GF(9), sigma=id", "+1", 4, "Z/2 x Z/2", [2, 2], 8, WHY_FQ_1MOD4),
        _witt("GF(9), sigma=frobenius", "+1", 4, "Z/2", [2], 4, WHY_HERM),
    ),
)

FIELDS_SPLIT = Workload(
    name="fields-split",
    why=("every form is metabolic or nearly so: is_metabolic must find a "
         "Lagrangian, class lists are short and Smith forms trivial"),
    queries=(
        _witt("GF(3), sigma=id", "-1", 6, "0", [], 3, WHY_SKEW),
        _witt("GF(7), sigma=id", "-1", 4, "0", [], 2, WHY_SKEW),
        _witt("GF(9), sigma=frobenius", "-1", 4, "Z/2", [2], 4, WHY_HERM),
        _witt("GF(3)xGF(3), sigma=swap", "+1", 8, "0", [], 4, WHY_SWAP),
        _witt("GF(3)xGF(3), sigma=swap", "-1", 7, "0", [], 3, WHY_SWAP),
    ),
)

# the short queries cover the remaining CLI subcommands; they are shared by
# nilpotent-devissage and the harness self-test
COVERAGE = (
    Query(
        qid="transfer F3 -> F9 frobenius [[1]]",
        argv=("transfer", "GF(3) -> GF(9)/GF(3), sigma=frobenius", "[[1]]"),
        expect={"gram": [["1", "0"], ["0", "1"]], "factors": ["0", "0"],
                "nondegenerate": True, "epsilon": 1},
        why=("the transfer of <1> along F9/F3 is the norm form x^2 + y^2, "
             "which is <1, 1> in the basis 1, i"),
    ),
    Query(
        qid="transfer F3[t]/(t^3) -> F3 [[1,0],[0,-1]]",
        argv=("transfer", "GF(3)[t]/(t^3) -> GF(3), sigma=id", "[[1,0],[0,-1]]"),
        expect={"gram": [["t^2", "0"], ["0", "2*t^2"]], "factors": ["t", "t"],
                "nondegenerate": True, "epsilon": 1},
        why=("pi^flat R for R -> R/(t) is the socle (t^2), so <1, -1> on k^2 "
             "goes to <t^2, -t^2> on (R/(t))^2, nondegenerate"),
    ),
    Query(
        qid="diagonalize QQ(i) conj hyperbolic",
        argv=("diagonalize", "QQ(i), sigma=conj", "[[0,1],[1,0]]"),
        expect={"entries": ["1", "-1"], "epsilon": 1},
        why="the hermitian hyperbolic plane over Q(i) is diag(1, -1)",
    ),
    Query(
        qid="koszul-sign QQ[X,Y] [X-Y] swap",
        argv=("koszul-sign", "QQ[X,Y]", "[X-Y]", "swap"),
        expect={"u": "-1", "augmentation_square": True, "chain_map": True,
                "beta_square": True},
        why=("the swap sends X-Y to -(X-Y), so the conormal sign is -1 "
             "(pinned by tests/test_koszul.py)"),
    ),
)

NILPOTENT_DEVISSAGE = Workload(
    name="nilpotent-devissage",
    why=("the paper's headline computations over non-field rings: the bound+1 "
         "Smith check, quotient-ring arithmetic, sigma through RingMap, duals"),
    queries=(
        _devissage("GF(3)[t]/(t^3), sigma=id", "+1", 4, "Z/4 (stable)", "Z/4 (stable)",
                   "the socle t^2 is fixed, so k = F3 carries symmetric forms, W = Z/4"),
        _devissage("GF(3)[t]/(t^2), sigma=t->-t", "-1", 4, "Z/4 (stable)", "Z/4 (stable)",
                   "sigma(t) = -t twists the socle coefficient by -1, so eps = -1 "
                   "over R meets symmetric forms over F3, W = Z/4"),
        _devissage("GF(9)[t]/(t^2), sigma=t->-t", "+1", 2, "0 (stable)", "0 (stable)",
                   "the socle twist turns eps = +1 into alternating forms over "
                   "(F9, id), and W^- of a field with trivial involution is 0"),
        Query(
            qid="localcase GF(3)[t]/(t^3) J=(t^2) +1 4",
            kind="localcase",
            argv=("GF(3)[t]/(t^3), sigma=id", "t^2", "+1", "4"),
            expect={"diagram_commutes": True, "diagram_checked": 8,
                    "p_star": "ISOMORPHISM (stable)"},
            why=("R -> R/J -> k factors the devissage map, so both routes agree on "
                 "all 8 classes of W(F3) up to length 4 and p_* is an isomorphism"),
        ),
    ) + COVERAGE,
)

# not a benchmark workload: the tiny query list the harness self-test runs
SMOKE = Workload(
    name="smoke",
    why="harness self-test: one query per CLI subcommand, each well under a second",
    queries=COVERAGE + (
        _witt("GF(3), sigma=id", "+1", 3, "Z/4", [4], 6, WHY_FQ_3MOD4),
    ),
)

WORKLOADS = {w.name: w for w in (FIELDS_ANISO, FIELDS_SPLIT, NILPOTENT_DEVISSAGE, SMOKE)}


# -- set-up ------------------------------------------------------------------


def set_up(workload):
    """Import wittkit and parse every ring descriptor the workload names:
    the work a user's process does before its first query is ready."""
    from wittkit.parser import (
        parse_element,
        parse_ring,
        parse_ring_with_involution,
        parse_tower,
    )

    parsed = []
    for q in workload.queries:
        if q.kind == "localcase":
            rwi = parse_ring_with_involution(q.argv[0])
            parsed.append((rwi, parse_element(rwi.ring, q.argv[1])))
        elif q.argv[0] == "transfer":
            parsed.append(parse_tower(q.argv[1]))
        elif q.argv[0] == "koszul-sign":
            parsed.append(parse_ring(q.argv[1]))
        else:
            parsed.append(parse_ring_with_involution(q.argv[1]))
    return parsed
