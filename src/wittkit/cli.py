"""Batch command line interface.

Subcommands wrap the library verbatim; all output is deterministic
(fixed ordering, no clocks, no ambient randomness) so runs can be
compared byte for byte.  Exit codes: 0 success (for devissage-check,
success means isomorphism at a stable bound), 1 verified-negative or
unsupported input, including a length bound below 1 (InvalidBound), 2
descriptor parse error, 3 enumeration bound exceeded.  A bound whose
largest module (at bound + 1, for the stability check) exceeds the engine
limit exits 3 before any class is enumerated.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .coefficients import standard_coefficient
from .devissage import verify_devissage
from .errors import EnumerationBoundExceeded, ParseError, WittKitError
from .fieldwitt import diagonalize
from .forms import HermitianForm
from .koszul import RegularSequenceData, conormal_sign
from .modules import free_module
from .parser import (
    parse_gram,
    parse_involution,
    parse_ring,
    parse_ring_with_involution,
    parse_sequence,
    parse_tower,
)
from .rings import PolynomialRing, involution
from .transfer import TransferCoefficient, transfer_form
from .wittgroup import witt_group


def _epsilon(text):
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"epsilon must be +1 or -1, not {text!r}")


def _resolve_bound(args):
    if getattr(args, "bound", None) is not None:
        return args.bound
    if getattr(args, "bound_flag", None) is not None:
        return args.bound_flag
    return 4


def _emit(args, human_lines, payload):
    if args.json:
        if args.seed is not None:
            payload["seed"] = args.seed
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _fmt_coefficient_value(v):
    if len(v) == 1:
        return repr(v[0])
    return "(" + ", ".join(repr(x) for x in v) + ")"


def _free_form(rwi, rows, epsilon):
    module = free_module(rwi, len(rows))
    return HermitianForm(standard_coefficient(rwi), module, rows, epsilon)


# -- subcommands -------------------------------------------------------------


def cmd_witt(args):
    rwi = parse_ring_with_involution(args.ring)
    bound = _resolve_bound(args)
    res = witt_group(standard_coefficient(rwi), args.epsilon, bound)
    _emit(args, [res.describe()], {
        "group": res.describe().rsplit(" (", 1)[0],
        "factors": list(res.factors),
        "stable": bool(res.stable),
        "bound": bound,
        "epsilon": args.epsilon,
        "classes": len(res.classes),
    })
    return 0


def _koszul_involution(ring, text):
    # "swap" on a two-variable polynomial ring means exchanging the
    # variables and fixing the generators of the base, which the named form
    # reserves for product rings
    text = text.strip()
    if text == "swap" and isinstance(ring, PolynomialRing) and ring.nv == 2:
        a, b = ring.variables
        images = {g: ring.gen(g) for g in ring.base.generator_names()}
        return involution(ring, {**images, a: ring.gen(b), b: ring.gen(a)})
    return parse_involution(ring, text)


def cmd_koszul_sign(args):
    ring = parse_ring(args.ring)
    seq_text = args.sequence.strip()
    if seq_text.startswith("[") and seq_text.endswith("]"):
        seq_text = seq_text[1:-1]
    seq = parse_sequence(ring, seq_text)
    rwi = _koszul_involution(ring, args.involution)
    data = RegularSequenceData(ring, seq)
    # conormal_sign runs the one involution_transport and raises unless
    # every square passes, so each square below has passed
    u = conormal_sign(data, rwi)
    if u == ring.one:
        ustr = "+1"
    elif u == -ring.one:
        ustr = "-1"
    else:
        ustr = repr(u)
    lines = ["augmentation square: pass", "chain map: pass", "beta square: pass", f"u={ustr}"]
    _emit(args, lines, {"u": ustr, "augmentation_square": True, "chain_map": True, "beta_square": True})
    return 0


def cmd_devissage_check(args):
    rwi = parse_ring_with_involution(args.ring)
    bound = _resolve_bound(args)
    rep = verify_devissage(rwi, args.epsilon, bound)
    lines = [
        f"source: {rep.source.describe()}",
        f"target: {rep.target.describe()}",
        rep.describe(),
    ]
    _emit(args, lines, {
        "verdict": rep.describe(),
        "isomorphism": rep.iso,
        "stable": rep.stable,
        "source": rep.source.describe(),
        "target": rep.target.describe(),
        "bound": bound,
        "epsilon": args.epsilon,
    })
    return 0 if rep.iso and rep.stable else 1


def cmd_transfer(args):
    src, dst, pi = parse_tower(args.tower)
    tc = TransferCoefficient(pi, dst, standard_coefficient(src))
    n = len(tc.module.factors)
    if n != 1:
        raise WittKitError(f"pi^flat I has {n} cyclic factors; Gram entries are read "
                           "as ring elements only when pi^flat I is cyclic")
    rows = parse_gram(dst.ring, args.gram)
    module = free_module(dst, len(rows))
    form = HermitianForm(tc.coefficient, module, rows, args.epsilon)
    out = transfer_form(tc, form)
    gram = [[_fmt_coefficient_value(e) for e in row] for row in out.gram]
    line = "[" + ", ".join("[" + ", ".join(r) + "]" for r in gram) + "]"
    _emit(args, [line], {
        "gram": gram,
        "factors": [repr(f.ann) for f in out.module.factors],
        "nondegenerate": out.is_nondegenerate(),
        "epsilon": args.epsilon,
    })
    return 0


def cmd_diagonalize(args):
    rwi = parse_ring_with_involution(args.ring)
    rows = parse_gram(rwi.ring, args.gram)
    form = _free_form(rwi, rows, args.epsilon)
    entries, _ = diagonalize(form)
    line = "diag(" + ",".join(repr(e) for e in entries) + ")"
    _emit(args, [line], {"entries": [repr(e) for e in entries], "epsilon": args.epsilon})
    return 0


# -- argument plumbing -------------------------------------------------------


@functools.cache
def build_parser():
    """The process's one parser: parse_args leaves it unchanged."""
    # --json/--seed are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="structured output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="recorded in JSON output; the CLI itself draws no randomness")

    ap = argparse.ArgumentParser(
        prog="wittkit",
        parents=[common],
        description="Witt groups, transfers and duality checks over small rings with involution.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("witt", parents=[common], help="Witt group presentation of a ring with involution")
    w.add_argument("ring", help='descriptor, e.g. "GF(3), sigma=id"')
    w.add_argument("epsilon", type=_epsilon)
    w.add_argument("bound", nargs="?", type=int, default=None)
    w.add_argument("--bound", dest="bound_flag", type=int, default=None)
    w.set_defaults(func=cmd_witt)

    k = sub.add_parser("koszul-sign", parents=[common], help="conormal sign of a regular sequence under an involution")
    k.add_argument("ring", help='ambient polynomial ring, e.g. "QQ[X,Y]"')
    k.add_argument("sequence", help='e.g. "[X-Y]"')
    k.add_argument("involution", help='"id", "swap" (two variables), or assignments "t -> -t"')
    k.set_defaults(func=cmd_koszul_sign)

    d = sub.add_parser("devissage-check", parents=[common], help="residue-field transfer vs finite-length Witt group")
    d.add_argument("ring", help='descriptor, e.g. "GF(3)[t]/(t^2), sigma=id"')
    d.add_argument("epsilon", type=_epsilon)
    d.add_argument("bound", nargs="?", type=int, default=None)
    d.add_argument("--bound", dest="bound_flag", type=int, default=None)
    d.set_defaults(func=cmd_devissage_check)

    t = sub.add_parser("transfer", parents=[common], help="transfer a free-module form along a finite ring map")
    t.add_argument("tower", help='"R -> S" with involutions, e.g. "GF(3) -> GF(9)/GF(3), sigma=frobenius"')
    t.add_argument("gram", help='Gram table over S, e.g. "[[1]]"')
    t.add_argument("epsilon", nargs="?", type=_epsilon, default=1)
    t.set_defaults(func=cmd_transfer)

    g = sub.add_parser("diagonalize", parents=[common], help="diagonalize a form over a field model")
    g.add_argument("ring", help='descriptor, e.g. "QQ(i)"')
    g.add_argument("gram", help='e.g. "[[0,1],[1,0]]"')
    g.add_argument("epsilon", nargs="?", type=_epsilon, default=1)
    g.set_defaults(func=cmd_diagonalize)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    # SUPPRESS defaults keep the subparser from clobbering flags given
    # before the subcommand; normalize the possibly-absent attributes here
    args.json = getattr(args, "json", False)
    args.seed = getattr(args, "seed", None)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EnumerationBoundExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except WittKitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
