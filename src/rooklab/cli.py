"""Command-line front end.

Subcommands: spectrum, verify, invariants, gamma, switch, quotient,
export-graph6.  Exit codes: 0 success, 1 verification failure, 2 size or
usage error.  All output is deterministic; identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from .eigenvectors import (classify_gamma, gamma_graph, gamma_order,
                           inversion_count)
from .graphio import to_graph6
from .graphs import johnson_graph, sr_graph, sr_order
from .invariants import (SIZE_LIMIT, Disconnected, SizeLimit,
                         automorphism_count, clique_number, diameter,
                         has_induced_k114, independence_number, is_isomorphic)
from .linalg import LENIENT_LIMIT, integral_spectrum, try_integral_spectrum
from .partitions import (check_equitable, quotient_spectrum,
                         support_partition, weight_partition)
from .switching import (NAMED_SETS, NotSwitchable, gm_switch,
                        named_switching_set)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Full Gamma classification enumerates every permutation with n inversions
# for all m <= 2n.  On one core of a shared 2-vCPU Xeon VM, classify_gamma(5)
# takes 4.6-5.4 s of CPU time and classify_gamma(6) 73-82 s; past n = 6
# the sweep is not worth starting from the command line.
GAMMA_BUDGET = 6


def _build_graph(kind, a, b):
    """SR(a, b), or J(a, b) for kind "johnson", refused before it is built
    when its order exceeds the desk-scale budget shared with the
    canonical-labeling guard (exit code 2).  Negative parameters are left
    to the constructors, which reject them.

    At the edge of the budget `spectrum 2 1999` takes 1.6-1.9 s of wall
    time, `spectrum 3 61` 3.0-3.7 s and `spectrum 2000 1` 1.0 s (three
    runs each, 2-core x86-64 VM).  `invariants 8 4`, `3 61` and `5 9` stop
    at the clique search's NODE_BUDGET instead, exit code 2, after
    1.4-2.3 s."""
    johnson = kind == "johnson"
    if min(a, b) >= 0:
        order = comb(a, b) if johnson else sr_order(a, b)
        if order > SIZE_LIMIT:
            raise SizeLimit(f"graph has {order} vertices; budget is {SIZE_LIMIT}")
    return johnson_graph(a, b) if johnson else sr_graph(a, b)


def cmd_spectrum(args):
    g = _build_graph(args.graph, args.m, args.n)
    spec = integral_spectrum(g)
    if args.format == "json":
        out = {"graph": args.graph}
        if args.graph == "johnson":
            out["v"], out["n"] = g.params
        else:
            out["m"], out["n"] = g.params
        out["order"] = g.order
        out["spectrum"] = str(spec)
        out["pairs"] = [list(p) for p in spec.pairs]
        print(json.dumps(out))
    else:
        print(spec)
    return EXIT_OK


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for r in run_suites(names):
        print(json.dumps(r.to_json()), flush=True)
        failed = failed or r.status == "fail"
    return EXIT_FAIL if failed else EXIT_OK


def cmd_invariants(args):
    g = _build_graph("sr", args.m, args.n)
    out = {
        "diameter": diameter(g),
        "clique_number": clique_number(g),
        "independence_number": independence_number(g),
        "aut_order": automorphism_count(g),
        "k114_free": not has_induced_k114(g),
    }
    print(json.dumps(out))
    return EXIT_OK


def _parse_permutation(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--pi expects comma-separated integers, got {text!r}")


def cmd_gamma(args):
    if args.pi is not None:
        pi = _parse_permutation(args.pi)
        order = gamma_order(pi)
        if order > LENIENT_LIMIT:
            raise SizeLimit(f"Gamma graph has {order} vertices; the spectrum "
                            f"probe is capped at {LENIENT_LIMIT}")
        g = gamma_graph(pi)
        probe = try_integral_spectrum(g)
        out = {
            "m": len(pi), "pi": list(pi), "n": inversion_count(pi),
            "order": g.order, **probe.to_json(),
        }
        print(json.dumps(out))
        return EXIT_OK
    if args.n > GAMMA_BUDGET:
        raise SizeLimit(f"classification sweep is budgeted to n <= {GAMMA_BUDGET}")
    for c in classify_gamma(args.n):
        print(json.dumps(c.to_json()))
    return EXIT_OK


def cmd_switch(args):
    g = _build_graph("sr", args.m, args.n)
    if args.set in NAMED_SETS:
        b = named_switching_set(g, args.set)
    else:
        try:
            members = tuple(int(x) for x in args.set.split(","))
        except ValueError:
            raise ValueError(
                f"--set expects one of {', '.join(NAMED_SETS)} or four "
                f"comma-separated vertex indices, got {args.set!r}")
        b = members
    mate = gm_switch(g, b)
    cospectral = str(integral_spectrum(mate)) == str(integral_spectrum(g))
    isomorphic = is_isomorphic(mate, g)
    print(f"graph6: {to_graph6(mate)}")
    print(f"cospectral: {str(cospectral).lower()}")
    print(f"isomorphic: {str(isomorphic).lower()}")
    return EXIT_OK


def cmd_quotient(args):
    g = _build_graph("sr", args.m, args.n)
    part = weight_partition(g) if args.partition == "weight" else support_partition(g)
    q = check_equitable(g, part)
    spec = quotient_spectrum(q)
    if args.format == "json":
        out = {"partition": args.partition}
        out.update(q.to_json())
        out["spectrum"] = str(spec)
        print(json.dumps(out))
    elif args.format == "csv":
        print(q.to_csv())
    else:
        width = max(len(str(e)) for row in q.entries for e in row)
        for lab, row in zip(q.labels, q.entries):
            cells = " ".join(f"{e:>{width}}" for e in row)
            print(f"{lab}: {cells}")
        print(f"spectrum: {spec}")
    return EXIT_OK


def cmd_export_graph6(args):
    g = _build_graph(args.graph, args.m, args.n)
    print(to_graph6(g))
    return EXIT_OK


def _add_mn(sub):
    sub.add_argument("m", type=int)
    sub.add_argument("n", type=int)


def build_parser():
    p = argparse.ArgumentParser(
        prog="rooklab",
        description="Exact spectra and structure of simplicial rook graphs.")
    sp = p.add_subparsers(dest="command", required=True)

    s = sp.add_parser("spectrum", help="exact integer spectrum of SR(m,n) or J(m,n)")
    _add_mn(s)
    s.add_argument("--graph", choices=("sr", "johnson"), default="sr",
                   help="sr: SR(m,n); johnson: J(m,n) on n-subsets of m points")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(fn=cmd_spectrum)

    s = sp.add_parser("verify", help="run the verification battery (JSON lines)")
    s.add_argument("--suite", choices=("all",) + SUITES, default="all")
    s.set_defaults(fn=cmd_verify)

    s = sp.add_parser("invariants", help="diameter, clique and independence "
                                         "numbers, |Aut|, K_{1,1,4}-freeness")
    _add_mn(s)
    s.set_defaults(fn=cmd_invariants)

    s = sp.add_parser("gamma", help="classify the Gamma subgraphs with n "
                                    "inversions, or build one from --pi")
    s.add_argument("n", type=int)
    s.add_argument("--pi", help="comma-separated permutation of 0..m-1; "
                                "overrides the classification sweep")
    s.set_defaults(fn=cmd_gamma)

    s = sp.add_parser("switch", help="Godsil-McKay switch SR(m,n) and report "
                                     "the mate")
    _add_mn(s)
    s.add_argument("--set", required=True,
                   help=f"one of {', '.join(NAMED_SETS)} or four "
                        "comma-separated vertex indices")
    s.set_defaults(fn=cmd_switch)

    s = sp.add_parser("quotient", help="equitable-partition quotient matrix "
                                       "and its spectrum")
    _add_mn(s)
    s.add_argument("--partition", choices=("support", "weight"),
                   default="support")
    s.add_argument("--format", choices=("text", "json", "csv"), default="text")
    s.set_defaults(fn=cmd_quotient)

    s = sp.add_parser("export-graph6", help="print the graph in graph6 format")
    _add_mn(s)
    s.add_argument("--graph", choices=("sr", "johnson"), default="sr")
    s.set_defaults(fn=cmd_export_graph6)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (SizeLimit, NotSwitchable, Disconnected, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Consumer closed the pipe (e.g. | head); point stdout at devnull so
        # the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
