"""Command line interface.

Types are written ``<g>,<n>,<eps>|<i1>,...,<ik>`` with ``;<xi>``
appended for extended separating types, e.g. ``1,3,0|1`` or
``3,4,1|-1,1;0``.  Results go to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 domain error (any ``ValueError``: a non-existent
type, a type without a graph model, a bad value, an unwritable output),
2 usage error, 3 work limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census, strata
from .decograph import (
    FullDegreeError,
    GammaMode,
    WorkLimitExceeded,
    _existence_projection,
)
from .enumerator import enum_nonsep, enum_sep
from .euler import chi_compactification, chi_component
from .oracle import enum_nonsep_naive, enum_sep_naive
from .topotype import Variant, dimension, exists, format_type, parse_type


def _cmd_validate(args) -> int:
    t = parse_type(args.type)
    report = exists(t)
    dim = dimension(t) if report else None
    if args.json:
        print(json.dumps({"type": format_type(t), "exists": report.exists,
                          "violated": list(report.violated), "dim": dim}))
        return 0 if report else 1
    if report:
        print(f"type={format_type(t)} exists=true dim={dim}")
        return 0
    print(f"type={format_type(t)} exists=false "
          f"violated={','.join(report.violated)}", file=sys.stderr)
    return 1


def _cmd_dim(args) -> int:
    t = parse_type(args.type)
    d = dimension(t)
    if args.json:
        print(json.dumps({"type": format_type(t), "dim": d}))
    else:
        print(d)
    return 0


def _chi_output(t, result, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"type": format_type(t), "value": result.value,
                          "route": result.route.value,
                          "graph_count": result.graph_count}))
        return 0
    line = f"value={result.value} route={result.route.value}"
    if result.graph_count is not None:
        line += f" graphs={result.graph_count}"
    print(line)
    return 0


def _cmd_chi_h(args) -> int:
    t = parse_type(args.type)
    return _chi_output(t, chi_component(t), args.json)


def _cmd_chi_n(args) -> int:
    t = parse_type(args.type)
    mode = (GammaMode.EXISTENCE if args.gamma_existence
            else GammaMode.AS_DATA)
    result = chi_compactification(t, gamma_mode=mode,
                                  short_circuit=not args.no_shortcircuit)
    return _chi_output(t, result, args.json)


def _cmd_graphs(args) -> int:
    t = parse_type(args.type)
    counts: dict[str, int] = {}
    if t.variant is Variant.NONSEP:
        enum = enum_nonsep_naive if args.naive else enum_nonsep
        as_data = enum(t, involution=not args.gamma_any_order)
        existence = _existence_projection(as_data)
        graphs, other, rest = ((existence, "count_as_data", as_data)
                               if args.gamma_existence else
                               (as_data, "count_existence", existence))
        counts["count"] = len(graphs)
        if len(rest) != len(graphs):
            counts[other] = len(rest)
    else:
        enum = enum_sep_naive if args.naive else enum_sep
        try:
            graphs = enum(t, allow_full_degree=args.no_shortcircuit)
        except FullDegreeError:
            raise FullDegreeError(
                "full-degree separating types short-circuit to chi=1; "
                "pass --no-shortcircuit to enumerate anyway") from None
        counts["count"] = len(graphs)
    if args.format == "dot":
        print(f"// type={format_type(t)}")
        for name, value in counts.items():
            print(f"// {name}={value}")
        for idx, g in enumerate(graphs):
            print(g.to_dot(f"g{idx}"))
        return 0
    payload = {"type": format_type(t), **counts,
               "graphs": [g.to_json_dict() for g in graphs]}
    print(json.dumps(payload))
    return 0


def _cmd_strata(args) -> int:
    found = strata.enumerate_strata(args.m)
    for sig in found:
        if args.json:
            print(json.dumps({"P": list(sig.real_mults),
                              "Q": list(sig.pair_mults),
                              "dim": sig.dim}))
        else:
            p = ",".join(str(x) for x in sig.real_mults)
            q = ",".join(str(x) for x in sig.pair_mults)
            print(f"P=[{p}] Q=[{q}] dim={sig.dim}")
    return 0


def _cmd_verify_cells(args) -> int:
    if not 0 <= args.max_s <= strata.MAX_CHAIN:
        raise ValueError(
            f"--max-s must satisfy 0 <= --max-s <= {strata.MAX_CHAIN}")
    # One check per complex; each complex is dropped before the next is
    # built.  The first complex of a family has chi 1, the others 0.
    def count_and_chi(cells) -> tuple[int, int]:
        return len(cells), strata.alternating_sum(cells)

    def ok(c) -> bool:
        return (c["cells"] == c["cells_expected"]
                and c["chi"] == c["chi_expected"])

    checks = []
    for family, build, first, cells_expected in (
            ("real", strata.cells_real, 0, lambda k: 1 if k == 0 else 2),
            ("lambda", strata.cells_lambda, 1, lambda s: 1 << (s - 1))):
        for param in range(first, args.max_s + 1):
            count, chi = count_and_chi(build(param))
            checks.append({"family": family, "param": param, "cells": count,
                           "cells_expected": cells_expected(param),
                           "chi": chi, "chi_expected": int(param == first)})
    # The cover product reads the s = 0 factor as 1.
    chi_of = {(c["family"], c["param"]): c["chi"] for c in checks}
    chi_of["lambda", 0] = 1
    cover_ok = all(chi_of["real", r] * chi_of["lambda", s]
                   == (1 if r == 0 and s <= 1 else 0)
                   for r in range(args.max_s + 1)
                   for s in range(args.max_s + 1))
    all_ok = cover_ok and all(map(ok, checks))
    if args.json:
        print(json.dumps({"ok": all_ok, "cover_ok": cover_ok,
                          "checks": checks}))
        return 0 if all_ok else 1
    for c in checks:
        print(f"{c['family']} {'k' if c['family'] == 'real' else 's'}="
              f"{c['param']} cells={c['cells']}/{c['cells_expected']} "
              f"chi={c['chi']}/{c['chi_expected']} "
              + ("ok" if ok(c) else "FAIL"))
    print(f"cover table r,s<={args.max_s} "
          + ("ok" if cover_ok else "FAIL"))
    return 0 if all_ok else 1


def _cmd_catalog(args) -> int:
    bounds = census.SweepBounds(args.g_max, args.n_max, args.abs_i_max,
                                args.eps)
    records = census.sweep(bounds, workers=args.workers)
    writer = census.write_csv if args.format == "csv" else census.write_jsonl
    # The output is opened before the first record is computed, so a bad
    # path fails at once.  Each record is written when it is done;
    # writing or closing can still fail (a full disk), and records
    # written until then remain.
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            count = writer(records, fh)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    if args.json:
        print(json.dumps({"records": count, "path": args.out}))
    else:
        print(f"records={count} path={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmfchi",
        description="Topological invariants of components of spaces of "
                    "real meromorphic functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate,
            "normalize a type and test its existence")
    p.add_argument("type")

    p = add("dim", _cmd_dim, "dimension of the component")
    p.add_argument("type")

    p = add("chi-h", _cmd_chi_h, "Euler characteristic of the component")
    p.add_argument("type")

    p = add("chi-n", _cmd_chi_n,
            "Euler characteristic of the compactification")
    p.add_argument("type")
    p.add_argument("--no-shortcircuit", action="store_true",
                   help="enumerate graphs even when a closed form applies")
    p.add_argument("--gamma-existence", action="store_true",
                   help="count graphs admitting a symmetry instead of "
                        "(graph, symmetry) pairs")

    p = add("graphs", _cmd_graphs, "enumerate the decorated graphs")
    p.add_argument("type")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--naive", action="store_true",
                   help="use the brute-force oracle (small types only)")
    p.add_argument("--gamma-existence", action="store_true",
                   help="one graph per underlying shape that admits a "
                        "symmetry")
    p.add_argument("--gamma-any-order", action="store_true",
                   help="accept symmetries of any order, not only "
                        "involutions")
    p.add_argument("--no-shortcircuit", action="store_true",
                   help="enumerate full-degree separating types too")

    p = add("strata", _cmd_strata, "strata of the degree-m divisor space")
    p.add_argument("m", type=int)

    p = add("verify-cells", _cmd_verify_cells,
            "check the cell-complex identities")
    p.add_argument("--max-s", type=int, default=12)

    p = add("catalog", _cmd_catalog, "write a census of a type box")
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--abs-i-max", type=int, required=True)
    p.add_argument("--eps", choices=census.EPS_VARIANTS, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--workers", type=int, default=1)
    return parser


# Built once, at import: ``parse_args`` does not change a parser, so
# every call of :func:`main` in a process shares this one.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except WorkLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
