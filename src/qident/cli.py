"""Command-line front end for coefficient tables and identity checks.

Subcommands
-----------
coeffs   print the coefficient table of one family series
verify   check a single registry identity at a given order
suite    run every registry identity over its default parameter grid
oracle   cross-check a series coefficient against brute-force enumeration

Usage examples
--------------
    qident coeffs --family V --sign plus --k 3 --m inf --order 6 --format csv
    qident verify --id T4_W --k 2 --order 40
    qident verify --id L1 --k 0 --order 30 --format json
    qident suite --order 20
    qident oracle --which v --sign plus --k 3 --n 5

Exit status: 0 when the request succeeds and every checked statement holds,
1 when a verification fails or an oracle cross-check mismatches, 2 on usage
errors.  JSON output is a single document per invocation; coefficient
values serialize as decimal strings so arbitrarily large integers survive
any consumer.  With --deterministic all timing fields are omitted and
repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .families import FamilySpec, family_series
from .identities import (
    REGISTRY,
    IdentityCase,
    VerifyReport,
    divisor_sum_series,
    overpartition_pair_series,
    pod_bipartition_series,
    verify,
    verify_suite,
)
from .oracles import (
    divisor_sigma,
    overpartition_pairs,
    pod_bipartitions,
    v_oracle,
    w_oracle,
)
from .qtools import INFINITE

_PARAM_NAMES = ("sign", "k", "j", "m", "n", "s", "e")


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

def _m_value(text: str) -> Union[int, float]:
    """Parse the --m flag: a positive integer or the literal token "inf"."""
    if text == "inf":
        return INFINITE
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"--m must be a positive integer or 'inf', got {text}")
    return int(text)


def _sign_number(text: str) -> int:
    return 1 if text == "plus" else -1


def _collect_params(args: argparse.Namespace) -> Dict[str, Union[int, float]]:
    """Gather the identity parameters that were actually provided."""
    params: Dict[str, Union[int, float]] = {}
    for name in _PARAM_NAMES:
        value = getattr(args, name, None)
        if value is None:
            continue
        params[name] = _sign_number(value) if name == "sign" else value
    return params


def _shown(name: str, value: Union[int, float]) -> Union[int, str]:
    """A parameter value as the command line spells it: plus/minus, inf, or
    the integer."""
    if name == "sign":
        return "plus" if value == 1 else "minus"
    return "inf" if value == INFINITE else int(value)


def _params_text(params: Mapping[str, Union[int, float]], sep: str = " ") -> str:
    """Render a parameter binding as flag-style tokens, CSV-safe with sep=';'."""
    return sep.join(f"{name}={_shown(name, value)}" for name, value in params.items())


def _params_json(params: Mapping[str, Union[int, float]]) -> Dict[str, Union[int, str]]:
    return {name: _shown(name, value) for name, value in params.items()}


def _report(report: VerifyReport,
            deterministic: bool) -> Tuple[Dict[str, object], List[str], str]:
    """One verification report as its JSON object, its CSV row and its plain
    line; with deterministic set, all three leave out the elapsed time."""
    case, disc = report.case, report.first_discrepancy
    doc: Dict[str, object] = {
        "id": case.id,
        "params": _params_json(case.params),
        "order": case.order,
        "holds": report.holds,
        "first_discrepancy": None if disc is None else {
            "exponent": disc.exponent,
            "lhs": str(disc.lhs),
            "rhs": str(disc.rhs),
        },
    }
    row = [case.id, _params_text(case.params, sep=";"), str(case.order),
           "true" if report.holds else "false"]
    row += ["", "", ""] if disc is None else [str(disc.exponent), str(disc.lhs), str(disc.rhs)]
    binding = _params_text(case.params)
    line = f"{case.id} {binding}" if binding else case.id
    line += f" order={case.order}: " + ("holds" if report.holds else "FAILS")
    if disc is not None:
        line += f" at q^{disc.exponent} (lhs={disc.lhs}, rhs={disc.rhs})"
    if not deterministic:
        ms = report.elapsed * 1000.0
        doc["elapsed_ms"] = round(ms, 3)
        row.append(f"{ms:.3f}")
        line += f"  [{ms:.2f} ms]"
    return doc, row, line


def _report_header(deterministic: bool) -> List[str]:
    header = ["id", "params", "order", "holds", "disc_exponent", "disc_lhs", "disc_rhs"]
    return header if deterministic else header + ["elapsed_ms"]


def _emit(fmt: str, doc: Mapping[str, object], header: Sequence[str],
          rows: Iterable[Iterable[object]], lines: Iterable[str]) -> None:
    """Print one result in the chosen format: the JSON document, the CSV
    header and rows, or the plain lines.  json and csv are imported here,
    by the one format that needs each, so start-up loads neither."""
    if fmt == "json":
        import json

        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_coeffs(args: argparse.Namespace) -> int:
    spec = FamilySpec(family=args.family, sign=_sign_number(args.sign),
                      k=args.k, m=args.m)
    coeffs = family_series(spec, args.order).coeffs
    doc = {
        "family": args.family,
        "sign": args.sign,
        "k": args.k,
        "m": _shown("m", args.m),
        "order": args.order,
        "coefficients": [str(c) for c in coeffs],
    }
    _emit(args.format, doc, ["n", "coefficient"], enumerate(coeffs),
          (f"{n} {c}" for n, c in enumerate(coeffs)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = _collect_params(args)
    if "sign" in REGISTRY[args.id].required and "sign" not in params:
        params["sign"] = 1
    report = verify(IdentityCase(id=args.id, params=params, order=args.order))
    doc, row, line = _report(report, args.deterministic)
    _emit(args.format, doc, _report_header(args.deterministic), [row], [line])
    return 0 if report.holds else 1


def cmd_suite(args: argparse.Namespace) -> int:
    reports = verify_suite(order=args.order)
    passed = sum(1 for r in reports if r.holds)
    failed = len(reports) - passed
    docs, rows, lines = zip(*(_report(r, args.deterministic) for r in reports))
    doc = {
        "order": args.order,
        "passed": passed,
        "failed": failed,
        "total": len(reports),
        "cases": list(docs),
    }
    summary = f"{passed} passed / {failed} failed / {len(reports)} total"
    _emit(args.format, doc, _report_header(args.deterministic), rows,
          [*lines, summary])
    return 0 if failed == 0 else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    n = args.n
    if args.which in ("v", "w"):
        if args.sign is None or args.k is None:
            raise ValueError(f"--which {args.which} needs --sign, --k, --n")
        if args.m is None:
            args.m = INFINITE  # shown as m=inf in the params
        sign = _sign_number(args.sign)
        family = "V" if args.which == "v" else "W"
        oracle_value = (v_oracle if args.which == "v" else w_oracle)(sign, args.k, args.m, n)
        spec = FamilySpec(family=family, sign=sign, k=args.k, m=args.m)
        series_value = family_series(spec, n).coeffs[n]
        params = _collect_params(args)
    else:
        # the pair, pod and sigma counts depend on n alone; a flag they
        # ignored would let a caller believe it had been used
        flags = [f"--{name}" for name in ("sign", "k", "m") if getattr(args, name) is not None]
        if flags:
            raise ValueError(f"--which {args.which} takes only --n, got {' '.join(flags)}")
        count, series = {"pp": (overpartition_pairs, overpartition_pair_series),
                         "pod": (pod_bipartitions, pod_bipartition_series),
                         "sigma": (divisor_sigma, divisor_sum_series)}[args.which]
        oracle_value, series_value = count(n), series(n).coeffs[n]
        params = {"n": n}

    match = oracle_value == series_value
    doc = {
        "which": args.which,
        "params": _params_json(params),
        "oracle": str(oracle_value),
        "series": str(series_value),
        "match": match,
    }
    row = [args.which, _params_text(params, sep=";"), n, oracle_value,
           series_value, "true" if match else "false"]
    verdict = "match" if match else "MISMATCH"
    _emit(args.format, doc, ["which", "params", "n", "oracle", "series", "match"], [row],
          [f"{args.which} n={n}: oracle={oracle_value} series={series_value} {verdict}"])
    return 0 if match else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact coefficient tables and identity checks for "
                    "nested-divisor q-series families.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain", help="output format")
    common.add_argument("--deterministic", action="store_true",
                        help="omit timing fields; output depends only on flags")
    ordered = argparse.ArgumentParser(add_help=False, parents=[common])
    ordered.add_argument("--order", type=int, default=20,
                         help="truncation order N (series known mod q^(N+1))")

    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", parents=[ordered],
                              help="coefficient table of one family series")
    p_coeffs.add_argument("--family", choices=("A", "C", "V", "W"), required=True)
    p_coeffs.add_argument("--sign", choices=("plus", "minus"), required=True)
    p_coeffs.add_argument("--k", type=int, required=True,
                          help="number of chained part magnitudes")
    p_coeffs.add_argument("--m", type=_m_value, default=INFINITE,
                          help="magnitude bound, a positive integer or 'inf'")
    p_coeffs.set_defaults(handler=cmd_coeffs)

    p_verify = sub.add_parser("verify", parents=[ordered],
                              help="check one registry identity")
    p_verify.add_argument("--id", choices=sorted(REGISTRY), required=True,
                          metavar="ID", help="registry id, one of: "
                          + " ".join(sorted(REGISTRY)))
    p_verify.add_argument("--sign", choices=("plus", "minus"),
                          help="sign; defaults to plus for "
                               "identities that take one")
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--m", type=_m_value)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--s", type=int)
    p_verify.add_argument("--e", type=int)
    p_verify.set_defaults(handler=cmd_verify)

    p_suite = sub.add_parser("suite", parents=[ordered],
                             help="run the full registry over default grids")
    p_suite.set_defaults(handler=cmd_suite)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="brute-force cross-check of one coefficient")
    p_oracle.add_argument("--which", choices=("v", "w", "pp", "pod", "sigma"),
                          required=True)
    p_oracle.add_argument("--sign", choices=("plus", "minus"))
    p_oracle.add_argument("--k", type=int)
    p_oracle.add_argument("--m", type=_m_value,
                          help="magnitude bound, a positive integer or 'inf' "
                               "(default inf)")
    p_oracle.add_argument("--n", type=int, required=True,
                          help="exponent to cross-check")
    p_oracle.set_defaults(handler=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
