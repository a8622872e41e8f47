"""Command-line front end.

Subcommands: ``char`` and ``decomp`` (multiplicity tables through the
Demazure pipeline, read off the nested polynomial before the longest-element
pass by dot-action straightening; ``character`` and ``decompose`` remain
the full-character API), ``sam`` (the independent symplectic pipeline,
restricting a Schur functor to the symplectic algebra by Littlewood's rule),
``xi`` (tensor-factor weight data), ``drinfeld`` (classifying polynomial
offsets), and ``verify`` (internal consistency suites; ``pipeline`` checks
the straightened tables against the greedy decomposition of the full
character).  Reports go to standard output as JSON, CSV, or aligned text;
diagnostics go to standard error.  Each subcommand imports the pipeline
modules it runs inside its handler, so a ``sam`` process never loads the
Demazure side and ``--version`` loads neither pipeline.

Exit codes: 0 success, 2 invalid input, 3 internal verification failure.
Output is byte-stable for a fixed invocation; the elapsed-time field in
JSON metadata reports 0 unless MINAFF_TIMING=1 is set.
"""

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .cartan import check_dominant, check_rank, dim_irr, eps2, resolve_family
from .errors import CharacterError, InputError, VerificationError


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_weight(raw, n):
    try:
        coords = tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise InputError(f"weight {raw!r} is not a comma-separated integer list")
    if len(coords) != n:
        raise InputError(f"weight {raw!r} has {len(coords)} entries, expected {n}")
    return coords


def _parse_epsilon(raw):
    key = raw.strip()
    if key in ("+", "+1", "1"):
        return 1
    if key in ("-", "-1"):
        return -1
    raise InputError(f"epsilon must be + or -, got {raw!r}")


def _fraction_json(q):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _weight_json(x):
    return {"finite": list(x.finite), "level": x.level, "delta": _fraction_json(x.delta)}


def _height2(n, mu):
    return sum(eps2(n, mu))


def _sorted_mults(n, mults):
    keys = sorted(mults, key=lambda mu: (-_height2(n, mu), tuple(-v for v in mu)))
    return [(mu, mults[mu]) for mu in keys]


def _meta(t0):
    timing = os.environ.get("MINAFF_TIMING") == "1"
    return {
        "tool_version": __version__,
        "elapsed_ms": int((time.monotonic() - t0) * 1000) if timing else 0,
    }


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reports


def _table_report(args, n, s, lam, mults, t0):
    entries = [
        {"mu": list(mu), "m": m, "dim": dim_irr(n, mu)} for mu, m in _sorted_mults(n, mults)
    ]
    dimension = sum(e["m"] * e["dim"] for e in entries)
    if getattr(args, "mu", None) is not None:
        mu = _parse_weight(args.mu, n)
        check_dominant(n, mu)
        entries = [e for e in entries if tuple(e["mu"]) == mu]
        if not entries:
            entries = [{"mu": list(mu), "m": 0, "dim": dim_irr(n, mu)}]
    report = {
        "n": n,
        "s": s,
        "lambda": list(lam),
        "dimension": dimension,
        "multiplicities": entries,
        "meta": _meta(t0),
    }
    if args.format == "json":
        return _json_text(report)
    if args.format == "csv":
        rows = [(" ".join(map(str, e["mu"])), e["m"], e["dim"]) for e in entries]
        return _csv_text(("mu", "m", "dim"), rows)
    lines = [
        f"n = {n}  s = {s}  lambda = {','.join(map(str, lam))}",
        f"dimension = {dimension}",
        "  mu" + " " * (3 * n - 1) + "m      dim",
    ]
    for e in entries:
        mu = ",".join(map(str, e["mu"]))
        lines.append(f"  {mu:<{3 * n + 1}}{e['m']:<7}{e['dim']}")
    return "\n".join(lines) + "\n"


def _family_str(n, s):
    return {1: "1", n - 1: "n-1", n: "n"}[s]


def _cmd_char(args, t0):
    from .affinization import multiplicity_table

    n = args.n
    lam = _parse_weight(args.lam, n)
    s = resolve_family(n, args.s)
    return _table_report(args, n, s, lam, multiplicity_table(n, lam, s), t0), 0


def _cmd_sam(args, t0):
    from .spbranch import sam_table

    n = args.n
    lam = _parse_weight(args.lam, n)
    s = resolve_family(n, args.s if args.s is not None else 1)
    if s != 1:
        raise InputError("the symplectic pipeline covers the s = 1 family only")
    return _table_report(args, n, 1, lam, sam_table(n, lam), t0), 0


def _cmd_xi(args, t0):
    from . import affinization

    n = args.n
    lam = _parse_weight(args.lam, n)
    s = resolve_family(n, args.s)
    xs = affinization.xi_sequence(n, lam, s)
    lams = None
    if s != n - 1:
        lams = affinization.lambda_sequence(n, lam, s).entries
    if args.format == "json":
        report = {
            "n": n,
            "s": s,
            "lambda": list(lam),
            "m": xs.m,
            "m_prime": xs.m_prime,
            "cut": xs.cut,
            "lambda_bar": xs.lambda_bar,
            "xi": [_weight_json(x) for x in xs.entries],
            "Lambda": [_weight_json(x) for x in lams] if lams else None,
            "meta": _meta(t0),
        }
        return _json_text(report), 0
    if args.format == "csv":
        rows = []
        for j, x in enumerate(xs.entries, 1):
            rows.append(("xi", j, " ".join(map(str, x.finite)), x.level, str(x.delta)))
        for j, x in enumerate(lams or (), 1):
            rows.append(("Lambda", j, " ".join(map(str, x.finite)), x.level, str(x.delta)))
        return _csv_text(("seq", "j", "finite", "level", "delta"), rows), 0
    lines = [f"n = {n}  s = {_family_str(n, s)}  lambda = {','.join(map(str, lam))}"]
    if xs.m is not None:
        lines.append(f"m = {xs.m}  m' = {xs.m_prime}")
    if xs.cut is not None:
        lines.append(f"cut = {xs.cut}  lambda_bar = {xs.lambda_bar}")
    for j, x in enumerate(xs.entries, 1):
        lines.append(f"xi_{j}     = {','.join(map(str, x.finite))}  level {x.level}  delta {x.delta}")
    for j, x in enumerate(lams or (), 1):
        lines.append(f"Lambda_{j} = {','.join(map(str, x.finite))}  level {x.level}  delta {x.delta}")
    return "\n".join(lines) + "\n", 0


def _cmd_drinfeld(args, t0):
    from .affinization import drinfeld

    n = args.n
    lam = _parse_weight(args.lam, n)
    s = resolve_family(n, args.s)
    eps = _parse_epsilon(args.epsilon)
    data = drinfeld(n, lam, s, eps)
    if args.format == "json":
        report = {
            "n": n,
            "s": s,
            "epsilon": eps,
            "lambda": list(lam),
            "factors": [{"i": i, "m": m, "c": c} for i, m, c in data.factors],
            "meta": _meta(t0),
        }
        return _json_text(report), 0
    if args.format == "csv":
        return _csv_text(("i", "m", "c"), list(data.factors)), 0
    lines = [f"n = {n}  s = {_family_str(n, s)}  epsilon = {'+' if eps > 0 else '-'}"]
    for i, m, c in data.factors:
        lines.append(f"node {i}: degree {m}, offset q^{c}")
    if not data.factors:
        lines.append("trivial (zero weight)")
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args, t0):
    from .verify import verify_report

    return verify_report(args, t0)


# ---------------------------------------------------------------------------
# driver


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="minaff",
        description="Exact characters and multiplicities of regular minimal "
        "affinizations in type D.",
    )
    parser.add_argument("--version", action="version", version=f"minaff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_s=True):
        p.add_argument("--n", type=int, required=True, help="rank, at least 4")
        p.add_argument("--lambda", dest="lam", required=True, metavar="L",
                       help="dominant weight, comma-separated coordinates")
        if need_s:
            p.add_argument("--s", required=True, help="family label: 1, n-1, or n")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("char", help="multiplicity table via the Demazure character")
    common(p)
    p.add_argument("--mu", help="restrict the report to one dominant weight")

    p = sub.add_parser("decomp", help="same table, filterable to a single weight")
    common(p)
    p.add_argument("--mu", help="restrict the report to one dominant weight")

    p = sub.add_parser("sam", help="multiplicity table via the symplectic pipeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="L")
    p.add_argument("--s", default=None, help="must resolve to 1 if given")
    p.add_argument("--mu", help="restrict the report to one dominant weight")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("xi", help="tensor-factor weights and their rotated forms")
    common(p)

    p = sub.add_parser("drinfeld", help="classifying polynomial offsets")
    common(p)
    p.add_argument("--epsilon", default="+", help="sign: + or -")

    p = sub.add_parser("verify", help="run internal consistency suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--suite", choices=("demazure", "weyl", "pipeline", "all"), default="all")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    return parser


_DISPATCH = {
    "char": _cmd_char,
    "decomp": _cmd_char,
    "sam": _cmd_sam,
    "xi": _cmd_xi,
    "drinfeld": _cmd_drinfeld,
    "verify": _cmd_verify,
}


def run(argv):
    """Parse arguments, execute, print the report; returns the exit code."""
    t0 = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        check_rank(args.n)
        text, code = _DISPATCH[args.command](args, t0)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CharacterError, VerificationError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
