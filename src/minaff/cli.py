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
diagnostics go to standard error.

One table, ``_COMMANDS``, names each subcommand's handler, help line and
options; :func:`_parse` reads the argument list against it and the usage
and help texts are generated from it.  The parser takes ``--opt value``,
``--opt=value`` and unique prefixes of option names (an exact name first);
a repeated option keeps its last value.  Anything else is invalid input.
Each handler imports the modules it runs, and ``json``, ``csv`` and
``cartan`` load only once a report is built, so a ``sam`` process never
loads the Demazure side and ``--version`` loads nothing beyond this module
and ``errors``.

Exit codes: 0 success, 2 invalid input, 3 internal verification failure.
Output is byte-stable for a fixed invocation; the elapsed-time field in
JSON metadata reports 0 unless MINAFF_TIMING=1 is set.
"""

import io
import os
import sys
import time

from . import __version__
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


def _sorted_mults(n, mults):
    from .cartan import eps2

    keys = sorted(mults, key=lambda mu: (-sum(eps2(n, mu)), tuple(-v for v in mu)))
    return [(mu, mults[mu]) for mu in keys]


def _meta(t0):
    timing = os.environ.get("MINAFF_TIMING") == "1"
    return {
        "tool_version": __version__,
        "elapsed_ms": int((time.monotonic() - t0) * 1000) if timing else 0,
    }


def _json_text(obj):
    import json

    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows):
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reports


def _table_report(opts, n, s, lam, mults, t0):
    from .cartan import check_dominant, dim_irr

    entries = [
        {"mu": list(mu), "m": m, "dim": dim_irr(n, mu)} for mu, m in _sorted_mults(n, mults)
    ]
    dimension = sum(e["m"] * e["dim"] for e in entries)
    if opts.get("mu") is not None:
        mu = _parse_weight(opts["mu"], n)
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
    if opts["format"] == "json":
        return _json_text(report)
    if opts["format"] == "csv":
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


def _cmd_char(opts, t0):
    from .affinization import multiplicity_table
    from .cartan import resolve_family

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"])
    return _table_report(opts, n, s, lam, multiplicity_table(n, lam, s), t0), 0


def _cmd_sam(opts, t0):
    from .cartan import resolve_family
    from .spbranch import sam_table

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"] if opts["s"] is not None else 1)
    if s != 1:
        raise InputError("the symplectic pipeline covers the s = 1 family only")
    return _table_report(opts, n, 1, lam, sam_table(n, lam), t0), 0


def _cmd_xi(opts, t0):
    from . import affinization
    from .cartan import resolve_family

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"])
    xs = affinization.xi_sequence(n, lam, s)
    lams = None
    if s != n - 1:
        lams = affinization.lambda_sequence(n, lam, s).entries
    if opts["format"] == "json":
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
    if opts["format"] == "csv":
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


def _cmd_drinfeld(opts, t0):
    from .affinization import drinfeld
    from .cartan import resolve_family

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"])
    eps = _parse_epsilon(opts["epsilon"])
    data = drinfeld(n, lam, s, eps)
    if opts["format"] == "json":
        report = {
            "n": n,
            "s": s,
            "epsilon": eps,
            "lambda": list(lam),
            "factors": [{"i": i, "m": m, "c": c} for i, m, c in data.factors],
            "meta": _meta(t0),
        }
        return _json_text(report), 0
    if opts["format"] == "csv":
        return _csv_text(("i", "m", "c"), list(data.factors)), 0
    lines = [f"n = {n}  s = {_family_str(n, s)}  epsilon = {'+' if eps > 0 else '-'}"]
    for i, m, c in data.factors:
        lines.append(f"node {i}: degree {m}, offset q^{c}")
    if not data.factors:
        lines.append("trivial (zero weight)")
    return "\n".join(lines) + "\n", 0


def _cmd_verify(opts, t0):
    from .verify import verify_report

    return verify_report(opts, t0)


# ---------------------------------------------------------------------------
# the command table and its parser

# An option is (name, value, default, help line).  The value is ``int``,
# ``str`` or a tuple of the accepted choices; a _REQUIRED default marks an
# option that must be given.  A report reads each value under the name
# without its dashes.
_REQUIRED = object()
_FORMATS = ("json", "csv", "pretty")
_N = ("--n", int, _REQUIRED, "rank, at least 4")
_LAMBDA = ("--lambda", str, _REQUIRED, "dominant weight, comma-separated coordinates")
_S = ("--s", str, _REQUIRED, "family label: 1, n-1, or n")
_FORMAT = ("--format", _FORMATS, "json", "report format")
_MU = ("--mu", str, None, "restrict the report to one dominant weight")

_COMMANDS = {
    "char": (_cmd_char, "multiplicity table via the Demazure character",
             (_N, _LAMBDA, _S, _FORMAT, _MU)),
    "decomp": (_cmd_char, "same table, filterable to a single weight",
               (_N, _LAMBDA, _S, _FORMAT, _MU)),
    "sam": (_cmd_sam, "multiplicity table via the symplectic pipeline",
            (_N, _LAMBDA, ("--s", str, None, "must resolve to 1 if given"), _MU, _FORMAT)),
    "xi": (_cmd_xi, "tensor-factor weights and their rotated forms",
           (_N, _LAMBDA, _S, _FORMAT)),
    "drinfeld": (_cmd_drinfeld, "classifying polynomial offsets",
                 (_N, _LAMBDA, _S, _FORMAT, ("--epsilon", str, "+", "sign: + or -"))),
    "verify": (_cmd_verify, "run internal consistency suites",
               (_N, ("--suite", ("demazure", "weyl", "pipeline", "all"), "all", "suite to run"),
                ("--format", _FORMATS, "pretty", "report format"))),
}
_HELP = ("-h", "--help")


def _metavar(name, value):
    return "{" + ",".join(value) + "}" if isinstance(value, tuple) else name[2:].upper()


def _usage(command=None):
    if command is None:
        return "usage: minaff [-h] [--version] {" + ",".join(_COMMANDS) + "} ..."
    parts = []
    for name, value, default, _ in _COMMANDS[command][2]:
        part = f"{name} {_metavar(name, value)}"
        parts.append(part if default is _REQUIRED else f"[{part}]")
    return f"usage: minaff {command} [-h] " + " ".join(parts)


def _columns(rows):
    width = max(len(left) for left, _ in rows) + 2
    return [f"  {left:<{width}}{right}" for left, right in rows]


def _help(command=None):
    help_row = ("-h, --help", "show this help and exit")
    if command is None:
        commands = [(name, line) for name, (_, line, _) in _COMMANDS.items()]
        options = [help_row, ("--version", "print the version and exit")]
        body = [
            "Exact characters and multiplicities of regular minimal affinizations in type D.",
            "", "commands:", *_columns(commands), "", "options:", *_columns(options),
        ]
    else:
        rows = [help_row]
        for name, value, default, line in _COMMANDS[command][2]:
            if default is not None:
                line += " (required)" if default is _REQUIRED else f" (default: {default})"
            rows.append((f"{name} {_metavar(name, value)}", line))
        body = [_COMMANDS[command][1], "", "options:", *_columns(rows)]
    return "\n".join([_usage(command), "", *body]) + "\n"


def _refuse(message, command=None):
    return InputError(f"{message}\n{_usage(command)}")


def _option(token, names, command=None):
    """What ``token`` is among the option ``names``, by argparse's rules:
    (name, inline value or None) for an option, (None, None) for an
    option-like token that names none of them, None for a value."""
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":
        raise _refuse("'--' is not accepted", command)
    head, eq, inline = token.partition("=")
    if token in names or (eq and head in names):
        return head, inline if eq else None
    if token.startswith("--"):
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise _refuse(f"ambiguous option {head}: could be {', '.join(found)}", command)
        if found:
            return found[0], inline if eq else None
    whole, dot, frac = token[1:].partition(".")
    if ((frac if dot else whole).isdecimal() and (not whole or whole.isdecimal())) or " " in token:
        return None  # a negative number, or text with a space, is a value
    return None, None


def _parse(argv):
    """The subcommand and its options {name: value} for ``argv``, or the
    help or version text to print.  Raises InputError for an argument
    list that argparse refused."""
    unknown = []
    for i, token in enumerate(argv):
        opt = _option(token, (*_HELP, "--version"))
        if opt is None:
            command, rest = token, argv[i + 1 :]
            break
        name, inline = opt
        if name is None:
            unknown.append(token)
            continue
        if inline is not None:
            raise _refuse(f"{name} takes no value")
        return _help() if name in _HELP else f"minaff {__version__}\n"
    else:
        raise _refuse("a subcommand is required")
    if command not in _COMMANDS:
        raise _refuse(f"unknown subcommand {command!r}")
    table = {name: (value, default) for name, value, default, _ in _COMMANDS[command][2]}
    names = (*_HELP, *table)
    opts = {}
    i = 0
    while i < len(rest):
        name, raw = _option(rest[i], names, command) or (None, None)
        i += 1
        if name is None:
            unknown.append(rest[i - 1])
            continue
        if name in _HELP:
            if raw is not None:
                raise _refuse(f"{name} takes no value", command)
            return _help(command)
        if raw is None:
            if i == len(rest) or _option(rest[i], names, command) is not None:
                raise _refuse(f"{name} expects a value", command)
            raw, i = rest[i], i + 1
        kind = table[name][0]
        if kind is int:
            try:
                raw = int(raw)
            except ValueError:
                raise _refuse(f"{name} expects an integer, got {raw!r}", command)
        elif kind is not str and raw not in kind:
            raise _refuse(f"{name} must be one of {', '.join(kind)}, got {raw!r}", command)
        opts[name[2:]] = raw
    for name, (_, default) in table.items():
        opts.setdefault(name[2:], default)
    missing = [name for name in table if opts[name[2:]] is _REQUIRED]
    if missing:
        raise _refuse(f"missing required options: {', '.join(missing)}", command)
    if unknown:
        raise _refuse(f"unrecognized arguments: {' '.join(unknown)}", command)
    return command, opts


def run(argv):
    """Parse arguments, execute, print the report; returns the exit code."""
    t0 = time.monotonic()
    try:
        parsed = _parse(argv)
        if isinstance(parsed, str):  # help or version
            text, code = parsed, 0
        else:
            from .cartan import check_rank

            command, opts = parsed
            check_rank(opts["n"])
            text, code = _COMMANDS[command][0](opts, t0)
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
